"""Maximal-contact divisor classes on a smooth cubic, in the lattice model.

Write the cubic as C/Lambda via the Abel map.  A point P carries the
divisor (3k)P of a degree-k curve section exactly when its image lies in a
fixed translate of the refined lattice (1/3k)Lambda, so the candidate
classes form the (3k)^2 grid

    offset + (n/3k) lambda_1 + (m/3k) lambda_2,   0 <= n, m < 3k,

of which there are 9k^2.  The common offset (a third of the hyperplane
class) cancels whenever two levels are compared, so levels depend only on
(n, m, k): the class already occurs at level k1 iff k divides n*k1 and
m*k1, giving minimal level k / gcd(n, m, k).

"Primitive" classes (minimal level exactly k) are the ones supporting a
degree-k unisecant curve that is not a lower-degree curve in disguise;
their count has the closed form 9k^2 * prod_{p | k} (1 - p^-2) by Moebius
inversion, and every closed form here is cross-checkable against brute
force over the grid.

The genus bounds and the self-intersection certificate, which turn
unisecant-finiteness claims into checkable inequalities, are plain
arithmetic too and live here, so ``unisec bounds`` starts without sympy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError

ENUMERATION_GUARD = 1000


@dataclass(frozen=True)
class TorsionClass:
    """A contact class: residues (n, m) modulo 3k at level k."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("level k must be >= 1")
        if not (0 <= self.n < 3 * self.k and 0 <= self.m < 3 * self.k):
            raise DomainError("residues must lie in [0, 3k)")


def contact_count(k: int) -> int:
    """Number of divisor classes with one point of multiplicity 3k: 9k^2."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    return 9 * k * k


def contact_count_bruteforce(k: int) -> int:
    """The same count by enumerating the (3k)^2 lattice grid."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return sum(1 for _ in _grid(k))


def _grid(k: int):
    for n in range(3 * k):
        for m in range(3 * k):
            yield n, m


def occurs_at_level(c: TorsionClass, k1: int) -> bool:
    """Does the class lie in the coarser level-k1 grid?

    Membership of n/(3k) in (1/(3k1))Z modulo 1 is the divisibility
    k | n*k1; same for m.
    """
    if k1 < 1:
        raise DomainError("level must be >= 1")
    return (c.n * k1) % c.k == 0 and (c.m * k1) % c.k == 0


def minimal_level(c: TorsionClass) -> int:
    """Smallest k1 >= 1 at which the class occurs: k / gcd(n, m, k)."""
    return c.k // gcd(gcd(c.n, c.m), c.k)


def minimal_level_bruteforce(c: TorsionClass) -> int:
    for k1 in range(1, c.k + 1):
        if occurs_at_level(c, k1):
            return k1
    raise AssertionError("class must occur at its own level")


def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def primitive_contact_count(k: int) -> int:
    """Classes of minimal level exactly k: sum_{d|k} mu(d) * 9 (k/d)^2."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    return sum(_moebius(d) * 9 * (k // d) ** 2 for d in _divisors(k))


def primitive_contact_count_bruteforce(k: int) -> int:
    """Brute force: classes (n, m) in [0,3k)^2 with gcd(n, m, k) = 1."""
    if k < 1:
        raise DomainError("k must be >= 1")
    return sum(1 for n, m in _grid(k) if gcd(gcd(n, m), k) == 1)


def enumerate_contact_classes(k: int) -> list[tuple[TorsionClass, int]]:
    """All (3k)^2 classes with their minimal levels."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if k > ENUMERATION_GUARD:
        raise DomainError(f"k={k} exceeds the enumeration guard {ENUMERATION_GUARD}")
    out = []
    for n, m in _grid(k):
        c = TorsionClass(n, m, k)
        out.append((c, minimal_level(c)))
    return out


def level_census(k: int) -> dict[int, int]:
    """Count of classes per minimal level; values sum to 9k^2."""
    census: dict[int, int] = {}
    for _, lvl in enumerate_contact_classes(k):
        census[lvl] = census.get(lvl, 0) + 1
    return dict(sorted(census.items()))


# ---------------------------------------------------------------------------
# Bounds and certificates
# ---------------------------------------------------------------------------

def genus_bound(deg_c: int, deg_a: int) -> Fraction:
    """Genus threshold (deg_c - 3) deg_a / 2 + 1 for unisecant finiteness
    in the plane (canonical class -3 times a line).

    Curves of genus strictly below the bound meeting a smooth degree-deg_c
    curve at a single moving point form a finite set; for deg_c = 3 the
    bound is 1, i.e. exactly the rational curves qualify.
    """
    if deg_c < 1 or deg_a < 1:
        raise DomainError("degrees must be >= 1")
    return Fraction(deg_c - 3) * deg_a / 2 + 1


def ambient_genus_bound(deg_a: int) -> Fraction:
    """The coarser plane bound -3 deg_a / 2 + 1 (no auxiliary curve)."""
    if deg_a < 1:
        raise DomainError("degree must be >= 1")
    return 1 - Fraction(3 * deg_a, 2)


def finiteness_certificate(a_sq: int, sum_mu: int, a_dot_c: int) -> bool:
    """Evaluate A^2 >= sum mu(mu-1) + A.C on concrete curve data.

    A False verdict certifies that no equisingular family with these
    invariants can meet the fixed curve at a single moving point — the
    inequality every such family must satisfy fails.
    """
    return a_sq >= sum_mu + a_dot_c
