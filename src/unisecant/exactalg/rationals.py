"""Exact rational scaffolding: parsing, 3x3 matrices, fraction-free linear algebra.

Everything in the package computes over Q, exactly.  Rationals cross the
API as stdlib ``fractions.Fraction``; inside, vectors of them are carried as
integer numerators over one positive denominator (``integer_image``), and
the linear algebra runs on ``int``; ``IntegerImage`` is that storage for
the sparse polynomial types.  This module adds the serialization
convention ("num/den" in lowest terms, plain "num" for integers), small
dense 3x3 matrix helpers for projective coordinate changes, a fraction-free
Bareiss determinant, a fraction-free nullspace solver used by the
contact-system machinery, and Kronecker packing (``pack``/``unpack``):
integer coefficient lists as one ``int``, so that CPython's big-integer
product does the work of a polynomial product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from ..errors import DomainError, InputError

Mat3 = tuple[tuple[Fraction, ...], ...]


def rational_from_string(s: str) -> Fraction:
    """Parse "num/den", "num" or a decimal into a Fraction; no exponent, for
    ``Fraction`` would expand "1e2000000" before any size bound could refuse it."""
    if "e" in s.lower():
        raise InputError(f"not a rational: {s!r} (exponent notation is refused)")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {s!r}") from exc


def rational_to_string(q: Fraction) -> str:
    """Render a Fraction in lowest terms, omitting a trailing "/1"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def mat3(rows) -> Mat3:
    """Build an immutable 3x3 matrix of Fractions from any nested iterable."""
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise DomainError("expected a 3x3 matrix")
    return m


def mat3_identity() -> Mat3:
    return mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def mat3_transpose(a: Mat3) -> Mat3:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def mat3_mul(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat3_vec(a: Mat3, v) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def mat3_det(a: Mat3) -> Fraction:
    """Cofactor expansion of a 3x3 matrix of numbers (``forms.jacobian`` for forms)."""
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def mat3_adjugate(a: Mat3) -> Mat3:
    """The transposed cofactor matrix: a · adj(a) = det(a) · I over any ring."""
    return tuple(tuple(a[(j + 1) % 3][(i + 1) % 3] * a[(j + 2) % 3][(i + 2) % 3]
                       - a[(j + 1) % 3][(i + 2) % 3] * a[(j + 2) % 3][(i + 1) % 3]
                       for j in range(3)) for i in range(3))


def bareiss_det_int(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Every division performed is exact, so the result is the exact integer
    determinant with no intermediate fractions.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_fractions(m) -> Fraction:
    """Exact determinant of a square matrix of rationals: Bareiss on its integer image."""
    n = len(m)
    flat, den = integer_image(x for row in m for x in row)
    return Fraction(bareiss_det_int([flat[i * n:(i + 1) * n] for i in range(n)]), den**n)


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the given row list, over Q.

    Deterministic: Gauss-Jordan with first-nonzero pivoting; free variables
    in increasing column order, each basis vector has a 1 in its free slot
    and -a[i][fc]/a[i][pc] in the slot of pivot pc.  Fraction-free: rows are
    primitive integer rows, eliminated as pv*a[i] - a[i][c]*a[r] and made
    primitive again, so each stays a nonzero multiple of its rational
    Gauss-Jordan counterpart and the ratios are the same.
    """
    a = [primitive_part(integer_image(row)[0]) for row in rows]
    nrows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pv, prow = a[r][c], a[r]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f != 0:
                a[i] = primitive_part([pv * x - f * y for x, y in zip(a[i], prow)])
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-a[i][fc], a[i][pc])
        basis.append(v)
    return basis


def rank(rows, ncols: int) -> int:
    return ncols - len(nullspace(rows, ncols))


def integer_image(values) -> tuple[list[int], int]:
    """Rationals as (integer numerators, one positive denominator), in lowest terms.

    The denominator is the lcm of the reduced denominators, so no prime
    divides it and every numerator.
    """
    qs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


class IntegerImage:
    """Sparse rational coefficients held as integer numerators over one denominator.

    ``num`` maps keys (exponent tuples) to nonzero ints and ``den`` > 0
    shares no prime with all of them, so equal values have equal
    (num, den); both read-only.  The base of the sparse polynomial types.
    """

    __slots__ = ("num", "den")

    def _set(self, num: dict, den: int) -> None:
        """Store num / den in lowest terms (any nonzero den)."""
        g = math.gcd(den, *num.values()) if den > 0 else -math.gcd(den, *num.values())
        object.__setattr__(self, "num", {e: v // g for e, v in num.items() if v})
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self):
        """Read-only {key: Fraction} view of the nonzero coefficients."""
        return MappingProxyType({e: Fraction(v, self.den) for e, v in self.num.items()})

    def coefficient(self, key) -> Fraction:
        return Fraction(self.num.get(key, 0), self.den)

    def is_zero(self) -> bool:
        return not self.num


def primitive_part(ints: list[int]) -> list[int]:
    """The integer list divided by the gcd of its entries (as it is when that is 0 or 1)."""
    g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def pack(coeffs, k: int) -> int:
    """The int sum coeffs[i] 2^(k i): a coefficient list evaluated at x = 2^k."""
    v = 0
    for c in reversed(coeffs):
        v = (v << k) + c
    return v


def unpack(v: int, k: int) -> list[int]:
    """The balanced base-2^k digits of v, lowest first, without trailing zeros.

    v = sum d_i 2^(k i) with -2^(k-1) <= d_i < 2^(k-1).  This inverts
    ``pack`` (Kronecker substitution: von zur Gathen & Gerhard, *Modern
    Computer Algebra*, 8.4) whenever every coefficient packed lies in that
    range; a caller takes k from a bound on its coefficients.  k >= 2: the
    digits -1 and 0 of k = 1 reach no positive int.
    """
    if k < 2:
        raise DomainError("balanced digits need k >= 2")
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    return out
