"""The recursion for counts of rational plane curves through general points.

N_k is the number of degree-k rational plane curves through 3k-1 general
points.  With N_1 = 1 the higher values satisfy

    N_k = 1/2 * sum_{k1+k2=k, k1,k2>=1}
          k1*k2*(3k*k1*k2 - 2k^2 + 6*k1*k2) * (3k-4)!
          / ((3*k1-1)! * (3*k2-1)!) * N_{k1} * N_{k2},

which yields 1, 1, 12, 620, 87304, ...  The summand mixes a global 1/2 with
factorial ratios, so each term is accumulated as an exact rational and the
final value is checked to be an integer; a non-integral result can only
mean the formula was transcribed wrong and raises immediately.

Arguments are bounded by ``MAX_K``: the cost grows roughly tenfold with
each doubling of k, so a larger request is refused rather than left to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UnisecantError

#: Anchor values; any recomputation disagreeing with these is rejected.
KNOWN_VALUES = {1: 1, 2: 1, 3: 12, 4: 620}

#: Largest k accepted by compute_nk and nk_table.
MAX_K = 200


@dataclass
class NkTable:
    """Contiguous table of (k, N_k) values from k = 1 up to max_k."""

    entries: list[tuple[int, int]]

    @property
    def max_k(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def value(self, k: int) -> int:
        if not 1 <= k <= self.max_k:
            raise DomainError(f"k={k} outside table range 1..{self.max_k}")
        return self.entries[k - 1][1]


def compute_nk(k: int) -> int:
    """N_k as an exact integer."""
    return nk_table(k).value(k)


def nk_table(max_k: int) -> NkTable:
    """Table of N_1..N_max_k.

    The recursion is evaluated with exact factorials and rationals; the 1/2
    and the factorial divisions must cancel to an integer.
    """
    if not isinstance(max_k, int) or not 1 <= max_k <= MAX_K:
        raise DomainError(f"k must be an integer in 1..{MAX_K}, got {max_k!r}")
    table = {1: 1}
    for n in range(2, max_k + 1):
        total = Fraction(0)
        for k1 in range(1, n):
            k2 = n - k1
            weight = Fraction(
                k1 * k2 * (3 * n * k1 * k2 - 2 * n * n + 6 * k1 * k2)
                * math.factorial(3 * n - 4),
                math.factorial(3 * k1 - 1) * math.factorial(3 * k2 - 1),
            )
            total += weight * table[k1] * table[k2]
        total /= 2
        if total.denominator != 1:
            raise UnisecantError(
                f"recursion produced a non-integer for k={n}: {total} "
                "(formula transcription bug)")
        value = int(total)
        if n in KNOWN_VALUES and value != KNOWN_VALUES[n]:
            raise UnisecantError(
                f"recursion value N_{n} = {value} contradicts the known {KNOWN_VALUES[n]}")
        table[n] = value
    return NkTable(list(table.items()))
