"""Rational plane curve counts: anchors, integrality, symmetry, bounds."""

import pytest
import sympy

from unisecant.errors import DomainError
from unisecant.kontsevich import MAX_K, compute_nk, nk_table


def nk_oracle(kmax: int) -> dict[int, int]:
    """Independent re-evaluation: symmetric-half summation in sympy.Rational.

    Pairs (k1, k2) and (k2, k1) are combined, so agreement with the full
    sum also exercises the k1 <-> k2 symmetry of the summand.
    """
    table = {1: sympy.Integer(1)}
    for k in range(2, kmax + 1):
        total = sympy.Rational(0)
        for k1 in range(1, k // 2 + 1):
            k2 = k - k1
            term = (sympy.Rational(k1 * k2 * (3 * k * k1 * k2 - 2 * k * k + 6 * k1 * k2))
                    * sympy.factorial(3 * k - 4)
                    / (sympy.factorial(3 * k1 - 1) * sympy.factorial(3 * k2 - 1))
                    * table[k1] * table[k2])
            total += term if 2 * k1 == k else 2 * term
        value = total / 2
        assert value.is_Integer
        table[k] = value
    return {k: int(v) for k, v in table.items()}


class TestValues:
    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 1), (3, 12), (4, 620)])
    def test_anchors(self, k, expected):
        assert compute_nk(k) == expected

    def test_k5_frozen_regression(self):
        # Derived once by the independent summation oracle below.
        assert compute_nk(5) == 87304

    def test_oracle_agreement_through_8(self):
        oracle = nk_oracle(8)
        for k in range(1, 9):
            assert compute_nk(k) == oracle[k]

    def test_integrality_through_12(self):
        for k in range(1, 13):
            assert compute_nk(k) > 0

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            compute_nk(0)


class TestTable:
    def test_small_table(self):
        assert nk_table(2).entries == [(1, 1), (2, 1)]

    def test_table_ends_at_620(self):
        assert nk_table(4).entries[-1] == (4, 620)

    def test_above_bound_rejected(self):
        with pytest.raises(DomainError):
            nk_table(MAX_K + 1)
        with pytest.raises(DomainError):
            compute_nk(MAX_K + 1)
