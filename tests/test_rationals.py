"""Rational scaffolding: the fraction-free nullspace against sympy's rref, the 3x3 adjugate,
Kronecker packing."""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from unisecant.errors import DomainError
from unisecant.exactalg import integer_image, mat3, mat3_adjugate, nullspace, pack, rank, unpack

entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def matrices(draw):
    """Rows over Q, with zero rows, repeated combinations and more rows than columns."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=ncols + 3))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(entry)
            rows.append([x + c * y for x, y in zip(a, b)])
        rows.append([F(0)] * ncols)
    return draw(st.permutations(rows)), ncols


def rref_basis(rows, ncols):
    """The nullspace basis read off sympy's reduced row echelon form.

    Free columns in increasing order, a 1 in the free slot and -R[i][fc] in
    the slot of the i-th pivot column.
    """
    r, pivots = sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                                for row in rows for x in row]).rref()
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -F(int(r[i, fc].p), int(r[i, fc].q))
        basis.append(v)
    return basis


class TestNullspace:
    @given(matrices())
    def test_matches_sympy_rref(self, case):
        rows, ncols = case
        basis = nullspace(rows, ncols)
        assert basis == rref_basis(rows, ncols)
        assert rank(rows, ncols) == ncols - len(basis)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)

    def test_integer_rows_give_fractions(self):
        assert nullspace([[2, 3]], 2) == [[F(-3, 2), F(1)]]

    def test_no_rows(self):
        assert nullspace([], 2) == [[F(1), F(0)], [F(0), F(1)]]


class TestIntegerImage:
    @given(st.lists(entry))
    def test_lowest_terms(self, values):
        ints, den = integer_image(values)
        assert den > 0 and [F(n, den) for n in ints] == values
        assert sympy.gcd_list([den, *ints]) == 1


class TestAdjugate:
    @given(st.lists(entry, min_size=9, max_size=9))
    def test_matches_sympy(self, xs):
        # Singular matrices included: the adjugate needs no inverse.
        adj = sympy.Matrix(3, 3, [sympy.Rational(x.numerator, x.denominator)
                                  for x in xs]).adjugate()
        assert mat3_adjugate(mat3([xs[0:3], xs[3:6], xs[6:9]])) == tuple(
            tuple(F(int(adj[i, j].p), int(adj[i, j].q)) for j in range(3)) for i in range(3))


class TestKroneckerPacking:
    @given(st.integers(2, 70).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(-2**(k - 1), 2**(k - 1) - 1), max_size=12))))
    def test_unpack_inverts_pack_inside_the_balanced_range(self, case):
        k, coeffs = case
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        assert unpack(pack(coeffs, k), k) == coeffs

    @given(st.integers(-2**200, 2**200), st.integers(2, 40))
    def test_digits_are_balanced_and_sum_back(self, v, k):
        digits = unpack(v, k)
        assert all(-2**(k - 1) <= d < 2**(k - 1) for d in digits)
        assert not digits or digits[-1] != 0
        assert sum(d << (k * i) for i, d in enumerate(digits)) == v

    def test_a_digit_outside_the_range_is_not_recovered(self):
        # 2^(k-1) is one past the largest balanced digit: it reads back as a carry.
        assert unpack(pack([4, 1], 3), 3) == [-4, 2]
        assert unpack(pack([3, 1], 3), 3) == [3, 1]

    def test_one_bit_digits_rejected(self):
        with pytest.raises(DomainError, match="k >= 2"):
            unpack(1, 1)
