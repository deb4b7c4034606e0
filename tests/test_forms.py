"""Ternary forms: invariants, substitution action, serialization."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unisecant.errors import DomainError
from unisecant.exactalg import (
    HomogeneousForm,
    ProjectivePoint,
    euler_combination,
    mat3,
    mat3_det,
    mat3_identity,
    mat3_mul,
)

H = HomogeneousForm


def form_strategy(max_degree=4):
    def build(degree, entries):
        coeffs = {}
        for (a, b), c in entries:
            a = a % (degree + 1)
            b = b % (degree + 1 - a)
            coeffs[(a, b, degree - a - b)] = c
        return H(degree, coeffs)
    return st.integers(1, max_degree).flatmap(
        lambda d: st.builds(
            build, st.just(d),
            st.lists(st.tuples(st.tuples(st.integers(0, d), st.integers(0, d)),
                               st.builds(F, st.integers(-6, 6), st.integers(1, 3))),
                     min_size=1, max_size=8)))


def matrix_strategy():
    return st.lists(st.integers(-3, 3), min_size=9, max_size=9).map(
        lambda v: [[v[0], v[1], v[2]], [v[3], v[4], v[5]], [v[6], v[7], v[8]]]
    ).filter(lambda m: mat3_det(mat3(m)) != 0).map(mat3)


class TestInvariants:
    def test_exponents_must_sum_to_degree(self):
        with pytest.raises(DomainError):
            H(3, {(1, 1, 0): 1})

    def test_zero_coefficients_dropped(self):
        f = H(2, {(2, 0, 0): 0, (0, 2, 0): 1})
        assert (2, 0, 0) not in f.coeffs

    def test_equality_after_canonicalization(self):
        a = H(2, {(1, 1, 0): F(2, 4)})
        b = H(2, {(1, 1, 0): F(1, 2)})
        assert a == b

    def test_canonical_order_descending(self):
        f = H(2, {(0, 0, 2): 1, (2, 0, 0): 1, (1, 1, 0): 1})
        assert [e for e, _ in f.canonical_items()] == [(2, 0, 0), (1, 1, 0), (0, 0, 2)]


class TestPartials:
    def test_cube(self):
        assert H.monomial((3, 0, 0)).partial_derivative(0) == H(2, {(2, 0, 0): 3})

    def test_missing_variable(self):
        assert H(2, {(0, 1, 1): 1}).partial_derivative(0).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(form_strategy())
    def test_euler_relation(self, f):
        assert euler_combination(f) == f.scale(f.degree)


class TestSubstitution:
    def test_identity_fixed_point(self):
        f = H.monomial((3, 0, 0))
        assert f.substitute(mat3_identity()) == f

    def test_identity_returns_same_form(self):
        f = H(3, {(3, 0, 0): 1, (0, 1, 2): F(-2, 3)})
        assert f.substitute(mat3_identity()) is f
        assert f.substitute([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) is f

    def test_swap_symmetric_form(self):
        f = H(2, {(1, 1, 0): 1})
        swap = mat3([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert f.substitute(swap) == f

    def test_diagonal_scaling(self):
        f = H.monomial((2, 0, 0))
        m = mat3([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert f.substitute(m) == H(2, {(2, 0, 0): 4})

    def test_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            H.monomial((1, 0, 0)).substitute(mat3([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))

    @settings(max_examples=30, deadline=None)
    @given(form_strategy(3), matrix_strategy(), matrix_strategy())
    def test_composition_law(self, f, m, n):
        assert f.substitute(mat3_mul(m, n)) == f.substitute(n).substitute(m)

    def test_degree_preserved(self):
        f = H(3, {(1, 1, 1): F(5, 7)})
        m = mat3([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
        assert f.substitute(m).degree == 3


class TestSerialization:
    def test_roundtrip(self):
        f = H(3, {(3, 0, 0): F(1, 2), (0, 2, 1): -3, (1, 1, 1): F(-5, 7)})
        blob = json.dumps(f.to_json_dict())
        assert H.from_json_dict(json.loads(blob)) == f

    def test_integer_rendering(self):
        f = H(1, {(1, 0, 0): 2})
        assert f.to_json_dict()["coeffs"] == [[1, 0, 0, "2"]]

    def test_fraction_rendering(self):
        f = H(1, {(0, 1, 0): F(1, 3)})
        assert f.to_json_dict()["coeffs"] == [[0, 1, 0, "1/3"]]


class TestProjectivePoint:
    def test_scaling_equivalence(self):
        assert ProjectivePoint(2, 4, 6) == ProjectivePoint(1, 2, 3)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            ProjectivePoint(0, 0, 0)

    def test_hash_consistency(self):
        assert len({ProjectivePoint(1, 2, 3), ProjectivePoint(F(1, 2), 1, F(3, 2))}) == 1
