"""Ternary forms: invariants, substitution action, serialization."""

import json
import random
from fractions import Fraction as F

import pytest
import sympy
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
    unimodular_matrices,
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


def _random_form(rng, degree):
    monos = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return H(degree, {e: F(rng.randint(-9, 9), rng.randint(1, 6))
                      for e in rng.sample(monos, rng.randint(1, len(monos)))})


def _random_rational_matrix(rng):
    while True:
        m = mat3([[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)])
        if mat3_det(m) != 0 and any(x.denominator > 1 for row in m for x in row):
            return m


def _sympy_substitute(f, m):
    """f(M x) expanded by sympy: X_j -> sum_i m[i][j] X_i."""
    xs = sympy.symbols("X0 X1 X2")
    lin = [sum(sympy.Rational(m[i][j].numerator, m[i][j].denominator) * xs[i] for i in range(3))
           for j in range(3)]
    expr = sum(sympy.Rational(q.numerator, q.denominator) * lin[0] ** a * lin[1] ** b * lin[2] ** c
               for (a, b, c), q in f.coeffs.items())
    poly = sympy.Poly(expr, *xs, domain=sympy.QQ)
    return H(f.degree, {tuple(int(e) for e in expo): F(int(c.numerator), int(c.denominator))
                        for expo, c in poly.terms() if c != 0})


class TestSubstitutionDifferential:
    """The integer kernel of substitute against an independent sympy expansion."""

    def test_matches_sympy(self):
        rng = random.Random(2024)
        unimodular = list(unimodular_matrices())[1:]
        for trial in range(36):
            f = _random_form(rng, trial % 6)
            m = rng.choice(unimodular) if trial % 2 else _random_rational_matrix(rng)
            assert f.substitute(m) == _sympy_substitute(f, m), (f, m)

    def test_right_action_on_rational_matrices(self):
        rng = random.Random(7)
        for trial in range(12):
            f = _random_form(rng, trial % 6)
            m, n = _random_rational_matrix(rng), _random_rational_matrix(rng)
            assert f.substitute(mat3_mul(m, n)) == f.substitute(n).substitute(m)

    def test_zero_form_stays_zero(self):
        m = _random_rational_matrix(random.Random(1))
        assert H.zero(3).substitute(m) == H.zero(3)

    def test_singular_rational_matrix_rejected(self):
        m = mat3([[F(1, 2), F(1, 3), 0], [1, F(2, 3), 0], [0, F(5, 7), 1]])
        with pytest.raises(DomainError, match="singular"):
            H(3, {(1, 1, 1): F(1, 2)}).substitute(m)


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
