"""Ternary forms: invariants, substitution action, serialization."""

import json
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from unisecant.errors import DomainError
from unisecant.exactalg import (
    HomogeneousForm,
    ProjectivePoint,
    euler_combination,
    hessian,
    jacobian,
    mat3,
    mat3_det,
    mat3_identity,
    mat3_mul,
    unimodular_matrices,
)

H = HomogeneousForm


def form_strategy(max_degree=4, min_degree=1):
    def build(degree, entries):
        coeffs = {}
        for (a, b), c in entries:
            a = a % (degree + 1)
            b = b % (degree + 1 - a)
            coeffs[(a, b, degree - a - b)] = c
        return H(degree, coeffs)
    return st.integers(min_degree, max_degree).flatmap(
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

    @given(form_strategy())
    def test_euler_relation(self, f):
        assert euler_combination(f) == f.scale(f.degree)

    @given(form_strategy(max_degree=6).filter(lambda f: f.degree >= 2))
    def test_hessian_is_the_determinant_of_second_partials(self, f):
        second = [[f.partial_derivative(i).partial_derivative(j) for j in range(3)]
                  for i in range(3)]
        h = hessian(f)
        assert h == mat3_det(second) and h.degree == 3 * (f.degree - 2)

    @given(form_strategy(5, min_degree=2))
    def test_jacobian_of_the_gradient_is_the_hessian(self, f):
        assert jacobian(*f.gradient()) == hessian(f)

    @given(st.lists(form_strategy(2, min_degree=2), min_size=3, max_size=3))
    def test_jacobian_of_quadrics_is_the_determinant_of_their_gradients(self, qs):
        # The oracle is mat3_det's cofactor expansion run on forms.
        j = jacobian(*qs)
        assert j == mat3_det([q.gradient() for q in qs]) and j.degree == 3

    def test_hessian_of_a_cone_vanishes(self):
        # A form in two variables is a cone: its Hessian is zero in degree 3(d - 2).
        f = H(4, {(4, 0, 0): F(1, 3), (1, 3, 0): -2})
        assert hessian(f) == H.zero(6) == mat3_det(
            [[f.partial_derivative(i).partial_derivative(j) for j in range(3)] for i in range(3)])


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

    @given(form_strategy(3), matrix_strategy(), matrix_strategy())
    def test_composition_law(self, f, m, n):
        assert f.substitute(mat3_mul(m, n)) == f.substitute(n).substitute(m)

    @pytest.mark.parametrize("m", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]],
                                   [[1, 0, 0], [0, 1], [0, 0, 1]], [[1, 0, 0, 0]] * 4])
    def test_non_3x3_matrix_rejected(self, m):
        with pytest.raises(DomainError, match="3x3"):
            H.monomial((1, 0, 0)).substitute(m)

    def test_degree_preserved(self):
        f = H(3, {(1, 1, 1): F(5, 7)})
        m = mat3([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
        assert f.substitute(m).degree == 3


def _random_form(rng, degree):
    monos = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    return H(degree, {e: F(rng.randint(-9, 9), rng.randint(1, 6))
                      for e in rng.sample(monos, rng.randint(1, len(monos)))})


def _random_rational_matrix(rng, zeros=0):
    """An invertible matrix with a non-integer entry and at least ``zeros`` zero entries."""
    while True:
        entries = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(9)]
        for k in rng.sample(range(9), zeros):
            entries[k] = F(0)
        m = mat3([entries[0:3], entries[3:6], entries[6:9]])
        if mat3_det(m) != 0 and any(x.denominator > 1 for row in m for x in row):
            return m


def _sympy_substitute(f, m):
    """f(M x) expanded by sympy: X_j -> sum_i m[i][j] X_i."""
    xs = sympy.symbols("X0 X1 X2")
    lin = [sympy.Poly(sum(sympy.Rational(m[i][j].numerator, m[i][j].denominator) * xs[i]
                          for i in range(3)), *xs, domain=sympy.QQ) for j in range(3)]
    poly = sympy.Poly(0, *xs, domain=sympy.QQ)
    for (a, b, c), q in f.coeffs.items():
        poly += sympy.Rational(q.numerator, q.denominator) * lin[0] ** a * lin[1] ** b * lin[2] ** c
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
        # Degrees up to 12, the curve-file bound, and matrices with zero entries.
        for degree in range(6, 13):
            f = _random_form(rng, degree)
            for m in (rng.choice(unimodular), _random_rational_matrix(rng, zeros=degree % 4 + 1)):
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


def _expand(f, m):
    """f(M x) monomial by monomial, the oracle for ``substitute``.

    Each term q X0^a X1^b X2^c is multiplied out as q times a product of
    d linear forms L_j = sum_i m[i][j] X_i, one factor at a time, on
    ``Fraction`` dicts; no packing and no shared powers.
    """
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    out: dict = {}
    for expo, q in f.coeffs.items():
        term = {(0, 0, 0): q}
        for j, e in enumerate(expo):
            for _ in range(e):
                nxt: dict = {}
                for key, x in term.items():
                    for i in range(3):
                        if m[i][j]:
                            k = tuple(u + v for u, v in zip(key, unit[i]))
                            nxt[k] = nxt.get(k, 0) + x * m[i][j]
                term = nxt
        for key, x in term.items():
            out[key] = out.get(key, 0) + x
    return H(f.degree, {key: x for key, x in out.items() if x})


@st.composite
def _kronecker_cases(draw):
    """A form of degree 0-9 (one term, sparse or dense; numerators up to 2^64) and
    an invertible matrix: general with rational entries, or a scaled signed
    permutation, under which a one-term form meets the coefficient bound."""
    d = draw(st.integers(0, 9))
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    size = draw(st.sampled_from([1, 2, 3, len(monos)]))
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=size, unique=True))
    coeff = st.one_of(st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
                      st.builds(F, st.integers(-2**64, 2**64), st.integers(1, 2**64)))
    f = H(d, {e: draw(coeff) for e in chosen})
    if draw(st.booleans()):
        entries = draw(st.lists(st.builds(F, st.integers(-7, 7), st.integers(1, 6)),
                                min_size=9, max_size=9))
        m = mat3([entries[0:3], entries[3:6], entries[6:9]])
        assume(mat3_det(m) != 0)
    else:
        perm = draw(st.permutations(range(3)))
        scale = draw(st.builds(F, st.integers(1, 2**20), st.integers(1, 4)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
        m = mat3([[scale * signs[i] if j == perm[i] else 0 for j in range(3)]
                  for i in range(3)])
    return f, m


class TestKroneckerSubstitution:
    """``substitute`` packs each image of X_j into one int; checked against ``_expand``."""

    @given(_kronecker_cases())
    def test_matches_the_monomial_expansion(self, case):
        f, m = case
        assert f.substitute(m) == _expand(f, m)

    def test_bound_attained_by_a_monomial(self):
        # One term and a scaled permutation: the one coefficient of the
        # result equals the bound sum |num| * max ||L_j||_1^d exactly.
        f = H(3, {(1, 1, 1): 5})
        m = mat3([[0, 3, 0], [0, 0, -3], [3, 0, 0]])
        assert f.substitute(m) == H(3, {(1, 1, 1): -135})
        assert f.substitute(m) == _expand(f, m)

    def test_sparse_high_degree_form(self):
        f = H(12, {(12, 0, 0): 1, (0, 0, 12): F(-1, 7)})
        m = mat3([[1, 2, 0], [0, 1, -1], [F(1, 3), 0, 1]])
        assert f.substitute(m) == _expand(f, m) == _sympy_substitute(f, m)


XS = sympy.symbols("X0 X1 X2")


def _q(c) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy_form(f: H) -> sympy.Poly:
    """The same form as a sympy Poly over QQ, built from the Fraction view."""
    return sympy.Poly.from_dict({e: _q(c) for e, c in f.coeffs.items()} or {(0, 0, 0): 0},
                                *XS, domain=sympy.QQ)


def from_sympy_form(poly: sympy.Poly, degree: int) -> H:
    return H(degree, {tuple(int(e) for e in expo): F(int(c.p), int(c.q))
                      for expo, c in poly.terms() if c != 0})


def monomials(degree):
    return [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]


def forms_of(degree, rationals):
    return st.dictionaries(st.sampled_from(monomials(degree)), rationals).map(
        lambda cs: H(degree, cs))


rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
form_pair = st.integers(0, 4).flatmap(
    lambda d: st.tuples(forms_of(d, rationals), forms_of(d, rationals)))
any_form = st.integers(0, 4).flatmap(lambda d: forms_of(d, rationals))


def assert_canonical(f: H) -> None:
    """Integer numerators over one positive denominator, in lowest terms."""
    assert all(type(v) is int and v != 0 for v in f.num.values()) and type(f.den) is int
    assert f.den > 0 and math.gcd(f.den, *f.num.values()) == 1
    same = H(f.degree, f.coeffs)
    assert same == f and hash(same) == hash(f)
    assert hash(f) == hash((f.degree, tuple(sorted(
        f.coeffs.items(), key=lambda kv: (kv[0][0], kv[0][1]), reverse=True))))


class TestIntegerRepresentation:
    """The integer-numerator representation against sympy Poly over QQ."""

    @given(form_pair)
    def test_ring_operations_match_sympy(self, pair):
        f, g = pair
        for ours, theirs, degree in (
                (f + g, to_sympy_form(f) + to_sympy_form(g), f.degree),
                (f - g, to_sympy_form(f) - to_sympy_form(g), f.degree),
                (-f, -to_sympy_form(f), f.degree),
                (f * g, to_sympy_form(f) * to_sympy_form(g), 2 * f.degree)):
            assert_canonical(ours)
            assert ours == from_sympy_form(theirs, degree)

    @given(any_form, rationals, st.tuples(rationals, rationals, rationals))
    def test_scale_partials_evaluate_match_sympy(self, f, c, point):
        ours = f.scale(c)
        assert_canonical(ours)
        assert ours == from_sympy_form(to_sympy_form(f) * _q(c), f.degree)
        for i in range(3):
            d = f.partial_derivative(i)
            assert_canonical(d)
            assert d == from_sympy_form(to_sympy_form(f).diff(XS[i]), max(f.degree - 1, 0))
        value = to_sympy_form(f).eval(dict(zip(XS, map(_q, point))))
        assert f.evaluate(point) == F(int(value.p), int(value.q))

    @given(st.integers(0, 4).flatmap(lambda d: forms_of(d, rationals)),
           st.lists(rationals, min_size=9, max_size=9).map(
               lambda v: mat3([v[0:3], v[3:6], v[6:9]])).filter(lambda m: mat3_det(m) != 0))
    def test_substitute_matches_sympy(self, f, m):
        ours = f.substitute(m)
        assert_canonical(ours)
        assert ours == _sympy_substitute(f, m)

    @given(any_form, st.lists(st.integers(-3, 3), min_size=9, max_size=9).map(
        lambda v: [v[0:3], v[3:6], v[6:9]]).filter(lambda m: mat3_det(m) != 0))
    def test_int_matrix_equals_fraction_matrix(self, f, m):
        assert f.substitute(m) == f.substitute(mat3(m))

    @given(any_form, rationals.filter(lambda c: c != 0))
    def test_equal_values_have_equal_images(self, f, c):
        g = H(f.degree, {e: q * c for e, q in f.coeffs.items()}).scale(1 / c)
        assert g == f and hash(g) == hash(f) and (g.num, g.den) == (f.num, f.den)
        assert repr(g) == repr(f) and g.to_json_dict() == f.to_json_dict()

    def test_coefficient_view_is_read_only(self):
        f = H(1, {(1, 0, 0): F(1, 2)})
        with pytest.raises(TypeError):
            f.coeffs[(0, 1, 0)] = 1
        assert dict(f.coeffs) == {(1, 0, 0): F(1, 2)} and f.coefficient((0, 1, 0)) == 0

    def test_primitive(self):
        f = H(2, {(2, 0, 0): F(-2, 3), (0, 1, 1): F(4, 9)})
        assert f.primitive() == H(2, {(2, 0, 0): -3, (0, 1, 1): 2})
        assert H.zero(2).primitive() == H.zero(2)


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
