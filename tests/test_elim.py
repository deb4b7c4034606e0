"""Elimination layer: Macaulay resultant, smoothness, intersections,
singular-locus search."""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from unisecant.errors import CommonComponentError, UnisecantError, UnsupportedFieldError
from unisecant.exactalg import elim
from unisecant.exactalg import (
    BivariatePoly,
    HomogeneousForm,
    ProjectivePoint,
    UnivariatePoly,
    is_reduced_form,
    is_irreducible_form,
    is_smooth_form,
    macaulay_resultant_quadrics,
    plane_intersection,
    rational_singular_points,
    resultant_y,
    ternary_discriminant,
)
from unisecant.cubic import weierstrass_normal_form

H = HomogeneousForm

rational = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
# Leading y-coefficients that vanish at the first interpolation nodes
# 0, 1, -1, so resultant_y has to skip them.
leads = st.sampled_from([{0: 1}, {1: 1}, {0: -1, 1: 1}, {1: -1, 3: 1}, {0: F(1, 2), 2: F(-1, 2)}])


@st.composite
def bivariate_with_lead(draw):
    dy = draw(st.integers(1, 3))
    lead = draw(leads)
    scale = draw(rational.filter(lambda c: c != 0))
    coeffs = {(i, dy): scale * c for i, c in lead.items()}
    for j in range(dy):
        for i in range(draw(st.integers(0, 3))):
            coeffs[(i, j)] = draw(rational)
    return BivariatePoly(coeffs)


def to_sympy_expr(f: BivariatePoly, x, y):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
               for (i, j), c in f.coeffs.items())


class TestMacaulay:
    def test_transverse_quadrics_nonzero(self):
        q0 = H(2, {(2, 0, 0): 1, (0, 2, 0): -1})
        q1 = H(2, {(0, 2, 0): 1, (0, 0, 2): -1})
        q2 = H(2, {(2, 0, 0): 1, (0, 0, 2): 1})
        assert macaulay_resultant_quadrics(q0, q1, q2) != 0

    def test_common_zero_vanishes(self):
        # All three vanish at (1 : 1 : 1).
        q0 = H(2, {(2, 0, 0): 1, (0, 2, 0): -1})
        q1 = H(2, {(0, 2, 0): 1, (0, 0, 2): -1})
        q2 = H(2, {(2, 0, 0): 1, (0, 0, 2): -2, (1, 0, 1): 1})
        assert macaulay_resultant_quadrics(q0, q1, q2) == 0

    def test_weierstrass_family_proportional_to_invariant(self):
        # The cubic discriminant restricted to y^2 = 4x^3 + ax + b is a
        # constant multiple of a^3 + 27 b^2 (first power: simple roots
        # along generic pencils).
        ratios = set()
        for a, b in [(1, 1), (2, 3), (-3, 2), (5, -1), (0, 1), (1, 0)]:
            d = ternary_discriminant(weierstrass_normal_form(a, b))
            ratios.add(d / (F(a) ** 3 + 27 * F(b) ** 2))
        assert len(ratios) == 1

    def test_retry_budget_is_bounded(self, fermat, monkeypatch):
        calls = []

        def always_degenerate(*quadrics):
            calls.append(quadrics)
            raise elim.MacaulayDegenerate("forced")

        monkeypatch.setattr(elim, "macaulay_resultant_quadrics", always_degenerate)
        with pytest.raises(UnisecantError, match="no usable coordinates"):
            ternary_discriminant(fermat)
        assert len(calls) == 64

    def test_smoothness_calls(self, fermat, nodal_cubic, cuspidal_cubic):
        assert is_smooth_form(fermat)
        assert not is_smooth_form(nodal_cubic)
        assert not is_smooth_form(cuspidal_cubic)


class TestBivariateResultant:
    def test_matches_univariate_elimination(self):
        # res_y(y - x^2, y - 2x) = (2x - x^2) up to sign: roots where the
        # parabola meets the line.
        f = BivariatePoly({(0, 1): F(1), (2, 0): F(-1)})
        g = BivariatePoly({(0, 1): F(1), (1, 0): F(-2)})
        r = resultant_y(f, g)
        assert r.monic() == UnivariatePoly((0, -2, 1)).monic()

    @settings(max_examples=50, deadline=None)
    @given(bivariate_with_lead(), bivariate_with_lead())
    def test_matches_sympy(self, f, g):
        # sympy.resultant keeps the Sylvester sign only when its first
        # argument has the larger degree; res(f, g) = (-1)^(mn) res(g, f).
        x, y = sympy.symbols("x y")
        fs, gs = to_sympy_expr(f, x, y), to_sympy_expr(g, x, y)
        m, n = f.degree_y(), g.degree_y()
        if m >= n:
            res = sympy.resultant(fs, gs, y)
        else:
            res = (-1) ** (m * n) * sympy.resultant(gs, fs, y)
        expected = sympy.Poly(res, x, domain=sympy.QQ)
        coeffs = [F(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
        assert resultant_y(f, g) == UnivariatePoly(coeffs)


class TestPlaneIntersection:
    def test_bezout_degree(self, fermat):
        line = H(1, {(0, 1, 0): 1, (0, 0, 1): 1})
        data = plane_intersection(fermat, line)
        assert data.eliminant.degree == 3

    def test_common_component_detected(self):
        f = H(2, {(1, 1, 0): 1})          # X0 X1
        g = H(2, {(1, 0, 1): 1})          # X0 X2
        with pytest.raises(CommonComponentError):
            plane_intersection(f, g)

    def test_rational_points_found(self, fermat):
        hess = H(3, {(1, 1, 1): 216})
        data = plane_intersection(fermat, hess, want_squarefree_eliminant=True)
        assert data.eliminant_squarefree
        expected = {ProjectivePoint(0, 1, -1), ProjectivePoint(1, 0, -1),
                    ProjectivePoint(1, -1, 0)}
        assert expected.issubset(set(data.points))
        assert data.irrational_mass == 9 - sum(
            fb.multiplicity for fb in data.fibers)


class TestSingularLocus:
    def test_smooth_curve_empty(self, fermat):
        assert rational_singular_points(fermat) == []

    def test_nodal_point_found(self, nodal_cubic):
        assert rational_singular_points(nodal_cubic) == [ProjectivePoint(0, 0, 1)]

    def test_three_cusps(self, tricuspidal_quartic):
        pts = set(rational_singular_points(tricuspidal_quartic))
        assert pts == {ProjectivePoint(1, 0, 0), ProjectivePoint(0, 1, 0),
                       ProjectivePoint(0, 0, 1)}

    def test_irrational_singular_point_raises(self):
        # X2 * (X1^2 - 2 X0^2): nodes at (1 : +-sqrt2 : 0).
        f = H(3, {(0, 2, 1): 1, (2, 0, 1): -2})
        with pytest.raises(UnsupportedFieldError):
            rational_singular_points(f)

    def test_line_triple_concurrent(self):
        # X0 X1 (X0 + X1): three distinct concurrent lines, one triple
        # point at (0 : 0 : 1); the third partial vanishes identically.
        f = H(3, {(2, 1, 0): 1, (1, 2, 0): 1})
        assert rational_singular_points(f) == [ProjectivePoint(0, 0, 1)]


class TestFactorization:
    def test_reduced_detection(self, nodal_cubic):
        assert is_reduced_form(nodal_cubic)
        assert not is_reduced_form(H.monomial((3, 0, 0)))

    def test_irreducible_detection(self, fermat, nodal_cubic):
        assert is_irreducible_form(fermat)
        assert is_irreducible_form(nodal_cubic)
        assert not is_irreducible_form(H(2, {(1, 1, 0): 1}))
