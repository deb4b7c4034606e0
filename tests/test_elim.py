"""Elimination layer: resultant of three quadrics, smoothness, intersections,
singular-locus search."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from unisecant import singular
from unisecant.errors import (
    CommonComponentError,
    DomainError,
    UnisecantError,
    UnsupportedFieldError,
)
from unisecant.exactalg import bipoly, elim, unipoly
from unisecant.exactalg import (
    BivariatePoly,
    HomogeneousForm,
    ProjectivePoint,
    UnivariatePoly,
    det_fractions,
    form_factorization,
    hessian,
    is_reduced_form,
    jacobian,
    macaulay_resultant_quadrics,
    mat3,
    mat3_adjugate,
    mat3_det,
    mat3_transpose,
    mat3_vec,
    plane_intersection,
    rational_singular_points,
    resultant_y,
    ternary_discriminant,
)
from unisecant.cubic import flexes, weierstrass_normal_form

from conftest import count_calls, load_form, moved_point

H = HomogeneousForm

rational = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
# Leading y-coefficients that vanish at the first interpolation nodes
# 0, 1, -1, so resultant_y has to skip them.
leads = st.sampled_from([{0: 1}, {1: 1}, {0: -1, 1: 1}, {1: -1, 3: 1}, {0: F(1, 2), 2: F(-1, 2)}])


@st.composite
def bivariate_with_lead(draw):
    dy = draw(st.integers(0, 3))
    lead = draw(leads)
    scale = draw(rational.filter(lambda c: c != 0))
    coeffs = {(i, dy): scale * c for i, c in lead.items()}
    for j in range(dy):
        for i in range(draw(st.integers(0, 3))):
            coeffs[(i, j)] = draw(rational)
    return BivariatePoly(coeffs)


@st.composite
def y_deficient(draw):
    """A polynomial of total degree a and y-degree m < a, dense up to
    degree a, so that n a + m b - m n is usually the smaller term of the
    node bound of resultant_y."""
    a = draw(st.integers(2, 4))
    m = draw(st.integers(1, a - 1))
    coeffs = {(i, j): draw(rational) for j in range(m + 1) for i in range(a - j + 1)}
    coeffs[(a - m, m)] = draw(rational.filter(lambda c: c != 0))
    return BivariatePoly(coeffs)


def sympy_resultant_y(f: BivariatePoly, g: BivariatePoly) -> UnivariatePoly:
    """res_y(f, g) from sympy.resultant, with the Sylvester sign.

    sympy.resultant keeps the Sylvester sign only when its first argument
    has the larger degree; res(f, g) = (-1)^(mn) res(g, f).
    """
    x, y = sympy.symbols("x y")
    fs, gs = to_sympy_expr(f, x, y), to_sympy_expr(g, x, y)
    m, n = f.degree_y(), g.degree_y()
    if m >= n:
        res = sympy.resultant(fs, gs, y)
    else:
        res = (-1) ** (m * n) * sympy.resultant(gs, fs, y)
    expected = sympy.Poly(res, x, domain=sympy.QQ)
    return UnivariatePoly([F(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())])


def to_sympy_expr(f: BivariatePoly, x, y):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
               for (i, j), c in f.coeffs.items())


def from_sympy_expr(expr, x, y) -> BivariatePoly:
    poly = sympy.Poly(sympy.expand(expr), x, y, domain=sympy.QQ)
    return BivariatePoly({k: F(int(c.p), int(c.q)) for k, c in poly.terms()})


@st.composite
def germ_at_origin(draw):
    """A ``bivariate_with_lead`` polynomial without its terms below degree 0, 1 or 2."""
    low = draw(st.integers(0, 2))
    f = draw(bivariate_with_lead())
    germ = BivariatePoly({k: c for k, c in f.coeffs.items() if sum(k) >= low})
    assume(not germ.is_zero())
    return germ


@st.composite
def form_and_point(draw):
    degree = draw(st.integers(1, 4))
    coeffs = {(a, b, degree - a - b): draw(rational)
              for a in range(degree + 1) for b in range(degree + 1 - a)}
    f = HomogeneousForm(degree, coeffs)
    coords = draw(st.tuples(rational, rational, rational))
    assume(not f.is_zero() and any(coords))
    return f, ProjectivePoint(*coords)


_DEG4 = [(a, b, 4 - a - b) for a in range(4, -1, -1) for b in range(4 - a, -1, -1)]
_EXTRANEOUS = [_DEG4.index(m) for m in [(2, 2, 0), (2, 0, 2), (0, 2, 2)]]


def _macaulay_quotient(qs):
    """Macaulay's 15x15 quotient det M / det M' (test oracle), None when the
    3x3 extraneous minor M' vanishes.

    Row m of M is X_i^-2 m * q_i for the first X_i whose square divides the
    quartic monomial m; M' keeps the rows and columns of X0^2 X1^2,
    X0^2 X2^2 and X1^2 X2^2 (Cox–Little–O'Shea, *Using Algebraic Geometry*,
    ch. 3 §4).
    """
    rows = []
    for mono in _DEG4:
        i = next(k for k in range(3) if mono[k] >= 2)
        row = [F(0)] * 15
        for (a, b, c), v in qs[i].coeffs.items():
            shift = [a, b, c]
            shift[i] += mono[i] - 2
            for k in range(3):
                if k != i:
                    shift[k] += mono[k]
            row[_DEG4.index(tuple(shift))] += v
        rows.append(row)
    minor = det_fractions([[rows[i][j] for j in _EXTRANEOUS] for i in _EXTRANEOUS])
    return None if minor == 0 else det_fractions(rows) / minor


QUADRIC_MONOMIALS = [(a, b, 2 - a - b) for a in range(3) for b in range(3 - a)]
quadrics = st.lists(rational, min_size=6, max_size=6).map(
    lambda cs: H(2, dict(zip(QUADRIC_MONOMIALS, cs))))
triples = st.tuples(quadrics, quadrics, quadrics)


def _seeded_triples(count: int, seed: int = 17) -> list:
    """Random triples with a nonzero extraneous minor and a nonzero resultant."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        qs = tuple(H(2, {m: F(rng.randint(-5, 5), rng.randint(1, 3))
                         for m in QUADRIC_MONOMIALS}) for _ in range(3))
        if _macaulay_quotient(qs):
            out.append(qs)
    return out


def _oracle_disagreements(triples_) -> list:
    """The triples on which macaulay_resultant_quadrics differs from the 15x15 quotient."""
    return [qs for qs in triples_ if macaulay_resultant_quadrics(*qs) != _macaulay_quotient(qs)]


SQUARES = (H.monomial((2, 0, 0)), H.monomial((0, 2, 0)), H.monomial((0, 0, 2)))


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

    def test_one_resultant_and_no_coordinate_change(self, fermat, monkeypatch):
        # The 6x6 formula has no extraneous factor that could vanish, so no
        # coordinate change is tried.
        calls = count_calls(monkeypatch, "macaulay_resultant_quadrics", elim)
        moves = count_calls(monkeypatch, "substitute", HomogeneousForm)
        ternary_discriminant(fermat)
        assert calls == [fermat.gradient()]
        assert moves == []

    def test_normalized_on_the_squares(self):
        assert macaulay_resultant_quadrics(*SQUARES) == 1

    @given(triples)
    def test_matches_the_15x15_quotient(self, qs):
        expected = _macaulay_quotient(qs)
        assume(expected is not None)
        assert macaulay_resultant_quadrics(*qs) == expected

    @given(triples)
    def test_matches_the_fraction_rows(self, qs):
        # The Sylvester rows as Fractions, the formula before the rows were
        # read as integers over one lcm: the same value, denominators or not.
        assume(any(q.den != 1 for q in qs))
        rows = [[q.coefficient(m) for m in elim._QUADRIC_MONOMIALS]
                for q in (*qs, *jacobian(*qs).gradient())]
        assert macaulay_resultant_quadrics(*qs) == -det_fractions(rows) / 512

    def test_matches_the_quotient_on_seeded_triples(self):
        assert _oracle_disagreements(_seeded_triples(12)) == []

    @given(triples, st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    def test_coordinate_change_scales_by_det_to_the_eighth(self, qs, entries):
        m = mat3([entries[0:3], entries[3:6], entries[6:9]])
        det = mat3_det(m)
        assume(det != 0)
        moved = [q.substitute(m) for q in qs]
        assert macaulay_resultant_quadrics(*moved) == det**8 * macaulay_resultant_quadrics(*qs)

    @pytest.mark.parametrize("mutant", ["plus_one_over_512", "two_rows_swapped"])
    def test_mutants_are_caught(self, monkeypatch, mutant):
        original = elim.det_fractions
        if mutant == "plus_one_over_512":
            monkeypatch.setattr(elim, "det_fractions", lambda rows: original(rows) - 1)
        else:
            monkeypatch.setattr(elim, "det_fractions",
                                lambda rows: original([rows[1], rows[0], *rows[2:]]))
        triples_ = _seeded_triples(12)
        assert macaulay_resultant_quadrics(*SQUARES) != 1
        assert len(_oracle_disagreements(triples_)) == len(triples_)

    def test_non_quadrics_rejected(self, fermat):
        with pytest.raises(DomainError, match="quadrics"):
            macaulay_resultant_quadrics(fermat, *SQUARES[1:])

    @pytest.mark.parametrize("form", [
        H(2, {(2, 0, 0): 1, (0, 1, 1): -1}),
        H(4, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}),
        H.zero(3)])
    def test_non_cubic_rejected(self, form):
        with pytest.raises(DomainError, match="cubics"):
            ternary_discriminant(form)

    def test_smoothness_calls(self, fermat, nodal_cubic, cuspidal_cubic):
        assert ternary_discriminant(fermat) != 0
        assert ternary_discriminant(nodal_cubic) == 0
        assert ternary_discriminant(cuspidal_cubic) == 0


class TestBivariateResultant:
    def test_matches_univariate_elimination(self):
        # res_y(y - x^2, y - 2x) = (2x - x^2) up to sign: roots where the
        # parabola meets the line.
        f = BivariatePoly({(0, 1): F(1), (2, 0): F(-1)})
        g = BivariatePoly({(0, 1): F(1), (1, 0): F(-2)})
        r = resultant_y(f, g)
        assert r.monic() == UnivariatePoly((0, -2, 1)).monic()

    @given(bivariate_with_lead(), bivariate_with_lead())
    def test_matches_sympy(self, f, g):
        assert resultant_y(f, g) == sympy_resultant_y(f, g)

    @given(y_deficient(), y_deficient())
    def test_y_deficient_pairs_match_sympy(self, f, g):
        assert resultant_y(f, g) == sympy_resultant_y(f, g)

    def test_x_degree_bound_when_it_is_the_smaller(self, monkeypatch):
        # a = b = 3, m = n = 2, deg_x = 1: min(2 + 2, 6 + 6 - 4) = 4.  The
        # leading y-coefficients are x, so the node 0 is skipped.
        f = BivariatePoly({(1, 2): F(1), (0, 0): F(1)})
        g = BivariatePoly({(1, 2): F(2), (0, 1): F(1), (0, 0): F(-3)})
        calls = count_calls(monkeypatch, "_resultant_int", bipoly)
        assert resultant_y(f, g) == sympy_resultant_y(f, g)
        assert len(calls) == 5

    def test_two_general_cubics_take_the_bezout_number_of_nodes(self, monkeypatch):
        coeffs = {e: F(k + 1) for k, e in enumerate(
            (a, b, 3 - a - b) for a in range(4) for b in range(4 - a))}
        f = BivariatePoly.chart(H(3, coeffs), 0)
        g = BivariatePoly.chart(H(3, {e: c * c - 7 for e, c in coeffs.items()}), 0)
        calls = count_calls(monkeypatch, "_resultant_int", bipoly)
        assert resultant_y(f, g) == sympy_resultant_y(f, g)
        assert len(calls) == 3 * 3 + 1

    def test_skipped_nodes_leave_the_bezout_number_accepted(self, monkeypatch):
        # f: a = 4, m = 1, lead x^3 - x (zero at the nodes 0, 1 and -1);
        # g: a general conic chart, b = n = 2.  So n a + m b - m n = ab = 8.
        f = BivariatePoly({(1, 1): F(-1), (3, 1): F(1), (4, 0): F(2), (0, 0): F(5)})
        g = BivariatePoly({(0, 2): F(1), (1, 1): F(3), (2, 0): F(-1), (0, 1): F(2),
                           (1, 0): F(1, 2), (0, 0): F(-4)})
        calls = count_calls(monkeypatch, "_resultant_int", bipoly)
        assert resultant_y(f, g) == sympy_resultant_y(f, g)
        assert len(calls) == 4 * 2 + 1
        assert all(len(fv) == 2 for fv, _ in calls)


def assert_canonical(f: BivariatePoly) -> None:
    """Integer numerators over one positive denominator, in lowest terms."""
    assert all(type(v) is int and v != 0 for v in f.num.values()) and type(f.den) is int
    assert f.den > 0 and math.gcd(f.den, *f.num.values()) == 1
    same = BivariatePoly(f.coeffs)
    assert same == f and hash(same) == hash(f)


class TestBivariateRepresentation:
    """The integer-numerator representation of germs."""

    @given(germ_at_origin(), rational, rational)
    def test_operations_stay_canonical(self, germ, a, b):
        assume(a != 0)
        mu = germ.multiplicity()
        for f in (germ, germ.swap(), germ.translate(a, b), germ.linear_change(a, b, 0, 1),
                  germ.blowup_chart_a(mu), BivariatePoly({k: a * c for k, c in germ.coeffs.items()})):
            assert_canonical(f)

    @given(form_and_point())
    def test_chart_matches_sympy(self, data):
        f, _ = data
        x, y = sympy.symbols("x y")
        for chart in range(3):
            values = [sympy.Integer(1)] * 3
            for var, i in zip((x, y), [i for i in range(3) if i != chart]):
                values[i] = var
            expected = sum(sympy.Rational(q.numerator, q.denominator)
                           * values[0]**e[0] * values[1]**e[1] * values[2]**e[2]
                           for e, q in f.coeffs.items())
            ours = BivariatePoly.chart(f, chart)
            assert_canonical(ours)
            assert ours == from_sympy_expr(expected, x, y)

    def test_coefficient_view_is_read_only(self):
        f = BivariatePoly({(1, 0): F(2, 4), (0, 1): 3})
        assert (f.num, f.den) == ({(1, 0): 1, (0, 1): 6}, 2)
        with pytest.raises(TypeError):
            f.coeffs[(0, 0)] = 1
        assert dict(f.coeffs) == {(1, 0): F(1, 2), (0, 1): 3} and f.coefficient((0, 0)) == 0


class TestCoordinateChanges:
    """Translations, linear changes, blow-up charts and germs against sympy."""

    x, y = sympy.symbols("x y")

    @given(bivariate_with_lead(), rational, rational)
    def test_translate_matches_sympy(self, f, a, b):
        x, y = self.x, self.y
        expected = to_sympy_expr(f, x, y).subs({x: x + sympy.Rational(a.numerator, a.denominator),
                                                y: y + sympy.Rational(b.numerator, b.denominator)},
                                               simultaneous=True)
        assert f.translate(a, b) == from_sympy_expr(expected, x, y)

    @given(bivariate_with_lead(), st.tuples(*[rational] * 4))
    def test_linear_change_matches_sympy(self, f, change):
        a, b, c, d = change
        assume(a * d - b * c != 0)
        x, y = self.x, self.y
        q = [sympy.Rational(v.numerator, v.denominator) for v in change]
        expected = to_sympy_expr(f, x, y).subs({x: q[0] * x + q[1] * y, y: q[2] * x + q[3] * y},
                                               simultaneous=True)
        assert f.linear_change(a, b, c, d) == from_sympy_expr(expected, x, y)

    @given(germ_at_origin(), rational)
    def test_blowup_charts_match_sympy(self, germ, slope):
        x, y = self.x, self.y
        mu = germ.multiplicity()
        fs = to_sympy_expr(germ, x, y)
        c = sympy.Rational(slope.numerator, slope.denominator)
        chart_a = sympy.cancel(fs.subs(y, x * (y + c)) / x**mu)
        chart_b = sympy.cancel(fs.subs(x, x * y) / y**mu)
        assert singular._blowup(germ, mu, ("A", slope)) == from_sympy_expr(chart_a, x, y)
        assert singular._blowup(germ, mu, ("B",)) == from_sympy_expr(chart_b, x, y)

    @given(form_and_point())
    def test_curve_germ_matches_sympy(self, data):
        f, p = data
        x, y = self.x, self.y
        chart = p.first_nonzero_index()
        others = [i for i in range(3) if i != chart]
        values = [sympy.Integer(1)] * 3
        for var, i in zip((x, y), others):
            values[i] = var + sympy.Rational(p[i].numerator, p[i].denominator)
        expected = sum(sympy.Rational(q.numerator, q.denominator)
                       * values[0]**e[0] * values[1]**e[1] * values[2]**e[2]
                       for e, q in f.coeffs.items())
        assert singular.curve_germ(f, p) == from_sympy_expr(expected, x, y)

    def test_curve_germ_is_one_substitution(self, nodal_cubic, monkeypatch):
        calls = count_calls(monkeypatch, "substitute", HomogeneousForm)
        germ = singular.curve_germ(nodal_cubic, ProjectivePoint(2, F(1, 3), -5))
        assert len(calls) == 1 and not germ.is_zero()

    def test_zero_polynomial(self):
        zero = BivariatePoly({})
        assert zero.translate(F(1, 2), -3) == zero
        assert zero.linear_change(1, 2, 3, 4) == zero

    def test_translate_by_zero_is_identity(self):
        f = BivariatePoly({(0, 0): F(1, 3), (2, 1): F(-4), (0, 3): F(5, 2)})
        assert f.translate(0, 0) == f

    def test_singular_linear_change_raises(self):
        f = BivariatePoly({(1, 0): F(1), (0, 2): F(-1)})
        with pytest.raises(DomainError, match="singular"):
            f.linear_change(1, 2, 2, 4)
        with pytest.raises(DomainError, match="singular"):
            BivariatePoly({}).linear_change(0, 0, 1, 1)


@st.composite
def small_form(draw, min_degree=0, max_degree=3):
    degree = draw(st.integers(min_degree, max_degree))
    monos = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monos), max_size=len(monos)))
    f = H(degree, {m: F(c, 3) for m, c in zip(monos, coeffs)})
    assume(not f.is_zero())
    return f


@st.composite
def form_pair(draw):
    """Two forms, X0 multiplied into both, one or neither, with or without a planted factor."""
    f, g = draw(small_form()), draw(small_form())
    x0 = H.monomial((1, 0, 0))
    if draw(st.booleans()):
        f = f * x0
    if draw(st.booleans()):
        g = g * x0
    if draw(st.booleans()):
        h = draw(small_form(1, 2))
        f, g = f * h, g * h
    return f, g


def _qq_poly(f: HomogeneousForm) -> sympy.Poly:
    """f as a sympy Poly over QQ in X0, X1, X2, from its Fraction coefficients."""
    return sympy.Poly.from_dict(
        {e: sympy.QQ(c.numerator, c.denominator) for e, c in f.coeffs.items()},
        *sympy.symbols("X0 X1 X2"), domain=sympy.QQ)


def _share_component_over_qq(f, g) -> bool:
    return sympy.gcd(_qq_poly(f), _qq_poly(g)).total_degree() >= 1


class TestCommonComponent:
    @given(form_pair())
    def test_matches_the_trivariate_gcd(self, pair):
        assert elim.forms_share_component(*pair) == _share_component_over_qq(*pair)

    @given(small_form(1, 2), small_form(), small_form(), st.sampled_from([1, -2, F(3, 5)]))
    def test_planted_factor_is_shared(self, h, a, b, c):
        f, g = h * a, (h * b).scale(c)
        assert elim.forms_share_component(f, g) and _share_component_over_qq(f, g)

    @given(small_form(1), small_form(1))
    def test_coprime_pairs_share_nothing(self, a, b):
        assume(not _share_component_over_qq(a, b))
        assert not elim.forms_share_component(a, b)

    def test_x0_in_one_form_only(self):
        f = H(2, {(1, 1, 0): 1})                     # X0 X1
        g = H(2, {(0, 1, 1): 1, (0, 0, 2): 1})       # X2 (X1 + X2)
        assert not elim.forms_share_component(f, g)

    def test_shared_conic_raises(self):
        conic = H(2, {(2, 0, 0): 1, (0, 1, 1): -1, (0, 2, 0): 2})
        line = H(1, {(1, 0, 0): 1, (0, 1, 0): 3})
        cubic = H(3, {(0, 3, 0): 1, (1, 1, 1): F(1, 2), (0, 0, 3): -1})
        with pytest.raises(CommonComponentError):
            plane_intersection(conic * line, conic * cubic)

    def test_one_sympy_gcd(self, monkeypatch):
        calls = count_calls(monkeypatch, "gcd", sympy)
        elim.forms_share_component(H(2, {(0, 2, 0): 1, (1, 0, 1): 1}), H(1, {(0, 1, 0): 1}))
        assert len(calls) == 1


class TestUnimodularMatrices:
    def test_all_distinct_with_the_identity_first(self):
        # A repeated change would make a retry loop re-try one that failed.
        assert len(set(elim.unimodular_matrices())) == 64
        changes = list(elim.unimodular_matrices())
        assert changes[0] == mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert all(mat3_det(m) == 1 and all(x.denominator == 1 for row in m for x in row)
                   for m in changes)


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

    def test_squarefree_certificate_computed_on_first_read(self, monkeypatch, nodal_cubic,
                                                           cuspidal_cubic, fermat):
        calls = count_calls(monkeypatch, "squarefree_part", elim)
        data = plane_intersection(nodal_cubic, cuspidal_cubic)
        assert calls == []
        assert data.eliminant_squarefree is False
        assert data.eliminant_squarefree is False
        assert len(calls) == 1
        assert flexes(fermat).eliminant_squarefree is True

    def test_want_squarefree_searches_past_the_first_projection(self, fermat):
        # Moved so that three flexes share the fiber of the first usable projection.
        moved = fermat.substitute(mat3([[1, 0, 0], [-1, -1, 0], [1, 0, -1]]))
        first = plane_intersection(moved, hessian(moved))
        assert first.eliminant_squarefree is False
        data = plane_intersection(moved, hessian(moved), want_squarefree_eliminant=True)
        assert data.eliminant_squarefree is True and data.transform != first.transform

    @given(small_form(1, 3), small_form(1, 3), st.booleans())
    def test_lazy_certificate_matches_eager_definition(self, f, g, want):
        assume(not elim.forms_share_component(f, g))
        data = plane_intersection(f, g, want_squarefree_eliminant=want)
        eager = unipoly.squarefree_part(data.eliminant).degree == data.eliminant.degree
        assert data.eliminant_squarefree == eager

    def test_tangent_pair_needs_no_factorization(self, monkeypatch):
        # The rational roots of the eliminant and of the fiber gcd come from
        # p-adic lifting; no irreducible factorization runs.
        parabola = H(2, {(0, 1, 1): 1, (2, 0, 0): -1})     # X1 X2 = X0^2
        tangent = H(1, {(0, 1, 0): 1})                    # X1 = 0, at (0:0:1)
        calls = count_calls(monkeypatch, "factor_over_q", unipoly)
        sympy_calls = count_calls(monkeypatch, "factor_list", sympy)
        data = plane_intersection(parabola, tangent)
        assert calls == [] and sympy_calls == []
        assert [(p, fb.multiplicity) for fb in data.fibers for p in fb.points] == [
            (ProjectivePoint(0, 0, 1), 2)]


def _share_test_first(f, g):
    """The earlier ``plane_intersection``: the sympy share test first, then the loop."""
    if f.is_zero() or g.is_zero():
        raise DomainError("cannot intersect with the zero curve")
    if elim.forms_share_component(f, g):
        raise CommonComponentError("curves share a component")
    product = f.degree * g.degree
    for m in elim.unimodular_matrices():
        ft, gt = f.substitute(m), g.substitute(m)
        eliminant = elim._projection_eliminant(ft, gt)
        if eliminant is None:
            continue
        if eliminant.is_zero():
            raise CommonComponentError("curves share a component")
        if eliminant.degree != product:
            continue
        back = mat3_transpose(m)
        fibers = [elim.FiberData(x0, mult, *elim._lift_fiber([ft, gt], back, x0))
                  for x0, mult in unipoly.rational_roots(eliminant)[0]]
        points = [p for fb in fibers for p in fb.points]
        return elim.IntersectionData(m, eliminant, fibers,
                                     product - sum(fb.multiplicity for fb in fibers), points)
    raise UnisecantError("no good projection found for the intersection")


def _outcome(intersect, f, g):
    try:
        return intersect(f, g)
    except UnisecantError as exc:
        return type(exc), str(exc)


def _vanish_at(f: HomogeneousForm, point) -> HomogeneousForm:
    """f minus f(point) X0^d: a form through ``point``, whose X0 coordinate is 1."""
    return f - H.monomial((f.degree, 0, 0), f.evaluate(point))


def _through_vertex(f: HomogeneousForm) -> HomogeneousForm:
    """f without its X2^d term: a form through (0:0:1)."""
    return H(f.degree, {e: c for e, c in f.coeffs.items() if e != (0, 0, f.degree)})


@st.composite
def intersection_pair(draw):
    """A random pair, a planted common factor, one or both through (0:0:1), or a common
    zero on X1 = 0."""
    f, g = draw(small_form(1, 3)), draw(small_form(1, 3))
    kind = draw(st.sampled_from(["random", "planted", "vertex", "x1_line"]))
    if kind == "planted":
        h = draw(small_form(1, 2))
        f, g = h * f, h * g
    elif kind == "vertex":
        f = _through_vertex(f)
        if draw(st.booleans()):
            g = _through_vertex(g)
    elif kind == "x1_line":
        point = (1, 0, draw(st.integers(-2, 2)))
        f, g = _vanish_at(f, point), _vanish_at(g, point)
    assume(not f.is_zero() and not g.is_zero())
    return f, g


class TestShareTestOnlyWhenTheFirstProjectionIsUnusable:
    """Every curve meets X1 = 0, so a shared component makes every projection
    unusable: a usable first projection proves the pair coprime, and sympy is
    asked only when the first one is unusable."""

    def test_good_position_pair_asks_nothing(self, fermat, monkeypatch):
        line = H(1, {(0, 1, 0): 1, (0, 0, 1): 1})
        calls = count_calls(monkeypatch, "forms_share_component", elim)
        gcds = count_calls(monkeypatch, "gcd", sympy)
        assert plane_intersection(fermat, line).eliminant.degree == 3
        assert calls == [] and gcds == []

    def test_pair_through_the_projection_point_asks_once(self, fermat, monkeypatch):
        hess = H(3, {(1, 1, 1): 216})     # 216 X0 X1 X2 passes through (0:0:1)
        expected = _share_test_first(fermat, hess)
        calls = count_calls(monkeypatch, "forms_share_component", elim)
        assert plane_intersection(fermat, hess) == expected
        assert calls == [(fermat, hess)]

    @given(small_form(1, 2), small_form(1, 2), small_form(1, 2))
    def test_planted_pair_raises_after_one_share_test(self, h, a, b):
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, "forms_share_component", elim)
            resultants = count_calls(mp, "resultant_y", elim)
            with pytest.raises(CommonComponentError, match="curves share a component"):
                plane_intersection(h * a, h * b)
        assert len(calls) == 1 and resultants == []

    @given(intersection_pair())
    def test_matches_the_share_test_first_order(self, pair):
        assert _outcome(plane_intersection, *pair) == _outcome(_share_test_first, *pair)


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


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _value(coeffs, x):
    return sum(c * x[0] ** a * x[1] ** b * x[2] ** e for (a, b, e), c in coeffs.items())


def _is_rational_square(q: F) -> bool:
    return q >= 0 and all(math.isqrt(v) ** 2 == v for v in (q.numerator, q.denominator))


def _line_conic_points(line, conic):
    """The meet of a line and a smooth conic, by hand; None if it is irrational.

    On the line s*p + t*r the conic restricts to qa s^2 + qb s t + qc t^2;
    its roots are rational iff the discriminant is a rational square.
    """
    a, b, c = line
    p, r = ((-b, a, 0), (-c, 0, a)) if a else ((1, 0, 0), (0, -c, b))
    qa, qc = _value(conic, p), _value(conic, r)
    qb = _value(conic, [x + y for x, y in zip(p, r)]) - qa - qc
    disc = F(qb * qb - 4 * qa * qc)
    if not _is_rational_square(disc):
        return None
    root = F(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    if qa != 0:
        params = [((-qb + sign * root) / (2 * qa), 1) for sign in (1, -1)]
    else:  # t * (qb s + qc t)
        params = [(1, 0), (qc, -qb)]
    return {ProjectivePoint(*(s * x + t * y for x, y in zip(p, r))) for s, t in params}


def _hessian(conic):
    """The symmetric matrix S with conic(X) = X^T S X / 2; S*P is the tangent at P."""
    q = conic.coefficient
    return [[2 * q((2, 0, 0)), q((1, 1, 0)), q((1, 0, 1))],
            [q((1, 1, 0)), 2 * q((0, 2, 0)), q((0, 1, 1))],
            [q((1, 0, 1)), q((0, 1, 1)), 2 * q((0, 0, 2))]]


def _random_lines_and_conic(rng):
    """2-3 distinct rational lines and a smooth conic (so the product is reduced).

    Half of the draws are chords and tangents of the conic through the
    points m*(s^2, s*t, t^2), so every meet is rational; the other half
    are random lines and a random conic.
    """
    n = rng.choice([2, 3])
    parametrized = rng.random() < 0.5
    while True:
        if parametrized:
            m = mat3([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            if mat3_det(m) == 0:
                continue
            conic = H(2, {(1, 0, 1): 1, (0, 2, 0): -1}).substitute(
                mat3_transpose(mat3_adjugate(m))).scale(1 / mat3_det(m) ** 2)
            sym = _hessian(conic)
            lines = []
            for _ in range(n):
                p, q = (mat3_vec(m, (s * s, s * t, t * t))
                        for s, t in [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)])
                chord = _cross(p, q)
                lines.append(chord if any(chord) else mat3_vec(sym, p))
        else:
            lines = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(n)]
            monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
            conic = H(2, {mono: rng.randint(-3, 3) for mono in monos})
            sym = _hessian(conic)
        smooth = sum(sym[0][i] * _cross(sym[1], sym[2])[i] for i in range(3)) != 0
        distinct = all(any(_cross(u, v)) for i, u in enumerate(lines) for v in lines[i + 1:])
        if smooth and distinct and all(any(line) for line in lines):
            return lines, conic


class TestLiftFiber:
    def test_complete_only_when_the_slice_gcd_splits_over_q(self):
        identity = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        # Over X0 = 1 (chart X1 = 1): f has z = 1 and the pair z = ±√2, g has z = ±1.
        f = H.linear(-1, 0, 1) * H(2, {(0, 0, 2): 1, (0, 2, 0): -2})
        g = H.linear(-1, 0, 1) * H.linear(0, 1, 1)
        assert elim._lift_fiber([f], identity, F(1)) == ([ProjectivePoint(1, 1, 1)], False)
        assert elim._lift_fiber([g], identity, F(1)) == (
            [ProjectivePoint(1, 1, -1), ProjectivePoint(1, 1, 1)], True)
        assert elim._lift_fiber([f, g], identity, F(1)) == ([ProjectivePoint(1, 1, 1)], True)


class TestSingularLocusCheck:
    """Irrational fibers are decided over Q by the check resultants."""

    def test_lines_and_conic_against_hand_oracle(self):
        outcomes = set()
        for seed in range(16):
            lines, conic = _random_lines_and_conic(random.Random(seed))
            f = conic
            for line in lines:
                f = f * H.linear(*line)
            expected = {ProjectivePoint(*_cross(u, v))
                        for i, u in enumerate(lines) for v in lines[i + 1:]}
            meets = [_line_conic_points(line, conic.coeffs) for line in lines]
            if any(m is None for m in meets):
                outcomes.add("irrational")
                with pytest.raises(UnsupportedFieldError):
                    rational_singular_points(f)
            else:
                outcomes.add("rational")
                expected.update(*meets)
                assert set(rational_singular_points(f)) == expected, seed
        assert outcomes == {"rational", "irrational"}

    def test_conjugate_nodes_with_rational_node_raise(self):
        # X2 * (X0^3 + X1^3 + X2^3): the line meets the Fermat cubic
        # transversally at (1 : -1 : 0) and at the conjugate pair with
        # X0^2 - X0 X1 + X1^2 = 0, so one rational node and two irrational.
        f = H.linear(0, 0, 1) * H(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        with pytest.raises(UnsupportedFieldError,
                           match="singular point with irrational coordinates$"):
            rational_singular_points(f)

    def test_moved_node_behind_irrational_factor(self, nodal_cubic, monkeypatch):
        # In these coordinates the eliminant has an irreducible factor of
        # degree >= 2, so one check resultant runs and clears it.
        m = mat3([[1, 0, -1], [1, -2, -2], [2, 1, -1]])
        node = moved_point(m, (0, 0, 1))
        calls = count_calls(monkeypatch, "resultant_y", elim)
        assert rational_singular_points(nodal_cubic.substitute(m)) == [node]
        assert len(calls) == 2

    def test_check_resultants_are_lazy(self, fermat, cuspidal_cubic, monkeypatch):
        calls = count_calls(monkeypatch, "resultant_y", elim)
        # Fermat: every factor of the eliminant is linear, no check runs.
        assert rational_singular_points(fermat) == []
        assert len(calls) == 1
        calls.clear()
        # Cuspidal cubic: the eliminant plus one check resultant.
        assert rational_singular_points(cuspidal_cubic) == [ProjectivePoint(0, 0, 1)]
        assert len(calls) == 2


def _factor_route(gt, c0, c1, m, eliminant):
    """The singular points by factoring the eliminant: a reference for the gcd route.

    Linear factors come sorted as factor_over_q sorts them and are lifted
    as rational fibers; a factor of degree >= 2 carries a singular point
    iff every one of the first c0.degree check resultants vanishes on it.
    """
    back = mat3_transpose(m)
    checks = elim._check_resultants(c0, c1, gt[2])
    seen, points = [], []
    for factor, _ in unipoly.factor_over_q(eliminant):
        if factor.degree == 1:
            fiber, complete = elim._lift_fiber(gt, back, -factor.coeffs[0] / factor.coeffs[1])
            if not complete:
                raise UnsupportedFieldError(
                    "singular point with irrational coordinates over a rational fiber")
            points.extend(fiber)
            continue
        for k in range(c0.degree):
            if k == len(seen):
                seen.append(next(checks))
            if not sympy.rem(_sympy_poly(seen[k]), _sympy_poly(factor)).is_zero:
                break
        else:
            raise UnsupportedFieldError("singular point with irrational coordinates")
    return list(dict.fromkeys(points))


def _sympy_poly(f):
    """The same polynomial as a sympy Poly over QQ, built without the package."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      sympy.Symbol("x"), domain=sympy.QQ)


def _singular_outcome(f):
    try:
        return rational_singular_points(f)
    except UnsupportedFieldError as exc:
        return str(exc)


def _lines_and_conic_corpus():
    for seed in range(16):
        lines, conic = _random_lines_and_conic(random.Random(seed))
        f = conic
        for line in lines:
            f = f * H.linear(*line)
        yield f


def _moved_unibranch_corpus():
    """X1^p X2^(d-p) = X0^d for gcd(p, d) = 1, d = 4..6, each under two
    random unimodular changes."""
    rng = random.Random(3)
    for d in (4, 5, 6):
        for p in range(1, d):
            if math.gcd(p, d) != 1:
                continue
            f = H(d, {(0, p, d - p): 1, (d, 0, 0): -1})
            for _ in range(2):
                m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
                for _ in range(4):
                    i, j = rng.sample(range(3), 2)
                    lam = rng.choice([-2, -1, 1, 2])
                    m[i] = [a + lam * b for a, b in zip(m[i], m[j])]
                yield f.substitute(mat3(m))


class TestSingularLocusWithoutFactoring:
    """The rational roots and gcds with the check resultants replace factoring."""

    def test_no_factorization_runs(self, nodal_cubic, tricuspidal_quartic, monkeypatch):
        calls = count_calls(monkeypatch, "factor_over_q", unipoly)
        sympy_calls = count_calls(monkeypatch, "factor_list", sympy)
        outcomes = [_singular_outcome(f) for f in [nodal_cubic, tricuspidal_quartic,
                                                   *_lines_and_conic_corpus()]]
        assert calls == [] and sympy_calls == []
        assert len({type(o) for o in outcomes}) == 2  # point lists and refusals

    @pytest.mark.parametrize("corpus", [_lines_and_conic_corpus, _moved_unibranch_corpus])
    def test_matches_the_factor_route_in_order(self, corpus, monkeypatch):
        forms = list(corpus())
        gcd_route = [_singular_outcome(f) for f in forms]
        monkeypatch.setattr(elim, "_singular_points_from_eliminant", _factor_route)
        assert gcd_route == [_singular_outcome(f) for f in forms]
        assert any(isinstance(o, list) and len(o) >= 2 for o in gcd_route)

    def test_moved_cusps_come_in_descending_fiber_order(self, tricuspidal_quartic):
        m = mat3([[1, 1, 0], [0, 1, 2], [1, 0, 1]])
        assert rational_singular_points(tricuspidal_quartic.substitute(m)) == [
            ProjectivePoint(1, F(1, 2), -1), ProjectivePoint(1, -1, 2),
            ProjectivePoint(1, -1, -1)]


FORM_FIXTURES = ["cuspidal_cubic.json", "fermat.json", "genus_d12_64bit.json",
                 "nodal_cubic.json", "tricuspidal_quartic.json", "weier_a-4_b0.json",
                 "weier_a0.json", "z6_c1.json", "z9_d2.json"]


def _sympy_factorization(f: HomogeneousForm) -> list:
    """form_factorization by sympy's multivariate factor_list over QQ alone: the reference."""
    _, factors = sympy.factor_list(_qq_poly(f))
    out = []
    for poly, mult in factors:
        coeffs = {e: F(int(c.p), int(c.q)) for e, c in poly.terms()}
        out.append((H(max(sum(e) for e in coeffs), coeffs), int(mult)))
    return sorted(out, key=lambda t: (t[0].degree, sorted(t[0].coeffs.items())))


class TestFactorization:
    def test_reduced_detection(self, nodal_cubic):
        assert is_reduced_form(nodal_cubic)
        assert not is_reduced_form(H.monomial((3, 0, 0)))

    def test_slice_shortcut_matches_factorization(self, monkeypatch, nodal_cubic,
                                                  cuspidal_cubic, tricuspidal_quartic):
        # Against form_factorization multiplicities, including repeated
        # factors through (0 : 0 : 1), where the slices cannot decide, and
        # irreducible curves through it, which form_factorization certifies.
        rng = random.Random(11)

        def line(through_vertex=False):
            while True:
                c = [rng.randint(-3, 3) for _ in range(3)]
                if through_vertex:
                    c[2] = 0
                if any(c):
                    return H.linear(*c)

        def form(degree):
            monos = [(a, b, degree - a - b)
                     for a in range(degree + 1) for b in range(degree + 1 - a)]
            while True:
                f = H(degree, {e: rng.randint(-3, 3) for e in monos})
                if not f.is_zero():
                    return f

        cases = []
        for _ in range(6):
            l0, l1, l2 = line(), line(through_vertex=True), line()
            p = [rng.randint(-3, 3) for _ in range(3)]
            concurrent = [H.linear(*_cross(p, [rng.randint(-3, 3) for _ in range(3)]))
                          for _ in range(3)]
            through_origin = H(3, {e: rng.randint(-3, 3) for e in
                                   [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
                                    (1, 1, 1), (0, 2, 1)]})
            cases += [l0 * l0 * l2, l1 * l1 * l0, l0 * l0 * l0, l1 * l1 * l1,
                      l0 * form(2), l1 * form(2), form(3), form(3)]
            if all(not c.is_zero() for c in concurrent):
                cases.append(concurrent[0] * concurrent[1] * concurrent[2])
            if not through_origin.is_zero():
                cases.append(through_origin)
        cases += [nodal_cubic, cuspidal_cubic, tricuspidal_quartic, load_form("z9_d2.json")]
        expected = [all(mult == 1 for _, mult in form_factorization(f)) for f in cases]
        calls = count_calls(monkeypatch, "form_factorization", elim)
        assert [is_reduced_form(f) for f in cases] == expected
        assert set(expected) == {True, False}
        assert 0 < len(calls) < len(cases)  # both the shortcut and the fallback ran

    @pytest.mark.parametrize("name", FORM_FIXTURES)
    def test_matches_the_sympy_route(self, name):
        f = load_form(name)
        for c in (1, -3, F(2, 7)):
            assert form_factorization(f.scale(c)) == _sympy_factorization(f.scale(c))

    @pytest.mark.parametrize("name", ["nodal_cubic.json", "tricuspidal_quartic.json",
                                      "genus_d12_64bit.json"])
    def test_irreducible_curves_are_certified_without_sympy(self, name, monkeypatch):
        f = load_form(name)
        calls = count_calls(monkeypatch, "factor_list", sympy)
        assert [mult for _, mult in form_factorization(f)] == [1]
        assert calls == []

    def test_curves_no_slice_certifies_are_factored(self, monkeypatch):
        # Four lines over Q(sqrt 2, sqrt 3), irreducible over Q: every
        # slice is x^4 - 10x^2 + 1 up to a change of x, which splits modulo
        # every prime.
        f = H(4, {(0, 4, 0): 1, (0, 2, 2): -10, (0, 0, 4): 1})
        calls = count_calls(monkeypatch, "factor_list", sympy)
        assert form_factorization(f) == [(f, 1)]
        assert len(calls) == 1
        # An ordinary quadruple point: 3 - 6.
        assert singular.geometric_genus(f) == -3

    @given(st.lists(small_form(1, 2), min_size=2, max_size=3),
           st.sampled_from([1, -1, F(-4, 9)]))
    def test_products_match_the_qq_route(self, factors, c):
        # A product of forms of positive degree is reducible, so no slice
        # certifies it and sympy factors it.
        f = H(0, {(0, 0, 0): c})
        for q in factors:
            f = f * q
        assert form_factorization(f) == _sympy_factorization(f)

    def test_nonzero_constant_has_no_factor(self):
        assert form_factorization(H(0, {(0, 0, 0): F(-5, 3)})) == []
