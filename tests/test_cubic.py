"""Cubic toolkit: smoothness, flexes, normalization, j, group law, torsion."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import count_calls, moved_point, tate_torsion_curves
from unisecant import cubic as cubic_mod
from unisecant.errors import DomainError
from unisecant.exactalg import (
    HomogeneousForm,
    ProjectivePoint,
    mat3,
    mat3_det,
    mat3_mul,
    squarefree_part,
)
from unisecant.cubic import (
    ORIGIN,
    WeierstrassData,
    ec_add,
    ec_scalar_mul,
    flexes,
    general_weierstrass_cubic,
    hessian,
    is_flex,
    is_smooth_cubic,
    j_invariant,
    kubert_z6_curve,
    kubert_z9_curve,
    normalized_curve_with_point,
    point_order,
    tate_normal_cubic,
    weierstrass_at_flex,
    weierstrass_normal_form,
)

H = HomogeneousForm


class TestSmoothness:
    def test_fermat_smooth(self, fermat):
        assert is_smooth_cubic(fermat)

    def test_nodal_not_smooth(self, nodal_cubic):
        assert not is_smooth_cubic(nodal_cubic)

    def test_cuspidal_normal_form_not_smooth(self):
        assert not is_smooth_cubic(weierstrass_normal_form(0, 0))

    def test_degree_checked(self):
        with pytest.raises(DomainError):
            is_smooth_cubic(H(2, {(2, 0, 0): 1}))

    def test_criterion_matches_normal_form_invariant(self):
        rng = random.Random(4)
        for _ in range(12):
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            form = weierstrass_normal_form(a, b)
            assert is_smooth_cubic(form) == (F(a) ** 3 + 27 * F(b) ** 2 != 0)


class TestHessian:
    def test_fermat(self, fermat):
        assert hessian(fermat) == H(3, {(1, 1, 1): 216})

    def test_triangle(self):
        assert hessian(H(3, {(1, 1, 1): 1})) == H(3, {(1, 1, 1): 2})

    def test_quadric_constant(self):
        result = hessian(H(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}))
        assert result.degree == 0 and not result.is_zero()

    def test_degree_one_rejected(self):
        with pytest.raises(DomainError):
            hessian(H(1, {(1, 0, 0): 1}))


def _flex_case(alpha, beta, entries, general, point):
    """A cubic and a point on it: a moved Weierstrass flex, or a general cubic through a point."""
    m = mat3([entries[0:3], entries[3:6], entries[6:9]])
    if mat3_det(m) == 0:
        m = mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    if general is None:
        f, p = weierstrass_normal_form(alpha, beta), ProjectivePoint(0, 0, 1)
    else:
        p = ProjectivePoint(*point)
        f = H(3, dict(zip([(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)], general)))
        i = p.first_nonzero_index()
        corner = tuple(3 if k == i else 0 for k in range(3))
        f = f - H.monomial(corner, f.evaluate(p.coords) / p.coords[i] ** 3)
    moved = f.substitute(m)
    return moved, moved_point(m, p.coords)


small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


class TestIsFlex:
    @given(small, small, st.lists(st.integers(-2, 2), min_size=9, max_size=9),
           st.none() | st.lists(small, min_size=10, max_size=10),
           st.tuples(small, small, small).filter(any))
    def test_matches_the_hessian_form(self, alpha, beta, entries, general, point):
        f, p = _flex_case(alpha, beta, entries, general, point)
        assert f.evaluate(p.coords) == 0
        assert is_flex(f, p) == (hessian(f).evaluate(p.coords) == 0)

    def test_off_the_curve(self, fermat):
        assert not is_flex(fermat, ProjectivePoint(1, 1, 1))

    def test_normalization_builds_one_hessian(self, monkeypatch):
        form, p = kubert_z9_curve(2)
        calls = count_calls(monkeypatch, "hessian", cubic_mod)
        normalized_curve_with_point(form, p)
        assert len(calls) == 1


class TestFlexes:
    def test_fermat_count_and_rational_points(self, fermat):
        data = flexes(fermat)
        count, pts = data.eliminant.degree, data.points
        assert count == 9
        assert set(pts) == {ProjectivePoint(1, -1, 0), ProjectivePoint(1, 0, -1),
                            ProjectivePoint(0, 1, -1)}

    def test_normal_form_flex_at_infinity(self):
        form = weierstrass_normal_form(-4, 0)
        pts = flexes(form).points
        assert ProjectivePoint(0, 0, 1) in pts

    def test_nine_distinct_on_fixtures(self, fermat):
        for form in (fermat, weierstrass_normal_form(-4, 0),
                     weierstrass_normal_form(0, F(-1, 4))):
            data = flexes(form)
            assert data.eliminant.degree == 9
            assert squarefree_part(data.eliminant).degree == 9

    def test_singular_input_rejected(self, nodal_cubic):
        with pytest.raises(DomainError):
            flexes(nodal_cubic)


class TestWeierstrassNormalization:
    def test_already_normal(self):
        form = weierstrass_normal_form(-4, 0)
        w = weierstrass_at_flex(form, ProjectivePoint(0, 0, 1))
        assert (w.alpha, w.beta) == (-4, 0)
        from unisecant.exactalg import mat3_identity
        assert w.transform == mat3_identity()

    def test_fermat_lands_in_alpha_zero_class(self, fermat):
        w = weierstrass_at_flex(fermat, ProjectivePoint(1, -1, 0))
        assert w.alpha == 0 and w.beta != 0
        assert j_invariant(w) == 0

    def test_transform_really_normalizes(self, fermat):
        w = weierstrass_at_flex(fermat, ProjectivePoint(1, -1, 0))
        image = fermat.substitute(w.transform)
        normal = w.normal_form()
        scale = image.coefficient((1, 0, 2)) / normal.coefficient((1, 0, 2))
        assert image == normal.scale(scale)

    def test_non_flex_rejected(self, fermat):
        with pytest.raises(DomainError):
            weierstrass_at_flex(fermat, ProjectivePoint(1, -1, 1))

    def test_singular_cubic_rejected(self, nodal_cubic):
        with pytest.raises(DomainError):
            weierstrass_at_flex(nodal_cubic, ProjectivePoint(0, 1, 0))

    def test_general_weierstrass_conversion(self):
        # y^2 + xy = x^3 - 2x + 1 converts by completing the square.
        form = general_weierstrass_cubic(1, 0, 0, -2, 1)
        w = weierstrass_at_flex(form, ProjectivePoint(0, 0, 1))
        assert w.alpha.denominator != 0  # exact rational output
        assert is_smooth_cubic(form) == w.is_smooth()


def _four_substitutions(f, p):
    """The normalization built step by step: t1, then t2, t3, t4, each substituted."""
    t1 = cubic_mod._flex_frame(p, [g.evaluate(p.coords) for g in f.gradient()])
    g1 = f.substitute(t1)
    a, c = g1.coefficient((1, 0, 2)), g1.coefficient((0, 3, 0))
    b1, b2 = g1.coefficient((2, 0, 1)), g1.coefficient((1, 1, 1))
    t2 = mat3([[1, 0, -b1 / (2 * a)], [0, 1, -b2 / (2 * a)], [0, 0, 1]])
    g2 = g1.substitute(t2)
    t3 = mat3([[1, -g2.coefficient((1, 2, 0)) / (3 * c), 0], [0, 1, 0], [0, 0, 1]])
    g3 = g2.substitute(t3)
    t4 = mat3([[-c / (4 * a), 0, 0], [0, 1, 0], [0, 0, 1]])
    g4 = g3.substitute(t4)
    scale = g4.coefficient((1, 0, 2))
    transform = mat3_mul(mat3_mul(mat3_mul(t4, t3), t2), t1)
    return -g4.coefficient((2, 1, 0)) / scale, -g4.coefficient((3, 0, 0)) / scale, transform


_flexed_cubics = st.one_of(
    st.builds(lambda a: general_weierstrass_cubic(*a),
              st.lists(st.integers(-3, 3), min_size=5, max_size=5)),
    st.builds(lambda d: kubert_z9_curve(d)[0], st.integers(2, 7)),
    st.builds(lambda c: kubert_z6_curve(c)[0], st.sampled_from([1, 2, 3, F(1, 2), F(-1, 3)])))


class TestWeierstrassClosedForm:
    """``weierstrass_at_flex`` against the four-substitution construction."""

    @given(_flexed_cubics, st.lists(st.integers(-2, 2), min_size=9, max_size=9))
    def test_matches_four_substitutions_on_moved_cubics(self, form, entries):
        m = mat3([entries[0:3], entries[3:6], entries[6:9]])
        assume(mat3_det(m) != 0 and is_smooth_cubic(form))
        moved = form.substitute(m)
        flex = moved_point(m, (0, 0, 1))
        w = weierstrass_at_flex(moved, flex)
        assert (w.alpha, w.beta, w.transform) == _four_substitutions(moved, flex)

    def test_two_substitutions(self, monkeypatch):
        form, _ = kubert_z9_curve(3)
        calls = count_calls(monkeypatch, "substitute", HomogeneousForm)
        weierstrass_at_flex(form, ProjectivePoint(0, 0, 1))
        assert len(calls) == 2


class TestJInvariant:
    def test_alpha_zero(self):
        w = weierstrass_at_flex(weierstrass_normal_form(0, 5), ProjectivePoint(0, 0, 1))
        assert j_invariant(w) == 0

    def test_beta_zero(self):
        w = weierstrass_at_flex(weierstrass_normal_form(7, 0), ProjectivePoint(0, 0, 1))
        assert j_invariant(w) == 1728

    def test_equal_at_different_flexes(self, fermat):
        pts = flexes(fermat).points
        values = {j_invariant(weierstrass_at_flex(fermat, p)) for p in pts}
        assert values == {F(0)}

    def test_invariant_under_coordinate_changes(self):
        form = weierstrass_normal_form(-4, 4)
        w0 = weierstrass_at_flex(form, ProjectivePoint(0, 0, 1))
        j0 = j_invariant(w0)
        rng = random.Random(12)
        done = 0
        while done < 5:
            m = mat3([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            if mat3_det(m) == 0:
                continue
            moved = form.substitute(m)
            pts = flexes(moved).points
            assert pts, "coordinate change lost all rational flexes"
            assert j_invariant(weierstrass_at_flex(moved, pts[0])) == j0
            done += 1

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            j_invariant(WeierstrassData(F(0), F(0), mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))


class TestGroupLaw:
    @pytest.fixture
    def w(self):
        return weierstrass_at_flex(weierstrass_normal_form(-4, 0), ProjectivePoint(0, 0, 1))

    @pytest.fixture
    def w_rank(self):
        return weierstrass_at_flex(weierstrass_normal_form(-4, 4), ProjectivePoint(0, 0, 1))

    def test_identity(self, w):
        p = ProjectivePoint(1, 0, 0)
        assert ec_add(w, p, ORIGIN) == p

    def test_inverse(self, w_rank):
        assert ec_add(w_rank, ProjectivePoint(1, 1, 2), ProjectivePoint(1, 1, -2)) == ORIGIN

    def test_two_torsion(self, w):
        p = ProjectivePoint(1, 0, 0)
        assert ec_add(w, p, p) == ORIGIN
        assert ec_scalar_mul(w, 2, p) == ORIGIN

    def test_scalar_zero_and_negative(self, w_rank):
        p = ProjectivePoint(1, 1, 2)
        assert ec_scalar_mul(w_rank, 0, p) == ORIGIN
        q = ec_scalar_mul(w_rank, 3, p)
        assert ec_scalar_mul(w_rank, -3, p) == ProjectivePoint(1, q[1], -q[2])

    def test_off_curve_rejected(self, w):
        with pytest.raises(DomainError):
            ec_add(w, ProjectivePoint(1, 1, 1), ORIGIN)

    @pytest.mark.parametrize("entry", [
        lambda w, p: ec_add(w, ORIGIN, p),
        lambda w, p: ec_scalar_mul(w, -2, p),
        lambda w, p: point_order(w, p, 5),
    ], ids=["ec_add", "ec_scalar_mul", "point_order"])
    def test_each_entry_rejects_an_off_curve_point(self, w, entry):
        with pytest.raises(DomainError, match="is not on y"):
            entry(w, ProjectivePoint(1, 1, 1))

    def test_only_the_origin_lies_on_the_line_at_infinity(self, w):
        with pytest.raises(DomainError, match="is not on y"):
            ec_add(w, ProjectivePoint(0, 1, 0), ORIGIN)

    def test_each_entry_checks_its_input_once(self, w_rank, monkeypatch):
        p = ProjectivePoint(1, 1, 2)
        calls = count_calls(monkeypatch, "on_curve", cubic_mod)
        for entry in (lambda: point_order(w_rank, p, 12), lambda: ec_scalar_mul(w_rank, 13, p)):
            calls.clear()
            entry()
            assert len(calls) == 1
        ec_add(w_rank, p, p)
        assert len(calls) == 3

    def test_associativity_randomized(self, w_rank):
        rng = random.Random(31)
        pts = [ec_scalar_mul(w_rank, n, ProjectivePoint(1, 1, 2)) for n in range(-4, 5)]
        for _ in range(60):
            a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert ec_add(w_rank, ec_add(w_rank, a, b), c) == \
                ec_add(w_rank, a, ec_add(w_rank, b, c))

    def test_point_order_examples(self, w):
        assert point_order(w, ORIGIN, 5) == 1
        assert point_order(w, ProjectivePoint(1, 0, 0), 5) == 2

    def test_order_exceeds_bound(self, w_rank):
        assert point_order(w_rank, ProjectivePoint(1, 1, 2), 30) is None


class TestTorsionFamilies:
    def test_z9_order_certificate(self):
        form, p = kubert_z9_curve(2)
        assert is_smooth_cubic(form)
        w, q = normalized_curve_with_point(form, p)
        assert point_order(w, q, 12) == 9
        assert ec_scalar_mul(w, 9, q) == ORIGIN
        assert ec_scalar_mul(w, 3, q) != ORIGIN

    def test_z9_second_parameter(self):
        form, p = kubert_z9_curve(3)
        w, q = normalized_curve_with_point(form, p)
        assert point_order(w, q, 12) == 9

    def test_z6_order_certificate(self):
        form, p = kubert_z6_curve(1)
        w, q = normalized_curve_with_point(form, p)
        assert point_order(w, q, 12) == 6

    def test_multiples_reach_every_torsion_order(self):
        # The multiples [n]P, n < 12, of the marked point on Kubert curves
        # with P of order 9 (two parameters), 6, 7, 8, 10 and 12 reach every
        # torsion order 1-10 and 12; add the 2-torsion point of y^2 = 4x^3 - 4x
        # and the rank-1 point (1, 2) of y^2 = 4x^3 - 4x + 4 with its multiples.
        curves = [kubert_z9_curve(2), kubert_z9_curve(3), *tate_torsion_curves().values()]
        cases = []
        for form, p in curves:
            w, q = normalized_curve_with_point(form, p)
            cases += [(w, ec_scalar_mul(w, n, q)) for n in range(12)]
        w2 = weierstrass_at_flex(weierstrass_normal_form(-4, 0), ProjectivePoint(0, 0, 1))
        w_rank = weierstrass_at_flex(weierstrass_normal_form(-4, 4), ProjectivePoint(0, 0, 1))
        cases.append((w2, ProjectivePoint(1, 0, 0)))
        cases += [(w_rank, ec_scalar_mul(w_rank, n, ProjectivePoint(1, 1, 2))) for n in (1, 2, 9)]
        orders = [point_order(w, p, 12) for w, p in cases]
        assert set(orders) == {None, *range(1, 11), 12}

    def test_realized_minimal_levels(self):
        # A point of group order n first carries a contact divisor at level
        # n / gcd(n, 3): the smallest k with [3k]P = O.
        from math import gcd

        def realized_level(w, p):
            for k in range(1, 10):
                if ec_scalar_mul(w, 3 * k, p) == ORIGIN:
                    return k
            raise AssertionError("no level found")

        form9, p9 = kubert_z9_curve(2)
        w9, q9 = normalized_curve_with_point(form9, p9)
        form6, p6 = kubert_z6_curve(1)
        w6, q6 = normalized_curve_with_point(form6, p6)
        w2 = weierstrass_at_flex(weierstrass_normal_form(-4, 0), ProjectivePoint(0, 0, 1))
        cases = [
            (w9, ORIGIN, 1),
            (w2, ProjectivePoint(1, 0, 0), 2),
            (w9, ec_scalar_mul(w9, 3, q9), 3),   # order-3 point
            (w6, q6, 6),
            (w9, q9, 9),
        ]
        for w, p, order in cases:
            assert point_order(w, p, 12) == order
            assert realized_level(w, p) == order // gcd(order, 3)
