"""Contact systems, pencil discriminants, member classification, counts."""

import hashlib
import json
import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import unisecant.cubic as cubic_mod
import unisecant.exactalg.elim as elim_mod
import unisecant.pencils as pencils_mod
from unisecant.cli import main
from unisecant.errors import (DegeneratePencilError, DomainError, UnisecantError,
                              UnsupportedFieldError)
from unisecant.exactalg import (
    HomogeneousForm,
    ProjectivePoint,
    UnivariatePoly,
    discriminant_along_pencil,
    factor_over_q,
    mat3,
    mat3_det,
    mat3_identity,
    nullspace,
    rational_roots,
    squarefree_part,
    ternary_discriminant,
    unimodular_matrices,
    yun_decomposition,
)
from unisecant.cubic import (
    flexes,
    kubert_z6_curve,
    kubert_z9_curve,
    weierstrass_at_flex,
    weierstrass_normal_form,
)
from unisecant.pencils import (
    CUSP,
    DOUBLE_LINE,
    IRREDUCIBLE_CONIC,
    NODE,
    NON_REDUCED,
    UNRESOLVED,
    MemberRecord,
    Pencil,
    PencilParameter,
    classify_singular_member,
    contact_conic_check,
    contact_system,
    flex_pencil,
    flex_pencil_count,
    member_singular_at,
    nonflex_fiber_accounting,
    pencil_at,
    pencil_discriminant,
    singular_member_report,
    unisecant_count_k3,
)
from unisecant.singular import curve_germ
from conftest import count_calls, fixture_path, load_form, moved_point

H = HomogeneousForm
P = ProjectivePoint
FLEX = P(0, 0, 1)


class TestContactSystem:
    def test_inflection_line_at_k1(self):
        cs = contact_system(weierstrass_normal_form(-4, 0), FLEX, 1)
        assert cs.dimension == 1
        assert cs.basis[0] == H.monomial((1, 0, 0))

    def test_flex_pencil_at_k3(self):
        form = weierstrass_normal_form(-4, 0)
        cs = contact_system(form, FLEX, 3)
        assert cs.dimension == 2 and cs.is_contact_point()
        # F itself (up to scale) must lie in the span.
        names = {frozenset(b.coeffs) for b in cs.basis}
        assert frozenset({(3, 0, 0)}) in names  # the cube of the inflection line

    def test_non_torsion_point_only_multiples(self):
        form = weierstrass_normal_form(-4, 4)  # rank curve, (1, 2) non-torsion
        cs = contact_system(form, P(1, 1, 2), 3)
        assert cs.dimension == 1 and not cs.is_contact_point()

    def test_codimension_matches_at_contact_points(self):
        # dim = (k+2)(k+1)/2 - (3k - 1) at realized contact points, for
        # k = 1, 2, 3 on torsion fixtures.
        form9, p9 = kubert_z9_curve(2)
        form6, p6 = kubert_z6_curve(1)
        cases = [(form9, FLEX, 1), (form6, p6, 2), (form9, p9, 3)]
        for form, pt, k in cases:
            cs = contact_system(form, pt, k)
            assert cs.dimension == (k + 2) * (k + 1) // 2 - (3 * k - 1)

    def test_order9_point_dimensions_by_level(self):
        form9, p9 = kubert_z9_curve(2)
        # Order 9: no contact at k = 1, 2; contact at k = 3.
        assert not contact_system(form9, p9, 1).is_contact_point()
        assert not contact_system(form9, p9, 2).is_contact_point()
        assert contact_system(form9, p9, 3).is_contact_point()

    def test_off_curve_rejected(self):
        with pytest.raises(DomainError):
            contact_system(weierstrass_normal_form(-4, 0), P(1, 1, 1), 2)

    def test_non_cubic_rejected(self):
        with pytest.raises(DomainError, match="cubic"):
            contact_system(H(2, {(2, 0, 0): 1, (0, 1, 1): -1}), P(0, 1, 0), 1)

    def test_singular_point_rejected(self, nodal_cubic):
        with pytest.raises(DomainError, match="singular"):
            contact_system(nodal_cubic, P(0, 0, 1), 1)

    def test_k4_at_flex_contains_cubic_multiples(self):
        # A flex has order dividing 3, so 12P moves at level 4 too; the
        # kernel is F * (linear forms) plus one honest contact quartic.
        form = weierstrass_normal_form(-4, 0)
        cs = contact_system(form, FLEX, 4)
        assert cs.multiples_dimension() == 3
        assert cs.dimension == 4 and cs.is_contact_point()
        # X0 * F lies in the span: check it satisfies the contact conditions
        # by membership in the solved kernel (rank test).
        from unisecant.exactalg import nullspace
        target = H.monomial((1, 0, 0)) * form
        monos = sorted({m for b in cs.basis for m in b.coeffs}
                       | set(target.coeffs))
        rows = [[b.coefficient(m) for m in monos] for b in cs.basis]
        rows.append([target.coefficient(m) for m in monos])
        # target dependent on the basis <=> adding it does not raise rank.
        assert len(nullspace(rows, len(monos))) == len(nullspace(rows[:-1], len(monos)))


class TestFlexPencil:
    def test_alpha_nonzero_discriminant_factor(self):
        # Affine factor proportional to alpha^3 + 27 (beta - s)^2 with two
        # simple roots; the non-reduced member carries the rest of 12.
        w = weierstrass_at_flex(weierstrass_normal_form(-4, 0), FLEX)
        disc = pencil_discriminant(flex_pencil(w))
        assert disc.affine.degree == 2
        # Monic squarefree part is s^2 - 64/27, i.e. alpha^3 + 27 s^2 = 0.
        assert disc.affine[1] == 0
        assert 27 * squarefree_part(disc.affine)[0] == F(-64)
        assert disc.multiplicity_at_infinity() == 10
        # Two simple affine roots and the member g at infinity.
        assert squarefree_part(disc.affine).degree == 2

    def test_alpha_zero_single_double_root(self):
        w = weierstrass_at_flex(weierstrass_normal_form(0, F(-1, 4)), FLEX)
        disc = pencil_discriminant(flex_pencil(w))
        assert disc.affine.degree == 2
        assert squarefree_part(disc.affine).degree == 1
        report = singular_member_report(flex_pencil(w))
        cusp_records = [r for r in report.records if r.classification == CUSP]
        assert len(cusp_records) == 1
        assert cusp_records[0].parameter == PencilParameter(F(-1, 4), F(1))
        assert cusp_records[0].multiplicity == 2

    def test_counts(self):
        w = weierstrass_at_flex(weierstrass_normal_form(-4, 0), FLEX)
        assert flex_pencil_count(w) == (2, [NODE, NODE])
        w0 = weierstrass_at_flex(weierstrass_normal_form(0, F(-1, 4)), FLEX)
        assert flex_pencil_count(w0) == (1, [CUSP])

    def test_count_matches_discriminant_roots(self):
        # With rational roots (alpha = -3) the general classifier can
        # cross-check the closed-form kinds.
        w = weierstrass_at_flex(weierstrass_normal_form(-3, 0), FLEX)
        assert flex_pencil_count(w) == (2, [NODE, NODE])
        report = singular_member_report(flex_pencil(w))
        rational = [r for r in report.records
                    if r.parameter is not None and r.parameter.s2 != 0]
        assert sorted(r.classification for r in rational) == [NODE, NODE]
        assert all(r.multiplicity == 1 for r in rational)

    def test_constant_across_flexes(self, fermat):
        pts = flexes(fermat).points
        counts = {tuple([c, tuple(kinds)])
                  for c, kinds in (flex_pencil_count(weierstrass_at_flex(fermat, p))
                                   for p in pts)}
        assert counts == {(1, (CUSP,))}

    def test_singular_curve_rejected(self):
        from unisecant.cubic import WeierstrassData
        from unisecant.exactalg import mat3_identity
        w = WeierstrassData(F(0), F(0), mat3_identity())
        with pytest.raises(DomainError):
            flex_pencil_count(w)


def _moved(form, point, m):
    """The form after the change m, with the point moved along."""
    return form.substitute(m), moved_point(m, point.coords)


def _basis_by_monomial_germs(curve, p, k):
    """The contact basis by the per-monomial route: the germ of every degree-k
    monomial at p, composed with the branch series of the curve there."""
    order = 3 * k
    phi, den, swapped = pencils_mod._branch_series(curve_germ(curve, p), order)
    monomials = [(a, b, k - a - b) for a in range(k, -1, -1) for b in range(k - a, -1, -1)]
    germs = [curve_germ(H.monomial(e), p) for e in monomials]
    series = [pencils_mod._series_compose(g.swap() if swapped else g, phi, den, order)
              for g in germs]
    rows = [[F(s[r], d) for s, d in series] for r in range(order)]
    return [H(k, dict(zip(monomials, vec))).primitive()
            for vec in nullspace(rows, len(monomials))]


_small_q = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
_changes = st.just(mat3_identity()) | st.lists(
    st.integers(-2, 2), min_size=9, max_size=9).map(
    lambda v: mat3([v[0:3], v[3:6], v[6:9]])).filter(lambda m: mat3_det(m) != 0)


@st.composite
def _moved_weierstrass_points(draw):
    """A moved smooth Weierstrass cubic with a rational point on it: the flex
    (0:0:1) or (1 : x : y) with y = 0 allowed (a vertical tangent there)."""
    alpha, x, y = draw(st.integers(-4, 4)), draw(_small_q), draw(st.just(F(0)) | _small_q)
    beta = y * y - 4 * x**3 - alpha * x
    assume(alpha**3 + 27 * beta**2 != 0)
    point = draw(st.sampled_from([FLEX, P(1, x, y)]))
    return _moved(weierstrass_normal_form(alpha, beta), point, draw(_changes))


class TestContactRowsDifferential:
    """contact_system's coordinate-series rows against the per-monomial germs."""

    @given(_moved_weierstrass_points(), st.integers(1, 4))
    def test_matches_monomial_germs(self, curve_point, k):
        curve, p = curve_point
        assert contact_system(curve, p, k).basis == _basis_by_monomial_germs(curve, p, k)

    @pytest.mark.parametrize("point", [FLEX, P(1, 1, 0)], ids=["flex", "order2"])
    def test_swapped_branch(self, point):
        # The y-partial of the germ vanishes at both points, so the branch is x = phi(y).
        curve = weierstrass_normal_form(-4, 0)
        assert pencils_mod._branch_series(curve_germ(curve, point), 3)[2]
        for k in range(1, 5):
            assert contact_system(curve, point, k).basis == _basis_by_monomial_germs(curve, point, k)


def _quotient_pencils():
    """z9_d2, both flex pencils of TestFlexPencil and three seeded Kubert d."""
    rng = random.Random(9)
    ds = [F(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 4)) for _ in range(3)]
    cases = [pytest.param(pencil_at(contact_system(load_form("z9_d2.json"), P(1, 0, 0), 3)),
                          id="z9_d2")]
    for a, b in [(-4, 0), (0, F(-1, 4))]:
        w = weierstrass_at_flex(weierstrass_normal_form(a, b), FLEX)
        cases.append(pytest.param(flex_pencil(w), id=f"flex_alpha{a}"))
    for d in ds:
        cases.append(pytest.param(pencil_at(contact_system(*kubert_z9_curve(d), 3)),
                                  id=f"kubert_{d.numerator}_{d.denominator}"))
    return cases


def _cubic(coeffs) -> HomogeneousForm:
    monos = [(a, b, 3 - a - b) for a in range(4) for b in range(4 - a)]
    return H(3, dict(zip(monos, coeffs)))


small_cubics = st.lists(st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
                        min_size=10, max_size=10).map(_cubic)


class TestDiscriminantQuotient:
    """The interpolated 6x6 resultant along a pencil against the per-member definition."""

    @pytest.mark.parametrize("pencil", _quotient_pencils())
    def test_matches_member_discriminants(self, pencil):
        disc = pencil_discriminant(pencil)
        exact = discriminant_along_pencil(pencil.g, pencil.f)
        scale = None
        for u in range(16):
            value = ternary_discriminant(pencil.member(u, 1))
            assert exact.evaluate(u) == value, u
            if scale is None and value != 0:
                scale = value / disc.affine.evaluate(u)
            assert value == (scale or 0) * disc.affine.evaluate(u), u
        assert scale is not None

    def test_unmoved_kubert_pencil_needs_no_retry(self, monkeypatch):
        # Macaulay's 15x15 extraneous minor vanishes identically along this
        # pencil; the 6x6 formula has none: 13 determinants of size 6 and
        # no coordinate change.
        pencil = pencil_at(contact_system(*kubert_z9_curve(2), 3))
        calls = count_calls(monkeypatch, "bareiss_det_int", elim_mod)
        moves = count_calls(monkeypatch, "substitute", HomogeneousForm)
        discriminant_along_pencil(pencil.g, pencil.f)
        assert [len(m) for (m,) in calls] == [6] * 13
        assert moves == []

    @given(small_cubics, small_cubics)
    def test_random_pencils_match_member_discriminants(self, g, f):
        exact = discriminant_along_pencil(g, f)
        assert exact.is_zero() or exact.degree <= 12
        for u in range(-2, 14):
            member = g.scale(u) + f  # the zero member has a zero Sylvester matrix
            assert exact.evaluate(u) == (0 if member.is_zero() else ternary_discriminant(member))

    def test_singular_generator_lowers_the_degree(self, nodal_cubic, fermat):
        # The member g = nodal cubic sits at u = infinity, so the affine
        # discriminant loses degree; the values still match member by member.
        exact = discriminant_along_pencil(nodal_cubic, fermat)
        assert 0 < exact.degree < 12
        for u in range(-3, 10):
            assert exact.evaluate(u) == ternary_discriminant(nodal_cubic.scale(u) + fermat)

    def test_all_singular_pencil_vanishes(self, nodal_cubic):
        assert discriminant_along_pencil(nodal_cubic, nodal_cubic.scale(3)).is_zero()

    def test_singular_pencil_is_degenerate(self, nodal_cubic):
        with pytest.raises(DegeneratePencilError):
            pencil_discriminant(Pencil(nodal_cubic, nodal_cubic, P(0, 0, 1)))

    def test_non_cubics_rejected(self):
        conic = H(2, {(2, 0, 0): 1, (0, 1, 1): -1})
        with pytest.raises(DomainError, match="cubics"):
            discriminant_along_pencil(conic, conic)


class TestMemberClassification:
    def test_node(self, nodal_cubic):
        assert classify_singular_member(nodal_cubic) == NODE

    def test_cusp(self, cuspidal_cubic):
        assert classify_singular_member(cuspidal_cubic) == CUSP

    def test_non_reduced(self):
        assert classify_singular_member(H.monomial((3, 0, 0))) == NON_REDUCED

    def test_smooth_rejected(self, fermat):
        with pytest.raises(DomainError):
            classify_singular_member(fermat)


def _outcome(member, point=None):
    try:
        return classify_singular_member(member, point)
    except DomainError as exc:
        return f"DomainError: {exc}"


# Members singular at P = (1:0:0): a line through P times a conic through P.
# Transversal, the second point of the line on the conic is singular too;
# tangent, P is a tacnode.  The line X2 is y in P's germ coordinates.
_LINE_TIMES_CONIC = {
    "transversal": (H.linear(0, 1, 1), H(2, {(1, 0, 1): 1, (0, 2, 0): 1})),
    "transversal_y": (H.linear(0, 0, 1), H(2, {(1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})),
    "tacnode": (H.linear(0, 1, 1), H(2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 2, 0): 1})),
    "tacnode_y": (H.linear(0, 0, 1), H(2, {(1, 0, 1): 1, (0, 2, 0): 1})),
}
_SOME_CHANGE = mat3([[1, 0, -1], [1, -2, -2], [2, 1, -1]])


class TestKnownSingularPoint:
    """classify_singular_member with the singular point given."""

    @pytest.mark.parametrize("m", [mat3_identity(), _SOME_CHANGE], ids=["unmoved", "moved"])
    @pytest.mark.parametrize("name", sorted(_LINE_TIMES_CONIC))
    def test_line_times_conic_is_searched(self, name, m, monkeypatch):
        line, conic = _LINE_TIMES_CONIC[name]
        member, point = _moved(line * conic, P(1, 0, 0), m)
        expected = _outcome(member)
        assert expected == ("DomainError: member has several singular points (reducible cubic)"
                            if name.startswith("transversal") else
                            "DomainError: double point is neither a node nor a simple cusp")
        calls = count_calls(monkeypatch, "rational_singular_points", pencils_mod)
        assert _outcome(member, point) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [mat3_identity(), _SOME_CHANGE], ids=["unmoved", "moved"])
    def test_irreducible_member_is_certified(self, nodal_cubic, cuspidal_cubic, m, monkeypatch):
        calls = count_calls(monkeypatch, "rational_singular_points", pencils_mod)
        for form, kind in [(nodal_cubic, NODE), (cuspidal_cubic, CUSP)]:
            member, point = _moved(form, P(0, 0, 1), m)
            assert classify_singular_member(member, point) == kind
        assert calls == []
        assert [classify_singular_member(_moved(form, P(0, 0, 1), m)[0])
                for form in (nodal_cubic, cuspidal_cubic)] == [NODE, CUSP]

    def test_point_not_singular_is_searched(self, nodal_cubic, monkeypatch):
        # (3:6:1) is a smooth point of the nodal cubic and (1:0:0) is off it;
        # moved, the germ at the first has coprime parts of degree 2 and 3.
        calls = count_calls(monkeypatch, "rational_singular_points", pencils_mod)
        for point in (P(3, 6, 1), P(1, 0, 0)):
            assert classify_singular_member(*_moved(nodal_cubic, point, _SOME_CHANGE)) == NODE
        assert len(calls) == 2


class TestMemberSingularAt:
    def test_returns_double_point_member(self):
        form9, p9 = kubert_z9_curve(2)
        pencil = pencil_at(contact_system(form9, p9, 3))
        param = member_singular_at(pencil)
        member = pencil.member_at(param)
        from unisecant.singular import curve_germ
        assert curve_germ(member, p9).multiplicity() == 2

    def test_flex_case_flagged(self):
        w = weierstrass_at_flex(weierstrass_normal_form(-4, 0), FLEX)
        pen = flex_pencil(w)
        param = member_singular_at(pen)
        assert param.at_flex and param == PencilParameter(F(1), F(0))

    def test_generator_gradients_not_proportional_raise(self):
        # At (0:0:1), X1 X2^2 has the gradient (0, 1, 0) and X0 X2^2 (1, 0, 0).
        g = HomogeneousForm(3, {(0, 1, 2): 1})
        f = HomogeneousForm(3, {(1, 0, 2): 1})
        with pytest.raises(UnisecantError, match="not proportional"):
            member_singular_at(Pencil(g, f, ProjectivePoint(0, 0, 1)))


class TestNonflexAccounting:
    @pytest.fixture(scope="module")
    def accounting(self):
        form9, p9 = kubert_z9_curve(2)
        return nonflex_fiber_accounting(form9, p9)

    def test_multiplicity_pattern(self, accounting):
        assert accounting.multiplicities() == [9, 1, 1, 1]

    def test_nine_at_singular_member(self, accounting):
        assert accounting.multiplicity_at_point == 9

    def test_node_at_contact_point(self, accounting):
        assert accounting.classification_at_point == NODE

    def test_total_is_twelve(self, accounting):
        assert accounting.report.total_multiplicity() == 12

    def test_rational_members_classified_nodal(self, accounting):
        rational = [r for r in accounting.report.records if r.parameter is not None]
        assert all(r.classification == NODE for r in rational)

    def test_smoothness_decided_once(self, monkeypatch):
        # One test in flexes (contact_system relies on it); the pencil
        # discriminant is one Macaulay quotient and evaluates no member.
        calls = count_calls(monkeypatch, "ternary_discriminant", elim_mod, cubic_mod)
        nonflex_fiber_accounting(*kubert_z9_curve(2))
        assert len(calls) == 1

    def test_member_at_p_is_not_searched(self, monkeypatch):
        # The member singular at P is certified from its germ there, and the
        # other rational member, a simple root, from the discriminant: no
        # singular-point search runs.
        calls = count_calls(monkeypatch, "rational_singular_points", pencils_mod)
        accounting = nonflex_fiber_accounting(load_form("z9_d2.json"), P(1, 0, 0))
        assert accounting.classification_at_point == NODE
        assert len(calls) == 0

    def test_wrong_order_rejected(self):
        form6, p6 = kubert_z6_curve(1)
        with pytest.raises(DomainError, match="got order 6"):
            nonflex_fiber_accounting(form6, p6)

    def test_non_torsion_point_rejected(self):
        # (1, 2) on y^2 = 4x^3 - 4x + 4 has infinite order.
        with pytest.raises(DomainError, match="got order infinite"):
            nonflex_fiber_accounting(weierstrass_normal_form(-4, 4), P(1, 1, 2))


class TestUnisecantCount:
    def test_general_curve_306(self):
        result = unisecant_count_k3(weierstrass_normal_form(-4, 0))
        assert result.total == 306
        assert result.j == 1728
        assert result.flex_members == 2

    def test_fermat_297(self, fermat):
        result = unisecant_count_k3(fermat)
        assert result.total == 297
        assert result.j == 0

    def test_alpha_zero_class_297(self):
        assert unisecant_count_k3(weierstrass_normal_form(0, F(-1, 4))).total == 297

    def test_assembly_identity(self):
        result = unisecant_count_k3(weierstrass_normal_form(-4, 0))
        assert result.total == 9 * result.flex_members + 4 * result.primitive_points
        assert result.primitive_points == 72

    def test_singular_rejected(self, nodal_cubic):
        with pytest.raises(DomainError):
            unisecant_count_k3(nodal_cubic)

    def test_smoothness_decided_once(self, fermat, monkeypatch):
        calls = count_calls(monkeypatch, "ternary_discriminant", elim_mod, cubic_mod)
        unisecant_count_k3(fermat)
        assert len(calls) == 1


class TestContactConic:
    def test_singular_cubic_rejected(self, nodal_cubic):
        with pytest.raises(DomainError, match="smooth cubic"):
            contact_conic_check(nodal_cubic, P(0, 1, 0))

    def test_order6_point_irreducible(self):
        form6, p6 = kubert_z6_curve(1)
        assert contact_conic_check(form6, p6) == IRREDUCIBLE_CONIC

    def test_flex_double_line(self):
        form6, _ = kubert_z6_curve(1)
        assert contact_conic_check(form6, FLEX) == DOUBLE_LINE

    def test_order2_point_irreducible(self):
        assert contact_conic_check(weierstrass_normal_form(-4, 0),
                                   P(1, 0, 0)) == IRREDUCIBLE_CONIC

    def test_double_line_is_tangent_squared(self):
        form6, _ = kubert_z6_curve(1)
        cs = contact_system(form6, FLEX, 2)
        # At the flex (0:0:1) with inflection line X0 the divisor is X0^2.
        assert cs.basis[0] == H.monomial((2, 0, 0))

    def test_contact_conic_is_unisecant(self):
        # The conic meets the cubic with multiplicity 6 = 2*3 at the point:
        # the whole Bezout budget at one point, i.e. a unisecant conic.
        from unisecant.singular import local_intersection
        form6, p6 = kubert_z6_curve(1)
        conic = contact_system(form6, p6, 2).basis[0]
        assert local_intersection(conic, form6, p6) == 6

    def test_non_contact_point_rejected(self):
        # (1, 2) on the rank curve has infinite order: no 6-contact divisor.
        with pytest.raises(DomainError):
            contact_conic_check(weierstrass_normal_form(-4, 4), P(1, 1, 2))


class TestDiscriminantInvariants:
    def test_multiplicities_sum_to_twelve_on_fixtures(self, fermat):
        for form, pt in [(weierstrass_normal_form(-4, 0), FLEX)]:
            pen = flex_pencil(weierstrass_at_flex(form, pt))
            report = singular_member_report(pen)
            assert report.total_multiplicity() == 12

    def test_order9_pencil_generators_osculate(self):
        # Every member of the contact pencil meets the cubic only at P:
        # check intersection number 9 at P for two sample members.
        from unisecant.singular import local_intersection
        form9, p9 = kubert_z9_curve(2)
        pencil = pencil_at(contact_system(form9, p9, 3))
        for s1, s2 in [(1, 0), (1, 1), (2, -3)]:
            member = pencil.member(s1, s2)
            if member.is_zero():
                continue
            assert local_intersection(member, form9, p9) >= 9


# Monic irreducible factors over Q for the split of a Yun factor: rational
# linear factors, quadratics and cubics without a rational root, and
# quartics irreducible by Eisenstein's criterion at 2.
_rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 6))
_linear = _rationals.map(lambda r: UnivariatePoly([-r, 1]))
_rootless = st.one_of(
    st.lists(_rationals, min_size=2, max_size=2),
    st.lists(_rationals, min_size=3, max_size=3),
).map(lambda cs: UnivariatePoly(cs + [1])).filter(lambda p: not rational_roots(p)[0])
_eisenstein_quartic = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
                                st.integers(-3, 3)).map(
    lambda t: UnivariatePoly([2 * (2 * t[0] + 1), 2 * t[1], 2 * t[2], 2 * t[3], 1]))


class TestYunFactorSplit:
    """``_split_over_q`` against ``factor_over_q`` on squarefree products."""

    @given(st.lists(_linear, max_size=4, unique=True),
           st.lists(_rootless, max_size=2, unique=True),
           st.lists(_eisenstein_quartic, max_size=1))
    def test_matches_factor_over_q(self, linear, rootless, quartic):
        f = UnivariatePoly([1])
        for p in linear + rootless + quartic:
            f = f * p
        assert pencils_mod._split_over_q(f) == [p for p, _ in factor_over_q(f)]

    def test_z9_d2_pencil_needs_no_factor_over_q(self, capsys, monkeypatch):
        # The Yun factors are (linear, 9) and (cubic with one rational root, 1).
        calls = count_calls(monkeypatch, "factor_over_q", pencils_mod)
        code = main(["pencil-disc", "--cubic", fixture_path("z9_d2.json"), "--point", "1,0,0"])
        out = capsys.readouterr().out
        assert code == 0 and calls == []
        assert json.loads(out)["records"] == [
            {"multiplicity": "9", "count": "1", "classification": "node",
             "parameter": ["1/108", "1"]},
            {"multiplicity": "1", "count": "1", "classification": "node",
             "parameter": ["1/96", "1"]},
            {"multiplicity": "1", "count": "2", "classification": "unresolved",
             "minimal_polynomial": ["1/12096", "-1/56", "1"]}]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0b9a5cccf7989773208e6661a49474b9e47df1eef8694628cae08f988ab9d7d3")

    def test_repeated_factor_from_factor_over_q_raises(self, monkeypatch):
        quartic = UnivariatePoly([2, 0, 0, 0, 1])
        monkeypatch.setattr(pencils_mod, "factor_over_q", lambda f: [(f, 2)])
        with pytest.raises(UnisecantError, match="repeated factor"):
            pencils_mod._split_over_q(quartic)


# A known root r, peeled m times, and a cofactor c with repeated factors of
# its own; c may or may not vanish at r.
_small_polys = st.lists(st.integers(-5, 5), min_size=2, max_size=3).map(UnivariatePoly).filter(
    lambda p: p.degree > 0)


class TestPeeledYun:
    """``_yun_with_root`` against ``yun_decomposition`` on the whole polynomial."""

    @given(_rationals, st.integers(1, 10),
           st.lists(st.tuples(_small_polys, st.integers(1, 4)), min_size=1, max_size=3),
           _rationals.filter(lambda c: c != 0))
    def test_matches_yun_on_the_product(self, r, m, factors, scale):
        c = UnivariatePoly([scale])
        for p, k in factors:
            c = c * p**k
        f = UnivariatePoly([-r, 1]) ** m * c
        assert pencils_mod._yun_with_root(f, r) == yun_decomposition(f)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_root_joins_the_factor_of_its_multiplicity(self, m):
        # c = (u + 1)(u - 2)^2 (u^2 + 1)^3: (u - 5) goes into the factor of multiplicity m.
        c = UnivariatePoly([1, 1]) * UnivariatePoly([-2, 1]) ** 2 * UnivariatePoly([1, 0, 1]) ** 3
        f = UnivariatePoly([-5, 1]) ** m * c
        peeled = pencils_mod._yun_with_root(f, F(5))
        assert peeled == yun_decomposition(f)
        assert [k for _, k in peeled] == [1, 2, 3]
        assert peeled[m - 1][0].evaluate(5) == 0

    def test_exact_quotient_decides_without_evaluating(self, monkeypatch):
        f = UnivariatePoly([F(-1, 3), 1]) ** 3 * UnivariatePoly([1, 0, 1])
        calls = count_calls(monkeypatch, "evaluate", UnivariatePoly)
        assert pencils_mod._yun_with_root(f, F(1, 3)) == yun_decomposition(f)
        assert calls == []


def _reference_report(pencil):
    """The records with no peel and no certificate: Yun on the whole discriminant,
    factors from sympy, and the singular-point search on every rational member."""
    disc = pencil_discriminant(pencil)

    def record(param, mult):
        try:
            kind = classify_singular_member(pencil.member_at(param))
        except (UnsupportedFieldError, DomainError):
            kind = UNRESOLVED
        return MemberRecord(param, None, 1, mult, kind)

    records = []
    for factor, mult in yun_decomposition(disc.affine):
        for irr, _ in factor_over_q(factor):
            if irr.degree == 1:
                records.append(record(PencilParameter(-irr.coeffs[0], F(1)), mult))
            else:
                records.append(MemberRecord(None, irr, irr.degree, mult, UNRESOLVED))
    if disc.multiplicity_at_infinity():
        records.append(record(PencilParameter(F(1), F(0)), disc.multiplicity_at_infinity()))
    return sorted(records, key=lambda r: -r.multiplicity)


def _moved_kubert_pencils():
    """Moved Kubert Z/9 curves: the pencil at the order-9 point and at every
    rational flex; and at the flex (0:0:1) of moved y^2 = 4x^3 - 3x (two
    rational simple members) and y^2 = 4x^3 - 1/4 (a rational cusp, double)."""
    rng = random.Random(26)
    changes = list(islice(unimodular_matrices(), 1, 40))
    cases = []
    for i in range(5):
        d = F(rng.choice([-1, 1]) * rng.randint(2, 7), rng.randint(1, 3))
        curve, p9 = _moved(*kubert_z9_curve(d), rng.choice(changes))
        for j, p in enumerate([p9] + flexes(curve).points):
            cases.append(pytest.param(curve, p, id=f"kubert{i}-{'p9' if j == 0 else f'flex{j}'}"))
    for a, b in [(-3, 0), (0, F(-1, 4))]:
        curve, flex = _moved(weierstrass_normal_form(a, b), FLEX, rng.choice(changes))
        cases.append(pytest.param(curve, flex, id=f"weier_a{a}-flex"))
    return cases


class TestReportAgainstSearch:
    """Every record of the report equals the one the singular-point search gives."""

    @pytest.mark.parametrize("curve,point", _moved_kubert_pencils())
    def test_records_match_the_search(self, curve, point):
        pencil = pencil_at(contact_system(curve, point, 3))
        report = singular_member_report(pencil)
        assert report.records == _reference_report(pencil)
        assert report.record_at(report.singular_at_point).multiplicity in (9, 10)
