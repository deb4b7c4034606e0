"""Singularity engine: trees, genus, intersections, identity, families, bounds."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from unisecant.errors import (
    CommonComponentError,
    DegenerateFamilyError,
    DomainError,
    UnsupportedFieldError,
)
from unisecant import singular
from unisecant.exactalg import (BivariatePoly, HomogeneousForm, ProjectivePoint, UnivariatePoly,
                                 mat3, poly_gcd, resultant_y)
from unisecant.singular import (
    CurveFamily,
    SingularityProfile,
    blowup_intersection_identity,
    companion_multiplicities,
    curve_germ,
    family_derivative_check,
    geometric_genus,
    local_intersection,
    multiplicity_sequence,
    mu_minus_one,
    weak_type_check,
)
from unisecant.torsion import ambient_genus_bound, finiteness_certificate, genus_bound

H = HomogeneousForm
P = ProjectivePoint
U = UnivariatePoly


class TestLocalMultiplicity:
    """The multiplicity of the germ at the point: 0 off the curve, 1 at a smooth point."""

    def test_smooth_point_on_conic(self):
        conic = H(2, {(0, 2, 0): 1, (1, 0, 1): -1})  # X1^2 = X0 X2
        assert curve_germ(conic, P(1, 0, 0)).multiplicity() == 1

    def test_node_of_nodal_cubic(self, nodal_cubic):
        assert curve_germ(nodal_cubic, P(0, 0, 1)).multiplicity() == 2

    def test_cusp_of_tricuspidal(self, tricuspidal_quartic):
        assert curve_germ(tricuspidal_quartic, P(0, 0, 1)).multiplicity() == 2

    def test_off_curve(self, nodal_cubic):
        assert curve_germ(nodal_cubic, P(1, 1, 1)).multiplicity() == 0


class TestMultiplicitySequence:
    def test_node(self, nodal_cubic):
        assert multiplicity_sequence(nodal_cubic, P(0, 0, 1)).multiplicities() == [2]

    def test_cusp(self, cuspidal_cubic):
        assert multiplicity_sequence(cuspidal_cubic, P(0, 0, 1)).multiplicities() == [2]

    def test_tacnode(self):
        # (X1 X2 - X0^2)(X1 X2 + X0^2): two conics tangent at (0:0:1).
        tac = H(4, {(0, 2, 2): 1, (4, 0, 0): -1})
        pr = multiplicity_sequence(tac, P(0, 0, 1))
        assert pr.multiplicities() == [2, 2]
        assert pr.delta() == 2

    def test_higher_cusp_e6(self):
        # y^3 = x^4 at (0:0:1): multiplicity sequence [3, ...]? No: E6 is
        # [2, 2, 2]... keep to the class the formulas consume: delta = 3.
        f = H(4, {(0, 3, 1): 1, (4, 0, 0): -1})
        pr = multiplicity_sequence(f, P(0, 0, 1))
        assert sum(m * (m - 1) // 2 for m in pr.multiplicities()) == pr.delta()

    def test_non_reduced_rejected(self):
        with pytest.raises(DomainError):
            multiplicity_sequence(H.monomial((0, 2, 0)), P(1, 0, 0))

    def test_point_off_curve_rejected(self, nodal_cubic):
        with pytest.raises(DomainError):
            multiplicity_sequence(nodal_cubic, P(1, 1, 1))


class TestDeltaAndGenus:
    def test_delta_examples(self, nodal_cubic, cuspidal_cubic):
        assert multiplicity_sequence(nodal_cubic, P(0, 0, 1)).delta() == 1
        assert multiplicity_sequence(cuspidal_cubic, P(0, 0, 1)).delta() == 1

    def test_smooth_point_delta_zero(self, nodal_cubic):
        assert multiplicity_sequence(nodal_cubic, P(-1, 0, 1)).delta() == 0

    @pytest.mark.parametrize("fixture,expected", [
        ("fermat", 1), ("nodal_cubic", 0), ("cuspidal_cubic", 0),
        ("tricuspidal_quartic", 0),
    ])
    def test_genus_corpus(self, fixture, expected, request):
        form = request.getfixturevalue(fixture)
        assert geometric_genus(form) == expected

    def test_smooth_genus_formula_through_degree_5(self):
        # Fermat-type curves X0^d + X1^d + X2^d are smooth for every d.
        for d in range(1, 6):
            f = H(d, {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1})
            assert geometric_genus(f) == (d - 1) * (d - 2) // 2

    def test_reducible_rejected_without_flag(self):
        pair = H(2, {(1, 1, 0): 1})
        with pytest.raises(DomainError):
            geometric_genus(pair)

    # A line and a conic meeting in (0:1:1) and (0:1:-1), moved so that
    # (0:0:1) is off the curve: the slice certificate runs and must fail.
    MOVE = mat3([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    LINE = H.linear(1, 0, 0)
    CONIC = H(2, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})

    def test_line_times_conic_is_refused_as_reducible(self):
        f = (self.LINE * self.CONIC).substitute(self.MOVE)
        assert f.coefficient((0, 0, 3)) != 0
        with pytest.raises(DomainError, match="reducible over Q"):
            geometric_genus(f)
        # Two nodes on a curve of arithmetic genus 1.
        assert geometric_genus(f, assume_irreducible=True) == -1

    def test_line_squared_times_conic_is_refused_as_not_reduced(self):
        f = (self.LINE * self.LINE * self.CONIC).substitute(self.MOVE)
        assert f.coefficient((0, 0, 4)) != 0
        for assume_irreducible in (False, True):
            with pytest.raises(DomainError, match="not reduced"):
                geometric_genus(f, assume_irreducible=assume_irreducible)


class TestLocalIntersection:
    def test_transverse_lines(self):
        assert local_intersection(H.linear(0, 1, 0), H.linear(0, 0, 1), P(1, 0, 0)) == 1

    def test_tangent_line_to_conic(self):
        conic = H(2, {(0, 2, 0): 1, (1, 0, 1): -1})
        assert local_intersection(conic, H.linear(0, 0, 1), P(1, 0, 0)) == 2

    def test_cusp_against_tangent(self):
        f = H(3, {(1, 0, 2): 1, (0, 3, 0): -1})   # y^2 = x^3 at (1:0:0)
        assert local_intersection(f, H.linear(0, 0, 1), P(1, 0, 0)) == 3

    def test_symmetry(self, nodal_cubic):
        line = H.linear(1, 0, 0)
        p = P(0, 0, 1)
        assert local_intersection(nodal_cubic, line, p) == \
            local_intersection(line, nodal_cubic, p)

    def test_off_point_zero(self, nodal_cubic):
        assert local_intersection(nodal_cubic, H.linear(1, 0, 0), P(1, 1, 1)) == 0

    def test_common_component_rejected(self):
        f = H(2, {(1, 1, 0): 1})
        g = H(2, {(1, 0, 1): 1})
        with pytest.raises(CommonComponentError):
            local_intersection(f, g, P(0, 0, 1))

    def test_node_against_line_through(self, nodal_cubic):
        assert local_intersection(nodal_cubic, H.linear(1, 0, 0), P(0, 0, 1)) == 2

    def test_second_common_zero_on_the_projection_line(self):
        # Affine germs y^2 - y + x and y^2 - y + 2x also meet at (0, 1) on x = 0,
        # so the unmoved germs are not in good position for the resultant path.
        f = H(2, {(0, 0, 2): 1, (1, 0, 1): -1, (1, 1, 0): 1})
        g = H(2, {(0, 0, 2): 1, (1, 0, 1): -1, (1, 1, 0): 2})
        assert local_intersection(f, g, P(1, 0, 0)) == 1


def _good_position(f: BivariatePoly, g: BivariatePoly) -> bool:
    """deg_y = total degree for both, and only y = 0 in common on the line x = 0."""
    if f.degree_y() != f.total_degree() or g.degree_y() != g.total_degree():
        return False
    f0, g0 = (UnivariatePoly._from_ints([col[0] for col in h.columns()]) for h in (f, g))
    h = poly_gcd(f0, g0)[0]
    return all(c == 0 for c in h.coeffs[:-1])


@st.composite
def _germ(draw, degree):
    """A germ through the origin with a nonzero y^degree term, rational coefficients."""
    coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
    terms = {(i, j): draw(coeff) for i in range(degree + 1) for j in range(degree + 1 - i)
             if (i, j) != (0, 0) and draw(st.booleans())}
    terms[(0, degree)] = draw(st.sampled_from([-3, -1, 1, 2, F(1, 2)]))
    return BivariatePoly(terms)


class TestPackedGermOrder:
    """ord_x res_y read from one resultant at x = 2^k, against ``resultant_y``."""

    @given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda d: st.tuples(_germ(d[0]), _germ(d[1]))))
    def test_matches_the_valuation_of_resultant_y(self, germs):
        f, g = germs
        assume(_good_position(f, g))
        res = resultant_y(f, g)
        if res.is_zero():
            with pytest.raises(CommonComponentError):
                singular._germ_intersection_resultant(f, g)
        else:
            assert singular._germ_intersection_resultant(f, g) == res.valuation()

    @given(st.integers(5, 8).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(k + 1, 9),
        st.lists(st.integers(-5, 5), min_size=9, max_size=9),
        st.sampled_from([-3, -1, 1, 2, 5]), st.lists(st.integers(-5, 5), max_size=3),
        st.sampled_from([(1, 2), (-1, 3), (2, -2), (F(1, 2), 1)]))))
    def test_tangent_pairs_of_high_contact(self, case):
        # y - p(x) + a y^d and y - q(x) + b y^d with q - p = x^k r(x), r(0) != 0:
        # the branch y = p(x) + O(x^d) of the first meets the second to order k,
        # and a != b leaves only y = 0 in common on x = 0.
        k, d, p, r0, rest, (a, b) = case
        p_terms = {(i, 0): -c for i, c in enumerate(p, start=1) if i <= d}
        f = BivariatePoly({(0, 1): 1, (0, d): a, **p_terms})
        q_terms = dict(p_terms)
        for i, c in enumerate([r0, *rest]):
            if k + i <= d:
                q_terms[(k + i, 0)] = q_terms.get((k + i, 0), 0) - c
        g = BivariatePoly({(0, 1): 1, (0, d): b, **q_terms})
        assert _good_position(f, g)
        assert singular._germ_intersection_resultant(f, g) == k
        assert resultant_y(f, g).valuation() == k

    @given(st.integers(-4, 4), st.integers(1, 4),
           st.sampled_from([(1, 2), (-1, 3), (2, F(1, 2))]))
    def test_shared_component_raises(self, c, e, ab):
        # f = h u and g = h v share h = y + c x; u(0, y) = 1 + a y^e and
        # v(0, y) = 1 + b y^e are coprime, so the pair is in good position.
        a, b = ab
        h = BivariatePoly({(0, 1): 1, (1, 0): c})
        u = BivariatePoly({(0, 0): 1, (0, e): a, (1, 0): 3})
        v = BivariatePoly({(0, 0): 1, (0, e): b, (e, 0): -2})
        f, g = (BivariatePoly._from_ints(_times(h.num, w.num), h.den * w.den) for w in (u, v))
        assert _good_position(f, g)
        with pytest.raises(CommonComponentError):
            singular._germ_intersection_resultant(f, g)

    @pytest.mark.parametrize("t", range(1, 40, 3))
    def test_lowest_coefficient_a_power_of_two(self, t):
        # res_y(y, y + 2^t x) = 2^t x against the bound 2^t + 1 of length
        # k = t + 1: the coefficient's v_2 = t is one below k, the most the
        # reading allows.
        f, g = BivariatePoly({(0, 1): 1}), BivariatePoly({(0, 1): 1, (1, 0): 2**t})
        assert singular._germ_intersection_resultant(f, g) == 1


def _times(p: dict, q: dict) -> dict:
    """The product of two bivariate coefficient maps."""
    out: dict = {}
    for (i1, j1), v1 in p.items():
        for (i2, j2), v2 in q.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + v1 * v2
    return out


class TestIrrationalTangents:
    # Two nodes at (0:0:1) sharing the irrational tangents y = +-sqrt(2) x.
    F = H(3, {(0, 2, 1): 1, (2, 0, 1): -2, (3, 0, 0): 1})
    G = H(3, {(0, 2, 1): 1, (2, 0, 1): -2, (0, 3, 0): 1})

    def test_local_intersection_from_resultant_path(self):
        # The blow-up path refuses the irrational common directions, so the
        # resultant value stands: two tangent branch pairs of contact 2 plus
        # two transversal pairs.
        assert local_intersection(self.F, self.G, ProjectivePoint(0, 0, 1)) == 6

    def test_identity_refuses_irrational_common_direction(self):
        with pytest.raises(UnsupportedFieldError, match="irrational common tangent direction"):
            blowup_intersection_identity(self.F, self.G)


class TestBlowupIdentity:
    def test_nodal_cubic_line_through_node(self, nodal_cubic):
        line = H.linear(1, 0, 0)
        res = blowup_intersection_identity(nodal_cubic, line)
        assert (res.lhs, res.rhs) == (3, 3)
        assert (res.transform_term, res.contact_term) == (1, 2)

    def test_nodal_cubic_generic_line(self, nodal_cubic):
        line = H.linear(1, 1, 1)
        res = blowup_intersection_identity(nodal_cubic, line)
        assert (res.lhs, res.rhs) == (3, 3)
        assert (res.transform_term, res.contact_term) == (3, 0)

    def test_tricuspidal_line_through_cusp(self, tricuspidal_quartic):
        line = H(1, {(1, 0, 0): 1, (0, 1, 0): -2})  # through (0:0:1), generic slope
        res = blowup_intersection_identity(tricuspidal_quartic, line)
        assert (res.lhs, res.rhs) == (4, 4)
        assert (res.transform_term, res.contact_term) == (2, 2)

    def test_cusp_with_tangent_line(self, cuspidal_cubic):
        # Tangent at the cusp: residual intersection survives on the
        # exceptional line, so the transform term is 1 and mu*delta = 2.
        line = H.linear(1, 0, 0)
        res = blowup_intersection_identity(cuspidal_cubic, line)
        assert res.lhs == res.rhs == 3

    def test_curve_against_curve(self, nodal_cubic):
        conic = H(2, {(0, 2, 0): 1, (1, 0, 1): -1, (2, 0, 0): 3})
        res = blowup_intersection_identity(nodal_cubic, conic)
        assert res.lhs == res.rhs == 6


class TestWeakTypes:
    def test_curve_through_node_meets_delta_one(self, nodal_cubic):
        profile = SingularityProfile.of_curve(nodal_cubic)
        required = [(pr.point, mu_minus_one(pr.tree)) for pr in profile.points]
        line = H.linear(1, 0, 0)           # passes through the node
        assert weak_type_check(line, required, profile)

    def test_missing_point_fails(self, nodal_cubic):
        profile = SingularityProfile.of_curve(nodal_cubic)
        required = [(pr.point, mu_minus_one(pr.tree)) for pr in profile.points]
        line = H.linear(1, 1, 1)           # misses the node
        assert not weak_type_check(line, required, profile)

    def test_requirement_of_wrong_length_rejected(self, nodal_cubic):
        profile = SingularityProfile.of_curve(nodal_cubic)
        required = [(pr.point, mu_minus_one(pr.tree) + [0]) for pr in profile.points]
        with pytest.raises(DomainError):
            weak_type_check(H.linear(1, 0, 0), required, profile)

    def test_type_mu_satisfies_weak_type_mu(self, tricuspidal_quartic):
        # A curve's own transforms meet exactly its multiplicities.
        profile = SingularityProfile.of_curve(tricuspidal_quartic)
        for pr in profile.points:
            observed = companion_multiplicities(
                pr.tree, curve_germ(tricuspidal_quartic, pr.point))
            tree_nodes = pr.tree.all_nodes()
            assert [n.mu for n in tree_nodes] == observed


class TestFamilies:
    @pytest.fixture
    def node_family(self):
        return CurveFamily(3, {
            (0, 2, 1): U((1,)),
            (3, 0, 0): U((-1,)),
            (2, 0, 1): U((-1, 2)),
            (1, 0, 2): U((0, 2, -1)),
            (0, 0, 3): U((0, 0, -1)),
        })

    @pytest.fixture
    def cusp_family(self):
        return CurveFamily(3, {
            (0, 2, 1): U((1,)),
            (3, 0, 0): U((-1,)),
            (2, 0, 1): U((0, 3)),
            (1, 0, 2): U((0, 0, -3)),
            (0, 0, 3): U((0, 0, 0, 1)),
        })

    def test_node_family_passes(self, node_family, nodal_cubic):
        assert node_family.specialize(0) == nodal_cubic
        assert family_derivative_check(node_family, 0)

    def test_cusp_family_passes(self, cusp_family, cuspidal_cubic):
        assert cusp_family.specialize(0) == cuspidal_cubic
        assert family_derivative_check(cusp_family, 0)

    def test_derivative_vanishes_at_singular_point(self, node_family):
        deriv = node_family.derivative_form(0)
        assert deriv.evaluate((0, 0, 1)) == 0

    def test_constant_family_degenerate(self, nodal_cubic):
        fam = CurveFamily(3, {e: U((c,)) for e, c in nodal_cubic.coeffs.items()})
        with pytest.raises(DegenerateFamilyError):
            family_derivative_check(fam, 0)

    def test_proportional_family_degenerate(self, nodal_cubic):
        # f_t = (1 + t) * f0: derivative proportional to the fiber.
        fam = CurveFamily(3, {e: U((c, c)) for e, c in nodal_cubic.coeffs.items()})
        with pytest.raises(DegenerateFamilyError):
            family_derivative_check(fam, 0)


class TestBounds:
    def test_cubic_bound_is_one(self):
        for k in range(1, 11):
            assert genus_bound(3, k) == 1

    def test_quartic_bound(self):
        assert genus_bound(4, 2) == 2

    def test_ambient_bound(self):
        assert ambient_genus_bound(1) == F(-1, 2)

    def test_certificates(self):
        assert finiteness_certificate(9, 2, 9) is False
        assert finiteness_certificate(4, 0, 6) is False
        assert finiteness_certificate(4, 2, 0) is True

    def test_nodal_cubic_datum(self, nodal_cubic):
        profile = SingularityProfile.of_curve(nodal_cubic)
        sum_mu = sum(n.mu * (n.mu - 1)
                     for pr in profile.points for n in pr.tree.all_nodes())
        assert finiteness_certificate(9, sum_mu, 9) is False
