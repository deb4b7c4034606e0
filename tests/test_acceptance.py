"""Acceptance criteria, one test per criterion, with stated runtime budgets.

Every comparison is exact (tolerance zero).  Each test prints a PASS line
with its elapsed time; run with -s (or look at the captured output) for the
per-criterion report.  Budgets are wall-clock upper bounds from the
contract; they are asserted, not advisory.
"""

import random
import time
from fractions import Fraction as F

from unisecant.errors import CommonComponentError
from unisecant.exactalg import (
    HomogeneousForm,
    ProjectivePoint,
    squarefree_part,
)
from unisecant.kontsevich import compute_nk
from unisecant.torsion import (
    contact_count,
    contact_count_bruteforce,
    primitive_contact_count,
    primitive_contact_count_bruteforce,
    _divisors,
    finiteness_certificate,
    genus_bound,
)
from unisecant.cubic import (
    ORIGIN,
    ec_scalar_mul,
    flexes,
    hessian,
    kubert_z6_curve,
    kubert_z9_curve,
    normalized_curve_with_point,
    point_order,
    weierstrass_at_flex,
    weierstrass_normal_form,
)
from unisecant.singular import (
    CurveFamily,
    SingularityProfile,
    bezout_check,
    blowup_intersection_identity,
    family_derivative_check,
    geometric_genus,
)
from unisecant.pencils import (
    CUSP,
    DOUBLE_LINE,
    IRREDUCIBLE_CONIC,
    NODE,
    contact_conic_check,
    flex_pencil,
    flex_pencil_count,
    nonflex_fiber_accounting,
    singular_member_report,
    unisecant_count_k3,
)
from unisecant.exactalg import UnivariatePoly

from conftest import load_form

H = HomogeneousForm
P = ProjectivePoint
FLEX = P(0, 0, 1)


def report(n, budget, elapsed, detail=""):
    print(f"ACCEPTANCE {n:2d}: PASS in {elapsed:.3f}s (budget {budget}s) {detail}")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_acceptance_01_kontsevich_values():
    t0 = time.perf_counter()
    assert [compute_nk(k) for k in (1, 2, 3, 4)] == [1, 1, 12, 620]
    first = time.perf_counter() - t0
    assert first < 1.0
    t0 = time.perf_counter()
    for k in range(1, 13):
        assert compute_nk(k) > 0   # exact integer by construction
    elapsed = time.perf_counter() - t0
    report(1, 5, elapsed, "N_1..N_4 = 1,1,12,620; integral through k=12")


def test_acceptance_02_contact_counts():
    t0 = time.perf_counter()
    for k in range(1, 21):
        assert contact_count(k) == 9 * k * k == contact_count_bruteforce(k)
    assert contact_count(1) == 9 and contact_count(2) == 36
    report(2, 1, time.perf_counter() - t0, "9k^2 closed form == lattice enumeration, k<=20")


def test_acceptance_03_primitive_counts():
    t0 = time.perf_counter()
    assert [primitive_contact_count(k) for k in (1, 2, 3)] == [9, 27, 72]
    for k in range(1, 51):
        assert primitive_contact_count(k) == primitive_contact_count_bruteforce(k)
        assert sum(primitive_contact_count(d) for d in _divisors(k)) == 9 * k * k
    report(3, 5, time.perf_counter() - t0, "Moebius == brute force, partition identity, k<=50")


def test_acceptance_04_flexes():
    fixtures = [load_form("fermat.json"), load_form("weier_a-4_b0.json"),
                load_form("weier_a0.json"), load_form("z9_d2.json"),
                load_form("z6_c1.json")]
    fermat = fixtures[0]
    worst = 0.0
    t0 = time.perf_counter()
    assert hessian(fermat) == H(3, {(1, 1, 1): 216})
    for form in fixtures:
        t1 = time.perf_counter()
        data = flexes(form)
        assert data.eliminant.degree == 9
        assert squarefree_part(data.eliminant).degree == 9
        worst = max(worst, time.perf_counter() - t1)
    report(4, 1, worst, "Hessian(Fermat) = 216 X0X1X2; 9 distinct flexes per fixture")


def test_acceptance_05_genus_engine():
    cases = [
        (load_form("fermat.json"), 1),
        (load_form("nodal_cubic.json"), 0),
        (load_form("cuspidal_cubic.json"), 0),
        (load_form("tricuspidal_quartic.json"), 0),
    ]
    worst = 0.0
    for form, expected in cases:
        t0 = time.perf_counter()
        assert geometric_genus(form) == expected
        worst = max(worst, time.perf_counter() - t0)
    report(5, 1, worst, "genus: smooth 1, nodal 0, cuspidal 0, tri-cuspidal quartic 0")


def test_acceptance_06_bezout_and_blowup_identity():
    t0 = time.perf_counter()
    rng = random.Random(20240209)

    def rand_form(d):
        coeffs = {}
        for a in range(d + 1):
            for b in range(d - a + 1):
                if rng.random() < 0.8:
                    coeffs[(a, b, d - a - b)] = rng.randint(-3, 3)
        return H(d, coeffs)

    done = 0
    attempts = 0
    while done < 200 and attempts < 600:
        attempts += 1
        f = rand_form(rng.randint(1, 4))
        g = rand_form(rng.randint(1, 4))
        if f.is_zero() or g.is_zero():
            continue
        try:
            check = bezout_check(f, g)
        except CommonComponentError:
            continue
        assert check.ok, (f, g, check)
        assert check.product == f.degree * g.degree
        done += 1
    assert done == 200

    nodal = load_form("nodal_cubic.json")
    tricusp = load_form("tricuspidal_quartic.json")
    cusp = load_form("cuspidal_cubic.json")
    corpus = [
        (nodal, H.linear(1, 0, 0), 1, 2),          # line through the node: 3 = 1 + 2*1
        (nodal, H.linear(1, 1, 1), 3, 0),          # generic line: 3 = 3 + 0
        (tricusp, H(1, {(1, 0, 0): 1, (0, 1, 0): -2}), 2, 2),  # 4 = 2 + 2*1
        (cusp, H.linear(1, 0, 0), 1, 2),
        (nodal, H(2, {(0, 2, 0): 1, (1, 0, 1): -1, (2, 0, 0): 3}), None, None),
    ]
    for f, g, t_term, c_term in corpus:
        res = blowup_intersection_identity(f, g)
        assert res.lhs == res.rhs
        if t_term is not None:
            assert (res.transform_term, res.contact_term) == (t_term, c_term)
    report(6, 30, time.perf_counter() - t0,
           "200 random Bezout pairs; intersection identity on the corpus")


def test_acceptance_07_family_derivative():
    node_family = CurveFamily(3, {
        (0, 2, 1): UnivariatePoly((1,)),
        (3, 0, 0): UnivariatePoly((-1,)),
        (2, 0, 1): UnivariatePoly((-1, 2)),
        (1, 0, 2): UnivariatePoly((0, 2, -1)),
        (0, 0, 3): UnivariatePoly((0, 0, -1)),
    })
    cusp_family = CurveFamily(3, {
        (0, 2, 1): UnivariatePoly((1,)),
        (3, 0, 0): UnivariatePoly((-1,)),
        (2, 0, 1): UnivariatePoly((0, 3)),
        (1, 0, 2): UnivariatePoly((0, 0, -3)),
        (0, 0, 3): UnivariatePoly((0, 0, 0, 1)),
    })
    t0 = time.perf_counter()
    assert family_derivative_check(node_family, 0) is True
    assert family_derivative_check(cusp_family, 0) is True
    report(7, 1, time.perf_counter() - t0, "translated node and cusp families pass")


def test_acceptance_08_flex_pencil():
    t0 = time.perf_counter()
    w = weierstrass_at_flex(weierstrass_normal_form(-4, 0), FLEX)
    count, kinds = flex_pencil_count(w)
    assert (count, kinds) == (2, [NODE, NODE])
    disc = singular_member_report(flex_pencil(w))
    affine = [r for r in disc.records if r.parameter is None or r.parameter.s2 != 0]
    assert sum(r.count for r in affine) == 2
    assert all(r.multiplicity == 1 for r in affine)

    w0 = weierstrass_at_flex(weierstrass_normal_form(0, F(-1, 4)), FLEX)
    count0, kinds0 = flex_pencil_count(w0)
    assert (count0, kinds0) == (1, [CUSP])
    rep0 = singular_member_report(flex_pencil(w0))
    cusps = [r for r in rep0.records if r.classification == CUSP]
    assert len(cusps) == 1 and cusps[0].count == 1
    report(8, 5, time.perf_counter() - t0,
           "alpha!=0: 2 nodal members; alpha=0: 1 cuspidal member")


def test_acceptance_09_unisecant_totals():
    t0 = time.perf_counter()
    assert unisecant_count_k3(weierstrass_normal_form(-4, 0)).total == 306
    assert unisecant_count_k3(load_form("fermat.json")).total == 297
    report(9, 10, time.perf_counter() - t0, "306 general / 297 Fermat")


def test_acceptance_10_nonflex_fiber_accounting():
    t0 = time.perf_counter()
    form9, p9 = kubert_z9_curve(2)
    # Order certificate first: [9]P = O, [3]P != O.
    w, q = normalized_curve_with_point(form9, p9)
    assert ec_scalar_mul(w, 9, q) == ORIGIN
    assert ec_scalar_mul(w, 3, q) != ORIGIN
    acc = nonflex_fiber_accounting(form9, p9)
    assert acc.report.discriminant.affine.degree + \
        acc.report.discriminant.multiplicity_at_infinity() == 12
    assert acc.multiplicities() == [9, 1, 1, 1]
    assert acc.multiplicity_at_point == 9
    assert acc.classification_at_point == NODE
    rational = [r for r in acc.report.records if r.parameter is not None]
    assert all(r.classification == NODE for r in rational)
    report(10, 120, time.perf_counter() - t0,
           "Z/9 fixture: multiplicities {9,1,1,1}, node at P")


def test_acceptance_11_contact_conics():
    t0 = time.perf_counter()
    form6, p6 = kubert_z6_curve(1)
    assert point_order(*normalized_curve_with_point(form6, p6), 12) == 6
    assert contact_conic_check(form6, p6) == IRREDUCIBLE_CONIC
    assert contact_conic_check(form6, FLEX) == DOUBLE_LINE
    report(11, 5, time.perf_counter() - t0,
           "order-6 point: irreducible conic; flex: double line")


def test_acceptance_12_bound_calculator():
    t0 = time.perf_counter()
    for k in range(1, 11):
        assert genus_bound(3, k) == 1
    nodal = load_form("nodal_cubic.json")
    profile = SingularityProfile.of_curve(nodal)
    sum_mu = sum(n.mu * (n.mu - 1)
                 for pr in profile.points for n in pr.tree.all_nodes())
    assert sum_mu == 2
    assert finiteness_certificate(9, sum_mu, 9) is False
    report(12, 1, time.perf_counter() - t0,
           "genus_bound(3,k)=1; nodal datum 9 < 2 + 9 certifies finiteness")


def test_acceptance_13_j_invariant():
    t0 = time.perf_counter()
    assert weierstrass_at_flex(weierstrass_normal_form(0, 5), FLEX).alpha == 0
    w_a0 = weierstrass_at_flex(weierstrass_normal_form(0, 5), FLEX)
    from unisecant.cubic import j_invariant
    assert j_invariant(w_a0) == 0
    w_b0 = weierstrass_at_flex(weierstrass_normal_form(7, 0), FLEX)
    assert j_invariant(w_b0) == 1728

    from unisecant.exactalg import mat3, mat3_det
    form = weierstrass_normal_form(-4, 4)
    j0 = j_invariant(weierstrass_at_flex(form, FLEX))
    rng = random.Random(77)
    done = 0
    while done < 5:
        m = mat3([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if mat3_det(m) == 0:
            continue
        moved = form.substitute(m)
        pts = flexes(moved).points
        assert pts
        assert j_invariant(weierstrass_at_flex(moved, pts[0])) == j0
        done += 1
    report(13, 5, time.perf_counter() - t0,
           "j=0 at alpha=0, 1728 at beta=0, invariance under 5 coordinate changes")
