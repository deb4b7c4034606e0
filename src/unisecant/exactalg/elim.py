"""Projective elimination over Q: resultants of quadrics, discriminants,
intersection bookkeeping, and singular-locus location.

Three capabilities live here.

* The resultant of three ternary quadrics is -det(S)/512 for Sylvester's
  6x6 matrix S of the quadrics and the three partials of their Jacobian
  determinant (Salmon, *Modern Higher Algebra*; Cox–Little–O'Shea, *Using
  Algebraic Geometry*, ch. 3 §2).  Applied to the partials of a cubic,
  whose Jacobian is the Hessian, it decides smoothness exactly, in the
  given coordinates.  Along a pencil u*g + f the matrix is a polynomial of
  degree 3 in u, and the degree-12 pencil discriminant is interpolated
  from 13 integer determinants.

* "Good position" projection: given two forms with no common component, a
  unimodular change is found so that (0:0:1) lies on neither curve and no
  common zero sits over the projection point (1:0).  The resultant in X2 is
  then a polynomial of degree exactly d1*d2 whose root multiplicities sum
  the local intersection numbers fiber by fiber — the exact bookkeeping
  behind Bezout verification and flex counting.

* Rational singular points of a plane curve: the rational roots of a
  good-position eliminant of the partials are its rational fibers, which
  are lifted; what is left of the eliminant is tested by gcds with the
  resultants of a generic combination, over Q and without factoring, and
  an irrational singular point raises an unsupported-field error.

A curve is proved irreducible over Q without factoring it when a
full-degree line slice of it, after a unimodular change, has factor
degrees modulo small primes that no proper factor could have
(``form_factorization``); sympy factors only the curves no slice
certifies, reducible ones among them, and tells whether two curves share
a component (``forms_share_component``), both through ``unipoly``'s
integer bridge: this module imports no sympy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import islice

from ..errors import CommonComponentError, DomainError, UnisecantError, UnsupportedFieldError
from .forms import HomogeneousForm, ProjectivePoint, hessian, jacobian
from .rationals import (Mat3, bareiss_det_int, det_fractions, integer_image, mat3, mat3_identity,
                        mat3_transpose, mat3_vec)
from .unipoly import (
    UnivariatePoly,
    _certified_irreducible,
    integer_nodes,
    interpolate,
    poly_gcd,
    rational_roots,
    squarefree_part,
    sympy_factor_list,
    sympy_gcd_degree,
)
from .bipoly import BivariatePoly, resultant_y

_MAX_ATTEMPTS = 64
_MATRIX_SEED = 20231115

# Columns of the 6x6 Sylvester matrix, ordered so that Res(X0^2, X1^2, X2^2) = 1.
_QUADRIC_MONOMIALS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def unimodular_matrices():
    """Deterministic stream of _MAX_ATTEMPTS distinct unimodular 3x3 integer matrices.

    The identity comes first; every retry loop over coordinate changes draws
    from this stream, so each is bounded by the same budget.  A draw equal
    to one already given is drawn again, so no retry repeats a change.
    """
    seen = {mat3_identity()}
    yield mat3_identity()
    rng = random.Random(_MATRIX_SEED)
    while len(seen) < _MAX_ATTEMPTS:
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(rng.randint(2, 4)):
            i = rng.randrange(3)
            j = rng.randrange(3)
            if i == j:
                continue
            lam = rng.choice([-3, -2, -1, 1, 2, 3])
            for k in range(3):
                m[i][k] += lam * m[j][k]
        m = mat3(m)
        if m not in seen:
            seen.add(m)
            yield m


def _sylvester_rows(quadrics, j: HomogeneousForm) -> list[list[Fraction]]:
    """Coefficient rows of the three quadrics and the three partials of their Jacobian j."""
    return [[q.coefficient(m) for m in _QUADRIC_MONOMIALS]
            for q in (*quadrics, *j.gradient())]


def macaulay_resultant_quadrics(q0: HomogeneousForm, q1: HomogeneousForm,
                                q2: HomogeneousForm) -> Fraction:
    """Resultant of three ternary quadrics: zero iff they have a common projective zero.

    This is the Macaulay (multipolynomial) resultant, normalized by
    Res(X0^2, X1^2, X2^2) = 1, computed as -det(S)/512 for Sylvester's 6x6
    matrix S: its rows are the coefficients of q0, q1, q2 and of the three
    partials of the Jacobian determinant J = det(dq_i/dX_j), in the six
    quadric monomials (Salmon, *Modern Higher Algebra*; Cox–Little–O'Shea,
    *Using Algebraic Geometry*, ch. 3 §2).  No extraneous factor is divided
    out, so the formula holds for all coefficients.
    """
    qs = (q0, q1, q2)
    if any(q.degree != 2 for q in qs):
        raise DomainError("all three forms must be quadrics")
    return -det_fractions(_sylvester_rows(qs, jacobian(*qs))) / 512


def ternary_discriminant(f: HomogeneousForm) -> Fraction:
    """Resultant of the three partials of a cubic: zero iff {f = 0} is singular.

    ``macaulay_resultant_quadrics`` of the gradient: Sylvester's 6x6
    formula, in which the Jacobian of the partials is the Hessian of f
    (Salmon, *Modern Higher Algebra*; Cox–Little–O'Shea, *Using Algebraic
    Geometry*, ch. 3 §2).  It is computed in the given coordinates, with no
    retry.  ``discriminant_along_pencil`` gives the same values as one
    polynomial along a pencil.
    """
    if f.is_zero() or f.degree != 3:
        raise DomainError("discriminant implemented for nonzero cubics only")
    return macaulay_resultant_quadrics(*f.gradient())


def discriminant_along_pencil(g: HomogeneousForm, f: HomogeneousForm) -> UnivariatePoly:
    """ternary_discriminant(u*g + f) for cubics g and f, as a polynomial in u.

    Sylvester's 6x6 matrix S of the partials (see
    ``macaulay_resultant_quadrics``; Salmon, *Modern Higher Algebra*;
    Cox–Little–O'Shea, *Using Algebraic Geometry*, ch. 3 §2) has gradient
    rows linear in u and Hessian rows cubic in u: Hess(u*g + f) = sum u^k J_k
    for k = 0..3, from four Hessians: J_0 = Hess f, J_3 = Hess g, and
    H+- = Hess(f +- g) = J_0 +- J_1 + J_2 +- J_3 give
    J_2 = (H+ + H-)/2 - J_0 and J_1 = (H+ - H-)/2 - J_3.  So S(u) = sum u^k S_k
    and det S(u) has degree <= 12.  The lcm D of the denominators of the 24
    quadrics that make up the rows of S_0..S_3 makes every D*S_k integer, and
    its entries are read off their integer numerators, with no ``Fraction``.
    13 integer determinants at integer nodes give det(D*S(u)) = D^6 det S(u)
    by interpolation: no division, no coordinate change.
    """
    if any(h.degree != 3 for h in (g, f)):
        raise DomainError("discriminant_along_pencil expects two cubics")
    j0, j3, plus, minus = (hessian(h) for h in (f, g, f + g, f - g))
    half = Fraction(1, 2)
    jacobians = [j0, (plus - minus).scale(half) - j3, (plus + minus).scale(half) - j0, j3]
    zero = (HomogeneousForm.zero(2),) * 3
    # forms[k][i] is row i of S_k as a quadric
    forms = [(*grads, *j.gradient())
             for grads, j in zip((f.gradient(), g.gradient(), zero, zero), jacobians)]
    den = math.lcm(*(q.den for s_k in forms for q in s_k))
    # entries[i][j] lists (D*S_k)[i][j] for k = 0..3
    entries = [[[s_k[i].num.get(m, 0) * (den // s_k[i].den) for s_k in forms]
                for m in _QUADRIC_MONOMIALS] for i in range(6)]
    values = [(u, bareiss_det_int([[((c3 * u + c2) * u + c1) * u + c0 for c0, c1, c2, c3 in row]
                                   for row in entries]))
              for u in islice(integer_nodes(), 13)]
    return interpolate(values).scale(Fraction(-1, 512 * den**6))


@dataclass
class FiberData:
    """Intersection data over one rational root of the eliminant."""

    x0: Fraction
    multiplicity: int
    points: list[ProjectivePoint]
    rational_complete: bool


@dataclass
class IntersectionData:
    """Good-position intersection of two curves with no common component.

    ``eliminant`` is res_X2 of the transformed forms restricted to X1 = 1:
    degree exactly d1*d2, its roots are projections of the intersection
    points and multiplicities sum local intersection numbers per fiber.
    ``points`` are the rational intersection points in the original
    coordinates; fibers record the transformed-coordinate structure.
    ``eliminant_squarefree`` is computed on first read, so a caller that
    never reads it never pays for the squarefree part.
    """

    transform: Mat3
    eliminant: UnivariatePoly
    fibers: list[FiberData]
    irrational_mass: int
    points: list[ProjectivePoint] = field(default_factory=list)

    @cached_property
    def eliminant_squarefree(self) -> bool:
        return squarefree_part(self.eliminant).degree == self.eliminant.degree


def _slice_poly(f: HomogeneousForm, x0, x1=1) -> UnivariatePoly:
    """f(x0, x1, z) in z; for (x0, x1) = (p0, p1)/d, z^c has num_e p0^a p1^b d^c / (den d^deg)."""
    (p0, p1), d = integer_image((x0, x1))
    out = [0] * (f.degree + 1)
    for (a, b, c), v in f.num.items():
        out[c] += v * p0**a * p1**b * d**c
    return UnivariatePoly._from_ints(out, f.den * d**f.degree)


def _projection_eliminant(f: HomogeneousForm, g: HomogeneousForm) -> UnivariatePoly | None:
    """res_X2 of f and g on X1 = 1, or None when projecting from (0:0:1) is unusable.

    Usable means: neither curve passes through (0:0:1) (nonzero X2-leading
    coefficients), no common zero lies over the projection point (1:0), and
    the resultant evaluation succeeds.
    """
    if f.coefficient((0, 0, f.degree)) == 0 or g.coefficient((0, 0, g.degree)) == 0:
        return None
    if poly_gcd(_slice_poly(f, 1, 0), _slice_poly(g, 1, 0))[0].degree > 0:
        return None
    try:
        return resultant_y(BivariatePoly.chart(f, 1), BivariatePoly.chart(g, 1))
    except DomainError:
        return None


def _lift_fiber(forms: list[HomogeneousForm], back: Mat3, x0: Fraction
                ) -> tuple[list[ProjectivePoint], bool]:
    """Common rational zeros of ``forms`` over X0 = x0 (chart X1 = 1), mapped by ``back``.

    The flag says whether they account for the whole gcd of the slices,
    i.e. whether the fiber holds no irrational common zero.
    """
    h = reduce(lambda h, s: poly_gcd(h, s)[0], [_slice_poly(f, x0) for f in forms])
    if h.degree <= 0:
        return [], True
    roots, rest = rational_roots(h)
    points = [ProjectivePoint(*mat3_vec(back, (x0, Fraction(1), z0))) for z0, _ in roots]
    return points, rest.degree == 0


def plane_intersection(f: HomogeneousForm, g: HomogeneousForm, *,
                       want_squarefree_eliminant: bool = False) -> IntersectionData:
    """Intersect two plane curves with full Bezout bookkeeping.

    Finds a unimodular change of coordinates putting the pair in good
    position, then returns the eliminant (degree exactly deg f * deg g),
    the rational intersection points, and per-fiber multiplicity data.
    Raises CommonComponentError when the curves share a component.

    With ``want_squarefree_eliminant`` the retry loop additionally looks for
    a projection whose eliminant is squarefree; finding one certifies that
    the intersection points are pairwise distinct and transversal as scheme
    points of the eliminant.  (Such a projection exists iff all local
    intersection numbers are 1.)  Without it no squarefree part is computed
    unless the caller reads ``eliminant_squarefree``.
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("cannot intersect with the zero curve")
    if forms_share_component(f, g):
        raise CommonComponentError("curves share a component")
    product = f.degree * g.degree
    best: IntersectionData | None = None
    for m in unimodular_matrices():
        ft = f.substitute(m)
        gt = g.substitute(m)
        elim = _projection_eliminant(ft, gt)
        if elim is None:
            continue
        if elim.is_zero():
            raise CommonComponentError("curves share a component")
        if elim.degree != product:
            continue
        back = mat3_transpose(m)
        fibers = []
        for x0, mult in rational_roots(elim)[0]:
            fibers.append(FiberData(x0, mult, *_lift_fiber([ft, gt], back, x0)))
        irrational = product - sum(fb.multiplicity for fb in fibers)
        points = [p for fb in fibers for p in fb.points]
        data = IntersectionData(m, elim, fibers, irrational, points)
        if not want_squarefree_eliminant or data.eliminant_squarefree:
            return data
        best = data
    if best is not None:
        return best
    raise UnisecantError("no good projection found for the intersection")


def forms_share_component(f: HomogeneousForm, g: HomogeneousForm) -> bool:
    """True iff the two curves have a common component (nontrivial gcd).

    Either X0 divides both forms, or the gcd over Z of their integer
    images on the chart X0 = 1 (``sympy_gcd_degree``) is nonconstant: a
    common factor not divisible by X0 keeps its degree on the chart, and
    homogenization is multiplicative, so a nonconstant common factor there
    lifts back.
    """
    if all(e[0] for e in f.num) and all(e[0] for e in g.num):
        return True
    return sympy_gcd_degree(*({e[1:]: v for e, v in q.num.items()} for q in (f, g)), 2) >= 1


def form_factorization(f: HomogeneousForm) -> list[tuple[HomogeneousForm, int]]:
    """Irreducible factorization of a ternary form over Q, normalized as sympy's.

    Each factor is a primitive integer form whose lex-largest monomial has a
    positive coefficient, and the list is sorted by degree and coefficients;
    a nonzero constant has no factor.  Most curves are irreducible, and that
    is certified without factoring.  After the first of the first four
    changes of ``unimodular_matrices`` that moves (0:0:1) off the curve,
    the slices ft(x, 1, z) for x = 0, 1, 2 are tried, and one that
    ``_certified_irreducible`` proves irreducible over Q proves f is: with
    ft(0, 0, 1) != 0 every slice has the full degree d in z, so a
    factorization ft = g·h into positive degrees, g = h included, would
    restrict to one of the slice into the degrees deg g and deg h, and the
    change is invertible over Z.  A curve that no slice certifies (a
    reducible one, or one whose slices split modulo every prime) is
    factored by sympy's multivariate ``factor_list`` on its integer image
    (``sympy_factor_list``).
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero form")
    if f.degree >= 1 and _slice_certifies_irreducible(f):
        g = f.primitive()
        return [(g if g.num[max(g.num)] > 0 else -g, 1)]
    return sorted(((HomogeneousForm._from_ints(sum(next(iter(num))), num, 1), mult)
                   for num, mult in sympy_factor_list(f.num, 3)),
                  key=lambda t: (t[0].degree, sorted(t[0].coeffs.items())))


def _slice_certifies_irreducible(f: HomogeneousForm) -> bool:
    """Whether a full-degree slice of f, moved off (0:0:1), is certified irreducible over Q.

    One change is sliced: a curve reducible over Q has no irreducible slice,
    so every further slice would only add to the cost of refusing it.
    """
    for m in islice(unimodular_matrices(), 4):
        ft = f.substitute(m)
        if ft.coefficient((0, 0, f.degree)) != 0:
            return any(_certified_irreducible(list(_slice_poly(ft, x).num)) for x in range(3))
    return False


def is_reduced_form(f: HomogeneousForm) -> bool:
    """True iff f has no repeated irreducible factor.

    If f(0, 0, 1) != 0, a repeated factor gives every slice f(x0, 1, z) a
    repeated root, so one squarefree slice decides it; else f is factored.
    """
    if f.coefficient((0, 0, f.degree)) != 0 and any(
            squarefree_part(s).degree == s.degree for s in (_slice_poly(f, x) for x in range(3))):
        return True
    return all(mult == 1 for _, mult in form_factorization(f))


def rational_singular_points(f: HomogeneousForm) -> list[ProjectivePoint]:
    """All singular points of {f = 0}, each with rational coordinates.

    Exactness contract: when the routine returns, the listed points are the
    complete singular locus over the complex numbers; when an irrational
    singular point exists, UnsupportedFieldError is raised — never a
    silently incomplete answer.

    After a unimodular change, the combinations c0 = g0 + r1*g2 and
    c1 = g1 + r2*g2 of the partials are in good position, so every singular
    point lies over a root of elim = res_X2(c0, c1) (chart X1 = 1, degree
    d^2, d = deg f - 1).  Each rational root x0 of elim (``rational_roots``,
    walked in descending order) is a rational fiber, lifted by the gcd of
    the partial slices.  What ``rational_roots`` leaves of elim once it has
    divided those roots out, q, has only irreducible factors of degree
    >= 2.  Such a factor p carries a singular point iff p divides the check
    resultant R_t = res_X2(c0, c1 + t*g2) for d distinct t in 1, -1, 2, ...
    (skipping 0 and a t with c1 + t*g2 = 0): resultants of a generic combination
    (Cox–Little–O'Shea, *Using Algebraic Geometry*, ch. 3), over Q only.
    So no factorization is needed: some p divides all d of them iff
    h = gcd(q, R_t1, ..., R_td) is nonconstant.  The R_t are computed one
    at a time, and the walk stops as soon as h is constant.

    Why this is exact: c0 has a nonzero constant X2-leading coefficient.
    Fix a root a of p and let z_1, ..., z_d be the roots of c0(a, z).  Then
    R_t(a) is a nonzero constant times prod_i (c1 + t*g2)(a, z_i).  As a
    polynomial in t this has degree <= d, and it vanishes at t = 0 because
    p divides elim.  So it vanishes at d more values of t exactly when it
    vanishes identically, that is, when c0 = c1 = g2 = 0 at some (a, z_i).
    There g0 = g1 = g2 = 0: a singular point over the irrational a.
    """
    if f.is_zero():
        raise DomainError("zero form")
    if f.degree <= 1:
        return []
    g = list(f.gradient())
    d = f.degree - 1
    combos = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2)]
    for m in unimodular_matrices():
        gt = [gi.substitute(m) for gi in g]
        for r1, r2 in combos:
            c0 = gt[0] + gt[2].scale(r1)
            c1 = gt[1] + gt[2].scale(r2)
            if c0.is_zero() or c1.is_zero():
                continue
            elim = _projection_eliminant(c0, c1)
            if elim is None or elim.is_zero() or elim.degree != d * d:
                continue
            return _singular_points_from_eliminant(gt, c0, c1, m, elim)
    raise UnisecantError("could not locate the singular locus")


def _singular_points_from_eliminant(gt, c0, c1, m, elim) -> list[ProjectivePoint]:
    back = mat3_transpose(m)
    points = []
    # h: elim without its rational roots, then its gcd with the R_t so far.
    roots, h = rational_roots(elim)
    for x0, _ in reversed(roots):
        fiber_points, complete = _lift_fiber(gt, back, x0)
        if not complete:
            raise UnsupportedFieldError(
                "singular point with irrational coordinates over a rational fiber")
        points.extend(fiber_points)
    if h.degree > 0:
        for check in islice(_check_resultants(c0, c1, gt[2]), c0.degree):
            h = poly_gcd(h, check)[0]
            if h.degree == 0:
                break
        else:
            raise UnsupportedFieldError("singular point with irrational coordinates")
    return list(dict.fromkeys(points))


def _check_resultants(c0: HomogeneousForm, c1: HomogeneousForm, g2: HomogeneousForm):
    """Lazily, R_t = res_X2(c0, c1 + t*g2) on X1 = 1 for t = 1, -1, 2, ... (see above)."""
    b0 = BivariatePoly.chart(c0, 1)
    for t in integer_nodes():
        ct = c1 + g2.scale(t)
        if t != 0 and not ct.is_zero():
            yield resultant_y(b0, BivariatePoly.chart(ct, 1))
