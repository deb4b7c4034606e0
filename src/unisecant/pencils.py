"""Maximal-contact linear systems on a smooth cubic and their pencils.

For a point P on a smooth cubic C = {F = 0}, the degree-k forms whose full
intersection with C is concentrated at P (the divisor (3k)P) are cut out by
3k linear conditions: expand the smooth branch of C at P as an exact power
series y = phi(x) and require the form to vanish along it to order 3k.
The conditions have rank 3k - 1 exactly when (3k)P moves in the degree-k
hyperplane class — i.e. when P's group order divides 3k — and rank 3k
otherwise, so the kernel dimension itself decides contact.

For k = 3 and a contact point the kernel is a pencil spanned by F and one
honest contact cubic g.  Its discriminant — the resultant of the three
partials of u g + F, a binary form of degree 12 — locates the singular
members; root multiplicities are the exact shadow of the Euler numbers of
the singular fibers of the associated elliptic fibration, and they drive
the two headline counts:

* flex pencils carry 2 nodal members (alpha != 0) or 1 cuspidal member
  (alpha = 0, the j = 0 class), and
* a non-flex pencil at a point of order 9 shows multiplicities {9, 1, 1, 1}
  with the 9 at the unique member singular at P and nodes at the simple roots.

Together with the 72 primitive third-level points this assembles
9*2 + 72*4 = 306 rational unisecant cubics in general and 9*1 + 288 = 297
for the j = 0 class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import (
    DegeneratePencilError,
    DomainError,
    UnisecantError,
    UnsupportedFieldError,
)
from .exactalg import (
    HomogeneousForm,
    ProjectivePoint,
    UnivariatePoly,
    discriminant_along_pencil,
    factor_over_q,
    integer_image,
    is_reduced_form,
    nullspace,
    poly_gcd,
    primitive_part,
    rank,
    rational_roots,
    rational_singular_points,
    rational_to_string,
    yun_decomposition,
)
from .exactalg.unipoly import _exact_quotient
from .cubic import (
    WeierstrassData,
    first_rational_flex,
    flexes,
    has_order_nine,
    is_smooth_cubic,
    j_invariant,
    normalized_curve_with_point,
    point_order,
    weierstrass_at_flex,
)
from .singular import curve_germ, multiplicity_sequence
from .torsion import primitive_contact_count

DISC_DEGREE = 12


# ---------------------------------------------------------------------------
# Contact systems
# ---------------------------------------------------------------------------

def _branch_series(germ, order: int) -> tuple[list[int], int, bool]:
    """Power series of the smooth branch at the origin, truncated at x^order.

    Returns (phi, den, swapped): y = sum phi[i] x^i / den for i < order, and
    ``swapped`` records that the roles of x and y were exchanged because the
    y-partial vanished at the origin.
    """
    cy = germ.coefficient((0, 1))
    swapped = False
    if cy == 0:
        germ = germ.swap()
        cy = germ.coefficient((0, 1))
        swapped = True
        if cy == 0:
            raise DomainError("point is singular on the curve; no smooth branch")
    phi, den = [0] * order, 1
    for i in range(1, order):
        residual, rden = _series_compose(germ, phi, den, i + 1)
        a = Fraction(-residual[i], rden) / cy
        common = math.lcm(den, a.denominator)
        phi = [c * (common // den) for c in phi]
        phi[i], den = a.numerator * (common // a.denominator), common
    check, _ = _series_compose(germ, phi, den, order)
    if any(check):
        raise UnisecantError("branch expansion failed to cancel")
    return phi, den, swapped


def _series_compose(germ, phi: list[int], den: int, order: int) -> tuple[list[int], int]:
    """Coefficients of x^0..x^{order-1} of germ(x, phi(x) / den), over one denominator.

    For the germ's image sum n_ij x^i y^j / dg and J = deg_y germ: the ints
    sum n_ij x^i phi^j den^(J - j), over dg * den^J.
    """
    top = max(germ.degree_y(), 0)
    powers = list(accumulate([phi] * top, _truncated_product, initial=[1] + [0] * (order - 1)))
    out = [0] * order
    for (i, j), n in germ.num.items():
        if i < order:
            c, pw = n * den ** (top - j), powers[j]
            for a in range(order - i):
                out[i + a] += c * pw[a]
    return out, germ.den * den**top


def _truncated_product(a: list[int], b: list[int]) -> list[int]:
    """The first len(a) coefficients of the product of two power series."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j in range(len(a) - i):
                out[i + j] += x * b[j]
    return out


@dataclass
class ContactSystem:
    """Kernel of the order-3k vanishing conditions at a point of the cubic."""

    k: int
    point: ProjectivePoint
    curve: HomogeneousForm
    basis: list[HomogeneousForm]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def multiples_dimension(self) -> int:
        """Dimension of the subspace of multiples of the cubic itself."""
        if self.k < 3:
            return 0
        return (self.k - 1) * (self.k - 2) // 2

    def is_contact_point(self) -> bool:
        """True iff the divisor (3k)P is cut by some curve not through C."""
        return self.dimension == self.multiples_dimension() + 1


def contact_system(curve: HomogeneousForm, p: ProjectivePoint, k: int) -> ContactSystem:
    """Solve the linear system {degree-k forms vanishing to order 3k at p on C}.

    The smooth branch of C at p is expanded to order 3k by undetermined
    coefficients (exact rational arithmetic), in the chart and translation
    of ``curve_germ``: X_chart = 1, X_u = p_u + t and X_v = p_v + phi(t)
    for u < v, swapped when ``_branch_series`` swaps.  A degree-k monomial
    on the branch is a product of truncated powers of these series, all
    over one denominator; its first 3k coefficients are its column of the
    condition matrix.  The kernel always contains the multiples of C's own
    equation; one extra dimension appears exactly at contact points.

    C must be a smooth cubic.  Only a singular p is refused here; the
    global smoothness test (a 6x6 resultant determinant) is the caller's:
    ``contact_conic_check`` and ``unisec pencil-disc`` run it, and
    ``nonflex_fiber_accounting`` has it from ``flexes``.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if curve.is_zero() or curve.degree != 3:
        raise DomainError("expected a nonzero cubic form")
    if curve.evaluate(p.coords) != 0:
        raise DomainError(f"{p} is not on the cubic")
    order = 3 * k
    phi, den, swapped = _branch_series(curve_germ(curve, p), order)
    chart = p.first_nonzero_index()
    others = [i for i in range(3) if i != chart]
    (pu, pv), d = integer_image(p[i] for i in others)
    # d * den * X_i along the branch, as integer series in t
    unit = [1] + [0] * (order - 1)
    step, tail = [d * den] + [0] * (order - 2), [d * c for c in phi[1:]]
    series = [[d * den * x for x in unit]] * 3
    for i, n, rest in zip(others, (pu, pv), (tail, step) if swapped else (step, tail)):
        series[i] = [n * den] + rest
    powers = [list(accumulate([s] * k, _truncated_product, initial=unit)) for s in series]
    monomials = [(a, b, k - a - b) for a in range(k, -1, -1) for b in range(k - a, -1, -1)]
    columns = [_truncated_product(_truncated_product(powers[0][a], powers[1][b]), powers[2][c])
               for a, b, c in monomials]
    rows = [[col[r] for col in columns] for r in range(order)]
    basis = [HomogeneousForm(k, dict(zip(monomials, vec))).primitive()
             for vec in nullspace(rows, len(monomials))]
    return ContactSystem(k, p, curve, basis)


# ---------------------------------------------------------------------------
# Pencils of cubics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PencilParameter:
    """A member parameter (s1 : s2); the member is s1*g + s2*F."""

    s1: Fraction
    s2: Fraction
    at_flex: bool = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, PencilParameter):
            return NotImplemented
        return self.s1 * other.s2 == self.s2 * other.s1 and \
            (self.s1, self.s2) != (0, 0) and (other.s1, other.s2) != (0, 0)

    def __hash__(self):
        if self.s2 != 0:
            return hash(("param", self.s1 / self.s2))
        return hash(("param", None))

    def __repr__(self) -> str:
        return f"({rational_to_string(self.s1)} : {rational_to_string(self.s2)})"


@dataclass
class Pencil:
    """The contact pencil {s1 g + s2 F} at a contact point of the cubic.

    Both generators meet the cubic only at the contact point (with the full
    multiplicity 3k); g is kept non-singular at the point so the member
    singular there sits at a finite parameter.
    """

    g: HomogeneousForm
    f: HomogeneousForm
    point: ProjectivePoint
    k: int = 3

    def member(self, s1, s2) -> HomogeneousForm:
        return self.g.scale(Fraction(s1)) + self.f.scale(Fraction(s2))

    def member_at(self, param: PencilParameter) -> HomogeneousForm:
        return self.member(param.s1, param.s2)


def pencil_at(system: ContactSystem) -> Pencil:
    """Build the contact pencil from a 2-dimensional contact system.

    The non-F generator is chosen independent of F and adjusted by
    multiples of F until its gradient at the contact point is nonzero
    (always possible: the cubic is smooth there).
    """
    if system.k != 3:
        raise DomainError("pencils are built at k = 3")
    if not system.is_contact_point() or system.dimension != 2:
        raise DomainError("contact system is not a pencil")
    f = system.curve
    candidates = [v for v in system.basis if not v.is_proportional_to(f)]
    if not candidates:
        raise UnisecantError("kernel basis degenerated to multiples of the cubic")
    g = candidates[0]
    grad = [d.evaluate(system.point.coords) for d in g.gradient()]
    if all(c == 0 for c in grad):
        g = g + f
        grad = [d.evaluate(system.point.coords) for d in g.gradient()]
        if all(c == 0 for c in grad):
            raise UnisecantError("could not make the generator smooth at the point")
    return Pencil(g.primitive(), f, system.point)


@dataclass
class PencilDiscriminant:
    """The degree-12 binary discriminant of a pencil of cubics.

    ``binary`` lists the integer coefficients of s1^i s2^(12-i) for
    i = 0..12 (primitive, top nonzero coefficient positive); ``affine`` is
    the slice s2 = 1 as a polynomial in u = s1/s2.  The member F = C sits
    at u = 0; the generator g sits at (1 : 0), u's point at infinity, where
    the vanishing order is the degree deficit of ``affine``.
    """

    binary: tuple[int, ...]
    affine: UnivariatePoly

    def multiplicity_at_infinity(self) -> int:
        """Vanishing order at the member g, i.e. (1 : 0)."""
        return DISC_DEGREE - self.affine.degree


def pencil_discriminant(pencil: Pencil) -> PencilDiscriminant:
    """Discriminant of the pencil: the resultant of the partials of u g + F.

    ``discriminant_along_pencil`` interpolates it in u from Sylvester's 6x6
    formula for the resultant of three quadrics (Salmon, *Modern Higher
    Algebra*; Cox–Little–O'Shea, *Using Algebraic Geometry*, ch. 3 §2), with
    no division and no change of coordinates.  Degree 12 is forced by
    homogenization: the deficit of the affine slice is exactly the
    vanishing order at the member g.
    """
    affine = discriminant_along_pencil(pencil.g, pencil.f)
    if affine.is_zero():
        raise DegeneratePencilError("pencil discriminant vanishes identically")
    if affine.degree > DISC_DEGREE:
        raise UnisecantError("discriminant degree exceeds 12")
    ints = primitive_part(list(affine.num))
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return PencilDiscriminant(tuple(ints) + (0,) * (DISC_DEGREE - affine.degree),
                              UnivariatePoly(ints))


# ---------------------------------------------------------------------------
# Member classification
# ---------------------------------------------------------------------------

NODE = "node"
CUSP = "cusp"
NON_REDUCED = "non-reduced"
UNRESOLVED = "unresolved"


def classify_singular_member(member: HomogeneousForm, point: ProjectivePoint | None = None
                             ) -> str:
    """node | cusp | non-reduced for a singular cubic member.

    A node has two distinct tangent directions (nonzero discriminant of
    the quadratic part); a simple cusp has a perfect-square quadratic part
    and multiplicity sequence [2] with the transform smooth and tangent to
    the exceptional line.  Raises UnsupportedFieldError when the singular
    point is irrational and DomainError when the member is smooth or has a
    singularity outside this classification.

    ``point`` is an optional point P known to be singular on the member M,
    whose germ there is q + c (quadratic and cubic parts).  If q != 0 and
    q, c share no linear factor (gcd(q(t, 1), c(t, 1)) = 1 and y does not
    divide both), P is M's only singular point and ``rational_singular_points``
    is skipped: a second one Q would make the line PQ a component, M = L * C
    with the conic C through P, and L's form would divide q and c.
    Otherwise the search runs as without ``point``: the result is the same.
    """
    if member.is_zero() or member.degree != 3:
        raise DomainError("expected a cubic member")
    if not is_reduced_form(member):
        return NON_REDUCED
    if point is not None:
        germ = curve_germ(member, point)
        q, c = (UnivariatePoly([germ.num.get((i, n - i), 0) for i in range(n + 1)]) for n in (2, 3))
        if germ.multiplicity() != 2 or (q.degree < 2 and c.degree < 3) or poly_gcd(q, c)[0].degree:
            point = None  # not certified
    if point is None:
        points = rational_singular_points(member)
        if not points:
            raise DomainError("member is smooth; nothing to classify")
        if len(points) > 1:
            raise DomainError("member has several singular points (reducible cubic)")
        point, germ = points[0], curve_germ(member, points[0])
    if germ.multiplicity() != 2:
        raise DomainError("singular point is not a double point")
    a, b, c = (germ.num.get(k, 0) for k in ((2, 0), (1, 1), (0, 2)))
    if b * b - 4 * a * c != 0:
        return NODE
    tree = multiplicity_sequence(member, point, check_reduced=False)
    if tree.multiplicities() == [2]:
        return CUSP
    raise DomainError("double point is neither a node nor a simple cusp")


def member_singular_at(pencil: Pencil) -> PencilParameter:
    """The unique pencil parameter whose member is singular at the contact point.

    Both generators osculate the cubic at the point, so their gradients
    there are proportional; the parameter kills the combination.  At a flex
    the contact generator is the cube of the inflection line and is itself
    singular at the point: the parameter (1 : 0) is returned with a flag.
    """
    p = pencil.point
    grad_g = [d.evaluate(p.coords) for d in pencil.g.gradient()]
    grad_f = [d.evaluate(p.coords) for d in pencil.f.gradient()]
    if all(x == 0 for x in grad_f):
        raise DomainError("base cubic is singular at the contact point")
    if all(x == 0 for x in grad_g):
        return PencilParameter(Fraction(1), Fraction(0), at_flex=True)
    if ProjectivePoint(*grad_g) != ProjectivePoint(*grad_f):
        raise UnisecantError("generator gradients are not proportional at the point")
    i = next(i for i, gf in enumerate(grad_f) if gf)
    return PencilParameter(Fraction(1), -grad_g[i] / grad_f[i])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class MemberRecord:
    """One singular member (or conjugacy class of members) of a pencil."""

    parameter: PencilParameter | None
    marker: UnivariatePoly | None
    count: int
    multiplicity: int
    classification: str

    def to_json_dict(self) -> dict:
        out = {
            "multiplicity": str(self.multiplicity),
            "count": str(self.count),
            "classification": self.classification,
        }
        if self.parameter is not None:
            out["parameter"] = [rational_to_string(self.parameter.s1),
                                rational_to_string(self.parameter.s2)]
        if self.marker is not None:
            out["minimal_polynomial"] = [rational_to_string(c) for c in self.marker.coeffs]
        return out


@dataclass
class SingularMemberReport:
    """Root data of a pencil discriminant with member classifications."""

    discriminant: PencilDiscriminant
    records: list[MemberRecord]
    singular_at_point: PencilParameter  # from member_singular_at

    def total_multiplicity(self) -> int:
        return sum(r.count * r.multiplicity for r in self.records)

    def multiplicity_multiset(self) -> list[int]:
        out = []
        for r in self.records:
            out.extend([r.multiplicity] * r.count)
        return sorted(out, reverse=True)

    def record_at(self, param: PencilParameter) -> MemberRecord | None:
        for r in self.records:
            if r.parameter is not None and r.parameter == param:
                return r
        return None


def _split_over_q(f: UnivariatePoly) -> list[UnivariatePoly]:
    """The monic irreducible factors of a monic squarefree f over Q, in the
    order of ``factor_over_q``: by degree, then by ascending coefficients."""
    roots, rest = rational_roots(f)
    linear = [UnivariatePoly([-r, 1]) for r, _ in reversed(roots)]
    rest = rest.monic()
    if rest.degree < 4:  # no rational root left, so irreducible
        return linear + ([rest] if rest.degree > 0 else [])
    factors = factor_over_q(rest)
    if any(mult != 1 for _, mult in factors):
        raise UnisecantError("factor_over_q found a repeated factor of a squarefree polynomial")
    return linear + [p for p, _ in factors]


def _yun_with_root(f: UnivariatePoly, r: Fraction) -> list[tuple[UnivariatePoly, int]]:
    """``yun_decomposition(f)`` for an f with the known root r, by uniqueness:
    (u - r) is divided out m times, Yun runs on the cofactor only, and
    (u - r), coprime to it, joins its multiplicity-m factor.  The divisions
    run on the integer image, by b·u - a for r = a/b, until one is inexact."""
    image, linear, m = list(f.num), [-r.numerator, r.denominator], 0
    while len(image) > 1 and (q := _exact_quotient(image, linear)) is not None:
        image, m = q, m + 1
    parts = {k: p for p, k in yun_decomposition(UnivariatePoly._from_ints(image, f.den))}
    if m:
        parts[m] = parts.get(m, UnivariatePoly.one()) * UnivariatePoly([-r, 1])
    return [(p, k) for k, p in sorted(parts.items())]


def singular_member_report(pencil: Pencil) -> SingularMemberReport:
    """Classify every singular member of the pencil via the discriminant.

    Rational roots are classified exactly; irreducible factors of degree
    >= 2 become conjugacy-class records whose multiplicity still counts
    (classification stays unresolved, as it would need irrational singular
    points); a root at (1 : 0) classifies the generator g itself.

    The member singular at the pencil's point P (``member_singular_at``, kept
    as ``singular_at_point``) is classified with P known, and its root is
    peeled off before Yun (``_yun_with_root``).  Any other rational member of
    multiplicity 1 is a node, with no search: the discriminant is the resultant
    of the partials, for cubics the discriminant hypersurface up to a constant;
    a line (the pencil) meets a hypersurface with multiplicity 1 only at a
    smooth point, and its smooth points are the cubics whose only singular
    point is an ordinary node (Dolgachev, *Classical Algebraic Geometry*, §1.1;
    Arnold, Gusein-Zade & Varchenko, *Singularities of Differentiable Maps* I).

    Each Yun factor is split over Q by ``_split_over_q`` (rational roots
    first, ``factor_over_q`` only on a remainder of degree >= 4), not inside
    ``factor_over_q``: ``perfbench/tracing.py`` ``FIRES`` requires it to
    reach ``sympy.factor_list`` on low-degree inputs of other workloads.
    """
    disc = pencil_discriminant(pencil)
    at_p = member_singular_at(pencil)

    def record(param: PencilParameter, mult: int) -> MemberRecord:
        if mult == 1 and param != at_p:
            return MemberRecord(param, None, 1, mult, NODE)
        try:
            cls = classify_singular_member(pencil.member_at(param),
                                           pencil.point if param == at_p else None)
        except (UnsupportedFieldError, DomainError):
            cls = UNRESOLVED
        return MemberRecord(param, None, 1, mult, cls)

    records: list[MemberRecord] = []
    factors = (_yun_with_root(disc.affine, at_p.s1 / at_p.s2) if at_p.s2 else
               yun_decomposition(disc.affine))
    for factor, mult in factors:
        for irr in _split_over_q(factor):
            if irr.degree == 1:
                records.append(record(PencilParameter(-irr.coeffs[0] / irr.coeffs[1], Fraction(1)),
                                      mult))
            else:
                records.append(MemberRecord(None, irr, irr.degree, mult, UNRESOLVED))
    inf_mult = disc.multiplicity_at_infinity()
    if inf_mult > 0:
        records.append(record(PencilParameter(Fraction(1), Fraction(0)), inf_mult))
    records.sort(key=lambda r: -r.multiplicity)
    report = SingularMemberReport(disc, records, at_p)
    if report.total_multiplicity() != DISC_DEGREE:
        raise UnisecantError("discriminant multiplicities do not sum to 12")
    return report


# ---------------------------------------------------------------------------
# The flex pencil and the headline counts
# ---------------------------------------------------------------------------

def flex_pencil_count(w: WeierstrassData) -> tuple[int, list[str]]:
    """Distinct reduced singular members of the flex pencil, with kinds.

    Members of the pencil spanned by the cube of the inflection line and
    the curve are again Weierstrass cubics with beta shifted, so the
    singular ones solve alpha^3 + 27 (beta - s)^2 = 0: two distinct nodal
    members when alpha != 0, one cuspidal member when alpha = 0.  Nodality
    for alpha != 0 is exact: the double root of 4x^3 + alpha x + beta' sits
    at x0 = -3 beta'/(2 alpha), and a triple root would force
    alpha = beta' = 0.
    """
    if not w.is_smooth():
        raise DomainError("flex pencil analysis requires a smooth curve")
    if w.alpha == 0:
        return 1, [CUSP]
    return 2, [NODE, NODE]


def flex_pencil(w: WeierstrassData) -> Pencil:
    """The pencil spanned by the inflection-line cube X0^3 and the curve."""
    g = HomogeneousForm.monomial((3, 0, 0))
    return Pencil(g, w.normal_form(), ProjectivePoint(0, 0, 1))


@dataclass
class NonflexAccounting:
    """Discriminant accounting of the pencil at a non-flex contact point."""

    report: SingularMemberReport
    singular_at_point: PencilParameter
    multiplicity_at_point: int
    classification_at_point: str
    rational_members: int

    def multiplicities(self) -> list[int]:
        return self.report.multiplicity_multiset()


def nonflex_fiber_accounting(curve: HomogeneousForm, p: ProjectivePoint
                             ) -> NonflexAccounting:
    """Pencil analysis at a rational point of order 9 (minimal level 3).

    Certifies the order in four additions (``has_order_nine``: [3]P != O
    and [9]P = O), builds the contact pencil, and reads off the
    discriminant: a root of multiplicity 9 at the member singular at P (the
    nine-fold blow-up fiber) plus three simple roots.  The member singular
    at P keeps the classification its discriminant record already holds (a
    node: P is its only singular point).  A refusal names the order of P;
    a rational torsion point has order at most 12 (Mazur), so the search
    stops there and reports any other point as of infinite order.
    """
    w, ec_point = normalized_curve_with_point(curve, p)
    if not has_order_nine(w, ec_point):
        raise DomainError("accounting requires a point of exact order 9, "
                          f"got order {point_order(w, ec_point, 12) or 'infinite'}")
    system = contact_system(curve, p, 3)
    if not system.is_contact_point():
        raise UnisecantError("order-9 point failed the contact-dimension test")
    report = singular_member_report(pencil_at(system))
    param = report.singular_at_point
    rec = report.record_at(param)
    if rec is None:
        raise UnisecantError("member singular at P is not a discriminant root")
    rational = sum(r.count for r in report.records if r.parameter is not None)
    return NonflexAccounting(report, param, rec.multiplicity, rec.classification, rational)


@dataclass
class UnisecantCount:
    """The degree-3 unisecant count with its assembly parts."""

    total: int
    j: Fraction
    flex_members: int
    primitive_points: int

    def to_json_dict(self) -> dict:
        return {
            "j": rational_to_string(self.j),
            "flex_pencil": str(self.flex_members),
            "total": str(self.total),
        }


def unisecant_count_k3(curve: HomogeneousForm) -> UnisecantCount:
    """Rational cubics meeting the smooth cubic at exactly one point.

    Assembly: each of the 9 flexes contributes the reduced singular members
    of its flex pencil (2 nodal cubics, or 1 cuspidal when j = 0), and each
    of the 72 primitive third-level points contributes 4; hence 306 in
    general and 297 exactly in the j = 0 class.
    """
    w = weierstrass_at_flex(curve, first_rational_flex(flexes(curve)))
    count, _kinds = flex_pencil_count(w)
    primitives = primitive_contact_count(3)
    total = 9 * count + 4 * primitives
    return UnisecantCount(total, j_invariant(w), count, primitives)


# ---------------------------------------------------------------------------
# k = 2: contact conics
# ---------------------------------------------------------------------------

IRREDUCIBLE_CONIC = "irreducible-conic"
DOUBLE_LINE = "double-line"


def contact_conic_check(curve: HomogeneousForm, p: ProjectivePoint) -> str:
    """The unique 6-fold contact divisor at p: smooth conic or double line.

    The contact system at k = 2 must be one-dimensional (p's order divides
    6); the symmetric-matrix rank of the unique conic decides: rank 3 is an
    irreducible conic, rank 1 a double line (p is then a flex).  Rank 2
    cannot occur: both lines would have to be the inflection tangent.
    """
    if not is_smooth_cubic(curve):
        raise DomainError("contact systems are defined against a smooth cubic")
    system = contact_system(curve, p, 2)
    if system.dimension == 0:
        raise DomainError("point does not carry a 6-fold contact divisor")
    if system.dimension != 1:
        raise UnisecantError("contact conic system has unexpected dimension")
    # The rank of a conic is the rank of its (constant) second partials.
    r = rank([[d.partial_derivative(j).coefficient((0, 0, 0)) for j in range(3)]
              for d in system.basis[0].gradient()], 3)
    if r == 3:
        return IRREDUCIBLE_CONIC
    if r == 2:
        raise UnisecantError("rank-2 contact conic: two distinct lines cannot both osculate")
    return DOUBLE_LINE

