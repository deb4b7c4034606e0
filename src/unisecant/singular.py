"""Plane-curve singularity engine.

Resolution by iterated blow-ups in two affine charts, multiplicity trees
and their delta invariants, the geometric genus

    g = (d-1)(d-2)/2 - sum mu(mu-1)/2,

local intersection numbers (two independent computation paths: the order of
a resultant in good position, and the blow-up recursion
I(B, V) = mult(B) mult(V) + sum over infinitely near points), the
intersection identity for a curve with prescribed singularities against a
companion curve

    D . F = Dtilde . F_r + sum mu_j delta_j,

weak-type (required multiplicity) checks along a resolution tree, and the
derivative test for equisingular one-parameter families.  The genus bounds
and the finiteness certificate, plain arithmetic, live in ``torsion``.

All singular points handled here must be rational; an irrational singular
point raises an explicit unsupported-field error rather than producing a
silently wrong count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .errors import (
    CommonComponentError,
    DegenerateFamilyError,
    DomainError,
    InputError,
    ResolutionDepthError,
    UnisecantError,
    UnsupportedFieldError,
)
from .exactalg import (
    BivariatePoly,
    HomogeneousForm,
    ProjectivePoint,
    UnivariatePoly,
    factor_over_q,
    form_factorization,
    integer_nodes,
    is_reduced_form,
    pack,
    plane_intersection,
    poly_gcd,
    rational_singular_points,
    resultant,
)

MAX_RESOLUTION_DEPTH = 64


# ---------------------------------------------------------------------------
# Germs
# ---------------------------------------------------------------------------

def curve_germ(f: HomogeneousForm, p: ProjectivePoint) -> BivariatePoly:
    """Local affine equation of {f = 0} with p translated to the origin.

    Dehomogenizes in the chart of p's first nonzero coordinate, keeping the
    two remaining coordinates in increasing index order.  p is scaled so
    that coordinate is 1, so one substitution X_j -> X_j + p_j X_chart
    (the identity with row ``chart`` replaced by p) moves p to the origin.
    """
    if f.is_zero():
        raise DomainError("zero form has no germ")
    chart = p.first_nonzero_index()
    m = [list(p.coords) if i == chart else [int(i == j) for j in range(3)] for i in range(3)]
    return BivariatePoly.chart(f.substitute(m), chart)


# ---------------------------------------------------------------------------
# Resolution trees
# ---------------------------------------------------------------------------

@dataclass
class ResolutionNode:
    """One infinitely near point with multiplicity >= 2.

    ``moves`` records how each child center sits on the exceptional line:
    ("A", c) is the chart (x, y/x) point y/x = c, ("B",) is the vertical
    direction chart (x/y, y) origin.  The germ of the proper transform at
    this node's center is kept for companion replays and residual
    intersections.
    """

    mu: int
    germ: BivariatePoly
    moves: list[tuple[tuple, "ResolutionNode"]] = field(default_factory=list)

    def all_nodes(self) -> list["ResolutionNode"]:
        out = [self]
        for _, child in self.moves:
            out.extend(child.all_nodes())
        return out

    def multiplicities(self) -> list[int]:
        """Preorder list of multiplicities (the classical sequence for chains)."""
        return [n.mu for n in self.all_nodes()]

    def signature(self):
        """Canonical shape-and-multiplicity signature for equisingularity tests."""
        return (self.mu, tuple(sorted(child.signature() for _, child in self.moves)))

    def delta(self) -> int:
        return sum(n.mu * (n.mu - 1) // 2 for n in self.all_nodes())


def _blowup(germ: BivariatePoly, mu: int, move: tuple) -> BivariatePoly:
    """Proper transform of a germ of multiplicity mu at one exceptional-line point.

    ("A", c) is the point y/x = c of chart A, moved to the origin; ("B",)
    is the origin of chart B, the vertical direction.
    """
    if move == ("B",):
        return germ.swap().blowup_chart_a(mu).swap()
    return germ.blowup_chart_a(mu).translate(0, move[1])


def _tangent_cone(germ: BivariatePoly, mu: int) -> tuple[UnivariatePoly, bool]:
    """The transform on the exceptional line: the tangent cone in the slope y/x.

    Its roots are the chart-A points the transform passes through; the
    flag says whether it passes through the chart-B origin as well (the
    cone lacks the y^mu term).
    """
    cone = UnivariatePoly._from_ints([germ.num.get((mu - j, j), 0) for j in range(mu + 1)],
                                     germ.den)
    return cone, cone.degree < mu


def _moves(slopes: list[Fraction], vertical: bool) -> list[tuple]:
    """Centers for ``_blowup``: the chart-A slopes, then the vertical direction."""
    return [("A", c) for c in slopes] + ([("B",)] if vertical else [])


def _resolve_germ(germ: BivariatePoly, depth: int) -> ResolutionNode | None:
    """Blow up until the proper transform is smooth at every point over the origin.

    Returns None when the germ is already smooth (multiplicity <= 1): such
    points carry no tree node, since mu = 1 contributes nothing to the
    genus or intersection formulas.
    """
    if depth > MAX_RESOLUTION_DEPTH:
        raise ResolutionDepthError("resolution exceeded the depth bound")
    if germ.coefficient((0, 0)) != 0:
        return None
    mu = germ.multiplicity()
    if mu <= 1:
        return None
    node = ResolutionNode(mu, germ)
    cone, vertical = _tangent_cone(germ, mu)
    for move in _moves(_roots_with_irrational_guard(cone), vertical):
        child = _resolve_germ(_blowup(germ, mu, move), depth + 1)
        if child is not None:
            node.moves.append((move, child))
    return node


def _roots_with_irrational_guard(p: UnivariatePoly) -> list[Fraction]:
    """Rational roots of p.

    A simple root of the exceptional-line restriction is automatically a
    smooth point of the transform, so irrational simple roots are safely
    skipped; an irrational repeated root could hide a singular infinitely
    near point and raises.
    """
    factors = factor_over_q(p)
    if any(fac.degree > 1 and mult >= 2 for fac, mult in factors):
        raise UnsupportedFieldError("repeated irrational tangent direction in the resolution")
    return [-fac.coeffs[0] / fac.coeffs[1] for fac, _ in factors if fac.degree == 1]


def _shared_moves(f: BivariatePoly, mf: int, g: BivariatePoly, mg: int) -> list[tuple]:
    """Exceptional-line points through which both proper transforms pass.

    Raises UnsupportedFieldError when a shared direction is irrational.
    """
    cone_f, vertical_f = _tangent_cone(f, mf)
    cone_g, vertical_g = _tangent_cone(g, mg)
    h = poly_gcd(cone_f, cone_g)[0]
    slopes = []
    if h.degree > 0:
        factors = factor_over_q(h)
        if any(fac.degree > 1 for fac, _ in factors):
            raise UnsupportedFieldError("irrational common tangent direction")
        slopes = sorted(-fac.coeffs[0] for fac, _ in factors)
    return _moves(slopes, vertical_f and vertical_g)


@dataclass
class PointResolution:
    """Resolution data of one (rational) singular point."""

    point: ProjectivePoint
    tree: ResolutionNode | None

    def multiplicities(self) -> list[int]:
        return self.tree.multiplicities() if self.tree else []

    def delta(self) -> int:
        return self.tree.delta() if self.tree else 0

    def signature(self):
        return self.tree.signature() if self.tree else None

    def to_json_dict(self) -> dict:
        def node_dict(n: ResolutionNode) -> dict:
            return {"mu": str(n.mu),
                    "children": [node_dict(c) for _, c in n.moves]}
        return {
            "point": self.point.to_json_list(),
            "multiplicities": [str(m) for m in self.multiplicities()],
            "delta": str(self.delta()),
            "tree": node_dict(self.tree) if self.tree else None,
        }


@dataclass
class SingularityProfile:
    """Multiplicity trees at every singular point of a reduced curve of the given degree."""

    points: list[PointResolution]
    degree: int

    def delta_total(self) -> int:
        return sum(p.delta() for p in self.points)

    def signature(self):
        return tuple(sorted((p.signature() for p in self.points), key=repr))

    @classmethod
    def of_curve(cls, f: HomogeneousForm, *, check_reduced: bool = True
                 ) -> "SingularityProfile":
        if check_reduced and not is_reduced_form(f):
            raise DomainError("curve is not reduced")
        pts = rational_singular_points(f)
        return cls([multiplicity_sequence(f, p, check_reduced=False) for p in pts], f.degree)


def multiplicity_sequence(f: HomogeneousForm, p: ProjectivePoint, *,
                          check_reduced: bool = True) -> PointResolution:
    """Resolution tree of f at p (iterated blow-ups in two charts)."""
    if check_reduced and not is_reduced_form(f):
        raise DomainError("curve is not reduced")
    germ = curve_germ(f, p)
    if germ.coefficient((0, 0)) != 0:
        raise DomainError(f"{p} is not on the curve")
    return PointResolution(p, _resolve_germ(germ, 0))


def genus_profile(f: HomogeneousForm, assume_irreducible: bool = False) -> SingularityProfile:
    """The singularity profile of a curve whose geometric genus is defined.

    f is factored over Q once: a constant or non-reduced curve is refused,
    and so is a curve reducible over Q unless ``assume_irreducible`` is set.
    Geometrically reducible curves that are irreducible over Q are accepted.
    """
    if f.is_zero() or f.degree < 1:
        raise DomainError("genus needs a curve of degree >= 1")
    factors = form_factorization(f)
    if any(mult > 1 for _, mult in factors):
        raise DomainError("curve is not reduced")
    if not assume_irreducible and len(factors) > 1:
        raise DomainError("curve is reducible over Q (pass assume_irreducible to override)")
    return SingularityProfile.of_curve(f, check_reduced=False)


def geometric_genus(f: HomogeneousForm | SingularityProfile,
                    assume_irreducible: bool = False) -> int:
    """(d-1)(d-2)/2 minus the delta invariants of all singular points.

    ``f`` is a curve, checked and resolved by ``genus_profile``, or a
    profile that ``genus_profile`` returned, taken as it is.  A curve
    reducible over Q and accepted with ``assume_irreducible`` can
    legitimately give a negative value.
    """
    profile = f if isinstance(f, SingularityProfile) else genus_profile(f, assume_irreducible)
    d = profile.degree
    return (d - 1) * (d - 2) // 2 - profile.delta_total()


# ---------------------------------------------------------------------------
# Local intersection numbers
# ---------------------------------------------------------------------------

def _germ_intersection_resultant(fg: BivariatePoly, gg: BivariatePoly) -> int:
    """I(f, g) at the origin as ord_x res_y(f, g) in good position.

    Good position means: both polynomials are y-regular of full degree,
    deg_y = total degree, so their leading y-coefficients are constants (no
    mass escapes to y-infinity), and the origin is the only common zero on
    the line x = 0.  Then the order of the resultant at x = 0 is exactly
    the local intersection number (Fulton, *Algebraic Curves*, ch. 3).

    The shears x -> x + t*y for t = 0, 1, -1, 2, ... (``integer_nodes``)
    are tried d*e + d + e times, d and e the total degrees; running out
    proves a shared component.  Without one, a bad t is a root of the top
    forms f_d(t, 1) or g_e(t, 1), the y^d and y^e coefficients after the
    shear (at most d + e of them), or the slope of the line x = t*y through
    one of the at most d*e - 1 other common points (Bezout).

    The order is read from one integer resultant, not from the whole
    eliminant (``resultant_y``, nodes and interpolation).  With constant
    leading y-coefficients, res_y(F, G) at x = 2^k is the resultant of F
    and G with each y-coefficient packed at x = 2^k (``pack``; F and G are
    the integer images ``num``, of y-degrees m and n).  The product of the
    Sylvester row sums, B = (sum_j ||F_j||_1)^n (sum_j ||G_j||_1)^m, bounds
    every coefficient r_i of res_y(F, G), so with k the length of B,
    |r_i| < 2^k.  If r_i is the lowest nonzero one, the value is
    2^(ki) (r_i + 2^k s) with v_2(r_i) < k: it is not 0, and
    v_2(value) // k = i.  A value of 0 therefore means res_y = 0, a shared
    component.
    """
    d, e = fg.total_degree(), gg.total_degree()
    for t in islice(integer_nodes(), d * e + d + e):
        f2, g2 = (h.linear_change(1, t, 0, 1) for h in (fg, gg))
        if f2.degree_y() != d or g2.degree_y() != e:
            continue
        fcols, gcols = f2.columns(), g2.columns()
        f0, g0 = (UnivariatePoly._from_ints([col[0] for col in cols]) for cols in (fcols, gcols))
        if any(poly_gcd(f0, g0)[0].num[:-1]):  # the gcd is not a power of y
            continue
        bound = (sum(map(abs, f2.num.values())) ** (len(gcols) - 1)
                 * sum(map(abs, g2.num.values())) ** (len(fcols) - 1))
        k = bound.bit_length()
        value = resultant(UnivariatePoly._from_ints([pack(col, k) for col in fcols]),
                          UnivariatePoly._from_ints([pack(col, k) for col in gcols])).numerator
        if value == 0:
            break
        return ((value & -value).bit_length() - 1) // k
    raise CommonComponentError("germs share a component")


def _germ_intersection_blowup(fg: BivariatePoly, gg: BivariatePoly,
                              depth: int = 0) -> int:
    """I(f, g) at the origin by the blow-up recursion.

    I = mult(f) mult(g) + sum of the intersections of the proper transforms
    at their common points on the exceptional line.  Needs every common
    direction to be rational; raises otherwise and the caller falls back to
    the resultant path.
    """
    if depth > MAX_RESOLUTION_DEPTH:
        raise ResolutionDepthError("blow-up recursion exceeded the depth bound")
    if fg.coefficient((0, 0)) != 0 or gg.coefficient((0, 0)) != 0:
        return 0
    mf, mg = fg.multiplicity(), gg.multiplicity()
    total = mf * mg
    for move in _shared_moves(fg, mf, gg, mg):
        total += _germ_intersection_blowup(
            _blowup(fg, mf, move), _blowup(gg, mg, move), depth + 1)
    return total


def local_intersection(f: HomogeneousForm, g: HomogeneousForm,
                       p: ProjectivePoint) -> int:
    """Intersection multiplicity of {f=0} and {g=0} at p.

    Computed by the resultant path and cross-checked against the blow-up
    recursion whenever the latter stays rational; disagreement is an
    internal error.  Symmetric in f and g; zero if p misses either curve.
    """
    fg = curve_germ(f, p)
    gg = curve_germ(g, p)
    if fg.coefficient((0, 0)) != 0 or gg.coefficient((0, 0)) != 0:
        return 0
    value = _germ_intersection_resultant(fg, gg)
    try:
        check = _germ_intersection_blowup(fg, gg)
    except UnsupportedFieldError:
        return value
    if check != value:
        raise UnisecantError(
            f"intersection paths disagree at {p}: resultant {value}, blow-up {check}")
    return value


# ---------------------------------------------------------------------------
# Weak types and the intersection identity
# ---------------------------------------------------------------------------

def companion_multiplicities(node: ResolutionNode, companion: BivariatePoly) -> list[int]:
    """Actual multiplicities of a companion curve's transforms along a tree.

    Replays the blow-ups that resolve the base curve while carrying the
    companion germ: at each center the companion's multiplicity is
    recorded and its proper transform (pullback minus that multiple of the
    exceptional line) moves on to the children.  The list is aligned with
    ``node.all_nodes()``.
    """
    through_center = not companion.is_zero() and companion.coefficient((0, 0)) == 0
    delta = companion.multiplicity() if through_center else 0
    out = [delta]
    for move, child in node.moves:
        out.extend(companion_multiplicities(child, _blowup(companion, delta, move)))
    return out


def mu_minus_one(node: ResolutionNode) -> list[int]:
    """The requirement list (aligned with ``node.all_nodes()``): every mu lowered by one."""
    return [max(mu - 1, 0) for mu in node.multiplicities()]


def weak_type_check(g: HomogeneousForm, required: list[tuple[ProjectivePoint, list[int]]],
                    along: SingularityProfile) -> bool:
    """Does g meet the required multiplicities at every infinitely near point?

    Equivalent to effectivity of the successive pullbacks of g minus the
    required multiples of the exceptional divisors.  Each requirement is a
    list of multiplicities aligned with the tree's ``all_nodes()``.
    """
    req_by_point = {p: w for p, w in required}
    if set(req_by_point) != {pr.point for pr in along.points if pr.tree is not None}:
        raise DomainError("requirement tree does not match the profile's points")
    for pr in along.points:
        if pr.tree is None:
            continue
        actual = companion_multiplicities(pr.tree, curve_germ(g, pr.point))
        need = req_by_point[pr.point]
        if len(need) != len(actual):
            raise DomainError("requirement tree shape mismatch")
        if any(a < r for a, r in zip(actual, need)):
            return False
    return True


@dataclass
class BlowupIdentity:
    """Both sides of D.F = Dtilde.F_r + sum mu delta, with the rhs split out."""

    lhs: int
    rhs: int
    transform_term: int
    contact_term: int

    def __iter__(self):
        return iter((self.lhs, self.rhs))


def _residual_after_tree(node: ResolutionNode, companion: BivariatePoly,
                         depth: int = 0) -> int:
    """Intersections of the proper transforms at points off the tree.

    At each tree node the transforms may share exceptional-line points that
    are not themselves tree nodes (the base curve is already smooth there);
    those contribute their full local intersection to Dtilde . F_r.
    """
    if depth > MAX_RESOLUTION_DEPTH:
        raise ResolutionDepthError("residual recursion exceeded the depth bound")
    if companion.is_zero():
        raise CommonComponentError("companion vanished during replay")
    if companion.coefficient((0, 0)) != 0:
        return 0
    delta = companion.multiplicity()
    children = dict(node.moves)
    total = 0
    for move in _shared_moves(node.germ, node.mu, companion, delta):
        comp_child = _blowup(companion, delta, move)
        if move in children:
            total += _residual_after_tree(children[move], comp_child, depth + 1)
        else:
            total += _germ_intersection_resultant(_blowup(node.germ, node.mu, move), comp_child)
    return total


def blowup_intersection_identity(f: HomogeneousForm, g: HomogeneousForm,
                                 profile: SingularityProfile | None = None
                                 ) -> BlowupIdentity:
    """Verify D.F = Dtilde.F_r + sum mu_j delta_j on concrete curves.

    lhs is the Bezout product deg(f) deg(g), re-derived from the eliminant;
    rhs assembles the proper-transform intersection (smooth intersection
    points, residuals over the singular points, and the irrational-fiber
    mass) plus the contact term sum mu_j delta_j with delta the actual
    multiplicities of g's transforms along f's resolution trees.
    """
    if profile is None:
        profile = SingularityProfile.of_curve(f)
    data = plane_intersection(f, g)
    lhs = f.degree * g.degree
    if data.eliminant.degree != lhs:
        raise UnisecantError("eliminant degree disagrees with Bezout")
    singular_points = {pr.point: pr for pr in profile.points if pr.tree is not None}
    rational_total = 0
    transform_term = 0
    contact_term = 0
    seen = set()
    for fiber in data.fibers:
        fiber_sum = 0
        for p in fiber.points:
            if p in seen:
                continue
            seen.add(p)
            ip = local_intersection(f, g, p)
            fiber_sum += ip
            if p in singular_points:
                pr = singular_points[p]
                comp = curve_germ(g, p)
                weak = companion_multiplicities(pr.tree, comp)
                mu_delta = sum(mu * d for mu, d in zip(pr.tree.multiplicities(), weak))
                residual = _residual_after_tree(pr.tree, comp)
                if ip != mu_delta + residual:
                    raise UnisecantError(
                        f"local identity failed at {p}: {ip} != {mu_delta} + {residual}")
                contact_term += mu_delta
                transform_term += residual
            else:
                transform_term += ip
        if fiber_sum > fiber.multiplicity:
            raise UnisecantError("fiber multiplicity underflow")
        rational_total += fiber_sum
    irrational_mass = lhs - sum(fb.multiplicity for fb in data.fibers)
    mixed_mass = sum(fb.multiplicity for fb in data.fibers) - rational_total
    transform_term += irrational_mass + mixed_mass
    rhs = transform_term + contact_term
    return BlowupIdentity(lhs, rhs, transform_term, contact_term)


# ---------------------------------------------------------------------------
# Bezout bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class BezoutReport:
    """Exact accounting of sum of local intersections against deg f * deg g."""

    product: int
    rational_sum: int
    irrational_mass: int
    fibers_fully_rational: int
    fibers_total: int
    ok: bool


def bezout_check(f: HomogeneousForm, g: HomogeneousForm) -> BezoutReport:
    """Verify Bezout: local intersections at rational points, eliminant
    multiplicities for the rest.

    For every fiber whose points are all rational the fiber's eliminant
    multiplicity must equal the sum of the local intersection numbers; the
    remaining mass is carried by irrational points and accounted by degree.
    """
    data = plane_intersection(f, g)
    product = f.degree * g.degree
    rational_sum = 0
    fully = 0
    ok = data.eliminant.degree == product
    for fiber in data.fibers:
        s = sum(local_intersection(f, g, p) for p in fiber.points)
        rational_sum += s
        if fiber.rational_complete:
            fully += 1
            if s != fiber.multiplicity:
                ok = False
        elif s > fiber.multiplicity:
            ok = False
    irrational = product - rational_sum
    if irrational < 0:
        ok = False
    return BezoutReport(product, rational_sum, irrational, fully,
                        len(data.fibers), ok)


# ---------------------------------------------------------------------------
# One-parameter families
# ---------------------------------------------------------------------------

@dataclass
class CurveFamily:
    """A form whose coefficients are polynomials in one parameter t."""

    degree: int
    coeffs: dict[tuple[int, int, int], UnivariatePoly]

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError(f"negative degree {self.degree}")
        for expo in self.coeffs:
            if sum(expo) != self.degree or min(expo) < 0:
                raise DomainError(f"bad exponent triple {expo} for degree {self.degree}")

    def specialize(self, t) -> HomogeneousForm:
        t = Fraction(t)
        return HomogeneousForm(self.degree,
                               {e: p.evaluate(t) for e, p in self.coeffs.items()})

    def derivative_form(self, t) -> HomogeneousForm:
        t = Fraction(t)
        return HomogeneousForm(self.degree,
                               {e: p.derivative().evaluate(t) for e, p in self.coeffs.items()})


_SAMPLE_OFFSETS = [Fraction(1, 5), Fraction(-1, 5), Fraction(2, 5), Fraction(-2, 5),
                   Fraction(3, 7), Fraction(-3, 7), Fraction(1, 2), Fraction(-1, 2),
                   Fraction(4, 7), Fraction(-4, 7), Fraction(5, 9), Fraction(-5, 9)]


def family_derivative_check(fam: CurveFamily, t0, *, samples: int = 5) -> bool:
    """The derivative of an equisingular family drops each multiplicity by one.

    First operationalizes equisingularity near t0: the multiplicity-tree
    signature of the specialization must be identical at ``samples``
    parameter values around t0.  Then the parameter derivative at t0 is
    checked to meet multiplicity mu_j - 1 at every infinitely near point of
    the t0 fiber's singularities.  Constant or proportional derivatives are
    flagged as degenerate families (a genuine family never has a derivative
    proportional to itself), never silently accepted.  ``samples`` must be
    in 1..len(_SAMPLE_OFFSETS): with none, equisingularity would go untested.
    """
    if not 1 <= samples <= len(_SAMPLE_OFFSETS):
        raise InputError(f"samples must be in 1..{len(_SAMPLE_OFFSETS)}, got {samples}")
    t0 = Fraction(t0)
    f0 = fam.specialize(t0)
    if f0.is_zero() or f0.degree != fam.degree:
        raise DomainError("specialization at t0 degenerates")
    profile = SingularityProfile.of_curve(f0)
    reference = profile.signature()
    good = 0
    for eps in _SAMPLE_OFFSETS:
        if good >= samples:
            break
        ft = fam.specialize(t0 + eps)
        if ft.is_zero() or not ft.coeffs:
            continue
        try:
            sig = SingularityProfile.of_curve(ft).signature()
        except (UnsupportedFieldError, DomainError):
            continue
        if sig != reference:
            raise DomainError(
                f"family is not equisingular near t0: signature changes at t0+{eps}")
        good += 1
    if good < samples:
        raise DomainError("not enough valid parameter samples around t0")
    deriv = fam.derivative_form(t0)
    if deriv.is_zero():
        raise DegenerateFamilyError("parameter derivative vanishes identically at t0")
    if deriv.is_proportional_to(f0):
        raise DegenerateFamilyError("parameter derivative is proportional to the fiber")
    required = [(pr.point, mu_minus_one(pr.tree))
                for pr in profile.points if pr.tree is not None]
    return weak_type_check(deriv, required, profile)
