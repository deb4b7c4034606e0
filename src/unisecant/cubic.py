"""Smooth plane cubic toolkit.

Smoothness testing, the Hessian and the nine flexes, normalization at a
rational flex to the Weierstrass shape

    X0 X2^2 = 4 X1^3 + alpha X0^2 X1 + beta X0^3

(flex at (0:0:1), inflection line X0 = 0), the j-invariant
j = 1728 alpha^3 / (alpha^3 + 27 beta^2), and the chord-tangent group law
on the normal form's own points: a finite point is (1 : x : y) on
y^2 = 4x^3 + alpha x + beta, and the flex (0 : 0 : 1) is the origin.
The coefficient 4 is part of the contract: the smoothness criterion
alpha^3 + 27 beta^2 != 0 and the j formula are stated for exactly this
normalization.

Torsion constructors at the bottom build curves with rational points of
prescribed small order from the Tate normal form
y^2 + (1-c)xy - by = x^3 - bx^2 with P = (0, 0) and the Kubert parameter
families; orders are certified by scalar multiplication, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, UnsupportedFieldError
from .exactalg import (
    HomogeneousForm,
    IntersectionData,
    Mat3,
    ProjectivePoint,
    hessian,
    integer_image,
    mat3,
    mat3_adjugate,
    mat3_det,
    mat3_mul,
    mat3_transpose,
    mat3_vec,
    plane_intersection,
    rational_to_string,
    ternary_discriminant,
)


def is_smooth_cubic(f: HomogeneousForm) -> bool:
    """True iff the cubic curve {f = 0} is nonsingular over C: ``ternary_discriminant`` != 0."""
    if f.is_zero() or f.degree != 3:
        raise DomainError("expected a nonzero cubic form")
    return ternary_discriminant(f) != 0


def flexes(f: HomogeneousForm) -> IntersectionData:
    """The curve-Hessian intersection of a smooth cubic: its flexes.

    The flex count with multiplicity (always 9) is the eliminant degree in
    good position; ``points`` are the rational flexes, sorted in canonical
    order.  A squarefree eliminant is sought, which certifies that the nine
    flexes are distinct.  Irrational flexes are counted, never represented.
    """
    if not is_smooth_cubic(f):
        raise DomainError("flexes are computed for smooth cubics only")
    data = plane_intersection(f, hessian(f), want_squarefree_eliminant=True)
    data.points.sort(key=lambda p: p.coords)
    return data


def first_rational_flex(data: IntersectionData) -> ProjectivePoint:
    """The first rational flex of ``flexes`` output; unsupported-field error if none."""
    if not data.points:
        raise UnsupportedFieldError("curve has no rational flex to normalize at")
    return data.points[0]


def weierstrass_normal_form(alpha, beta) -> HomogeneousForm:
    """The cubic X0 X2^2 - 4 X1^3 - alpha X0^2 X1 - beta X0^3."""
    return HomogeneousForm(3, {
        (1, 0, 2): Fraction(1),
        (0, 3, 0): Fraction(-4),
        (2, 1, 0): -Fraction(alpha),
        (3, 0, 0): -Fraction(beta),
    })


@dataclass(frozen=True)
class WeierstrassData:
    """Normalization of a smooth cubic at a rational flex.

    ``transform`` satisfies substitute(f, transform) = scale * normal form;
    the flex goes to (0:0:1) and the inflection tangent to {X0 = 0}.
    Smoothness is equivalent to alpha^3 + 27 beta^2 != 0.
    """

    alpha: Fraction
    beta: Fraction
    transform: Mat3

    def normal_form(self) -> HomogeneousForm:
        return weierstrass_normal_form(self.alpha, self.beta)

    def to_normal_point(self, p: ProjectivePoint) -> ProjectivePoint:
        """Coordinates of an original-plane point on the normalized curve.

        The adjugate of transform^T is det · (transform^T)^-1, and a
        projective point ignores the scalar; on the integer images of the
        transform and of p it runs on ``int``.
        """
        t, _ = integer_image(x for row in self.transform for x in row)
        adj = mat3_adjugate(mat3_transpose((t[0:3], t[3:6], t[6:9])))
        return ProjectivePoint(*mat3_vec(adj, integer_image(p.coords)[0]))

    def is_smooth(self) -> bool:
        return self.alpha**3 + 27 * self.beta**2 != 0

    def to_json_dict(self) -> dict:
        return {
            "alpha": rational_to_string(self.alpha),
            "beta": rational_to_string(self.beta),
            "transform": [[rational_to_string(c) for c in row] for row in self.transform],
        }


def is_flex(f: HomogeneousForm, p: ProjectivePoint) -> bool:
    """p lies on f and the Hessian vanishes there: the second partials at p, one 3x3 det."""
    if f.evaluate(p.coords) != 0:
        return False
    return mat3_det([[d.partial_derivative(j).evaluate(p.coords) for j in range(3)]
                     for d in f.gradient()]) == 0


def weierstrass_at_flex(f: HomogeneousForm, p: ProjectivePoint) -> WeierstrassData:
    """Normalize a smooth cubic at a rational flex.

    One substitution g1 = f∘t1 moves the flex to (0:0:1) with tangent
    {X0 = 0}.  Completing the square in X2, the cube in X1 and rescaling X0
    to make the coefficients (1, -4) are read off the coefficients of g1 in
    closed form: alpha, beta and the upper triangular matrix t4·t3·t2, all
    exact.  One more substitution checks the composite against the normal
    form.  Smoothness is decided once, on the verified normal form: the
    cubic is smooth exactly when alpha^3 + 27 beta^2 != 0, and a singular
    one raises DomainError there.
    """
    if not is_flex(f, p):
        raise DomainError(f"{p} is not a flex of the cubic")
    grad = [g.evaluate(p.coords) for g in f.gradient()]
    t1 = _flex_frame(p, grad)
    g1 = f.substitute(t1)
    # After t1: g1 = a*X0*X2^2 + X0*X2*(b1*X0 + b2*X1) + c*X1^3 + X0*(quadratic in X0, X1).
    if any(g1.coefficient(e) != 0 for e in ((0, 0, 3), (0, 1, 2), (0, 2, 1))):
        raise DomainError("flex frame failed; input was not a flex")
    a = g1.coefficient((1, 0, 2))
    c = g1.coefficient((0, 3, 0))
    if a == 0 or c == 0:
        raise DomainError("degenerate tangent frame; cubic is singular at the point")
    b1 = g1.coefficient((2, 0, 1))
    b2 = g1.coefficient((1, 1, 1))
    u, v = -b1 / (2 * a), -b2 / (2 * a)
    # X2 -> X2 + u X0 + v X1 leaves a X0 X2^2 + c X1^3 + X0 (e2 X1^2 + e1 X0 X1 + e0 X0^2).
    e2 = g1.coefficient((1, 2, 0)) - b2 * b2 / (4 * a)
    e1 = g1.coefficient((2, 1, 0)) - b1 * b2 / (2 * a)
    e0 = g1.coefficient((3, 0, 0)) - b1 * b1 / (4 * a)
    # X1 -> X1 + s X0 clears X0 X1^2, leaving f1 X0^2 X1 + f0 X0^3.
    s = -e2 / (3 * c)
    f1 = 3 * c * s * s + 2 * e2 * s + e1
    f0 = c * s**3 + e2 * s * s + e1 * s + e0
    # X0 -> r X0 makes a r X0 X2^2 + c X1^3 = a r (X0 X2^2 - 4 X1^3).
    r = -c / (4 * a)
    data = WeierstrassData(-f1 * r / a, -f0 * r * r / a,
                           mat3_mul(mat3([[r, r * s, r * (u + v * s)], [0, 1, v], [0, 0, 1]]), t1))
    if f.substitute(data.transform) != data.normal_form().scale(a * r):
        raise DomainError("normalization lost exactness; input is not a smooth cubic "
                          "with a rational flex")
    if not data.is_smooth():
        raise DomainError("weierstrass normalization needs a smooth cubic")
    return data


def _flex_frame(p: ProjectivePoint, grad) -> Mat3:
    """A matrix whose row 2 is the flex and whose frame sends the tangent to X0=0.

    Rows 1 and 2 span the tangent plane l^perp (l = grad): the flex lies on
    its tangent by Euler's identity, and row 1 is the first oriented
    l-orthogonal candidate not proportional to it.  Row 0 is the first unit
    vector off the tangent (l_i != 0), which completes the frame.
    """
    l = [Fraction(g) for g in grad]
    if all(x == 0 for x in l):
        raise DomainError("gradient vanishes; point is singular")
    candidates = [
        (l[1], -l[0], Fraction(0)),
        (l[2], Fraction(0), -l[0]),
        (Fraction(0), l[2], -l[1]),
    ]
    # Orient each candidate (first nonzero entry positive) so an
    # already-normal curve normalizes with the identity transform.
    row1 = next(v for v in map(_orient, candidates) if any(v) and ProjectivePoint(*v) != p)
    i = next(i for i in range(3) if l[i] != 0)
    return mat3([[int(k == i) for k in range(3)], list(row1), list(p.coords)])


def _orient(v):
    pivot = next((x for x in v if x != 0), None)
    if pivot is not None and pivot < 0:
        return tuple(-x for x in v)
    return v


def j_invariant(w: WeierstrassData) -> Fraction:
    """j = 1728 alpha^3 / (alpha^3 + 27 beta^2); zero exactly for alpha = 0."""
    denom = w.alpha**3 + 27 * w.beta**2
    if denom == 0:
        raise DomainError("singular curve has no j-invariant")
    return 1728 * w.alpha**3 / denom


ORIGIN = ProjectivePoint(0, 0, 1)  # the flex, identity of the group law


def on_curve(w: WeierstrassData, p: ProjectivePoint) -> bool:
    """p lies on the normal form; ``ORIGIN`` is its only point with X0 = 0."""
    return w.normal_form().evaluate(p.coords) == 0


def _require_on_curve(w: WeierstrassData, p: ProjectivePoint) -> None:
    if not on_curve(w, p):
        raise DomainError(f"point {p} is not on y^2 = 4x^3 + {w.alpha}x + {w.beta}")


def ec_add(w: WeierstrassData, p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """Chord-tangent addition with the flex ``ORIGIN`` as identity.

    On y^2 = 4x^3 + alpha x + beta the chord y = m x + nu meets the curve
    where 4x^3 - m^2 x^2 + ... = 0, so x1 + x2 + x3 = m^2 / 4; the tangent
    slope is m = (12 x^2 + alpha) / (2y).
    """
    _require_on_curve(w, p)
    _require_on_curve(w, q)
    return _add(w, p, q)


def _add(w: WeierstrassData, p: ProjectivePoint, q: ProjectivePoint) -> ProjectivePoint:
    """``ec_add`` unchecked: sums of points on the curve stay on it, so each
    public entry checks its input once and chains its additions through this."""
    if p == ORIGIN:
        return q
    if q == ORIGIN:
        return p
    _, px, py = p.coords
    _, qx, qy = q.coords
    if px == qx:
        if py == -qy:
            return ORIGIN
        m = (12 * px**2 + w.alpha) / (2 * py)
    else:
        m = (qy - py) / (qx - px)
    x3 = m * m / 4 - px - qx
    return ProjectivePoint(1, x3, -(py + m * (x3 - px)))


def ec_scalar_mul(w: WeierstrassData, n: int, p: ProjectivePoint) -> ProjectivePoint:
    """n-fold sum by double-and-add; negative n negates, (X0 : X1 : -X2)."""
    _require_on_curve(w, p)
    if n < 0:
        n, p = -n, ProjectivePoint(p[0], p[1], -p[2])
    acc, base = ORIGIN, p
    while n:
        if n & 1:
            acc = _add(w, acc, base)
        base = _add(w, base, base)
        n >>= 1
    return acc


def point_order(w: WeierstrassData, p: ProjectivePoint, bound: int) -> int | None:
    """Smallest n >= 1 with [n]P = O, or None if it exceeds the bound."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    _require_on_curve(w, p)
    acc = p
    for n in range(1, bound + 1):
        if acc == ORIGIN:
            return n
        acc = _add(w, acc, p)
    return None


# ---------------------------------------------------------------------------
# Torsion-curve constructors (Tate normal form / Kubert families)
# ---------------------------------------------------------------------------

def general_weierstrass_cubic(a1, a2, a3, a4, a6) -> HomogeneousForm:
    """Projective cubic of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Affine chart x = X1/X0, y = X2/X0; the flex at infinity is (0:0:1)
    with inflection line X0 = 0.
    """
    return HomogeneousForm(3, {
        (1, 0, 2): Fraction(1),
        (1, 1, 1): Fraction(a1),
        (2, 0, 1): Fraction(a3),
        (0, 3, 0): Fraction(-1),
        (1, 2, 0): Fraction(-a2),
        (2, 1, 0): Fraction(-a4),
        (3, 0, 0): Fraction(-a6),
    })


def tate_normal_cubic(b, c) -> tuple[HomogeneousForm, ProjectivePoint]:
    """Tate normal form y^2 + (1-c)xy - by = x^3 - bx^2 with marked P = (0,0)."""
    b, c = Fraction(b), Fraction(c)
    form = general_weierstrass_cubic(1 - c, -b, -b, 0, 0)
    return form, ProjectivePoint(1, 0, 0)


def kubert_z9_curve(d) -> tuple[HomogeneousForm, ProjectivePoint]:
    """Tate normal curve from the Z/9 Kubert family at parameter d.

    c = d^2 (d - 1), b = c (d^2 - d + 1).  The marked point (0, 0) has
    order 9 for generic d; callers must certify the order with
    ec_scalar_mul (the acceptance fixtures do).
    """
    d = Fraction(d)
    c = d * d * (d - 1)
    b = c * (d * d - d + 1)
    return tate_normal_cubic(b, c)


def kubert_z6_curve(c) -> tuple[HomogeneousForm, ProjectivePoint]:
    """Tate normal curve from the Z/6 Kubert family: b = c + c^2."""
    c = Fraction(c)
    return tate_normal_cubic(c + c * c, c)


def normalized_curve_with_point(form: HomogeneousForm, p: ProjectivePoint,
                                flex: ProjectivePoint | None = None,
                                ) -> tuple[WeierstrassData, ProjectivePoint]:
    """Normalize a smooth cubic at a rational flex and carry a marked point.

    If no flex is supplied, the rational flexes are computed and the first
    one (in canonical point order) is used; curves without a rational flex
    raise an unsupported-field error.  The point is returned in the normal
    form's coordinates, where the flex is ``ORIGIN``.
    """
    if flex is None:
        flex = first_rational_flex(flexes(form))
    w = weierstrass_at_flex(form, flex)
    if form.evaluate(p.coords) != 0:
        raise DomainError(f"marked point {p} is not on the curve")
    q = w.to_normal_point(p)
    _require_on_curve(w, q)
    return w, q
