"""Bivariate polynomials: local curve germs and elimination in two variables.

Resolution of plane-curve singularities works on affine local equations, so
this module provides the germ toolkit: multiplicity at the origin (lowest
total degree), the blow-up chart substitution

    chart A: f(x, y) -> f(x, x*y) / x^mu        (E = {x = 0})

(chart B, f(x*y, y) / y^mu for the vertical direction, is chart A
conjugated by the swap x <-> y), and the resultant with respect to y,
computed by evaluation/interpolation with leading-coefficient guards.

Coordinate changes (the translation of a point to the origin and the
origin-preserving linear changes) are not done here: they act on the
projective closure through ``HomogeneousForm.substitute``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DomainError
from .forms import HomogeneousForm
from .rationals import integer_image
from .unipoly import UnivariatePoly, integer_nodes, interpolate, resultant


class BivariatePoly:
    """Sparse polynomial in (x, y) over Q; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        clean = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise DomainError("negative exponent")
            c = Fraction(c)
            if c != 0:
                clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *args):
        raise AttributeError("BivariatePoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "BivariatePoly(0)"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            parts.append(f"{c}*x^{i}*y^{j}")
        return "BivariatePoly(" + " + ".join(parts) + ")"

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(i + j for i, j in self.coeffs)

    def degree_x(self) -> int:
        if self.is_zero():
            return -1
        return max(i for i, _ in self.coeffs)

    def degree_y(self) -> int:
        if self.is_zero():
            return -1
        return max(j for _, j in self.coeffs)

    def evaluate(self, x, y) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        return sum((c * x**i * y**j for (i, j), c in self.coeffs.items()),
                   Fraction(0))

    def partial_y(self) -> "BivariatePoly":
        out = {}
        for (i, j), c in self.coeffs.items():
            if j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + j * c
        return BivariatePoly(out)

    def multiplicity(self) -> int:
        """Lowest total degree of a term: the multiplicity at the origin.

        Returns a large sentinel-free answer only for nonzero polynomials;
        the zero polynomial has no multiplicity.
        """
        if self.is_zero():
            raise DomainError("zero polynomial has no multiplicity")
        return min(i + j for i, j in self.coeffs)

    def swap(self) -> "BivariatePoly":
        return BivariatePoly({(j, i): c for (i, j), c in self.coeffs.items()})

    def _substitute(self, m) -> "BivariatePoly":
        """f after the coordinate change m, with x = X1/X0 and y = X2/X0.

        The projective closure of f is taken to its total degree, moved by
        ``HomogeneousForm.substitute`` (which raises ``DomainError`` for a
        singular m) and dehomogenized again in the chart X0 = 1.
        """
        d = max(self.total_degree(), 0)
        closure = HomogeneousForm(d, {(d - i - j, i, j): c for (i, j), c in self.coeffs.items()})
        return BivariatePoly(closure.substitute(m).dehomogenize(0))

    def translate(self, a, b) -> "BivariatePoly":
        """The polynomial f(x + a, y + b) (moves the point (a, b) to the origin)."""
        return self._substitute([[1, a, b], [0, 1, 0], [0, 0, 1]])

    def linear_change(self, a, b, c, d) -> "BivariatePoly":
        """Substitute x -> a x + b y, y -> c x + d y (origin-preserving)."""
        return self._substitute([[1, 0, 0], [0, a, c], [0, b, d]])

    def blowup_chart_a(self, mu: int) -> "BivariatePoly":
        """Proper transform in the chart (x, y/x): f(x, x*y) / x^mu."""
        out = {}
        for (i, j), c in self.coeffs.items():
            e = i + j - mu
            if e < 0:
                raise DomainError("chart-A division is not exact; wrong multiplicity")
            out[(e, j)] = out.get((e, j), Fraction(0)) + c
        return BivariatePoly(out)

    def restrict_x(self, x0) -> UnivariatePoly:
        """The univariate polynomial f(x0, y)."""
        x0 = Fraction(x0)
        out: dict[int, Fraction] = {}
        for (i, j), c in self.coeffs.items():
            out[j] = out.get(j, Fraction(0)) + c * x0**i
        if not out:
            return UnivariatePoly.zero()
        size = max(out) + 1
        return UnivariatePoly([out.get(j, Fraction(0)) for j in range(size)])

    def coeffs_in_y(self) -> list[UnivariatePoly]:
        """Coefficients of y^0, y^1, ... as polynomials in x."""
        dy = self.degree_y()
        if dy < 0:
            return []
        cols: list[dict[int, Fraction]] = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.coeffs.items():
            cols[j][i] = c
        out = []
        for col in cols:
            if col:
                size = max(col) + 1
                out.append(UnivariatePoly([col.get(i, Fraction(0)) for i in range(size)]))
            else:
                out.append(UnivariatePoly.zero())
        return out


def _integer_columns(f: BivariatePoly) -> tuple[list[list[int]], Fraction]:
    """The primitive integer image F = c*f as (columns, c).

    columns[j] lists the integer coefficients of y^j in F, ascending in x.
    """
    ints, den = integer_image(f.coeffs.values())
    content = math.gcd(*ints)
    columns = [[0] * (f.degree_x() + 1) for _ in range(f.degree_y() + 1)]
    for (i, j), c in zip(f.coeffs, ints):
        columns[j][i] = c // content
    return columns, Fraction(den, content)


def _horner(cs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def resultant_y(f: BivariatePoly, g: BivariatePoly) -> UnivariatePoly:
    """Resultant of f and g with respect to y: a polynomial in x.

    Computed by evaluation and interpolation on the primitive integer
    images F = cf*f and G = cg*g: at each integer node x = a where neither
    leading y-coefficient vanishes (there the specialized Sylvester matrix
    has the generic shape, so the evaluation equals the specialization),
    the y-coefficients are evaluated by integer Horner and the integer
    resultant is taken; Newton interpolation through these values gives
    res_y(F, G), and res_y(f, g) = res_y(F, G) / (cf^n * cg^m) with
    m = deg_y f, n = deg_y g.
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant with a zero polynomial")
    m, n = f.degree_y(), g.degree_y()
    if m == 0 and n == 0:
        return UnivariatePoly.one()
    if m == 0:
        # res_y(f, g) = f^deg_y(g)
        return f.coeffs_in_y()[0] ** n
    if n == 0:
        return g.coeffs_in_y()[0] ** m
    fcols, cf = _integer_columns(f)
    gcols, cg = _integer_columns(g)
    deg_bound = n * f.degree_x() + m * g.degree_x()
    points: list[tuple[int, Fraction]] = []
    for x0 in integer_nodes():
        if len(points) > deg_bound:
            break
        fv = [_horner(col, x0) for col in fcols]
        gv = [_horner(col, x0) for col in gcols]
        if fv[-1] == 0 or gv[-1] == 0:
            continue
        # The leading y-coefficients are nonzero at x0, so the degrees
        # (hence the Sylvester matrix shape) are the generic ones.
        points.append((x0, resultant(UnivariatePoly(fv), UnivariatePoly(gv))))
    return interpolate(points).scale(1 / (cf**n * cg**m))
