"""Bivariate polynomials: local curve germs and elimination in two variables.

A ``BivariatePoly`` is stored as ``HomogeneousForm`` is: a map from exponent
pairs (i, j) of x^i y^j to nonzero integer numerators over one positive
denominator, in lowest terms (``IntegerImage``).  Arithmetic runs on
``int``; ``Fraction`` appears only at the API edges (``coeffs``,
``coefficient``, ``repr``, ``hash``, the constructor's input and the final
scale of ``resultant_y``).

Resolution of plane-curve singularities works on affine local equations, so
this module provides the germ toolkit: the affine chart of a form
(``BivariatePoly.chart``), multiplicity at the origin (lowest total
degree), the blow-up chart substitution

    chart A: f(x, y) -> f(x, x*y) / x^mu        (E = {x = 0})

(chart B, f(x*y, y) / y^mu for the vertical direction, is chart A
conjugated by the swap x <-> y), and the resultant with respect to y,
computed by evaluation/interpolation with leading-coefficient guards.

Coordinate changes (the translation of a point to the origin and the
origin-preserving linear changes) are not done here: they act on the
projective closure through ``HomogeneousForm.substitute``.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from .forms import HomogeneousForm
from .rationals import IntegerImage, integer_image
from .unipoly import UnivariatePoly, integer_nodes, interpolate, resultant


class BivariatePoly(IntegerImage):
    """Sparse polynomial in (x, y) over Q; immutable.

    ``num`` maps exponent pairs (i, j) of x^i y^j to nonzero ints over
    ``den`` (see ``IntegerImage``); the constructor takes rationals.
    """

    __slots__ = ()

    def __init__(self, coeffs: dict[tuple[int, int], Fraction] | None = None):
        coeffs = coeffs or {}
        if any(i < 0 or j < 0 for i, j in coeffs):
            raise DomainError("negative exponent")
        ints, den = integer_image(coeffs.values())
        self._set({(i, j): v for (i, j), v in zip(coeffs, ints)}, den)

    @classmethod
    def _from_ints(cls, num: dict[tuple[int, int], int], den: int = 1) -> "BivariatePoly":
        """The polynomial sum num[i, j] x^i y^j / den (any nonzero den)."""
        poly = object.__new__(cls)
        poly._set(num, den)
        return poly

    @classmethod
    def chart(cls, f: HomogeneousForm, chart: int) -> "BivariatePoly":
        """The affine equation of f in the chart X_chart = 1.

        The two remaining variables keep their relative order: chart 0 maps
        (X1, X2) -> (x, y), chart 1 maps (X0, X2) -> (x, y), chart 2 maps
        (X0, X1) -> (x, y).
        """
        u, v = (k for k in range(3) if k != chart)
        # f is homogeneous, so (e[u], e[v]) determines the exponent e.
        return cls._from_ints({(e[u], e[v]): c for e, c in f.num.items()}, f.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BivariatePoly)
                and self.den == other.den and self.num == other.num)

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
        return max((i + j for i, j in self.num), default=-1)

    def degree_x(self) -> int:
        return max((i for i, _ in self.num), default=-1)

    def degree_y(self) -> int:
        return max((j for _, j in self.num), default=-1)

    def multiplicity(self) -> int:
        """Lowest total degree of a term: the multiplicity at the origin.

        The zero polynomial has no multiplicity and raises ``DomainError``.
        """
        if self.is_zero():
            raise DomainError("zero polynomial has no multiplicity")
        return min(i + j for i, j in self.num)

    def swap(self) -> "BivariatePoly":
        return BivariatePoly._from_ints({(j, i): v for (i, j), v in self.num.items()}, self.den)

    def _substitute(self, m) -> "BivariatePoly":
        """f after the coordinate change m, with x = X1/X0 and y = X2/X0.

        The projective closure of f is taken to its total degree, moved by
        ``HomogeneousForm.substitute`` (which raises ``DomainError`` for a
        singular m) and read in the chart X0 = 1 again.
        """
        d = max(self.total_degree(), 0)
        closure = HomogeneousForm._from_ints(
            d, {(d - i - j, i, j): v for (i, j), v in self.num.items()}, self.den)
        return BivariatePoly.chart(closure.substitute(m), 0)

    def translate(self, a, b) -> "BivariatePoly":
        """The polynomial f(x + a, y + b) (moves the point (a, b) to the origin)."""
        return self._substitute([[1, a, b], [0, 1, 0], [0, 0, 1]])

    def linear_change(self, a, b, c, d) -> "BivariatePoly":
        """Substitute x -> a x + b y, y -> c x + d y (origin-preserving)."""
        return self._substitute([[1, 0, 0], [0, a, c], [0, b, d]])

    def blowup_chart_a(self, mu: int) -> "BivariatePoly":
        """Proper transform in the chart (x, y/x): f(x, x*y) / x^mu."""
        if self.num and self.multiplicity() < mu:
            raise DomainError("chart-A division is not exact; wrong multiplicity")
        return BivariatePoly._from_ints(
            {(i + j - mu, j): v for (i, j), v in self.num.items()}, self.den)

    def columns(self) -> list[list[int]]:
        """The numerators of the coefficients of y^0, y^1, ..., each ascending in x.

        Each column is a polynomial in x over ``den``; the zero polynomial
        has no columns.
        """
        cols = [[0] * (self.degree_x() + 1) for _ in range(self.degree_y() + 1)]
        for (i, j), v in self.num.items():
            cols[j][i] = v
        return cols


def _horner(cs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def resultant_y(f: BivariatePoly, g: BivariatePoly) -> UnivariatePoly:
    """Resultant of f and g with respect to y: a polynomial in x.

    Computed by evaluation and interpolation on the integer images
    F = df*f and G = dg*g (``num`` over ``den``): at each integer node
    x = a where neither leading y-coefficient vanishes (there the
    evaluation of res_y equals the resultant of the evaluations), the
    y-coefficients are evaluated by integer Horner and the integer
    resultant is taken; Newton interpolation through these values gives
    res_y(F, G), and res_y(f, g) = res_y(F, G) / (df^n * dg^m) with
    m = deg_y f, n = deg_y g.

    Nodes are taken until one more than the degree bound
    min(n deg_x f + m deg_x g, n a + m b - m n), a and b the total degrees.
    The second term is a weight count: in the Sylvester matrix the entry
    of f-row r and column c is the coefficient of y^(m - c + r), of
    x-degree <= (a - m) + c - r, and the g-rows are alike.  So every term
    of the determinant has degree <= n(a - m) + m(b - n) + mn
    = ab - (a - m)(b - n) <= ab: the Bezout number for the charts of two
    plane curves.
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant with a zero polynomial")
    m, n = f.degree_y(), g.degree_y()
    if m == 0:
        # res_y(f, g) = f^deg_y(g)
        return UnivariatePoly._from_ints(f.columns()[0], f.den) ** n
    if n == 0:
        return UnivariatePoly._from_ints(g.columns()[0], g.den) ** m
    fcols, gcols = f.columns(), g.columns()
    deg_bound = min(n * f.degree_x() + m * g.degree_x(),
                    n * f.total_degree() + m * g.total_degree() - m * n)
    points: list[tuple[int, Fraction]] = []
    for x0 in integer_nodes():
        if len(points) > deg_bound:
            break
        fv = [_horner(col, x0) for col in fcols]
        gv = [_horner(col, x0) for col in gcols]
        if fv[-1] == 0 or gv[-1] == 0:
            continue
        points.append((x0, resultant(UnivariatePoly._from_ints(fv),
                                     UnivariatePoly._from_ints(gv))))
    return interpolate(points).scale(Fraction(1, f.den**n * g.den**m))
