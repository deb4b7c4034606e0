"""Bivariate polynomials: local curve germs and elimination in two variables.

Resolution of plane-curve singularities works on affine local equations, so
this module provides the germ toolkit: translation to a point, multiplicity
at the origin (lowest total degree), the tangent-cone binary form, the two
blow-up chart substitutions

    chart A: f(x, y) -> f(x, x*y) / x^mu        (E = {x = 0})
    chart B: f(x, y) -> f(x*y, y) / y^mu        (E = {y = 0}, covers the
                                                 vertical direction)

and the resultant with respect to y, computed by evaluation/interpolation
with leading-coefficient guards.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError
from .rationals import clear_denominators
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

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "BivariatePoly":
        return cls({(0, 0): Fraction(c)})

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

    def __add__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.constant(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "BivariatePoly":
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.constant(other)
        return self + (-other)

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return BivariatePoly({k: q * c for k, c in self.coeffs.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return BivariatePoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

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

    def lowest_form(self) -> "BivariatePoly":
        """Tangent cone: the homogeneous part of lowest total degree."""
        m = self.multiplicity()
        return BivariatePoly({k: c for k, c in self.coeffs.items() if k[0] + k[1] == m})

    def translate(self, a, b) -> "BivariatePoly":
        """The polynomial f(x + a, y + b) (moves the point (a, b) to the origin)."""
        a, b = Fraction(a), Fraction(b)
        # Horner in y over polynomials in x, then shift x.
        by_j: dict[int, UnivariatePoly] = {}
        for (i, j), c in self.coeffs.items():
            cs = by_j.get(j)
            if cs is None:
                by_j[j] = UnivariatePoly([Fraction(0)] * i + [c])
            else:
                by_j[j] = cs + UnivariatePoly([Fraction(0)] * i + [c])
        shifted: dict[int, UnivariatePoly] = {j: p.shift(a) for j, p in by_j.items()}
        out: dict[tuple[int, int], Fraction] = {}
        max_j = max(shifted) if shifted else 0
        # (y + b)^j expansion via binomials.
        binom = [[1]]
        for n in range(1, max_j + 1):
            row = [1]
            for k in range(1, n):
                row.append(binom[n - 1][k - 1] + binom[n - 1][k])
            row.append(1)
            binom.append(row)
        for j, p in shifted.items():
            for k in range(j + 1):
                coef = Fraction(binom[j][k]) * b ** (j - k)
                if coef == 0:
                    continue
                for i, ci in enumerate(p.coeffs):
                    if ci == 0:
                        continue
                    key = (i, k)
                    out[key] = out.get(key, Fraction(0)) + ci * coef
        return BivariatePoly(out)

    def swap(self) -> "BivariatePoly":
        return BivariatePoly({(j, i): c for (i, j), c in self.coeffs.items()})

    def linear_change(self, a, b, c, d) -> "BivariatePoly":
        """Substitute x -> a x + b y, y -> c x + d y (origin-preserving)."""
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        if a * d - b * c == 0:
            raise DomainError("singular linear change")
        lx = BivariatePoly({(1, 0): a, (0, 1): b})
        ly = BivariatePoly({(1, 0): c, (0, 1): d})
        cache_x: dict[int, BivariatePoly] = {0: BivariatePoly.constant(1)}
        cache_y: dict[int, BivariatePoly] = {0: BivariatePoly.constant(1)}

        def pw(cache, base, e):
            if e not in cache:
                cache[e] = pw(cache, base, e - 1) * base
            return cache[e]

        out = BivariatePoly.zero()
        for (i, j), q in self.coeffs.items():
            out = out + pw(cache_x, lx, i) * pw(cache_y, ly, j) * q
        return out

    def blowup_chart_a(self, mu: int) -> "BivariatePoly":
        """Proper transform in the chart (x, y/x): f(x, x*y) / x^mu."""
        out = {}
        for (i, j), c in self.coeffs.items():
            e = i + j - mu
            if e < 0:
                raise DomainError("chart-A division is not exact; wrong multiplicity")
            out[(e, j)] = out.get((e, j), Fraction(0)) + c
        return BivariatePoly(out)

    def blowup_chart_b(self, mu: int) -> "BivariatePoly":
        """Proper transform in the chart (x/y, y): f(x*y, y) / y^mu."""
        out = {}
        for (i, j), c in self.coeffs.items():
            e = i + j - mu
            if e < 0:
                raise DomainError("chart-B division is not exact; wrong multiplicity")
            out[(i, e)] = out.get((i, e), Fraction(0)) + c
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
    keys = list(f.coeffs)
    ints = clear_denominators([f.coeffs[k] for k in keys])
    columns = [[0] * (f.degree_x() + 1) for _ in range(f.degree_y() + 1)]
    for (i, j), c in zip(keys, ints):
        columns[j][i] = c
    return columns, Fraction(ints[0]) / f.coeffs[keys[0]]


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
