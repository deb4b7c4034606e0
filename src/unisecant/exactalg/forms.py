"""Ternary homogeneous forms and projective points over Q.

A ``HomogeneousForm`` is a sparse map from exponent triples (a, b, c) with
a + b + c = degree to nonzero rationals; all plane curves in the package
(cubics, pencil members, quartic test curves) are carried by this type.
Coordinate changes act by substituting each variable X_j with the linear
form given by column j of a 3x3 matrix, so that

    substitute(f, M @ N) == substitute(substitute(f, N), M).

Serialization is bit-exact: coefficients in canonical monomial order
(sorted descending by (a, b)), rationals as "num/den" strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DomainError, InputError
from .rationals import (
    Mat3,
    mat3,
    mat3_det,
    mat3_identity,
    rational_from_string,
    rational_to_string,
)

Triple = tuple[int, int, int]


class HomogeneousForm:
    """A homogeneous polynomial in X0, X1, X2 with exact rational coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[Triple, Fraction] | None = None):
        if degree < 0:
            raise DomainError("degree must be non-negative")
        clean: dict[Triple, Fraction] = {}
        for expo, c in (coeffs or {}).items():
            a, b, cc = expo
            if a < 0 or b < 0 or cc < 0 or a + b + cc != degree:
                raise DomainError(f"exponent triple {expo} does not sum to degree {degree}")
            c = Fraction(c)
            if c != 0:
                clean[(a, b, cc)] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *args):
        raise AttributeError("HomogeneousForm is immutable")

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousForm":
        return cls(degree, {})

    @classmethod
    def monomial(cls, expo: Triple, coeff=1) -> "HomogeneousForm":
        return cls(sum(expo), {expo: Fraction(coeff)})

    @classmethod
    def linear(cls, c0, c1, c2) -> "HomogeneousForm":
        return cls(1, {(1, 0, 0): Fraction(c0), (0, 1, 0): Fraction(c1),
                       (0, 0, 1): Fraction(c2)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, expo: Triple) -> Fraction:
        return self.coeffs.get(expo, Fraction(0))

    def canonical_items(self) -> list[tuple[Triple, Fraction]]:
        """Monomials sorted descending by (a, b): the serialization order."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0], kv[0][1]), reverse=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomogeneousForm)
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, tuple(self.canonical_items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"HomogeneousForm({self.degree}, 0)"
        parts = []
        for (a, b, c), q in self.canonical_items():
            mono = "".join(f"X{i}^{e}" if e > 1 else (f"X{i}" if e == 1 else "")
                           for i, e in enumerate((a, b, c)))
            parts.append(f"{q}*{mono}" if mono else str(q))
        return f"HomogeneousForm({self.degree}, {' + '.join(parts)})"

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DomainError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return HomogeneousForm(self.degree, out)

    def __neg__(self) -> "HomogeneousForm":
        return HomogeneousForm(self.degree, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + (-other)

    def is_proportional_to(self, other: "HomogeneousForm") -> bool:
        """True iff self = lambda * other for a nonzero scalar lambda."""
        if self.is_zero() or other.is_zero() or set(self.coeffs) != set(other.coeffs):
            return False
        expo = next(iter(self.coeffs))
        lam = self.coeffs[expo] / other.coeffs[expo]
        return all(c == lam * other.coeffs[e] for e, c in self.coeffs.items())

    def scale(self, q) -> "HomogeneousForm":
        q = Fraction(q)
        return HomogeneousForm(self.degree, {e: q * c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "HomogeneousForm":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return HomogeneousForm(self.degree + other.degree, _product(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        return self.scale(other)

    def partial_derivative(self, var: int) -> "HomogeneousForm":
        """Formal partial with respect to X_var; Euler's relation holds."""
        if var not in (0, 1, 2):
            raise DomainError("variable index must be 0, 1 or 2")
        if self.degree == 0:
            return HomogeneousForm.zero(0)
        out: dict[Triple, Fraction] = {}
        for expo, c in self.coeffs.items():
            e = expo[var]
            if e == 0:
                continue
            new = list(expo)
            new[var] = e - 1
            key = (new[0], new[1], new[2])
            out[key] = out.get(key, Fraction(0)) + e * c
        return HomogeneousForm(self.degree - 1, out)

    def gradient(self) -> tuple["HomogeneousForm", "HomogeneousForm", "HomogeneousForm"]:
        return tuple(self.partial_derivative(i) for i in range(3))

    def evaluate(self, point) -> Fraction:
        xs = [Fraction(v) for v in point]
        total = Fraction(0)
        for (a, b, c), q in self.coeffs.items():
            total += q * xs[0] ** a * xs[1] ** b * xs[2] ** c
        return total

    def substitute(self, m: Mat3) -> "HomogeneousForm":
        """Replace variable X_j by the linear form sum_i m[i][j] X_i.

        Requires m invertible; degree is preserved and the substitution is a
        right group action: substitute(f, M @ N) = substitute(substitute(f, N), M).

        Runs on ``int``: f(m x) = (L f)(D m x) / (L * D^degree) for the lcms L
        of f's and D of m's denominators, and only the output coefficients
        become ``Fraction``s.
        """
        m = mat3(m)
        if m == mat3_identity():
            return self  # forms are immutable
        if mat3_det(m) == 0:
            raise DomainError("substitution matrix is singular")
        dm = math.lcm(*(x.denominator for row in m for x in row))
        powers = []
        for j in range(3):
            line = {tuple(int(k == i) for k in range(3)): int(m[i][j] * dm)
                    for i in range(3) if m[i][j]}
            powers.append([{(0, 0, 0): 1}])
            for _ in range(self.degree):
                powers[j].append(_product(powers[j][-1], line))
        lf = math.lcm(*(q.denominator for q in self.coeffs.values()))
        out: dict[Triple, int] = {}
        for (a, b, c), q in self.coeffs.items():
            k = q.numerator * (lf // q.denominator)
            for expo, v in _product(_product(powers[0][a], powers[1][b]), powers[2][c]).items():
                out[expo] = out.get(expo, 0) + k * v
        den = lf * dm ** self.degree
        return HomogeneousForm(self.degree, {e: Fraction(v, den) for e, v in out.items()})

    def dehomogenize(self, chart: int) -> "dict[tuple[int, int], Fraction]":
        """Affine coefficients {(i, j): c} setting X_chart = 1.

        The two remaining variables keep their relative order: chart 0 maps
        (X1, X2) -> (x, y), chart 1 maps (X0, X2) -> (x, y), chart 2 maps
        (X0, X1) -> (x, y).
        """
        if chart not in (0, 1, 2):
            raise DomainError("chart must be 0, 1 or 2")
        others = [i for i in range(3) if i != chart]
        out: dict[tuple[int, int], Fraction] = {}
        for expo, c in self.coeffs.items():
            key = (expo[others[0]], expo[others[1]])
            out[key] = out.get(key, Fraction(0)) + c
        return {k: v for k, v in out.items() if v != 0}

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [[a, b, c, rational_to_string(q)]
                       for (a, b, c), q in self.canonical_items()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HomogeneousForm":
        try:
            degree = int(data["degree"])
            entries = data["coeffs"]
            coeffs = {}
            for a, b, c, s in entries:
                coeffs[(int(a), int(b), int(c))] = rational_from_string(str(s))
            return cls(degree, coeffs)
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise InputError(f"malformed form serialization: {exc}") from exc


def _product(p: dict, q: dict) -> dict:
    """Product of two coefficient maps (Fractions or plain ints)."""
    out: dict = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


class ProjectivePoint:
    """A point of the projective plane with rational coordinates.

    Canonicalized so the first nonzero coordinate is 1; scaling-equivalent
    triples compare (and hash) equal.
    """

    __slots__ = ("coords",)

    def __init__(self, x0, x1, x2):
        cs = (Fraction(x0), Fraction(x1), Fraction(x2))
        pivot = next((c for c in cs if c != 0), None)
        if pivot is None:
            raise DomainError("(0 : 0 : 0) is not a projective point")
        object.__setattr__(self, "coords", tuple(c / pivot for c in cs))

    def __setattr__(self, *args):
        raise AttributeError("ProjectivePoint is immutable")

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return "(" + " : ".join(rational_to_string(c) for c in self.coords) + ")"

    def first_nonzero_index(self) -> int:
        for i, c in enumerate(self.coords):
            if c != 0:
                return i
        raise AssertionError("unreachable")

    def to_json_list(self) -> list[str]:
        return [rational_to_string(c) for c in self.coords]

    @classmethod
    def from_json_list(cls, data) -> "ProjectivePoint":
        if len(data) != 3:
            raise InputError("projective point needs 3 coordinates")
        try:
            return cls(*[rational_from_string(str(v)) for v in data])
        except DomainError as exc:
            raise InputError(str(exc)) from exc


def euler_combination(f: HomogeneousForm) -> HomogeneousForm:
    """sum X_i * df/dX_i, which must equal deg(f) * f (test helper)."""
    total = HomogeneousForm.zero(f.degree)
    for i in range(3):
        expo = [0, 0, 0]
        expo[i] = 1
        xi = HomogeneousForm.monomial(tuple(expo))
        total = total + xi * f.partial_derivative(i)
    return total
