"""Ternary homogeneous forms and projective points over Q.

A ``HomogeneousForm`` is a sparse map from exponent triples (a, b, c) with
a + b + c = degree to nonzero rationals, stored as FLINT stores
``fmpq_poly``: integer numerators over one positive denominator, in lowest
terms.  Arithmetic runs on ``int``; ``Fraction`` appears only at the API
edges (``coeffs``, ``coefficient``, ``evaluate``, JSON).  All plane curves
in the package are carried by this type.  Coordinate changes act by
substituting each variable X_j with the linear form given by column j of a
3x3 matrix, so that

    substitute(f, M @ N) == substitute(substitute(f, N), M).

Serialization is bit-exact: coefficients in canonical monomial order
(sorted descending by (a, b)), rationals as "num/den" strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from ..errors import DomainError, InputError
from .rationals import (
    IntegerImage,
    Mat3,
    integer_image,
    mat3_det,
    rational_from_string,
    rational_to_string,
)

Triple = tuple[int, int, int]


class HomogeneousForm(IntegerImage):
    """A homogeneous polynomial in X0, X1, X2 with exact rational coefficients.

    ``num`` maps exponent triples to nonzero ints over ``den`` (see
    ``IntegerImage``).
    """

    __slots__ = ("degree",)

    def __init__(self, degree: int, coeffs: dict[Triple, Fraction] | None = None):
        if degree < 0:
            raise DomainError("degree must be non-negative")
        coeffs = coeffs or {}
        for a, b, c in coeffs:
            if a < 0 or b < 0 or c < 0 or a + b + c != degree:
                raise DomainError(f"exponent triple {(a, b, c)} does not sum to degree {degree}")
        ints, den = integer_image(coeffs.values())
        object.__setattr__(self, "degree", degree)
        self._set({(a, b, c): v for (a, b, c), v in zip(coeffs, ints)}, den)

    @classmethod
    def _from_ints(cls, degree: int, num: dict[Triple, int], den: int) -> "HomogeneousForm":
        """The form sum num[e] X^e / den (any nonzero den)."""
        form = object.__new__(cls)
        object.__setattr__(form, "degree", degree)
        form._set(num, den)
        return form

    @classmethod
    def zero(cls, degree: int) -> "HomogeneousForm":
        return cls(degree, {})

    @classmethod
    def monomial(cls, expo: Triple, coeff=1) -> "HomogeneousForm":
        return cls(sum(expo), {expo: coeff})

    @classmethod
    def linear(cls, c0, c1, c2) -> "HomogeneousForm":
        return cls(1, {(1, 0, 0): c0, (0, 1, 0): c1, (0, 0, 1): c2})

    def canonical_items(self) -> list[tuple[Triple, Fraction]]:
        """Monomials sorted descending by (a, b): the serialization order."""
        return [(e, Fraction(self.num[e], self.den))
                for e in sorted(self.num, key=lambda e: (e[0], e[1]), reverse=True)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomogeneousForm) and self.degree == other.degree
                and self.den == other.den and self.num == other.num)

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
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: s * v for e, v in self.num.items()}
        for e, v in other.num.items():
            out[e] = out.get(e, 0) + t * v
        return HomogeneousForm._from_ints(self.degree, out, den)

    def __neg__(self) -> "HomogeneousForm":
        return HomogeneousForm._from_ints(self.degree, {e: -v for e, v in self.num.items()},
                                          self.den)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + (-other)

    def is_proportional_to(self, other: "HomogeneousForm") -> bool:
        """True iff self = lambda * other for a nonzero scalar lambda."""
        if self.is_zero() or other.is_zero() or self.num.keys() != other.num.keys():
            return False
        expo = next(iter(self.num))
        a, b = self.num[expo], other.num[expo]
        return all(v * b == a * other.num[e] for e, v in self.num.items())

    def scale(self, q) -> "HomogeneousForm":
        q = q if isinstance(q, (int, Fraction)) else Fraction(q)
        return HomogeneousForm._from_ints(
            self.degree, {e: q.numerator * v for e, v in self.num.items()},
            q.denominator * self.den)

    def primitive(self) -> "HomogeneousForm":
        """c * self for the c > 0 that makes the coefficients coprime integers."""
        g = math.gcd(*self.num.values()) or 1
        return HomogeneousForm._from_ints(self.degree,
                                          {e: v // g for e, v in self.num.items()}, 1)

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return HomogeneousForm._from_ints(self.degree + other.degree,
                                          _product(self.num, other.num), self.den * other.den)

    def partial_derivative(self, var: int) -> "HomogeneousForm":
        """Formal partial with respect to X_var; Euler's relation holds."""
        if var not in (0, 1, 2):
            raise DomainError("variable index must be 0, 1 or 2")
        if self.degree == 0:
            return HomogeneousForm.zero(0)
        out: dict[Triple, int] = {}
        for expo, v in self.num.items():
            e = expo[var]
            if e:
                new = list(expo)
                new[var] = e - 1
                out[(new[0], new[1], new[2])] = e * v
        return HomogeneousForm._from_ints(self.degree - 1, out, self.den)

    def gradient(self) -> tuple["HomogeneousForm", "HomogeneousForm", "HomogeneousForm"]:
        return tuple(self.partial_derivative(i) for i in range(3))

    def evaluate(self, point) -> Fraction:
        """f(X / d) = f(X) / d^degree for the integer image X / d of the point."""
        (x0, x1, x2), d = integer_image(point)
        total = sum(v * x0**a * x1**b * x2**c for (a, b, c), v in self.num.items())
        return Fraction(total, self.den * d**self.degree)

    def substitute(self, m: Mat3) -> "HomogeneousForm":
        """Replace variable X_j by the linear form sum_i m[i][j] X_i.

        Requires m invertible; degree is preserved and the substitution is a
        right group action: substitute(f, M @ N) = substitute(substitute(f, N), M).

        Runs on ``int``: f(m x) = (num f)(D m x) / (den * D^degree) for the
        common denominator D of m's entries.  By Horner's rule, with L_j the
        image of X_j: f = sum_a X0^a G_a(X1, X2) in L0 outside and each G_a in
        L1 inside, over the powers of L2; each step multiplies by one linear
        form, O(d^4) products for degree d against O(d^6) monomial by monomial.
        """
        if [len(row) for row in m] != [3, 3, 3]:
            raise DomainError("expected a 3x3 matrix")
        flat, dm = integer_image(x for row in m for x in row)
        if dm == 1 and flat == [1, 0, 0, 0, 1, 0, 0, 0, 1]:
            return self  # forms are immutable
        if mat3_det([flat[0:3], flat[3:6], flat[6:9]]) == 0:
            raise DomainError("substitution matrix is singular")
        d, w = self.degree, self.degree + 1  # X0^a X1^b X2^c is keyed a * w + b
        l0, l1, l2 = ([(s, v) for s, v in zip((w, 1, 0), flat[j::3]) if v] for j in range(3))
        powers2 = list(accumulate([l2] * d, _times_linear, initial={0: 1}))
        out: dict[int, int] = {}
        for a in range(d, -1, -1):
            out = _times_linear(out, l0)
            inner: dict[int, int] = {}
            for b in range(d - a, -1, -1):
                inner = _times_linear(inner, l1)
                k = self.num.get((a, b, d - a - b))
                if k:
                    for e, v in powers2[d - a - b].items():
                        inner[e] = inner.get(e, 0) + k * v
            for e, v in inner.items():
                out[e] = out.get(e, 0) + v
        num = {(e // w, e % w, d - e // w - e % w): v for e, v in out.items()}
        return HomogeneousForm._from_ints(d, num, self.den * dm ** d)

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


def _times_linear(p: dict[int, int], line: list[tuple[int, int]]) -> dict[int, int]:
    """p times a linear form given as (key shift, coefficient) pairs."""
    out: dict[int, int] = {}
    for k, v in p.items():
        for s, c in line:
            out[k + s] = out.get(k + s, 0) + v * c
    return out


def _product(p: dict, q: dict) -> dict:
    """Product of two coefficient maps."""
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
