"""Exact rational scaffolding: parsing, 3x3 matrices, fraction-free linear algebra.

Everything in the package computes over Q.  Rationals are stdlib
``fractions.Fraction``; this module adds the serialization convention
("num/den" in lowest terms, plain "num" for integers), small dense 3x3
matrix helpers for projective coordinate changes, a fraction-free Bareiss
determinant, and an exact nullspace solver used by the contact-system
machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DomainError, InputError

Mat3 = tuple[tuple[Fraction, ...], ...]


def rational_from_string(s: str) -> Fraction:
    """Parse "num/den" or "num" into a Fraction."""
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {s!r}") from exc


def rational_to_string(q: Fraction) -> str:
    """Render a Fraction in lowest terms, omitting a trailing "/1"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def mat3(rows) -> Mat3:
    """Build an immutable 3x3 matrix of Fractions from any nested iterable."""
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise DomainError("expected a 3x3 matrix")
    return m


def mat3_identity() -> Mat3:
    return mat3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def mat3_transpose(a: Mat3) -> Mat3:
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def mat3_mul(a: Mat3, b: Mat3) -> Mat3:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat3_vec(a: Mat3, v) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def mat3_det(a: Mat3) -> Fraction:
    """Cofactor expansion; entries may be any ring elements (forms too)."""
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def mat3_inv(a: Mat3) -> Mat3:
    d = mat3_det(a)
    if d == 0:
        raise DomainError("matrix is singular")
    cof = [
        [
            a[1][1] * a[2][2] - a[1][2] * a[2][1],
            -(a[1][0] * a[2][2] - a[1][2] * a[2][0]),
            a[1][0] * a[2][1] - a[1][1] * a[2][0],
        ],
        [
            -(a[0][1] * a[2][2] - a[0][2] * a[2][1]),
            a[0][0] * a[2][2] - a[0][2] * a[2][0],
            -(a[0][0] * a[2][1] - a[0][1] * a[2][0]),
        ],
        [
            a[0][1] * a[1][2] - a[0][2] * a[1][1],
            -(a[0][0] * a[1][2] - a[0][2] * a[1][0]),
            a[0][0] * a[1][1] - a[0][1] * a[1][0],
        ],
    ]
    return tuple(tuple(cof[j][i] / d for j in range(3)) for i in range(3))


def bareiss_det_int(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Every division performed is exact, so the result is the exact integer
    determinant with no intermediate fractions.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_fractions(m) -> Fraction:
    """Exact determinant of a square matrix of Fractions.

    Row denominators are cleared first so the heavy lifting runs on
    integers via Bareiss.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    int_rows: list[list[int]] = []
    for row in m:
        row = [Fraction(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in row))
        scale *= lcm
        int_rows.append([int(x * lcm) for x in row])
    return Fraction(bareiss_det_int(int_rows)) / scale


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the given row list, over Q.

    Deterministic: Gauss-Jordan with first-nonzero pivoting; free variables
    in increasing column order, each basis vector has a 1 in its free slot.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def rank(rows: list[list[Fraction]], ncols: int) -> int:
    return ncols - len(nullspace(rows, ncols))


def clear_denominators(values) -> list[int]:
    """Scale a list of Fractions to coprime integers (the primitive integer image)."""
    values = [Fraction(v) for v in values]
    lcm = math.lcm(*(v.denominator for v in values))
    ints = [int(v * lcm) for v in values]
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints
