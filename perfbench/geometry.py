"""Input construction for the benchmark, independent of the package under test.

Curves are plain dicts ``{(a, b, c): Fraction}`` of ternary forms, built and
moved here with nothing but ``fractions``; the package only ever receives
the finished inputs.  Every expected answer the benchmark checks is known
from the construction (a genus, an intersection number, a j-invariant, an
order of torsion), never from the code being measured.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

Form = dict  # {(a, b, c): Fraction}, homogeneous of one degree


def degree(f: Form) -> int:
    return sum(next(iter(f)))


def clean(f: Form) -> Form:
    return {e: Fraction(c) for e, c in f.items() if c != 0}


def add(f: Form, g: Form) -> Form:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + c
    return clean(out)


def scale(f: Form, q) -> Form:
    return clean({e: Fraction(q) * c for e, c in f.items()})


def mul(f: Form, g: Form) -> Form:
    out: dict = {}
    for (a1, b1, c1), q1 in f.items():
        for (a2, b2, c2), q2 in g.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, Fraction(0)) + q1 * q2
    return clean(out)


def linear(c0, c1, c2) -> Form:
    return clean({(1, 0, 0): Fraction(c0), (0, 1, 0): Fraction(c1), (0, 0, 1): Fraction(c2)})


def evaluate(f: Form, p) -> Fraction:
    return sum((c * p[0] ** a * p[1] ** b * p[2] ** cc for (a, b, cc), c in f.items()),
               Fraction(0))


def substitute(f: Form, m) -> Form:
    """Replace X_j by sum_i m[i][j] X_i (the package's convention)."""
    lines = [linear(m[0][j], m[1][j], m[2][j]) for j in range(3)]
    powers = [[{(0, 0, 0): Fraction(1)}] for _ in range(3)]
    d = degree(f)
    for j in range(3):
        for _ in range(d):
            powers[j].append(mul(powers[j][-1], lines[j]))
    out: Form = {}
    for (a, b, c), q in f.items():
        out = add(out, scale(mul(mul(powers[0][a], powers[1][b]), powers[2][c]), q))
    return out


def det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def move_point(m, p):
    """The point p' with substitute(f, m)(p') == f(p): solves m^T p' = p."""
    t = [[m[j][i] for j in range(3)] for i in range(3)]
    d = det3(t)
    sol = []
    for k in range(3):
        mk = [row[:] for row in t]
        for i in range(3):
            mk[i][k] = p[i]
        sol.append(Fraction(det3(mk), d))
    return normalize_point(sol)


def normalize_point(p):
    """Scale so the first nonzero coordinate is 1 (the package's canonical form)."""
    pivot = next(c for c in p if c != 0)
    return tuple(Fraction(c) / pivot for c in p)


def unimodular(rng: random.Random, entry: int = 2):
    """A random integer matrix with entries in [-entry, entry] and determinant +-1."""
    while True:
        m = [[rng.randint(-entry, entry) for _ in range(3)] for _ in range(3)]
        if abs(det3(m)) == 1:
            return m


def general_points(points) -> bool:
    """No point on a coordinate line and no two points on a line through a
    coordinate vertex (every 2x2 minor of every pair is nonzero)."""
    if any(c == 0 for p in points for c in p):
        return False
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            if any(p[a] * q[b] == p[b] * q[a] for a, b in ((1, 2), (0, 2), (0, 1))):
                return False
    return True


def off_vertices(f: Form) -> bool:
    """The curve is nonzero and passes through none of the coordinate vertices."""
    if not f:
        return False
    d = degree(f)
    return all(f.get(e, 0) != 0 for e in ((d, 0, 0), (0, d, 0), (0, 0, d)))


def move_to_general_position(rng: random.Random, f: Form, points=()):
    """(moved form, moved points, matrix) for a seeded unimodular change that
    puts the curve and its marked points in general position.

    Special positions give the elimination shortcuts (a smaller resultant, a
    point found at a coordinate vertex), so one input class would cost a few
    times more or less at random; the benchmark keeps to the generic case.
    """
    while True:
        m = unimodular(rng)
        moved_points = [move_point(m, p) for p in points]
        if general_points(moved_points):
            moved = substitute(f, m)
            if off_vertices(moved):
                return moved, moved_points, m


def random_form(rng: random.Random, d: int, density: float = 0.8) -> Form:
    """Form of degree d with coefficients in [-3, 3], through no coordinate vertex."""
    while True:
        f = clean({(a, b, d - a - b): Fraction(rng.randint(-3, 3))
                   for a in range(d + 1) for b in range(d - a + 1)
                   if rng.random() < density})
        if off_vertices(f):
            return f


def line_through(rng: random.Random, p) -> Form:
    """A random line through p = (p0 : p1 : 1), through no coordinate vertex."""
    while True:
        line = linear(rng.randint(-3, 3), rng.randint(-3, 3), 0)
        line = add(line, {(0, 0, 1): -evaluate(line, p)})
        if off_vertices(line):
            return line


# ---------------------------------------------------------------------------
# Named curves with properties known by construction
# ---------------------------------------------------------------------------

def unibranch(p: int, d: int) -> Form:
    """X1^p X2^(d-p) - X0^d: rational, each singular point unibranch (gcd(p, d) = 1)."""
    return clean({(0, p, d - p): Fraction(1), (d, 0, 0): Fraction(-1)})


def unibranch_singularities(p: int, d: int) -> list[tuple[tuple, int]]:
    """Singular points of ``unibranch(p, d)`` with their delta invariants.

    At (0:0:1) the germ is x1^p = x0^d, at (0:1:0) it is x2^(d-p) = x0^d;
    the germ y^a = x^b with gcd(a, b) = 1 has delta (a-1)(b-1)/2.
    """
    out = []
    if p >= 2:
        out.append(((0, 0, 1), (p - 1) * (d - 1) // 2))
    if d - p >= 2:
        out.append(((0, 1, 0), (d - p - 1) * (d - 1) // 2))
    return out


def weierstrass(alpha, beta) -> Form:
    """X0 X2^2 - 4 X1^3 - alpha X0^2 X1 - beta X0^3, flex at (0:0:1)."""
    return clean({(1, 0, 2): Fraction(1), (0, 3, 0): Fraction(-4),
                  (2, 1, 0): -Fraction(alpha), (3, 0, 0): -Fraction(beta)})


def weierstrass_j(alpha, beta) -> Fraction:
    """j = 1728 g2^3 / (g2^3 - 27 g3^2) with g2 = -alpha, g3 = -beta."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    return 1728 * alpha ** 3 / (alpha ** 3 + 27 * beta ** 2)


def general_weierstrass(a1, a2, a3, a4, a6) -> Form:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with x = X1/X0, y = X2/X0."""
    return clean({(1, 0, 2): Fraction(1), (1, 1, 1): Fraction(a1), (2, 0, 1): Fraction(a3),
                  (0, 3, 0): Fraction(-1), (1, 2, 0): -Fraction(a2),
                  (2, 1, 0): -Fraction(a4), (3, 0, 0): -Fraction(a6)})


def weierstrass_discriminant(a1, a2, a3, a4, a6) -> Fraction:
    """Discriminant of the general Weierstrass equation (Tate's formulas)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def tate_j(coeffs) -> Fraction:
    """j = c4^3 / discriminant of the general Weierstrass equation."""
    a1, a2, a3, a4, _ = coeffs
    b2, b4 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3
    return (b2 * b2 - 24 * b4) ** 3 / weierstrass_discriminant(*coeffs)


def tate_normal(b, c) -> tuple:
    """Coefficients (a1, a2, a3, a4, a6) of y^2 + (1-c)xy - by = x^3 - bx^2.

    The point (0, 0), i.e. (1:0:0), is torsion; the Kubert families fix its order.
    """
    b, c = Fraction(b), Fraction(c)
    return (1 - c, -b, -b, Fraction(0), Fraction(0))


def kubert_z9(d) -> tuple:
    """Tate coefficients with (1:0:0) of order 9: c = d^2(d-1), b = c(d^2-d+1)."""
    d = Fraction(d)
    c = d * d * (d - 1)
    return tate_normal(c * (d * d - d + 1), c)


def kubert_z6(c) -> tuple:
    """Tate coefficients with (1:0:0) of order 6: b = c + c^2."""
    c = Fraction(c)
    return tate_normal(c + c * c, c)


def rational_of_height(rng: random.Random, height: int) -> Fraction:
    """A random rational n/m in lowest terms with max(|n|, m) == height."""
    while True:
        if rng.random() < 0.5:
            n, m = rng.choice((height, -height)), rng.randint(1, height)
        else:
            n, m = rng.randint(-height, height), height
        if m > 0 and math.gcd(n, m) == 1:
            return Fraction(n, m)


NODAL_CUBIC = clean({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})          # node at (0:0:1)
CUSPIDAL_CUBIC = clean({(0, 2, 1): 1, (3, 0, 0): -1})                        # cusp at (0:0:1)
TRICUSPIDAL_QUARTIC = clean({(2, 2, 0): 1, (2, 1, 1): -2, (2, 0, 2): 1,      # cusps at the
                             (1, 2, 1): -2, (1, 1, 2): -2, (0, 2, 2): 1})    # coordinate points
FERMAT = clean({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
FERMAT_FLEXES = [(0, 1, -1), (1, -1, 0), (1, 0, -1)]

# Translated node / cusp families X1^2 X2 - (X0 - t X2)^2 (X0 + X2) and the
# cuspidal analogue: equisingular in t, coefficients as polynomials in t.
NODE_FAMILY = {(0, 2, 1): [1], (3, 0, 0): [-1], (2, 0, 1): [-1, 2],
               (1, 0, 2): [0, 2, -1], (0, 0, 3): [0, 0, -1]}
CUSP_FAMILY = {(0, 2, 1): [1], (3, 0, 0): [-1], (2, 0, 1): [0, 3],
               (1, 0, 2): [0, 0, -3], (0, 0, 3): [0, 0, 0, 1]}

# N_k for k = 1..8 (Kontsevich's numbers of rational plane curves).
NK_KNOWN = [1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392]


# ---------------------------------------------------------------------------
# Serialization (the curve-file format of the command-line tool)
# ---------------------------------------------------------------------------

def q_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def form_json(f: Form) -> dict:
    items = sorted(f.items(), key=lambda kv: (kv[0][0], kv[0][1]), reverse=True)
    return {"degree": degree(f), "coeffs": [[a, b, c, q_str(q)] for (a, b, c), q in items]}


def point_json(p) -> list[str]:
    return [q_str(c) for c in p]


def point_arg(p) -> str:
    return ",".join(q_str(c) for c in p)


def form_from_json(data: dict) -> Form:
    return clean({(a, b, c): Fraction(s) for a, b, c, s in data["coeffs"]})
