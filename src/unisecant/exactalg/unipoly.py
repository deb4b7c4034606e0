"""Dense univariate polynomials over Q.

A polynomial is stored as integer numerators over one positive denominator
in lowest terms, and its arithmetic runs on ``int``; coefficients cross the
API as ``Fraction``.  There is no division operator: the one quotient in
Z[x], ``_exact_quotient``, is exact or refused, and the quotients callers
need come out of the routines that already compute them (``poly_gcd``
returns its cofactors, ``rational_roots`` what is left after its roots).
The elimination workhorse: resultants (the subresultant PRS on the integer
images), gcds (small-prime modular, checked by trial division in Z[x]),
squarefree parts, Yun squarefree decomposition, rational roots (p-adic
lifting), and a certificate of irreducibility over Q from the factor
degrees modulo small primes, found without factoring.  Root multiplicity
data from these routines is what turns "count distinct complex roots"
questions into exact degree arithmetic, with no root isolation anywhere.

Sympy is reached from this module only, through ``sympy_factor_list`` and
``sympy_gcd_degree``: integer polynomials in, integers out.  It answers
the irreducible factors over Q of a univariate polynomial
(``factor_over_q``) and of a ternary form no slice certifies irreducible
(``elim.form_factorization``), and whether two forms share a component
(``elim.forms_share_component``, reached only when ``plane_intersection``
finds its first projection unusable: a usable one proves two curves
coprime); everything else, the irreducibility
certificate included, is self-contained.  The arithmetic in F_p[x]
(remainder, gcd, product modulo f, Horner evaluation, the distinct-degree
pattern) lives in ``modp``; this module keeps the algorithms over Q and
every choice of primes (``ROOT_PRIMES``, ``_gcd_primes``,
``UNLUCKY_PRIMES``), the CRT lift, rational reconstruction and the one
exact quotient in Z[x].
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice

import sympy

from ..errors import DomainError, UnisecantError
from . import modp
from .rationals import bareiss_det_int, integer_image, primitive_part


class UnivariatePoly:
    """A polynomial in one variable with exact rational coefficients.

    ``num`` is the dense ascending tuple of integer numerators, no trailing
    zero, over ``den`` > 0 in lowest terms; both read-only.  The zero
    polynomial is ((), 1) and reports degree -1.  Instances are immutable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        self._set(*integer_image(coeffs))

    @classmethod
    def _from_ints(cls, num, den: int = 1) -> "UnivariatePoly":
        """The polynomial sum num[i] x^i / den (any nonzero den)."""
        poly = object.__new__(cls)
        poly._set(list(num), den)
        return poly

    def _set(self, num: list[int], den: int) -> None:
        while num and num[-1] == 0:
            num.pop()
        if den == 1:  # gcd(1, num) = 1: already in lowest terms
            object.__setattr__(self, "num", tuple(num))
            object.__setattr__(self, "den", 1)
            return
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        object.__setattr__(self, "num", tuple(v // g for v in num))
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *args):
        raise AttributeError("UnivariatePoly is immutable")

    @classmethod
    def zero(cls) -> "UnivariatePoly":
        return cls(())

    @classmethod
    def one(cls) -> "UnivariatePoly":
        return cls((1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, UnivariatePoly)
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.num:
            return "UnivariatePoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "UnivariatePoly(" + " + ".join(terms) + ")"

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        den = math.lcm(self.den, other.den)
        a, b = ([v * (den // p.den) for v in p.num] for p in (self, other))
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return UnivariatePoly._from_ints(a, den)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly._from_ints([-v for v in self.num], self.den)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if self.is_zero() or other.is_zero():
            return UnivariatePoly.zero()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return UnivariatePoly._from_ints(out, self.den * other.den)

    def __pow__(self, n: int) -> "UnivariatePoly":
        if n < 0:
            raise DomainError("negative power")
        result = UnivariatePoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly._from_ints([i * v for i, v in enumerate(self.num)][1:], self.den)

    def evaluate(self, x) -> Fraction:
        """f(p/q) = (sum num_i p^i q^(n-i)) / (den q^n), on int."""
        x, n = Fraction(x), max(self.degree, 0)
        p, q = x.numerator, x.denominator
        return Fraction(sum(v * p**i * q**(n - i) for i, v in enumerate(self.num)), self.den * q**n)

    def monic(self) -> "UnivariatePoly":
        if self.is_zero():
            return self
        return UnivariatePoly._from_ints(self.num, self.num[-1])

    def scale(self, c) -> "UnivariatePoly":
        c = c if isinstance(c, (int, Fraction)) else Fraction(c)
        return UnivariatePoly._from_ints([c.numerator * v for v in self.num],
                                         c.denominator * self.den)

    def valuation(self) -> int:
        """Order of vanishing at 0; degree+1 convention avoided: zero poly errors."""
        if self.is_zero():
            raise DomainError("zero polynomial has infinite valuation")
        return next(i for i, v in enumerate(self.num) if v)


def poly_gcd(f: UnivariatePoly, g: UnivariatePoly
             ) -> tuple[UnivariatePoly, UnivariatePoly, UnivariatePoly]:
    """(h, f/h, g/h): the monic gcd h over Q and its cofactors, small-prime modular (Brown 1971).

    Works on the primitive integer images a and b of f and g (a gcd over Q
    is unchanged by scaling), with gamma = gcd(lc a, lc b).  Primes p that
    divide neither leading coefficient are taken one at a time, and the
    monic gcd of a and b mod p is computed.  Its degree is at least that of
    the gcd G over Q, with equality for all but finitely many p, so a
    degree-0 image proves f and g coprime at once.  Images of the least
    degree seen so far are scaled by gamma and combined by CRT with a
    symmetric lift; once the modulus exceeds twice the coefficients of
    gamma*G/lc(G), an integer polynomial, the lift equals it.  After each
    image the primitive part of the lift is tried, and it is accepted only
    if it divides both a and b exactly in Z[x]: a common divisor whose
    degree is at least that of the gcd is the gcd, so an answer is never
    wrong, and the two quotients of that check, scaled back to f and g, are
    the cofactors (von zur Gathen & Gerhard, *Modern Computer Algebra*,
    section 6.7).  Those coefficients are below 2^k·||b||_2 for k = deg G,
    b the image of lower degree (Landau–Mignotte, with |gamma| <= |lc b|),
    which fixes how many primes a run needs; one that has drawn
    ``UNLUCKY_PRIMES`` more than that raises UnisecantError.

    A constant input, or a degree-0 image, gives (1, f, g).  A zero input
    gives the other one made monic, with the cofactors 0 and its leading
    coefficient; two zeros give three.
    """
    if f.is_zero() or g.is_zero():
        h = (g if f.is_zero() else f).monic()
        # q/h is lc(q) for a nonzero q and 0 for a zero one: num[-1:] is [lc] or [].
        return (h, *(UnivariatePoly._from_ints(q.num[-1:], q.den) for q in (f, g)))
    if f.degree == 0 or g.degree == 0:
        return UnivariatePoly.one(), f, g
    ca, cb = math.gcd(*f.num), math.gcd(*g.num)
    a, b = [v // ca for v in f.num], [v // cb for v in g.num]
    low = a if len(a) < len(b) else b
    gamma = math.gcd(a[-1], b[-1])
    bound_bits = len(low) + len(low).bit_length() + max(map(abs, low)).bit_length()
    budget = -(-bound_bits // (_PRIME_BITS - 1)) + UNLUCKY_PRIMES
    least, lift, modulus = len(low) + 1, [], 1
    for p in islice(_gcd_primes(), budget):
        if a[-1] % p == 0 or b[-1] % p == 0:
            continue
        h = modp.gcd(a, b, p)
        if len(h) == 1:
            return UnivariatePoly.one(), f, g
        if len(h) > least:
            continue
        if len(h) < least:
            least, lift, modulus = len(h), [gamma * r % p for r in h], p
        else:
            m_inv = pow(modulus, -1, p)
            lift = [c + modulus * ((gamma * r - c) * m_inv % p) for c, r in zip(lift, h)]
            modulus *= p
        lift = [c - modulus if 2 * c > modulus else c for c in lift]
        cand = primitive_part(lift)
        if ((qa := _exact_quotient(a, cand)) is not None
                and (qb := _exact_quotient(b, cand)) is not None):
            # f = (ca/den f)·a = (ca·lc/den f)·qa·h, and likewise g.
            lc = cand[-1]
            return (UnivariatePoly._from_ints(cand, lc),
                    UnivariatePoly._from_ints([ca * lc * v for v in qa], f.den),
                    UnivariatePoly._from_ints([cb * lc * v for v in qb], g.den))
    raise UnisecantError(f"poly_gcd: no gcd found within {budget} primes "
                         f"(the coefficient bound's count plus UNLUCKY_PRIMES)")


# Bits of the primes poly_gcd works modulo, and how many primes past the
# count its coefficient bound needs it may draw before it gives up.  A
# prime is unlucky (shows too large a gcd) only if it divides a nonzero
# subresultant of the inputs, so an unlucky prime of this size is rare.
_PRIME_BITS = 62
UNLUCKY_PRIMES = 32
_PRIMES: list[int] = []  # the primes below 2^_PRIME_BITS found so far, descending
_SMALL_PRIMES = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47


def _gcd_primes():
    """The primes below 2^62 in descending order, unbounded.

    Each is found once per process, when first needed: a gcd with the
    primes up to 47 screens out most candidates, then a Miller–Rabin test
    with the first twelve primes as bases (deterministic below 3.3e24).
    """
    for i in count():
        if i == len(_PRIMES):
            n = (_PRIMES[-1] if _PRIMES else 1 << _PRIME_BITS) - 1
            while math.gcd(n, _SMALL_PRIMES) > 1 or not _is_prime(n):
                n -= 2 if n % 2 else 1
            _PRIMES.append(n)
        yield _PRIMES[i]


def _is_prime(n: int) -> bool:
    """Miller–Rabin with bases 2..37, for odd n > 37 below 3.3e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_quotient(a: list[int], c: list[int]) -> list[int] | None:
    """a / c in Z[x], or None if c does not divide a.

    Both are ascending coefficient lists without trailing zeros: a may be
    the zero polynomial [] (its quotient is []), c must be nonzero.  Long
    division from the top that stops at the first inexact step, so a wrong
    divisor usually costs one or two integer divisions.  Each quotient
    digit t takes t·c[n-k] off the k-th coefficient below the current one.
    """
    if not a:
        return []
    if c[0] and a[0] % c[0]:
        return None
    r, lc, n = list(a), c[-1], len(c) - 1
    shares, q = c[-2::-1], []
    for i in range(len(a) - 1, n - 1, -1):
        t, rest = divmod(r[i], lc)
        if rest:
            return None
        q.append(t)
        k = i
        for w in shares:
            k -= 1
            r[k] -= t * w
    q.reverse()
    return None if any(r[:n]) else q


def resultant(f: UnivariatePoly, g: UnivariatePoly) -> Fraction:
    """Sylvester resultant of f and g, exact.

    Zero iff f and g share a root over the algebraic closure.  Computed on
    the integer images F = df*f and G = dg*g, df and dg the common
    denominators, so res(f, g) = res(F, G) / (df^n * dg^m) with
    res(F, G) from ``_resultant_int``; integer input costs no Fraction
    arithmetic.
    """
    if f.is_zero() and g.is_zero():
        raise DomainError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        # res(0, g) = 0 unless g is a nonzero constant (empty determinant).
        nz = g if f.is_zero() else f
        return Fraction(1) if nz.degree == 0 else Fraction(0)
    value = _resultant_int(list(f.num), list(g.num))
    if f.den == g.den == 1:
        return Fraction(value)
    return Fraction(value, f.den**g.degree * g.den**f.degree)


def _resultant_int(a: list[int], b: list[int]) -> int:
    """res(a, b) of nonzero integer polynomials (ascending coefficients, nonzero last).

    A constant c on either side gives c^(degree of the other), the
    Sylvester determinant's value.  Two linear polynomials take the 2x2
    Sylvester determinant (``bareiss_det_int``): there the PRS took 1.2 to
    1.8 times as long at 40- and 100-bit coefficients (timed on one core of
    a 2-core x86 host), and the benchmark's ``bezout_pairs`` workload
    requires ``bareiss_det_int`` to fire (``FIRES`` in
    ``perfbench/tracing.py``); this is its only caller there.  Otherwise
    the subresultant PRS (Collins 1967; Brown & Traub 1971; Cohen, *A
    Course in Computational Algebraic Number Theory*, Alg. 3.3.7), O(n^2)
    integer operations against O(n^3) for the Sylvester determinant.  The
    contents ca and cb are divided out and ca^deg b * cb^deg a put back at
    the end; deg a < deg b is swapped with the sign (-1)^(deg a deg b).
    Each step takes R = prem(A, B) = lc(B)^(d+1) A mod B, d = deg A - deg B,
    flips the sign when deg A and deg B are both odd, and continues with
    A, B = B, R / (g h^d), g = lc(A), h = g^d / h^(d-1), from g = h = 1.
    Every division is exact: R / (g h^d) is the next subresultant, in Z[x],
    and h a principal subresultant coefficient, in Z.  A zero remainder
    means a common factor (resultant 0); a constant one ends the sequence
    with res = sign * lc(B)^deg A / h^(deg A - 1).
    """
    if len(a) == 1 or len(b) == 1:
        return a[0]**(len(b) - 1) if len(a) == 1 else b[0]**(len(a) - 1)
    if len(a) == len(b) == 2:
        return bareiss_det_int([[a[1], a[0]], [b[1], b[0]]])
    scale = math.gcd(*a)**(len(b) - 1) * math.gcd(*b)**(len(a) - 1)
    a, b = primitive_part(a), primitive_part(b)
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        if da % 2 and db % 2:
            sign = -sign
        r, lb = a, b[-1]
        for i in range(da, db - 1, -1):
            lead, shift = r[i], i - db
            r = [lb * v for v in r[:i]]
            if lead:
                for j in range(db):
                    r[shift + j] -= lead * b[j]
        r = modp.strip(r)
        if not r:
            return 0
        delta = da - db
        div = g * h**delta
        a, b = b, r if div == 1 else [v // div for v in r]
        g = a[-1]
        h = g**delta // h**(delta - 1) if delta else h
    d = len(a) - 1
    return sign * scale * (b[0]**d // h**(d - 1))


def squarefree_part(f: UnivariatePoly) -> UnivariatePoly:
    """f / gcd(f, f'), monic: the cofactor ``poly_gcd`` returns, so no division
    runs here.  Its degree counts the distinct complex roots."""
    if f.is_zero():
        raise DomainError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return UnivariatePoly.one()
    return poly_gcd(f, f.derivative())[1].monic()


def yun_decomposition(f: UnivariatePoly) -> list[tuple[UnivariatePoly, int]]:
    """Squarefree decomposition f = lc * prod f_i^i (Yun's algorithm).

    Returns [(f_i, i)] with each f_i monic squarefree, pairwise coprime,
    deg f_i >= 1.  Round i takes f_i = gcd(c, d - c') and goes on with its
    cofactors as c and d, from those of gcd(f, f'): no division runs here.
    No multiplicity exceeds deg f, so the loop ends within deg f rounds; a
    factor left after that means a wrong gcd, and raises UnisecantError.
    """
    if f.is_zero():
        raise DomainError("squarefree decomposition of the zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    out = []
    _, c, d = poly_gcd(f, f.derivative())
    for i in range(1, f.degree + 1):
        p, c, d = poly_gcd(c, d - c.derivative())
        if p.degree > 0:
            out.append((p, i))
        if c.degree == 0:
            return out
    raise UnisecantError(f"yun_decomposition: a factor is left after {f.degree} rounds")


def _sympy_poly(num: dict[tuple[int, ...], int], nvars: int) -> sympy.Poly:
    """The sympy polynomial over ZZ with the {exponents: integer coefficient} map."""
    return sympy.Poly.from_dict(num, *sympy.symbols(f"x:{nvars}"), domain=sympy.ZZ)


def sympy_factor_list(num: dict[tuple[int, ...], int], nvars: int
                      ) -> list[tuple[dict[tuple[int, ...], int], int]]:
    """The irreducible factors over Z of an integer polynomial, with multiplicities.

    ``num`` maps exponent tuples of length ``nvars`` to ints.  Each factor
    comes back in the same form, primitive with a positive leading
    coefficient (sympy's normalization); the content and sign are dropped.
    """
    _, factors = sympy.factor_list(_sympy_poly(num, nvars))
    return [({e: int(c) for e, c in poly.as_dict(native=True).items()}, int(mult))
            for poly, mult in factors]


def sympy_gcd_degree(f_num: dict[tuple[int, ...], int], g_num: dict[tuple[int, ...], int],
                     nvars: int) -> int:
    """The total degree of the gcd over Z of two integer polynomials, given as
    for ``sympy_factor_list``."""
    return sympy.gcd(_sympy_poly(f_num, nvars), _sympy_poly(g_num, nvars)).total_degree()


def factor_over_q(f: UnivariatePoly) -> list[tuple[UnivariatePoly, int]]:
    """Irreducible factorization over Q: [(monic irreducible factor, multiplicity), ...]
    sorted by degree, then coefficients, from ``sympy_factor_list`` of the integer image."""
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    result = []
    for num, mult in sympy_factor_list({(i,): v for i, v in enumerate(f.num) if v}, 1):
        coeffs = [num.get((i,), 0) for i in range(max(num)[0] + 1)]
        result.append((UnivariatePoly._from_ints(coeffs, coeffs[-1]), mult))
    result.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return result


# Primes rational_roots tries, in order.  The list is finite so that the
# search is bounded; a polynomial that no prime here suits is refused.  It
# starts above 7: a prime p divides lc(G) or merges two roots mod p with
# probability about 1/p.
ROOT_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def rational_roots(f: UnivariatePoly) -> tuple[list[tuple[Fraction, int]], UnivariatePoly]:
    """(roots, rest): all rational roots with multiplicities, sorted ascending,
    and what is left of f once they are divided out.

    Works on the primitive integer image F of f; the root 0 and its
    multiplicity are read off the valuation and divided out, leaving
    G(0) != 0.  A prime p suits G when p does not divide lc(G) and every
    root of G mod p is simple (G'(r) != 0 mod p).  G is that image itself
    when the first prime of ``ROOT_PRIMES`` not dividing its leading
    coefficient suits it; when that prime shows a repeated root, G is the
    squarefree part instead, and the primes are walked again on it.  Each
    root mod p is Newton-lifted until p^k > 2·B^2, B = max(|G(0)|, |lc(G)|),
    and rationally reconstructed as a/b with |a|, |b| <= B.  It is kept
    only if b·x - a divides F exactly in Z[x], which is the integer test
    b^n·F(a/b) = 0 (Gauss's lemma: b·x - a is primitive); the number of
    times it divides F is the multiplicity.  When G is the image itself,
    every rational root is simple (p divides no denominator, so a repeated
    root would stay repeated mod p) and one division counts it.  ``rest``
    is F after those divisions, as a polynomial: primitive in Z[x], with no
    rational root, and F = rest · prod (b·x - a)^m.  Its degree is 0 exactly
    when f splits over Q.  A linear G = a1·x + a0 needs no prime: its root
    is -a0/a1 and ``rest`` is the sign of a1.

    Completeness: a rational root a/b of G in lowest terms has a | G(0) and
    b | lc(G), so |a|, |b| <= B, and p does not divide b.  It therefore
    reduces to a root of G mod p, which is simple by the choice of p, and a
    simple root mod p has exactly one p-adic lift (Hensel).  So a/b is that
    lift, and since p^k > 2·B^2 the reconstruction returns it (von zur
    Gathen & Gerhard, *Modern Computer Algebra*, section 5.10; Loos 1983).
    The squarefree part has the same rational roots as F, and a squarefree
    G is suited by every prime not dividing lc(G)·disc(G).  When no prime
    of the list suits G, UnisecantError is raised; no incomplete answer is
    ever returned.
    """
    if f.is_zero():
        raise DomainError("zero polynomial")
    v = f.valuation()
    image = primitive_part(list(f.num))[v:]
    roots = [(Fraction(0), v)] if v else []
    if len(image) == 2:  # a1·x + a0 with gcd(a0, a1) = 1: the root -a0/a1, rest ±1
        roots.append((Fraction(-image[0], image[1]), 1))
        image = [1 if image[1] > 0 else -1]
    elif len(image) > 1:
        g = image
        found = _suited_prime(g, first_only=True)
        simple = found is not None
        if found is None:
            g = primitive_part(list(squarefree_part(UnivariatePoly._from_ints(image)).num))
            found = _suited_prime(g)
        if found is None:
            raise UnisecantError("no prime in ROOT_PRIMES suits the rational-root search")
        p, residues = found
        bound = max(abs(g[0]), abs(g[-1]))
        dg = [i * c for i, c in enumerate(g)][1:]
        for r in residues:
            modulus = p
            while modulus <= 2 * bound**2:
                modulus *= modulus
                r = (r - modp.eval_mod(g, r, modulus)
                     * pow(modp.eval_mod(dg, r, modulus), -1, modulus)) % modulus
            x = _reconstruct(r, modulus, bound)
            if x is None:
                continue
            mult, linear = 0, [-x.numerator, x.denominator]
            while (q := _exact_quotient(image, linear)) is not None:
                mult, image = mult + 1, q
                if simple:
                    break
            if mult:
                roots.append((x, mult))
    roots.sort(key=lambda t: t[0])
    return roots, UnivariatePoly._from_ints(image)


def _certified_irreducible(image: list[int]) -> bool:
    """True only if the integer polynomial ``image`` is irreducible over Q.

    ``image`` is ascending with a nonzero leading coefficient and degree
    d >= 1.  If image = G·H over Z, then at every prime p not dividing
    lc(image), G mod p is a product of irreducible factors of image mod p
    and keeps its degree, so deg G is a sum of some of their degrees.  Each
    prime of ``ROOT_PRIMES`` that divides neither lc(image) nor the
    discriminant mod p (gcd(F, F') = 1 for F = image mod p) gives its
    factor degrees by distinct-degree factorization (``modp.degree_pattern``).
    The degrees a factor over Q could have are intersected with the subset
    sums of each pattern, and image is certified once only 0 and d are left
    (Musser 1978; von zur Gathen & Gerhard, *Modern Computer Algebra*,
    sections 14.2 and 15.6).  False means no certificate, not reducible:
    x^4 + 1 splits modulo every prime.
    """
    d = len(image) - 1
    if d == 1:
        return True
    possible, irreducible = (2 << d) - 1, 1 | 1 << d
    for p in ROOT_PRIMES:
        pattern = modp.degree_pattern(image, p)
        if pattern is None:
            continue
        sums = 1
        for e in pattern:
            sums |= sums << e
        possible &= sums
        if possible == irreducible:
            return True
    return False


def _suited_prime(g: list[int], first_only: bool = False) -> tuple[int, list[int]] | None:
    """The first prime of ROOT_PRIMES suiting g, with the roots of g mod p.

    With ``first_only``, only the first prime not dividing lc(g) is tried.
    """
    for p in ROOT_PRIMES:
        if g[-1] % p == 0:
            continue
        cs = [c % p for c in g]
        dcs = [i * c % p for i, c in enumerate(cs)][1:]
        residues = [r for r in range(p) if modp.eval_mod(cs, r, p) == 0]
        if all(modp.eval_mod(dcs, r, p) for r in residues):
            return p, residues
        if first_only:
            return None
    return None


def _reconstruct(u: int, m: int, bound: int) -> Fraction | None:
    """The fraction a/b with |a|, |b| <= bound and a = b·u mod m, if any.

    Half extended Euclid on (m, u), stopped at the first remainder <= bound;
    unique when m > 2·bound^2.
    """
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def integer_nodes():
    """Interpolation nodes 0, 1, -1, 2, -2, ... (unbounded; callers take what they need)."""
    yield 0
    for a in count(1):
        yield a
        yield -a


def interpolate(points: list[tuple[int, Fraction]]) -> UnivariatePoly:
    """The polynomial of degree < len(points) through distinct integer nodes, exact over Q.

    Newton form: the values are scaled once to a common denominator, the
    divided differences run on ``int`` (exact ``//`` wherever the node gap
    divides, a ``Fraction`` only where it does not), and a Horner pass
    expands the Newton form into the monomial basis.  The common
    denominator is divided out once at the end.  O(n^2) operations.
    """
    xs = []
    for x, _ in points:
        x = Fraction(x)
        if x.denominator != 1:
            raise DomainError(f"interpolation nodes must be integers, got {x}")
        xs.append(x.numerator)
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation nodes must be distinct")
    if not xs:
        return UnivariatePoly.zero()
    dd, den = integer_image(y for _, y in points)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            num, gap = dd[i] - dd[i - 1], xs[i] - xs[i - j]
            dd[i] = num // gap if num % gap == 0 else Fraction(num, gap)
    # p = dd[0] + (x - x0)(dd[1] + (x - x1)(dd[2] + ...)), expanded inside out.
    acc = [dd[-1]]
    for k in range(n - 2, -1, -1):
        shifted = [0] + acc
        for i, c in enumerate(acc):
            shifted[i] -= xs[k] * c
        shifted[0] += dd[k]
        acc = shifted
    ints, d = integer_image(acc)
    return UnivariatePoly._from_ints(ints, d * den)
