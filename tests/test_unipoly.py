"""Univariate layer: resultants, discriminants, squarefree machinery.

The resultant oracle is the Sylvester determinant built independently in
sympy (sympy.resultant itself normalizes signs differently in corner
cases, so the matrix determinant is the unambiguous reference).
"""

import itertools
import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from unisecant.errors import DomainError, UnisecantError
from unisecant.exactalg import (
    UnivariatePoly,
    discriminant,
    factor_over_q,
    interpolate,
    poly_gcd,
    rational_roots,
    resultant,
    squarefree_part,
    yun_decomposition,
)
from unisecant.exactalg import modp, unipoly
from unisecant.exactalg.rationals import primitive_part
from unisecant.exactalg.unipoly import _exact_quotient
from conftest import count_calls

P = UnivariatePoly


def sylvester_det_oracle(f: P, g: P):
    """Reference resultant: the Sylvester determinant, built in sympy."""
    m, n = f.degree, g.degree
    if m == 0:
        return F(f.coeffs[0]) ** n
    if n == 0:
        return F(g.coeffs[0]) ** m
    rows = []
    fc = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    gc = [sympy.Rational(c.numerator, c.denominator) for c in reversed(g.coeffs)]
    for i in range(n):
        rows.append([sympy.Integer(0)] * i + fc + [sympy.Integer(0)] * (n - 1 - i))
    for i in range(m):
        rows.append([sympy.Integer(0)] * i + gc + [sympy.Integer(0)] * (m - 1 - i))
    det = sympy.Rational(sympy.Matrix(rows).det())
    return F(int(det.p), int(det.q))


rational = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
small_poly = st.lists(rational, min_size=1, max_size=6).map(P).filter(
    lambda p: not p.is_zero())


@st.composite
def integer_image_poly(draw, degree: int, sparse: bool = False) -> P:
    """A polynomial of the given degree: up to 100-bit numerators, negative
    leading coefficients, a non-unit content and a rational denominator.
    ``sparse`` zeroes every coefficient strictly between the lowest and the
    leading one."""
    bits = draw(st.sampled_from([4, 8, 40, 100]))
    coeff = st.integers(-2**bits, 2**bits)
    cs = [draw(coeff) for _ in range(degree)] + [draw(coeff.filter(bool))]
    if sparse:
        cs[1:degree] = [0] * (degree - 1)
    content = draw(st.sampled_from([1, -1, 6, 2**31 - 1]))
    den = draw(st.sampled_from([1, 4, 15, 2**20 + 7]))
    return P([F(c * content, den) for c in cs])


@st.composite
def resultant_pair(draw, shape: str) -> tuple[P, P]:
    if shape == "linear":
        return draw(integer_image_poly(1)), draw(integer_image_poly(1))
    if shape == "constant":
        c, f = draw(integer_image_poly(0)), draw(integer_image_poly(draw(st.integers(1, 6))))
        return (c, f) if draw(st.booleans()) else (f, c)
    if shape == "odd_below":
        m = draw(st.sampled_from([1, 3]))
        return (draw(integer_image_poly(m)),
                draw(integer_image_poly(draw(st.sampled_from([n for n in (3, 5) if n > m])))))
    if shape == "sparse":
        return (draw(integer_image_poly(draw(st.integers(2, 7)), sparse=True)),
                draw(integer_image_poly(draw(st.integers(2, 7)), sparse=True)))
    if shape == "gap":
        # f = q*g + r with deg r <= deg g - 2: the sequence drops by >= 2.
        g = draw(integer_image_poly(draw(st.integers(2, 5))))
        q = draw(integer_image_poly(draw(st.integers(0, 2))))
        r = draw(integer_image_poly(draw(st.integers(0, g.degree - 2))))
        return q * g + r, g
    if shape == "common":
        h = draw(integer_image_poly(draw(st.integers(1, 3))))
        return (h * draw(integer_image_poly(draw(st.integers(0, 3)))),
                h * draw(integer_image_poly(draw(st.integers(0, 3)))))
    raise ValueError(shape)


class TestResultant:
    def test_distinct_linear_factors(self):
        assert resultant(P((-1, 1)), P((1, 1))) == 2

    def test_shared_root(self):
        assert resultant(P((0, 0, 1)), P((0, 1))) == 0

    def test_quadratic_pair(self):
        # res(x^2 - 2, x^2 - 3): Sylvester determinant expands to 1.
        assert resultant(P((-2, 0, 1)), P((-3, 0, 1))) == 1

    def test_both_zero_rejected(self):
        with pytest.raises(DomainError):
            resultant(P(()), P(()))

    @given(small_poly, small_poly)
    def test_matches_sylvester_determinant(self, f, g):
        assert resultant(f, g) == sylvester_det_oracle(f, g)

    @given(small_poly, small_poly)
    def test_antisymmetry(self, f, g):
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)

    @pytest.mark.parametrize("shape", ["linear", "constant", "odd_below", "sparse", "gap",
                                       "common"])
    @given(data=st.data())
    def test_matches_sylvester_determinant_by_shape(self, shape, data):
        f, g = data.draw(resultant_pair(shape))
        value = resultant(f, g)
        assert value == sylvester_det_oracle(f, g)
        if shape == "common":
            assert value == 0

    def test_linear_pair_is_the_2x2_determinant(self, monkeypatch):
        dets = []
        monkeypatch.setattr(unipoly, "bareiss_det_int",
                            lambda m: dets.append(m) or m[0][0] * m[1][1] - m[0][1] * m[1][0])
        # The integer images are 3 - 2x and (1 + 10x)/2.
        assert resultant(P((3, -2)), P((F(1, 2), 5))) == -16
        assert dets == [[[-2, 3], [10, 1]]]
        # Size 3 runs the PRS.
        assert resultant(P((3, -2, 1)), P((1, 5))) == 86 and len(dets) == 1


class TestDiscriminant:
    @pytest.mark.parametrize("b,c", [(3, 1), (0, -2), (F(1, 2), F(-1, 3))])
    def test_quadratic(self, b, c):
        assert discriminant(P((c, b, 1))) == F(b) ** 2 - 4 * F(c)

    @pytest.mark.parametrize("p,q", [(2, -5), (-1, 1), (F(1, 3), F(2, 7))])
    def test_depressed_cubic(self, p, q):
        assert discriminant(P((q, p, 0, 1))) == -4 * F(p) ** 3 - 27 * F(q) ** 2

    def test_repeated_root(self):
        assert discriminant(P((1, -2, 1))) == 0

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            discriminant(P((5,)))

    @given(st.lists(rational, min_size=2, max_size=9).map(P))
    def test_zero_iff_not_squarefree(self, f):
        if f.degree < 1:
            return
        sf = squarefree_part(f)
        assert (discriminant(f) == 0) == (sf != f.monic())

    @given(st.integers(1, 7).flatmap(integer_image_poly))
    def test_matches_sympy(self, f):
        expected = sympy.discriminant(to_sympy(f))
        assert discriminant(f) == F(int(expected.p), int(expected.q))


class TestSquarefree:
    def test_repeated_linear(self):
        f = P((-1, 1)) ** 2 * P((2, 1))
        assert squarefree_part(f) == (P((-1, 1)) * P((2, 1))).monic()

    def test_pure_power(self):
        assert squarefree_part(P((0, 0, 0, 1))) == P((0, 1))

    def test_already_squarefree(self):
        assert squarefree_part(P((1, 0, 1))) == P((1, 0, 1))

    def test_gcd_that_does_not_divide_raises(self, monkeypatch):
        # A wrong modular image never becomes a quotient: x + 1, the image
        # at every prime, does not divide x^2 + 1, so no candidate is
        # accepted and the prime budget runs out with a named error.
        monkeypatch.setattr(modp, "gcd", lambda a, b, p: [1, 1])
        with pytest.raises(UnisecantError, match="no gcd found within"):
            squarefree_part(P((1, 0, 1)))

    def test_yun_stops_after_deg_f_rounds_on_a_wrong_gcd(self, monkeypatch):
        # The true gcd on the first call, 1 after it: c never shrinks.  The
        # fake stops by itself after 100 calls, so an unbounded loop fails
        # with a different error instead of hanging.
        true_gcd, calls = unipoly.poly_gcd, []

        def wrong_gcd(f, g):
            calls.append(None)
            if len(calls) > 100:
                raise RuntimeError("yun_decomposition did not stop")
            return true_gcd(f, g) if len(calls) == 1 else (P((1,)), f, g)

        monkeypatch.setattr(unipoly, "poly_gcd", wrong_gcd)
        f = P((-1, 1)) ** 3 * P((2, 1))
        with pytest.raises(UnisecantError, match="after 4 rounds"):
            yun_decomposition(f)

    def test_yun_structure(self):
        f = P((-1, 1)) ** 3 * P((1, 1)) ** 2 * P((0, 1))
        decomp = yun_decomposition(f)
        assert [(p, m) for p, m in decomp] == [
            (P((0, 1)), 1), (P((1, 1)), 2), (P((-1, 1)), 3)]

    def test_rational_roots_with_multiplicity(self):
        f = P((-1, 1)) ** 2 * P((2, 1)) * P((1, 0, 1))
        assert rational_roots(f) == ([(F(-2), 1), (F(1), 2)], P((1, 0, 1)))


class TestGcdAndExtension:
    def test_gcd_common_factor(self):
        f = P((-1, 1)) * P((1, 1))
        g = P((-1, 1)) * P((3, 1))
        assert poly_gcd(f, g) == (P((-1, 1)), P((1, 1)), P((3, 1)))


X = sympy.Symbol("x")


def to_sympy(f: P) -> sympy.Poly:
    """The same polynomial as a sympy Poly over QQ, built without the package."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      X, domain=sympy.QQ)


def from_sympy(poly: sympy.Poly) -> P:
    return P([F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


def sympy_cofactors(f: P, g: P) -> tuple[P, P, P]:
    """sympy's monic gcd over QQ and the two cofactors."""
    return tuple(from_sympy(q) for q in sympy.cofactors(to_sympy(f), to_sympy(g)))


nonzero_poly = st.lists(rational, min_size=1, max_size=5).map(P).filter(
    lambda p: not p.is_zero())
big_poly = st.lists(st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**4)),
                   min_size=1, max_size=13).map(P).filter(lambda p: not p.is_zero())


class TestSympyDifferential:
    @given(nonzero_poly, nonzero_poly, nonzero_poly)
    def test_gcd_matches_sympy(self, a, b, c):
        f, g = a * c, b * c
        assert poly_gcd(f, g) == sympy_cofactors(f, g)

    @given(nonzero_poly, nonzero_poly, st.integers(1, 3))
    def test_squarefree_part_matches_sympy(self, a, b, e):
        f = a * b**e
        assert squarefree_part(f) == from_sympy(sympy.sqf_part(to_sympy(f))).monic()

    @given(big_poly, big_poly, big_poly)
    def test_gcd_matches_sympy_at_eliminant_size(self, a, b, c):
        f, g = a * c, b * c
        assert poly_gcd(f, g) == sympy_cofactors(f, g)

    # Mostly coprime pairs, with zero and constant polynomials among them:
    # the early exits of poly_gcd, each also given as an example.
    @given(st.lists(rational, max_size=7).map(P), st.lists(rational, max_size=7).map(P))
    @example(P(()), P(()))
    @example(P(()), P((2, 4)))
    @example(P((F(1, 2), 3)), P(()))
    @example(P((3,)), P((1, 2, 3)))
    @example(P((0, 1)), P((1, 1)))
    def test_cofactors_on_zero_constant_and_coprime_inputs(self, f, g):
        h, cf, cg = poly_gcd(f, g)
        assert h * cf == f and h * cg == g
        assert (h, cf, cg) == sympy_cofactors(f, g)


# The primes poly_gcd draws first.  Inputs that agree modulo the first
# of them, or whose leading coefficients it divides, are the cases the
# modular gcd must step past.
GCD_PRIMES = list(itertools.islice(unipoly._gcd_primes(), 3))


class TestModularGcd:
    def test_unlucky_first_prime_coprime(self):
        # x and x + p have the gcd x mod p but are coprime over Q.
        p = GCD_PRIMES[0]
        assert poly_gcd(P((0, 1)), P((p, 1)))[0] == P((1,))

    def test_unlucky_first_prime_with_common_factor(self):
        p = GCD_PRIMES[0]
        c = P((-1, 1)) * P((2, 3))
        assert poly_gcd(c * P((0, 1)), c * P((p, 1)))[0] == c.monic()

    def test_unlucky_prime_after_a_lucky_one_is_passed_over(self):
        # The lift of x + B needs two primes.  Mod the second, x and x + q
        # merge, so that image has degree 2 and is skipped; the third
        # completes the lift.
        q = GCD_PRIMES[1]
        c = P((2**100 + 7, 1))
        assert poly_gcd(c * P((0, 1)), c * P((q, 1)))[0] == c

    @pytest.mark.parametrize("lc", [GCD_PRIMES[0], GCD_PRIMES[0] * GCD_PRIMES[1],
                                    GCD_PRIMES[0] ** 2 * GCD_PRIMES[1] * GCD_PRIMES[2]],
                             ids=["p", "pq", "p2qr"])
    def test_leading_coefficients_divisible_by_the_first_primes(self, lc):
        # Mod those primes the common factor lc*x + 1 drops to a constant.
        c = P((1, lc))
        assert poly_gcd(c * P((2, 1)), c * P((3, 1)))[0] == c.monic()
        assert poly_gcd(c * P((2, 1)), P((3, 1)))[0] == P((1,))
        assert poly_gcd(c * c * P((5, 7)), c * P((0, 0, 1, GCD_PRIMES[1])))[0] == c.monic()

    @given(st.lists(st.tuples(st.sampled_from(GCD_PRIMES + [1]), st.integers(-9, 9)),
                    min_size=1, max_size=3),
           nonzero_poly, nonzero_poly)
    def test_planted_prime_factors_match_sympy(self, factors, a, b):
        c = P((1,))
        for lc, root in factors:
            c = c * P((root, lc))
        f, g = a * c, b * c
        assert poly_gcd(f, g) == sympy_cofactors(f, g)

    # 40 primes; in the inputs below one side has coefficients 0 and 1, so
    # the budget is 1 prime for the coefficient bound plus UNLUCKY_PRIMES.
    SMALL = list(sympy.primerange(2, 174))

    def recording_source(self, monkeypatch):
        drawn = []

        def source():
            for q in self.SMALL:
                drawn.append(q)
                yield q

        monkeypatch.setattr(unipoly, "_gcd_primes", source)
        return drawn

    def test_prime_budget_raises_when_every_prime_is_unlucky(self, monkeypatch):
        # x and x + N agree mod every prime dividing N.
        drawn = self.recording_source(monkeypatch)
        with pytest.raises(UnisecantError, match="UNLUCKY_PRIMES"):
            poly_gcd(P((math.prod(self.SMALL), 1)), P((0, 1)))
        assert len(drawn) == 1 + unipoly.UNLUCKY_PRIMES < len(self.SMALL)

    def test_prime_budget_raises_when_every_prime_divides_a_leading_coefficient(
            self, monkeypatch):
        drawn = self.recording_source(monkeypatch)
        with pytest.raises(UnisecantError, match="UNLUCKY_PRIMES"):
            poly_gcd(P((1, math.prod(self.SMALL))), P((1, 1)))
        assert len(drawn) == 1 + unipoly.UNLUCKY_PRIMES < len(self.SMALL)

    def test_primes_are_descending_primes_below_2_62(self):
        assert GCD_PRIMES == sorted(GCD_PRIMES, reverse=True)
        assert all(2**61 < q < 2**62 and sympy.isprime(q) for q in GCD_PRIMES)
        assert sympy.prevprime(GCD_PRIMES[0]) == GCD_PRIMES[1]


def sympy_rational_roots(f: P) -> list:
    """Rational roots of f read off the linear factors of sympy's factorization."""
    _, factors = factor_over_q(f)
    return sorted((-p.coeffs[0], m) for p, m in factors if p.degree == 1)


def with_roots(f: P, roots) -> P:
    for r, m in roots:
        f = f * P((-r, 1)) ** m
    return f


# Denominators divisible by the first primes rational_roots tries put those
# primes into the leading coefficient of the integer image.
FIRST_PRIMES = [1, 2, 11, 13, 11 * 13, 11 * 13 * 17 * 19 * 23 * 29]
root = st.builds(F, st.integers(-60, 60), st.sampled_from(FIRST_PRIMES))
# Irreducible over Q; squared, they are repeated irrational factors.
irrational = st.sampled_from([P((-2, 0, 1)), P((1, 0, 1)), P((-3, 0, 0, 1)), P((1, 1, 1)),
                              P((-5, 0, 11 * 13))])


class TestRationalRoots:
    @given(st.lists(st.tuples(root, st.integers(1, 3)), max_size=4),
           st.lists(st.tuples(irrational, st.integers(1, 2)), max_size=2),
           st.integers(0, 3), rational.filter(lambda c: c != 0))
    def test_matches_sympy(self, roots, irrationals, zero_mult, scale):
        f = with_roots(P((scale,)), roots) * P((0, 1)) ** zero_mult
        for q, m in irrationals:
            f = f * q**m
        assert rational_roots(f)[0] == sympy_rational_roots(f)

    @given(st.lists(st.tuples(root, st.integers(1, 3)), max_size=4),
           st.lists(st.tuples(irrational, st.integers(1, 2)), max_size=2),
           st.integers(0, 3), rational.filter(lambda c: c != 0))
    def test_rest_is_the_image_without_its_rational_roots(self, roots, irrationals, zero_mult,
                                                          scale):
        f = with_roots(P((scale,)), roots) * P((0, 1)) ** zero_mult
        for q, m in irrationals:
            f = f * q**m
        found, rest = rational_roots(f)
        product = rest
        for r, m in found:
            product = product * P((-r.numerator, r.denominator)) ** m
        assert (product.num, product.den) == (tuple(primitive_part(list(f.num))), 1)
        assert rational_roots(rest)[0] == []

    @given(st.lists(st.integers(-10**12, 10**12), min_size=2, max_size=21).map(P).filter(
               lambda p: p.degree > 0),
           st.lists(st.tuples(root, st.integers(1, 2)), max_size=2),
           st.sampled_from(FIRST_PRIMES))
    def test_matches_sympy_at_degree_25(self, g, roots, lc):
        f = with_roots(g * P((1, lc)), roots)
        assert rational_roots(f)[0] == sympy_rational_roots(f)

    def test_exhausted_prime_list_raises(self, monkeypatch):
        # Quadratic: a linear image needs no prime, so it cannot exhaust the list.
        monkeypatch.setattr(unipoly, "ROOT_PRIMES", (11, 13))
        with pytest.raises(UnisecantError, match="no prime"):
            rational_roots(P((-1, 0, 143)))

    @given(st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30),
           st.sampled_from([1, -1, math.prod(unipoly.ROOT_PRIMES)]),
           rational.filter(bool), st.integers(0, 2))
    @example(1, 1, math.prod(unipoly.ROOT_PRIMES), F(1), 0)
    def test_linear_input_needs_no_prime(self, a0, a1, lead, scale, zero_mult):
        # A leading coefficient divisible by every prime of ROOT_PRIMES would
        # leave no suited prime; the linear image is solved without one.
        f = P((a0, a1 * lead)).scale(scale) * P((0, 1)) ** zero_mult
        roots, rest = rational_roots(f)
        assert roots == sympy_rational_roots(f)
        assert rest in (P((1,)), P((-1,)))
        product = rest
        for r, m in roots:
            product = product * P((-r.numerator, r.denominator)) ** m
        assert product.num == tuple(primitive_part(list(f.num)))

    def test_repeated_root_switches_to_the_squarefree_part_at_the_first_prime(
            self, monkeypatch):
        tried = []

        class Recording(tuple):
            def __iter__(self):
                for p in tuple.__iter__(self):
                    tried.append(p)
                    yield p

        monkeypatch.setattr(unipoly, "ROOT_PRIMES", Recording(unipoly.ROOT_PRIMES))
        f = P((-1, 1)) ** 2 * P((2, 1))
        assert rational_roots(f)[0] == [(F(-2), 1), (F(1), 2)] == sympy_rational_roots(f)
        # 11 shows the double root 1 mod 11; the squarefree part is suited by 11.
        assert tried == [11, 11]

    def test_simple_roots_take_one_division_each(self, monkeypatch):
        # 11 suits the image itself, so every rational root is simple: one
        # exact division counts each, with no failing division after it.
        divisions = count_calls(monkeypatch, "_exact_quotient", unipoly)
        f = P((-1, 1)) * P((2, 1)) * P((-3, 2)) * P((1, 0, 1))
        assert rational_roots(f) == ([(F(-2), 1), (F(1), 1), (F(3, 2), 1)], P((1, 0, 1)))
        assert len(divisions) == 3

    def test_double_root_of_the_image_counts_two_through_the_squarefree_part(
            self, monkeypatch):
        sqf = count_calls(monkeypatch, "squarefree_part", unipoly)
        f = P((-3, 2)) ** 2 * P((5, 1)) * P((1, 0, 1)) * P((-1, 1)) ** 3
        roots, rest = rational_roots(f)
        assert len(sqf) == 1 and rest == P((1, 0, 1))
        assert roots == [(F(-5), 1), (F(1), 3), (F(3, 2), 2)] == sympy_rational_roots(f)


def binomial(k: int) -> P:
    """x(x-1)...(x-k+1)/k!: integer values at integers, so its divided
    differences cannot all stay integers."""
    p = P((1,))
    for i in range(k):
        p = p * P((-i, 1)).scale(F(1, i + 1))
    return p


class TestInterpolation:
    def test_roundtrip(self):
        f = P((F(1, 2), -3, 0, 2))
        pts = [(F(i), f.evaluate(i)) for i in range(-2, 3)]
        assert interpolate(pts) == f

    def test_distinct_nodes_required(self):
        with pytest.raises(DomainError):
            interpolate([(F(1), F(0)), (F(1), F(1))])

    @pytest.mark.parametrize("node", [F(1, 2), 0.5, F(-7, 3)])
    def test_integer_nodes_required(self, node):
        with pytest.raises(DomainError, match="integers"):
            interpolate([(0, F(1)), (node, F(2))])

    def test_integer_valued_fractional_coefficients(self):
        f = binomial(5) - binomial(3).scale(7)
        assert interpolate([(a, f.evaluate(a)) for a in range(-3, 4)]) == f

    @given(st.lists(rational, min_size=1, max_size=8).map(P),
           st.lists(st.integers(-3, 3), min_size=6, max_size=6),
           st.integers(1, 4),
           st.lists(st.integers(-40, 40), min_size=12, max_size=12, unique=True))
    def test_recovers_the_polynomial(self, f, weights, extra, nodes):
        # Rational coefficients plus integer-valued binomial terms, through
        # more nodes than the degree needs.
        for k, w in enumerate(weights):
            f = f + binomial(k).scale(w)
        nodes = nodes[:max(f.degree, 0) + 1 + extra]
        assert interpolate([(a, f.evaluate(a)) for a in nodes]) == f


any_poly = st.lists(rational, max_size=7).map(P)


def assert_canonical(f: P) -> None:
    """Integer numerators, one positive denominator, lowest terms, no trailing zero."""
    assert all(type(v) is int for v in f.num) and type(f.den) is int
    assert f.den > 0 and math.gcd(f.den, *f.num) == 1
    assert not f.num or f.num[-1] != 0
    assert P(f.coeffs) == f and hash(P(f.coeffs)) == hash(f) == hash(f.coeffs)


class TestIntegerRepresentation:
    """The integer-numerator representation against sympy Poly over QQ."""

    @given(any_poly, any_poly)
    def test_ring_operations_match_sympy(self, f, g):
        for ours, theirs in ((f + g, to_sympy(f) + to_sympy(g)),
                             (f - g, to_sympy(f) - to_sympy(g)),
                             (f * g, to_sympy(f) * to_sympy(g)),
                             (-f, -to_sympy(f))):
            assert_canonical(ours)
            assert ours == from_sympy(theirs)

    @given(any_poly, rational, rational)
    def test_scale_derivative_evaluate_match_sympy(self, f, c, x):
        ours = f.scale(c)
        assert_canonical(ours)
        assert ours == from_sympy(to_sympy(f) * sympy.Rational(c.numerator, c.denominator))
        assert_canonical(f.derivative())
        assert f.derivative() == from_sympy(to_sympy(f).diff(X))
        value = to_sympy(f).eval(sympy.Rational(x.numerator, x.denominator))
        assert f.evaluate(x) == F(int(value.p), int(value.q))

    @given(nonzero_poly, nonzero_poly)
    def test_exact_quotient_and_monic_match_sympy(self, f, g):
        # The one division in Z[x], on primitive integer images: by Gauss's
        # lemma g divides f over Q iff b divides a in Z[x].
        a, b = (primitive_part(list(p.num)) for p in (f, g))
        assert _exact_quotient(primitive_part(list((f * g).num)), b) == a
        q = _exact_quotient(a, b)
        sq, sr = sympy.div(to_sympy(P(a)), to_sympy(P(b)))
        if sr.is_zero:
            assert all(type(v) is int for v in q) and P(q) == from_sympy(sq)
        else:
            assert q is None
        assert g.monic() == from_sympy(to_sympy(g).monic())
        assert_canonical(g.monic())

    @pytest.mark.parametrize("c", [[1, 1], [0, 1], [5], [-3, 0, 2]])
    def test_exact_quotient_of_zero_is_zero(self, c):
        # The zero dividend has no constant term to test against c[0].
        assert _exact_quotient([], c) == []

    @given(any_poly, rational.filter(lambda c: c != 0))
    def test_equal_values_have_equal_images(self, f, c):
        g = P([x * c for x in f.coeffs]).scale(1 / c)
        assert g == f and hash(g) == hash(f) and (g.num, g.den) == (f.num, f.den)
        assert repr(g) == repr(f)

    @given(st.lists(st.integers(-9, 9), max_size=6), st.integers(1, 12), st.booleans(),
           st.integers(0, 3), st.sampled_from([1, -1]))
    def test_from_ints_matches_the_constructor(self, base, content, negate_lc,
                                                zeros, den):
        # Content > 1, a negative leading coefficient and trailing zeros; the
        # denominator 1 takes the shortcut, -1 must not.
        num = [content * v for v in base]
        if negate_lc and num:
            num[-1] = -num[-1]
        num += [0] * zeros
        fast = P._from_ints(num, den)
        slow = P([F(v, den) for v in num])
        assert_canonical(fast)
        assert (fast.num, fast.den) == (slow.num, slow.den)
        assert fast == slow and hash(fast) == hash(slow)

    def test_zero_polynomial(self):
        zero = P((0, F(0, 3)))
        assert (zero.num, zero.den, zero.coeffs, zero.degree) == ((), 1, (), -1)
        assert zero == P.zero() == P((1,)) - P((1,))


# Leading coefficients of the factors; 11 * 13 and its multiples make the
# certificate skip the first primes of ROOT_PRIMES.
FACTOR_LEADS = [1, -1, 2, 11 * 13, -11 * 13 * 17, 11 * 13 * 17 * 19 * 23 * 29]
int_factor = st.builds(lambda rest, lc: P(rest + [lc]),
                       st.lists(st.integers(-9, 9), min_size=1, max_size=5),
                       st.sampled_from(FACTOR_LEADS))


def certified(f: P) -> bool:
    return unipoly._certified_irreducible(list(f.num))


class TestIrreducibilityCertificate:
    @given(int_factor, int_factor, st.booleans())
    def test_never_certifies_a_product(self, g, h, square):
        f = g * (g if square else h)
        assert not to_sympy(f).is_irreducible
        assert not certified(f)

    @pytest.mark.parametrize("lc", [1, 11 * 13])
    def test_certifies_planted_irreducibles(self, lc):
        # Eisenstein at 2: x^d - 2 is irreducible for every d.
        for d in range(1, 13):
            assert certified(P([-2] + [0] * (d - 1) + [lc]))

    def test_a_square_modulo_a_prime_is_not_a_pattern(self):
        # (x^2 - 11)(x^3 - x^2 - 2) is x^2 (x^3 - x^2 - 2) mod 11, not
        # squarefree; read as a pattern it would leave only 0 and 5 once
        # the other primes are intersected in.
        assert not certified(P((-11, 0, 1)) * P((-2, 0, -1, 1)))

    @pytest.mark.parametrize("coeffs", [(1, 0, 0, 0, 1), (1, 0, -10, 0, 1)],
                             ids=["x^4+1", "x^4-10x^2+1"])
    def test_irreducibles_that_split_modulo_every_prime_are_not_certified(self, coeffs):
        f = P(coeffs)
        assert to_sympy(f).is_irreducible
        assert not certified(f)
