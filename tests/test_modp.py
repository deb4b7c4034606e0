"""The F_p[x] kernel against sympy's arithmetic over GF(p).

Every property runs at primes of ``unipoly.ROOT_PRIMES`` (the rational-root
search and the irreducibility certificate) and at the first prime of
``unipoly._gcd_primes()`` (the modular gcd), the moduli the kernel is used
with.
"""

from itertools import islice

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from unisecant.exactalg import modp, unipoly

X = sympy.Symbol("x")
PRIMES = list(unipoly.ROOT_PRIMES) + list(islice(unipoly._gcd_primes(), 1))
prime = st.sampled_from(PRIMES)
# Unreduced integers of either sign: the kernel reduces its inputs itself.
any_int = st.integers(-2**70, 2**70)


def gf(cs: list[int], p: int) -> sympy.Poly:
    return sympy.Poly(list(reversed(cs)) or [0], X, modulus=p)


def times(a: list[int], b: list[int]) -> list[int]:
    """The product in Z[x]."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ascending(poly: sympy.Poly, p: int) -> list[int]:
    """sympy's (symmetric) coefficients as the kernel's reduced ascending list."""
    return modp.strip([int(c) % p for c in reversed(poly.all_coeffs())])


@st.composite
def modulus(draw, p: int, monic: bool) -> list[int]:
    """A reduced polynomial of degree 1..8 whose leading coefficient p does not divide."""
    d = draw(st.integers(1, 8))
    lead = 1 if monic else draw(st.integers(1, p - 1))
    return [draw(st.integers(0, p - 1)) for _ in range(d)] + [lead]


@st.composite
def rem_case(draw, monic: bool = False):
    p = draw(prime)
    return p, draw(st.lists(any_int, max_size=17)), draw(modulus(p, monic))


class TestAgainstSympy:
    @given(rem_case())
    def test_rem(self, case):
        p, a, f = case
        assert modp.rem(a, f, p) == ascending(gf(a, p).rem(gf(f, p)), p)

    @given(prime, st.lists(any_int, max_size=9), st.lists(any_int, max_size=9),
           st.lists(any_int, max_size=4))
    def test_gcd_with_a_planted_common_factor(self, p, a, b, c):
        a, b = times(a, c or [1]), times(b, c or [1])
        expected = ascending(sympy.gcd(gf(a, p), gf(b, p)), p)
        ours = modp.gcd(a, b, p)
        assert ours == expected
        assert not ours or ours[-1] == 1

    @given(rem_case(monic=True), st.lists(any_int, max_size=9), st.lists(any_int, max_size=9))
    def test_mul_mod(self, case, a, b):
        p, _, f = case
        assert modp.mul_mod(a, b, f, p) == ascending((gf(a, p) * gf(b, p)).rem(gf(f, p)), p)

    # sympy's own sort of the GF(p) factors compares ModularIntegers.
    @pytest.mark.filterwarnings("ignore::sympy.utilities.exceptions.SymPyDeprecationWarning")
    @given(st.data())
    def test_degree_pattern(self, data):
        p = data.draw(prime)
        f = data.draw(modulus(p, monic=False))
        if data.draw(st.booleans()):
            # A planted square: the pattern must refuse it.
            g = data.draw(modulus(p, monic=False))
            f = times(f, times(g, g))
        _, factors = sympy.factor_list(gf(f, p))
        if any(m > 1 for _, m in factors):
            assert modp.degree_pattern(f, p) is None
        else:
            assert modp.degree_pattern(f, p) == sorted(q.degree() for q, _ in factors)

    @given(st.lists(any_int, max_size=12), any_int, prime, st.integers(1, 6))
    def test_horner_mod_prime_power(self, cs, x, p, k):
        exact = sum(c * x**i for i, c in enumerate(cs))
        assert modp.eval_mod(cs, x, p**k) == exact % p**k


class TestDegreePattern:
    def test_x4_plus_1_splits_at_every_root_prime(self):
        # x^4 + 1 is irreducible over Q but splits modulo every prime.
        for p in unipoly.ROOT_PRIMES:
            assert sum(modp.degree_pattern([1, 0, 0, 0, 1], p)) == 4
            assert max(modp.degree_pattern([1, 0, 0, 0, 1], p)) <= 2

    def test_leading_coefficient_divisible_by_p(self):
        assert modp.degree_pattern([1, 0, 11], 11) is None

    def test_linear_and_irreducible(self):
        assert modp.degree_pattern([5, 3], 11) == [1]
        # x^2 + 1 is irreducible mod 11 (11 = 3 mod 4), x^2 - 1 splits.
        assert modp.degree_pattern([1, 0, 1], 11) == [2]
        assert modp.degree_pattern([-1, 0, 1], 11) == [1, 1]
