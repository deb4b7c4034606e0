"""Polynomial arithmetic in F_p[x], the one modular kernel.

Pure functions on dense ascending ``int`` lists; the caller passes the
modulus and chooses the primes (``unipoly``).  Inputs may be any integers;
results are reduced into 0..p-1 with no trailing zero (zero is []).
"""

from __future__ import annotations


def strip(cs: list[int]) -> list[int]:
    """cs without trailing zeros, in place."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def eval_mod(cs: list[int], x: int, m: int) -> int:
    """cs(x) mod m by Horner's rule; m need not be prime (Hensel lifting uses p^k)."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def rem(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f in F_p[x], for f reduced with a nonzero leading coefficient.

    Products stay unreduced until the end, one ``%`` per output coefficient
    instead of one per multiply-subtract; a monic f needs no inverse.
    """
    a, n = list(a), len(f) - 1
    inv = 1 if f[-1] == 1 else pow(f[-1], -1, p)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] * inv % p
        if c:
            s = k - n
            for j in range(n):
                a[s + j] -= c * f[j]
    return strip([c % p for c in a[:n]])


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b in F_p[x] by Euclid's algorithm; [] if both are zero."""
    a, b = strip([c % p for c in a]), strip([c % p for c in b])
    while len(b) > 1:
        a, b = b, rem(a, b, p)
    if b:
        return [1]
    inv = pow(a[-1], -1, p) if a else 1
    return [c * inv % p for c in a]


def mul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a·b mod f in F_p[x], for f monic of degree >= 1."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return rem(prod, f, p)


def degree_pattern(f: list[int], p: int) -> list[int] | None:
    """The degrees of the irreducible factors of f mod p, ascending.

    f has degree d >= 1.  None when p divides lc(f) or f mod p is not
    squarefree (gcd(f, f') != 1).  Distinct-degree factorization: gcd(f,
    x^(p^i) - x) is the product of the factors whose degree divides i, and
    x^(p^i) mod f follows from x^(p^(i-1)) by the matrix of the linear map
    h -> h^p, whose row k is x^(p·k) mod f.  Once the part of f not yet
    accounted for has degree below 2(i+1), it is one irreducible factor or
    nothing (von zur Gathen & Gerhard, *Modern Computer Algebra*, section
    14.2).
    """
    if f[-1] % p == 0:
        return None
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    d = len(f) - 1
    df = strip([i * c % p for i, c in enumerate(f)][1:])
    if not df or len(gcd(f, df, p)) > 1:
        return None
    # x^p mod f from the bits of p, leading bit first (a product by x is a
    # shift), then the rows x^(p·k) mod f.
    xp = [0, 1]
    for bit in bin(p)[3:]:
        xp = mul_mod(xp, xp, f, p)
        if bit == "1":
            xp = rem([0] + xp, f, p)
    frobenius = [[1], xp]
    while len(frobenius) < d:
        frobenius.append(mul_mod(frobenius[-1], xp, f, p))
    h, degrees, found, i = xp, [], 0, 1
    while 2 * i <= d - found:
        if i > 1:  # h = x^(p^i) mod f, the image of x^(p^(i-1)) under h -> h^p
            acc = [0] * d
            for c, row in zip(h, frobenius):
                if c:
                    acc[:len(row)] = [u + c * v for u, v in zip(acc, row)]
            h = strip([c % p for c in acc])
        g = h + [0] * (2 - len(h))
        g[1] -= 1
        shared = len(gcd(f, g, p)) - 1 if strip(g) else d
        shared -= sum(e for e in degrees if i % e == 0)
        degrees += [i] * (shared // i)
        found += shared
        i += 1
    return degrees + [d - found] if found < d else degrees
