"""Polynomial arithmetic over F_p by Euclid: the routes that W's
construction replaced with determinants and powers, kept as test oracles.

Polynomials are ascending coefficient lists, trimmed of zero leading
coefficients; none of this is used by the package.
"""

from __future__ import annotations

from frobext.exact import is_prime


def _trim(f: list[int], p: int) -> list[int]:
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def fp_divmod(f: list[int], g: list[int], p: int):
    """(quotient, remainder) of f by g != 0 over F_p."""
    f, g = _trim(f, p), _trim(g, p)
    ginv = pow(g[-1], -1, p)
    quot = [0] * max(0, len(f) - len(g) + 1)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1] * ginv % p
        quot[k] = c
        if c:
            for i in range(len(g)):
                f[k + i] = (f[k + i] - c * g[i]) % p
    return quot, _trim(f, p)


def fp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd over F_p; f and g not both zero."""
    f, g = _trim(f, p), _trim(g, p)
    while g:
        f, g = g, fp_divmod(f, g, p)[1]
    c = pow(f[-1], -1, p)
    return [c * x % p for x in f]


def fp_inv(u: list[int], h: list[int], p: int) -> list[int]:
    """Inverse of u mod (h, p) by the extended Euclidean algorithm, as a
    list of len(h) - 1 coordinates; ZeroDivisionError for a non-unit."""
    r0, r1 = _trim(h, p), _trim(u, p)
    s0, s1 = [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        s = s0 + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s[i + j] = (s[i + j] - qi * sj) % p
        r0, r1, s0, s1 = r1, r, s1, _trim(s, p)
    if len(r0) != 1:
        raise ZeroDivisionError("not a unit")
    c = pow(r0[0], -1, p)
    out = [c * x % p for x in s0]
    return out + [0] * (len(h) - 1 - len(out))


def _fp_mulmod(f: list[int], g: list[int], h: list[int], p: int) -> list[int]:
    prod = [0] * (len(f) + len(g))
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            prod[i + j] += x * y
    return fp_divmod(prod, h, p)[1]


def _x_power(h: list[int], p: int, k: int) -> list[int]:
    """x^(p^k) mod (h, p), by k p-th powers."""
    y = fp_divmod([0, 1], h, p)[1]
    for _ in range(k):
        out, base, e = [1], y, p
        while e:
            if e & 1:
                out = _fp_mulmod(out, base, h, p)
            base = _fp_mulmod(base, base, h, p)
            e >>= 1
        y = fp_divmod(out, h, p)[1]
    return y


def rabin_irreducible(h: list[int], p: int) -> bool:
    """Rabin's test for h monic of degree a >= 1 over F_p: x^(p^a) = x mod
    h, and gcd(x^(p^(a/ell)) - x, h) = 1 for each prime ell | a."""
    a = len(h) - 1
    x = fp_divmod([0, 1], h, p)[1]
    if _x_power(h, p, a) != x:
        return False
    for ell in (d for d in range(2, a + 1) if a % d == 0 and is_prime(d)):
        y = _x_power(h, p, a // ell)
        diff = _trim([c - d for c, d in zip(y + [0] * a, x + [0] * a)], p)
        if not diff or len(fp_gcd(h, diff, p)) != 1:
            return False
    return True
