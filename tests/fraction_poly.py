"""Polynomial arithmetic over Q with fractions.Fraction: the rational routes
that frobext's integer kernels replaced, kept as test oracles.

Every function here takes any exact coefficients and returns Fractions;
none of it is used by the package.
"""

from __future__ import annotations

from fractions import Fraction

from frobext.exact import poly_divmod, poly_eval, poly_trim


def poly_monic(a: list) -> list:
    a = poly_trim(a)
    if not a:
        raise ValueError("cannot normalize the zero polynomial")
    lc = Fraction(a[-1])
    return [Fraction(x) / lc for x in a]


def poly_gcd(a: list, b: list) -> list:
    """Monic gcd over Q (constant 1 for coprime inputs)."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return []
    return poly_monic(a)


def poly_int(a: list) -> list:
    """Cast exact-integer-valued coefficients back to int."""
    out = []
    for c in poly_trim(a):
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError("non-integer coefficient %s" % (c,))
        out.append(int(f))
    return out


def reversed_root_poly(p: list) -> list:
    """Monic polynomial whose roots are the inverses of p's roots."""
    p = poly_trim(p)
    if not p or p[0] == 0:
        raise ValueError("reversal needs a nonzero constant term")
    return poly_monic(list(reversed(p)))


def resultant(f: list, g: list) -> Fraction:
    """Res(f, g) by the Euclidean recursion over Q."""
    f = [Fraction(x) for x in poly_trim(f)]
    g = [Fraction(x) for x in poly_trim(g)]
    if not f or not g:
        return Fraction(0)
    if len(f) == 1:
        return f[0] ** (len(g) - 1)
    if len(g) == 1:
        return g[0] ** (len(f) - 1)
    df, dg = len(f) - 1, len(g) - 1
    _, r = poly_divmod(f, g)
    if not r:
        return Fraction(0)
    dr = len(r) - 1
    sign = Fraction(-1) ** (df * dg)
    return sign * g[-1] ** (df - dr) * resultant(g, r)


def power_sums(monic: list, n: int) -> list:
    """Power sums p_1..p_n of the roots (Newton's identities over Q)."""
    m = poly_monic(monic)
    d = len(m) - 1
    e = [Fraction(1)] + [(-1) ** k * m[d - k] for k in range(1, d + 1)]
    ps: list = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k):
            if i <= d:
                acc += (-1) ** (i - 1) * e[i] * ps[k - i - 1]
        if k <= d:
            acc += (-1) ** (k - 1) * k * e[k]
        ps.append(acc)
    return ps


def composed_product(u: list, v: list) -> list:
    """Monic polynomial with root multiset {u_i * v_j}, over Q."""
    n = (len(poly_trim(u)) - 1) * (len(poly_trim(v)) - 1)
    ps = [a * b for a, b in zip(power_sums(u, n), power_sums(v, n))]
    e = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            term = e[k - i] * ps[i - 1]
            acc += term if i % 2 else -term
        e.append(acc / k)
    return [e[n - k] if (n - k) % 2 == 0 else -e[n - k] for k in range(n + 1)]


def ratio_charpoly(p: list, q: list) -> list:
    """Monic polynomial with root multiset {b_j / a_i}, over Q."""
    p, q = poly_monic(p), poly_monic(q)
    if len(p) == 1 or len(q) == 1:
        return [Fraction(1)]
    return composed_product(reversed_root_poly(p), q)


def limit_leading(rev: list) -> tuple[int, Fraction]:
    """(rho, prod_{c_k != 1} (1 - c_k)) for rev = prod (1 - c_k t)."""
    cur = [Fraction(c) for c in poly_trim(rev)]
    rho = 0
    while poly_eval(cur, 1) == 0:
        cur, rem = poly_divmod(cur, [1, -1])
        if rem:
            raise RuntimeError("(1 - t) leaves a remainder at a root t = 1")
        rho += 1
    return rho, Fraction(poly_eval(cur, 1))


def ratio_limit(p: list, q: list) -> tuple[int, Fraction]:
    """(rho, N*) from the rational ratio polynomial."""
    return limit_leading(list(reversed(ratio_charpoly(p, q))))
