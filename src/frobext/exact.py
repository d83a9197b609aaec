"""Exact scalar and polynomial arithmetic.

Everything in this package runs on Python integers and fractions.Fraction;
no floating point is used anywhere.  Polynomials are lists of coefficients
in ascending degree order (index = degree), trimmed of trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class PrecisionError(ArithmeticError):
    """The working precision cannot certify the requested quantity.

    `required` carries a precision exponent known to suffice, when one is
    known.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


# ---------------------------------------------------------------------------
# valuations and absolute values


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction."""
    x = Fraction(x)
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def abs_at(p: int, x) -> Fraction:
    """p-adic absolute value |x|_p (normalized so |p|_p = 1/p); |0|_p = 0."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    return Fraction(1, p) ** valuation(x, p)


def l_primary(x, p: int) -> Fraction:
    """The p-primary part p^{v_p(x)} of a nonzero rational.

    >>> l_primary(Fraction(12, 5), 2)
    Fraction(4, 1)
    """
    return Fraction(p) ** valuation(x, p)


# Miller-Rabin to the first 13 prime bases is exact below PRIME_BOUND
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality below PRIME_BOUND; above it a composite is still
    recognized, but a probable prime raises ValueError.

    >>> is_prime(100000000000000003)
    True
    """
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # b witnesses that n is composite
    if n >= PRIME_BOUND:
        raise ValueError("primality is certified only below %d"
                         % PRIME_BOUND)
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# trial division runs through the odd numbers below this bound; a cofactor
# below its square with no factor there is prime
_TRIAL_BOUND = 1000


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n, by Brent's variant of
    Pollard's rho (Brent, BIT 20, 1980): x -> x^2 + c from x = 2, the
    differences multiplied in batches of 128 before one gcd."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * abs(x - y) % n
                g = gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step again from its start
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g
    raise RuntimeError("no rho sequence splits %d" % n)


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of |n|, n nonzero: trial division
    below _TRIAL_BOUND, then Pollard-Brent rho on the cofactor, each part
    checked by `is_prime` (so a probable prime above PRIME_BOUND raises
    ValueError).

    >>> prime_factors(2 * (10**9 + 7) * (10**9 + 9))
    [2, 1000000007, 1000000009]
    """
    n = abs(n)
    if n == 0:
        raise ValueError("prime_factors(0)")
    out = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    parts = [n] if n > 1 else []
    while parts:
        x = parts.pop()
        if x < _TRIAL_BOUND ** 2 or is_prime(x):
            out.add(x)
        else:
            f = _rho_factor(x)
            parts += [f, x // f]
    return sorted(out)


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a, a >= 1; p must lie below PRIME_BOUND.

    >>> prime_power(27)
    (3, 3)
    """
    if q < 2:
        raise ValueError("not a prime power: %r" % (q,))
    for b in _BASES:
        if q % b == 0:
            a = int_valuation(q, b)
            if b ** a != q:
                raise ValueError("not a prime power: %r" % (q,))
            return b, a
    # every prime factor exceeds 41 > 2^5, so a < bit_length / 5
    for a in range(q.bit_length() // 5, 1, -1):
        p = _iroot(q, a)
        if p ** a == q and is_prime(p):
            return p, a
    if not is_prime(q):
        raise ValueError("not a prime power: %r" % (q,))
    return q, 1


# ---------------------------------------------------------------------------
# polynomials (ascending coefficients)


def poly_trim(c: list) -> list:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_deg(c: list) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(poly_trim(c)) - 1


def poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def poly_mul(a: list, b: list) -> list:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_pow(a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_eval(a: list, x):
    """Horner evaluation, exact."""
    acc = 0
    for c in reversed(poly_trim(a)):
        acc = acc * x + c
    return acc


def poly_deriv(a: list) -> list:
    return poly_trim([i * a[i] for i in range(1, len(a))])


def poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Exact division with remainder over Q."""
    a, b = [Fraction(x) for x in poly_trim(a)], [Fraction(x) for x in poly_trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    while len(r) >= len(b) and r:
        c = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = c
        for i in range(len(b)):
            r[d + i] -= c * b[i]
        r = poly_trim(r)
    return poly_trim(q), r


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


def poly_quo_monic(a: list, b: list) -> list:
    """a / b for integer a and monic integer b that divides it, over Z."""
    a, b = poly_trim(a), poly_trim(b)
    db = len(b) - 1
    if not b or b[-1] != 1:
        raise ValueError("the divisor must be monic")
    quo = [0] * max(0, len(a) - db)
    for d in range(len(quo) - 1, -1, -1):
        c = quo[d] = a[d + db]
        if c:
            for i in range(db + 1):
                a[d + i] -= c * b[i]
    if any(a):
        raise RuntimeError("monic division left a remainder")
    return poly_trim(quo)


def _primitive(a: list) -> list:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [-c // g for c in a]


def poly_gcd_monic(a: list, b: list) -> list:
    """Monic gcd over Z of a monic integer a and an integer b, by primitive
    pseudo-remainders (Collins, JACM 1967).  A monic factor of a monic
    integer polynomial has integer coefficients (Gauss's lemma), so the
    primitive gcd is monic; anything else is an internal fault."""
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        return a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = a[:]
        lb, db = b[-1], len(b) - 1
        while len(r) > db:
            c, d = r[-1], len(r) - 1 - db
            r = [x * lb for x in r]
            for i in range(db + 1):
                r[d + i] -= c * b[i]
            r = poly_trim(r)
        a, b = b, _primitive(r) if r else []
    if b:
        return [1]  # a nonzero constant remainder: coprime
    if a[-1] != 1:
        raise RuntimeError("the gcd of a monic integer polynomial is not"
                           " monic")
    return a


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
    """Monic polynomial whose roots are the inverses of p's roots.

    Requires p(0) != 0.  If p = prod (t - a_i) up to a scalar, the result is
    prod (t - 1/a_i), obtained by reversing the coefficients and normalizing.
    """
    p = poly_trim(p)
    if not p or p[0] == 0:
        raise ValueError("reversal needs a nonzero constant term")
    return poly_monic(list(reversed(p)))


def resultant(f: list, g: list):
    """Res(f, g) = lc(f)^deg g * prod g(alpha_i) over roots of f, exact over Q.

    Computed by the Euclidean recursion; never extracts roots.
    """
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


def composed_product(u: list, v: list) -> list:
    """Monic polynomial with root multiset {u_i * v_j}.

    The power sums of the products are the termwise products of the power
    sums of u and v; Newton's identities turn them back into coefficients
    (Bostan, Flajolet, Salvy, Schost, "Fast computation of special
    resultants", JSC 2006).  Both inputs must be monic.
    """
    n = poly_deg(u) * poly_deg(v)
    ps = [a * b for a, b in zip(power_sums(u, n), power_sums(v, n))]
    # e[k]: k-th elementary symmetric function of the products
    e = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            term = e[k - i] * ps[i - 1]
            acc += term if i % 2 else -term
        e.append(acc / k)
    return [e[n - k] if (n - k) % 2 == 0 else -e[n - k] for k in range(n + 1)]


def ratio_charpoly(p: list, q: list) -> list:
    """Monic polynomial with root multiset {b_j / a_i}, a_i roots of p, b_j of q.

    p(0) must be nonzero.  No roots are ever materialized: the inverse roots of
    p come from coefficient reversal and the products from power sums.
    """
    p = poly_monic(p)
    q = poly_monic(q)
    if poly_deg(p) == 0 or poly_deg(q) == 0:
        return [Fraction(1)]
    return composed_product(reversed_root_poly(p), q)


def reversed_form(monic: list) -> list:
    """prod (1 - c_k t) from the monic prod (t - c_k): plain reversal."""
    m = poly_monic(monic)
    return list(reversed(m))


def limit_leading(rev: list) -> tuple[int, Fraction]:
    """Order and leading value of prod (1 - c_k t) at t = 1.

    Returns (rho, L) with rho the multiplicity of the root t=1 and
    L = lim_{t->1} rev(t) / (1-t)^rho = prod_{c_k != 1} (1 - c_k), exact.
    """
    cur = [Fraction(c) for c in poly_trim(rev)]
    if not cur:
        raise ValueError("zero polynomial has no leading value")
    rho = 0
    while poly_eval(cur, 1) == 0:
        cur, rem = poly_divmod(cur, [Fraction(1), Fraction(-1)])  # divide by (1 - t)
        if rem:
            raise RuntimeError("(1 - t) leaves a remainder at a root t = 1")
        rho += 1
    return rho, Fraction(poly_eval(cur, 1))


def power_sums(monic: list, n: int) -> list:
    """Power sums p_1..p_n of the roots of a monic polynomial (Newton's identities)."""
    m = poly_monic(monic)
    d = len(m) - 1
    # e_k with signs: m = x^d - e1 x^{d-1} + e2 x^{d-2} - ...
    e = [Fraction(1)] + [(-1) ** k * Fraction(m[d - k]) for k in range(1, d + 1)]
    ps: list[Fraction] = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k):
            if i <= d:
                acc += (-1) ** (i - 1) * e[i] * ps[k - i - 1]
        if k <= d:
            acc += (-1) ** (k - 1) * Fraction(k) * e[k]
        ps.append(acc)
    return ps
