"""Exact scalar and polynomial arithmetic.

Everything in this package runs on Python integers and fractions.Fraction;
no floating point is used anywhere.  Polynomials are lists of coefficients
in ascending degree order (index = degree), trimmed of trailing zeros.
Every polynomial the package builds is monic with integer coefficients, so
the polynomial kernels run on integers: one gcd (`poly_gcd_monic`), one
exact division (`poly_quo_monic`), and scalings that keep roots algebraic
integers; a Fraction appears only as a final value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

from .linalg import bareiss_det


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
    """p-adic valuation of a nonzero integer.  The powers p, p^2, p^4, ...
    are stripped while they divide, then again from the largest down:
    O(log v) divisions, not v.

    >>> int_valuation(-48, 2)
    4
    """
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    if n % p:
        return 0
    powers, v = [p], 0
    while True:
        m, r = divmod(n, powers[-1])
        if r:
            break
        n, v = m, v + (1 << (len(powers) - 1))
        powers.append(powers[-1] * powers[-1])
    # what is left has valuation below 2^(len(powers) - 1)
    for k in range(len(powers) - 2, -1, -1):
        m, r = divmod(n, powers[k])
        if not r:
            n, v = m, v + (1 << k)
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
# the steps one number-theoretic query may take: a factorization, a prime
# power test or a standalone primality test.  Splitting off a prime factor
# f takes rho about sqrt(f) steps, so factors up to about 10^11 are found (a
# product of two near 10^11 takes 0.8 million); at about 0.6 µs a step a
# refused input fails within a second, where p^2 + p + 1 for p = 10^17 + 3
# (a factor near 3·10^13) took 16 million steps.  A step on a number of b
# bits costs about 1 + (b/512)^2 steps of a small one (0.7 µs at 64 bits,
# 15 µs at 2048), and is charged so.  A Miller-Rabin round on it is charged
# as b steps, so the largest number one round fits has 8062 bits
# (`round_fits`), and a k-th power in an integer root search as log2(k)
RHO_STEPS = 2_000_000


def _weight(bits: int) -> int:
    """The steps of a small number that one step on a `bits`-bit one costs."""
    return 1 + bits * bits // 512 ** 2


def round_fits(bits: int) -> bool:
    """Whether one Miller-Rabin round on a `bits`-bit number fits in
    RHO_STEPS.

    >>> round_fits(8062), round_fits(8063)
    (True, False)
    """
    return bits * _weight(bits) <= RHO_STEPS


class _Steps:
    """The RHO_STEPS of one query, charged by operand size."""

    def __init__(self):
        self.left = RHO_STEPS

    def charge(self, steps: int, n: int, what: str, size: int | None = None):
        """Take `steps` steps on numbers of `size` bits (n's by default) for
        work on n; past the cap, ValueError names what took them and n's
        bit length (never its digits, which may be too many to print)."""
        bits = n.bit_length()
        self.left -= steps * _weight(bits if size is None else size)
        if self.left < 0:
            raise ValueError("%s a %d-bit number takes more than the cap of"
                             " %d rho steps" % (what, bits, RHO_STEPS))


def is_prime(n: int, steps: _Steps | None = None) -> bool:
    """Exact primality below PRIME_BOUND; above it a composite is still
    recognized, but a probable prime raises ValueError.  Each Miller-Rabin
    round is charged to `steps`, a budget of its own by default.

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
    if steps is None:
        steps = _Steps()
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        steps.charge(n.bit_length(), n, "a primality test of")
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


def _power_at_most(x: int, k: int, n: int, steps: _Steps) -> bool:
    """Whether x^k <= n, for x >= 1.  x^k is first bracketed by a square and
    multiply whose products are rounded down and up to 2·b + 64 bits, b
    the bits of x; its log2(k) products are charged at that size.  Only
    when n lies in the bracket, as it does for n = x^k, is x^k taken in
    full, charged as log2(k) products of n's size."""
    cost, prec = k.bit_length(), 2 * x.bit_length() + 64
    steps.charge(cost, n, "a prime power test of", prec)
    lo = hi = x
    e = 0  # lo·2^e <= x^j <= hi·2^e for the prefix j of k read so far
    for bit in bin(k)[3:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = lo * x, hi * x
        cut = hi.bit_length() - prec
        if cut > 0:
            lo, hi, e = lo >> cut, -(-hi >> cut), e + cut
    top = n >> e
    if hi <= top or lo > top:
        return hi <= top
    steps.charge(cost, n, "a prime power test of")
    return x ** k <= n


def _iroot(n: int, k: int, steps: _Steps) -> int:
    """floor(n^(1/k)) for n >= 1, its powers charged to `steps`.  A root of
    at most 2L bits, L = log2(k) + 2, is found by bisection, each power
    compared with n by `_power_at_most`; a longer one by Newton steps from
    above, each charged as the log2(k) products of n's size it takes,
    started at one more than the L-bit root of n's leading bits.  That
    start is within a factor 1 + 1/(2k) of the root, so each step about
    squares the error and a few steps end the search."""
    bits, cost = -(-n.bit_length() // k), k.bit_length()
    lead = cost + 2
    if bits <= 2 * lead:
        lo, hi = 0, 1 << bits  # lo^k <= n < hi^k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _power_at_most(mid, k, n, steps) else (lo, mid)
        return lo
    shift = bits - lead
    x = (_iroot(n >> (k * shift), k, steps) + 1) << shift
    while True:
        steps.charge(cost, n, "a prime power test of")
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# trial division runs through the odd numbers below this bound; a cofactor
# below its square with no factor there is prime
_TRIAL_BOUND = 1000


def _rho_factor(n: int, steps: _Steps) -> int:
    """A proper factor of an odd composite n, by Brent's variant of
    Pollard's rho (Brent, BIT 20, 1980): x -> x^2 + c from x = 2, the
    differences multiplied in batches of 128 before one gcd.  Its steps are
    charged to `steps`."""
    for c in range(1, n):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            # the batches below take at most r more steps than this
            steps.charge(2 * r, n, "factoring")
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
    raise RuntimeError("no rho sequence splits a %d-bit number"
                       % n.bit_length())


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of |n|, n nonzero: trial division
    below _TRIAL_BOUND, then Pollard-Brent rho on the cofactor, each part
    checked by `is_prime` (so a probable prime above PRIME_BOUND raises
    ValueError).  Rho and the primality tests take at most RHO_STEPS steps
    in all; past them ValueError names the cap.

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
            n //= d ** int_valuation(n, d)
        d += 1 if d == 2 else 2
    parts = [n] if n > 1 else []
    steps = _Steps()
    while parts:
        x = parts.pop()
        if x < _TRIAL_BOUND ** 2 or is_prime(x, steps):
            out.add(x)
        else:
            f = _rho_factor(x, steps)
            parts += [f, x // f]
    return sorted(out)


def _not_a_prime_power(q: int) -> ValueError:
    # q >= 2 is named by its bit length, never by its digits, which may be
    # many; a q below 2 is named itself (-5 is no "3-bit number")
    if q < 2:
        return ValueError("not a prime power: %d" % q)
    return ValueError("not a prime power: a %d-bit number" % q.bit_length())


def prime_power(q: int) -> tuple[int, int]:
    """(p, a) with q = p^a, a >= 1; p must lie below PRIME_BOUND.  The root
    search and the primality tests take at most RHO_STEPS steps; past them
    ValueError names the cap.

    >>> prime_power(27)
    (3, 3)
    """
    if q < 2:
        raise _not_a_prime_power(q)
    for b in _BASES:
        if q % b == 0:
            a = int_valuation(q, b)
            if b ** a != q:
                raise _not_a_prime_power(q)
            return b, a
    steps = _Steps()
    p, a, k = q, 1, 2
    # take prime k-th roots while they are exact: every prime factor
    # exceeds 41 > 2^5, so a k-th power has k < bit_length / 5
    while k <= p.bit_length() // 5:
        r = _iroot(p, k, steps)
        if r ** k == p:
            p, a = r, a * k
        else:
            k = next(j for j in count(k + 1) if is_prime(j))
    if not is_prime(p, steps):
        raise _not_a_prime_power(q)
    return p, a


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
    """Exact division with remainder over Q.  The package itself divides
    only by monic integer divisors (`poly_quo_monic`); this is the general
    rational division for callers outside it."""
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


def _monic(a: list) -> list:
    """a, trimmed and checked to be monic; the integer kernels take its
    coefficients to be integers."""
    a = poly_trim(a)
    if not a or a[-1] != 1:
        raise ValueError("expected a monic integer polynomial")
    return a


def resultant(f: list, g: list) -> int:
    """Res(f, g) = lc(f)^deg g * prod g(alpha_i) over the roots of f, for
    integer polynomials: the determinant of their Sylvester matrix, by
    fraction-free elimination.  Never extracts roots.

    >>> resultant([-1, 0, 1], [-2, 1])   # g(1) g(-1)
    3
    """
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    fd, gd = f[::-1], g[::-1]
    rows = [[0] * i + fd + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * j + gd + [0] * (m - 1 - j) for j in range(m)]
    return bareiss_det(rows)


def power_sums(monic: list, n: int) -> list[int]:
    """Power sums p_1..p_n of the roots of a monic integer polynomial.  For
    t^d + c_{d-1} t^{d-1} + ... + c_0, Newton's identities read
    p_k = -(k c_{d-k} + sum_{0<i<k, i<=d} c_{d-i} p_{k-i}) (c_{d-k} = 0 for
    k > d): no division, so the sums stay integers."""
    m = _monic(monic)
    d = len(m) - 1
    ps: list[int] = []
    for k in range(1, n + 1):
        acc = k * m[d - k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            acc += m[d - i] * ps[k - i - 1]
        ps.append(-acc)
    return ps


def composed_product(u: list, v: list) -> list[int]:
    """Monic integer polynomial with root multiset {u_i * v_j}, for monic
    integer u and v.

    The power sums of the products are the termwise products of the power
    sums of u and v; Newton's identities turn them back into coefficients
    (Bostan, Flajolet, Salvy, Schost, "Fast computation of special
    resultants", JSC 2006).  Their division by k is exact: the coefficients
    are rational symmetric functions of algebraic integers, so integers
    (RuntimeError otherwise).
    """
    n = poly_deg(u) * poly_deg(v)
    ps = [a * b for a, b in zip(power_sums(u, n), power_sums(v, n))]
    # c[k]: coefficient of t^(n-k); k c[k] = -sum_{i=1..k} c[k-i] p_i
    c = [1]
    for k in range(1, n + 1):
        coef, rem = divmod(-sum(c[k - i] * ps[i - 1]
                                for i in range(1, k + 1)), k)
        if rem:
            raise RuntimeError("Newton's identities left a remainder: the"
                               " inputs are not monic integer polynomials")
        c.append(coef)
    return c[::-1]


def ratio_charpoly(p: list, q: list) -> list[int]:
    """Monic integer polynomial with root multiset {c * b_j / a_i}, a_i the
    roots of p, b_j of q, both monic integer, and c = p(0) nonzero.

    c / a_i is, up to sign, the product of the other roots of p, an
    algebraic integer, so no denominator appears.  No roots are ever
    materialized: the c / a_i are the roots of t^d + sum_{j<d} p_{d-j}
    c^{d-1-j} t^j (d = deg p), and the products come from power sums.
    `ratio_limit` reads the ratios b_j / a_i off it.

    >>> ratio_charpoly([-1, 1], [-9, 1])   # c = -1 scales the ratio 9
    [9, 1]
    """
    p, q = _monic(p), _monic(q)
    d = len(p) - 1
    if d == 0 or len(q) == 1:
        return [1]
    c = p[0]
    if c == 0:
        raise ValueError("the ratio polynomial needs p(0) != 0")
    inverse = [p[d - j] * c ** (d - 1 - j) for j in range(d)] + [1]
    return composed_product(inverse, q)


def ratio_limit(p: list, q: list) -> tuple[int, Fraction]:
    """(rho, N*) for monic integer p and q with p(0) != 0: rho pairs of
    roots with b_j = a_i, and N* = prod (1 - b_j / a_i) over the others.

    The scaled ratios s = c b_j / a_i of `ratio_charpoly` (c = p(0)) meet
    b_j = a_i exactly at s = c, so (rho, N*) is `strip_root` of the ratio
    polynomial at c: prod (1 - s / c) over the others.

    >>> ratio_limit([-1, 1], [-9, 1])   # the one pair: 1 - 9
    (0, Fraction(-8, 1))
    """
    if poly_deg(p) < 1 or poly_deg(q) < 1:
        return 0, Fraction(1)
    return strip_root(ratio_charpoly(p, q), poly_trim(p)[0])


def strip_root(cp: list, b: int) -> tuple[int, Fraction]:
    """(m, value) for a monic integer R(t) = prod (t - b_i) and a nonzero
    integer b: m is the multiplicity of the root b, and with R' = R / (t -
    b)^m over Z the value is R'(b) / b^deg R' = prod over b_i != b of
    (1 - b_i / b), one Fraction at the end.  So it is the leading value of
    prod (1 - b_i t) at t = 1/b, in the variable 1 - b t.

    >>> strip_root([2, -3, 1], 1)   # roots 1 and 2: (1, 1 - 2)
    (1, Fraction(-1, 1))
    """
    rest = _monic(cp)
    m = 0
    while len(rest) > 1 and poly_eval(rest, b) == 0:
        rest = poly_quo_monic(rest, [-b, 1])
        m += 1
    return m, Fraction(poly_eval(rest, b), b ** (len(rest) - 1))
