from __future__ import annotations

import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from frobext.exact import (
    PRIME_BOUND,
    RHO_STEPS,
    abs_at,
    composed_product,
    is_prime,
    poly_divmod,
    poly_eval,
    poly_gcd_monic,
    poly_mul,
    poly_quo_monic,
    poly_trim,
    power_sums,
    prime_factors,
    prime_power,
    ratio_charpoly,
    ratio_limit,
    resultant,
    round_fits,
    strip_root,
    valuation,
    _Steps,
    _iroot,
)

import fraction_poly as fq
from fraction_poly import poly_gcd, reversed_root_poly

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_primes = st.sampled_from([2, 3, 5, 7, 11, 13])


def test_valuation_basic():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(Fraction(5, 8), 2) == -3
    assert abs_at(2, Fraction(5, 8)) == 8
    assert abs_at(3, 0) == 0
    assert abs_at(7, 5) == 1


@given(small_primes, rationals, rationals)
def test_abs_multiplicative(p, x, y):
    assert abs_at(p, x * y) == abs_at(p, x) * abs_at(p, y)


@given(st.integers(min_value=1, max_value=10**6))
def test_product_formula(n):
    # |n| * prod_p |n|_p = 1 over the primes dividing n
    prod = Fraction(n)
    for p in prime_factors(n):
        prod *= abs_at(p, n)
    assert prod == 1


def _trial_is_prime(n: int) -> bool:
    """Trial division: the oracle for the Miller-Rabin test."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@settings(max_examples=500)
@given(st.one_of(st.integers(min_value=-5, max_value=3000),
                 st.integers(min_value=3000, max_value=10**9)))
def test_is_prime_vs_trial_division(n):
    assert is_prime(n) == _trial_is_prime(n)


@settings(max_examples=300)
@given(st.one_of(st.integers(min_value=0, max_value=2000),
                 st.integers(min_value=2, max_value=200).flatmap(
                     lambda p: st.tuples(st.just(p), st.integers(1, 12)))
                 .map(lambda t: t[0] ** t[1])))
def test_prime_power_vs_trial_division(q):
    fs = prime_factors(q) if q else []
    if len(fs) == 1:
        assert prime_power(q) == (fs[0], valuation(q, fs[0]))
    else:
        with pytest.raises(ValueError):
            prime_power(q)


def test_prime_powers_beyond_trial_division():
    p = 10**17 + 3
    assert prime_power(p) == (p, 1)
    assert prime_power(p ** 2) == (p, 2)
    assert prime_power(43 ** 5) == (43, 5)
    # a product of two 13-digit primes is no prime power
    with pytest.raises(ValueError, match="not a prime power"):
        prime_power((10**12 + 39) * (10**12 + 61))
    # strong pseudoprimes to the first 9 and first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)


def _trial_prime_factors(n: int) -> list[int]:
    """Trial division: the oracle for `prime_factors`."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(2, 2000), st.integers(10**5, 10**6)),
                min_size=1, max_size=4))
def test_prime_factors_vs_trial_division(factors):
    # products of small and six-digit factors, repeats included, so that
    # cofactors past the trial bound (squares too) reach the rho step
    n = 1
    for f in factors:
        n *= f
    assert prime_factors(n) == prime_factors(-n) == _trial_prime_factors(n)


def test_prime_factors_beyond_trial_division():
    assert prime_factors(2 * (10**9 + 7) * (10**9 + 9)) == \
        [2, 10**9 + 7, 10**9 + 9]
    assert prime_factors(7 * (10**6 + 3) ** 2 * 1009 ** 3) == [7, 1009, 10**6 + 3]
    assert prime_factors((10**11 + 3) * (10**11 + 19)) == [10**11 + 3, 10**11 + 19]
    # a probable prime above the cap is refused, as `is_prime` refuses it
    with pytest.raises(ValueError, match="certified only below"):
        prime_factors(6 * (2**89 - 1))


def test_rho_step_cap():
    # p^2 + p + 1 for p = 10^17 + 3 has the factor 30059956947127, which
    # rho splits off in about 16 million steps
    p = 10**17 + 3
    with pytest.raises(ValueError, match="cap of %d rho steps" % RHO_STEPS):
        prime_factors(p * p + p + 1)
    # below the cap: p^2 - 1 needs 55 thousand steps
    assert prime_factors(p * p - 1) == [2, 3, 7, 61, 20051, 65701, 594085421,
                                        1246820607451]


def test_rho_cap_is_charged_by_size():
    # a step on a number of b bits counts as 1 + (b/512)^2 steps, so the cap
    # bounds time on large numbers too: a 1886-bit product of two Mersenne
    # primes (about 13 µs a step) is refused after 143 thousand steps, where
    # the full 2 million took about 26 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap of %d rho steps" % RHO_STEPS):
        prime_factors((2**1279 - 1) * (2**607 - 1))
    assert time.perf_counter() - start < 10


def test_primality_cap():
    # the first strong pseudoprime to all 13 bases is the cap itself; a
    # probable prime at or above it is refused, a composite still answered
    with pytest.raises(ValueError, match="certified only below"):
        is_prime(PRIME_BOUND)
    with pytest.raises(ValueError, match="certified only below"):
        prime_power(2**89 - 1)
    assert not is_prime((2**61 - 1) * (2**31 - 1))


def _refused_at_once(call, says: str, n: int):
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        call()
    assert time.perf_counter() - start < 1
    msg = str(info.value)
    assert msg.startswith(says) and str(n)[:12] not in msg
    assert msg.endswith("the cap of %d rho steps" % RHO_STEPS)


def test_primality_rounds_are_charged():
    # a Miller-Rabin round on b bits is charged b steps of weight
    # 1 + b^2 // 512^2; one round on 8062 bits fits the cap, on 8063 not
    assert round_fits(8062) and not round_fits(8063)
    m = 2**11213 - 1  # prime: all 13 rounds would take about 37 s
    _refused_at_once(lambda: is_prime(m),
                     "a primality test of a 11213-bit number", m)
    # in a factorization the rounds share the budget with rho
    n = (2**4423 - 1) * (2**4253 - 1)
    _refused_at_once(lambda: prime_factors(3 * n),
                     "a primality test of a 8676-bit number", n)
    # a large composite is still recognized by its first round
    assert not is_prime((2**1279 - 1) * (2**607 - 1))


def test_prime_power_root_search_is_charged():
    # each k-th power of a root search is charged log2(k) steps of q's
    # size: the cap is spent before q = 10^4000 + 1 is tried against all
    # 384 prime exponents below 13288/5
    q = 10**4000 + 1
    _refused_at_once(lambda: prime_power(q),
                     "a prime power test of a 13288-bit number", q)
    p = 10**17 + 3
    assert prime_power(p ** 7) == (p, 7)
    # a root search started from q's leading bits takes a few powers; from
    # 2^(b/k) it took the whole cap on this 6100-bit q
    m = 2**61 - 1
    assert prime_power(m ** 100) == (m, 100)


@settings(max_examples=300)
@given(st.integers(1, 2**3000), st.integers(2, 1000))
def test_iroot_brackets_the_root(n, k):
    r = _iroot(n, k, _Steps())
    assert r ** k <= n < (r + 1) ** k


def test_integer_gcd_and_division():
    f = poly_mul(poly_mul([-1, 1], [-1, 1]), [5, -3, 1])  # (t-1)^2 (t^2-3t+5)
    assert poly_gcd_monic(f, [2, -4, 2]) == [1, -2, 1]     # 2(t-1)^2
    assert poly_gcd_monic(f, [7]) == [1]
    assert poly_quo_monic(f, [5, -3, 1]) == [1, -2, 1]
    with pytest.raises(RuntimeError, match="remainder"):
        poly_quo_monic(f, [2, 1])
    with pytest.raises(ValueError, match="monic"):
        poly_quo_monic(f, [2, 2])
    # the gcd of a non-monic input can be non-monic: the check raises
    with pytest.raises(RuntimeError, match="not monic"):
        poly_gcd_monic([1, 2], [3, 6])


def test_poly_divmod_roundtrip():
    a = [1, 0, -3, 1, 2]
    b = [1, 1]
    q, r = poly_divmod(a, b)
    assert poly_eval(poly_mul(q, b), 5) + poly_eval(r, 5) == poly_eval(a, 5)


def test_poly_gcd():
    # (t-1)^2 (t+2) and (t-1)(t+3)
    a = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])
    b = poly_mul([-1, 1], [3, 1])
    assert poly_gcd(a, b) == [Fraction(-1), Fraction(1)]


def test_resultant_values():
    # roots of t^2-1 are +-1; res = g(1) g(-1) for monic f
    assert resultant([-1, 0, 1], [-2, 1]) == 3
    assert resultant([-1, 0, 1], [-1, 1]) == 0
    # swap symmetry up to sign (-1)^(deg f deg g)
    f, g = [2, 0, 1], [-3, 1, 1]
    assert resultant(f, g) == resultant(g, f)  # deg f * deg g even


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(n)])


def _lagrange_composed_product(u: list, v: list) -> list:
    """Reference for composed_product by an independent route: the resultant
    Res_t(u(t), t^{deg v} v(x/t)) at deg u * deg v + 1 integer points x,
    followed by exact Lagrange interpolation."""
    du, dv = len(u) - 1, len(v) - 1
    n = du * dv
    if n == 0:
        return [Fraction(1)]
    xs = list(range(n + 1))
    ys = []
    for x0 in xs:
        # w(t) = t^dv * v(x0/t) = sum_m v_m x0^m t^(dv-m)
        w = [0] * (dv + 1)
        for m, vm in enumerate(v):
            w[dv - m] = vm * x0 ** m
        ys.append(resultant(u, poly_trim(w)))
    out = []
    for xi, yi in zip(xs, ys):
        term = [Fraction(yi)]
        for xj in xs:
            if xj != xi:
                term = poly_mul(term, [Fraction(-xj, xi - xj),
                                       Fraction(1, xi - xj)])
        out = _poly_add(out, term)
    return out + [Fraction(0)] * (n + 1 - len(out))


def test_composed_product_against_power_sums():
    u = [6, -5, 1]   # roots 2, 3
    v = [-2, -1, 1]  # roots 2, -1
    got = composed_product(u, v)
    # roots 4, -2, 6, -3
    expected = poly_mul(poly_mul([-4, 1], [2, 1]), poly_mul([-6, 1], [3, 1]))
    assert got == expected
    # power sums of the products are the products of the power sums
    n = 4
    assert power_sums(got, n) == [a * b for a, b in
                                  zip(power_sums(u, n), power_sums(v, n))]


monic_integer_polys = st.lists(st.integers(min_value=-6, max_value=6),
                               min_size=0, max_size=6).map(lambda c: c + [1])


@settings(max_examples=60, deadline=None)
@given(monic_integer_polys, monic_integer_polys)
def test_composed_product_random(u, v):
    # integer input, integer output: the Newton divisions are exact
    got = composed_product(u, v)
    assert len(got) == (len(u) - 1) * (len(v) - 1) + 1
    assert all(type(c) is int for c in got)
    assert got == _lagrange_composed_product(u, v)
    assert got == fq.composed_product(u, v)


def test_ratio_charpoly_examples():
    # single eigenvalue pair a=1, b=q^r; c = p(0) = -1 scales the ratio 9
    q, r = 3, 2
    assert ratio_charpoly([-1, 1], [-q**r, 1]) == [9, 1]
    assert ratio_limit([-1, 1], [-q**r, 1]) == (0, 1 - q**r)
    # roots {1,2} and {2}: ratios 2 and 1, scaled by c = 2 to 4 and 2
    p = poly_mul([-1, 1], [-2, 1])
    got = ratio_charpoly(p, [-2, 1])
    assert got == poly_mul([-4, 1], [-2, 1])
    assert ratio_limit(p, [-2, 1]) == (1, -1)


def test_ratio_charpoly_never_materializes_roots():
    # irrational eigenvalues: the scaled ratio polynomial is still integer
    p = [-1, -1, 1]  # golden ratio pair
    got = ratio_charpoly(p, p)
    # scaled ratios c * (1, 1, phi/psi, psi/phi) with c = p(0) = -1
    assert len(got) == 5 and got[-1] == 1
    assert all(type(c) is int for c in got)
    rho, lead = ratio_limit(p, p)
    assert rho == 2  # exactly the two equal-eigenvalue pairs
    # prod over ratios != 1 of (1 - r) = (1-phi/psi)(1-psi/phi) = 2 - (phi^2+psi^2)/(phi psi)
    assert lead == Fraction(2) - Fraction(3, -1)


def test_strip_root():
    # (t-1)(t-2) at 1: one root stripped, then 1 - 2
    assert strip_root([2, -3, 1], 1) == (1, -1)
    assert strip_root([-1, 1], 1) == (1, 1)
    assert strip_root([2, 1], 1) == (0, 3)
    # at b = q^r the value is prod (1 - b_i / b): (t-3)^2 (t-1) at 3
    cubic = poly_mul(poly_mul([-3, 1], [-3, 1]), [-1, 1])
    assert strip_root(cubic, 3) == (2, Fraction(2, 3))
    assert strip_root([-9, 1], 3) == (0, -2)
    assert strip_root([1], 5) == (0, 1)
    _, lead = strip_root([2, -3, 1], 1)
    assert type(lead) is Fraction


def test_reversed_root_poly():
    # roots 2,3 -> roots 1/2,1/3
    p = [6, -5, 1]
    rev = reversed_root_poly(p)
    assert poly_eval(rev, Fraction(1, 2)) == 0
    assert poly_eval(rev, Fraction(1, 3)) == 0


def test_power_sums():
    assert power_sums([6, -5, 1], 3) == [5, 13, 35]


# ---------------------------------------------------------------------------
# the integer kernels against the rational routes they replaced


integer_polys = st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=1, max_size=6).map(poly_trim)


@settings(max_examples=200, deadline=None)
@given(monic_integer_polys, st.integers(min_value=0, max_value=12))
def test_power_sums_vs_fraction(m, n):
    got = power_sums(m, n)
    assert all(type(x) is int for x in got)
    assert got == fq.power_sums(m, n)


@settings(max_examples=300, deadline=None)
@given(integer_polys, integer_polys)
def test_resultant_vs_fraction_euclid(f, g):
    # any integer inputs, leading coefficients other than 1 included
    got = resultant(f, g)
    assert type(got) is int
    assert got == fq.resultant(f, g)


monic_nonzero_constant = monic_integer_polys.filter(lambda c: c[0] != 0)


@settings(max_examples=200, deadline=None)
@given(monic_nonzero_constant, monic_integer_polys)
def test_ratio_charpoly_vs_fraction_route(p, q):
    # the integer polynomial is the rational ratio polynomial with its
    # roots scaled by c = p(0), and (rho, N*) agree with the rational route
    got = ratio_charpoly(p, q)
    assert all(type(x) is int for x in got)
    rational = fq.ratio_charpoly(p, q)
    n, c = len(got) - 1, p[0]
    assert len(rational) == n + 1
    assert [Fraction(x, c ** (n - k)) for k, x in enumerate(got)] == rational
    assert ratio_limit(p, q) == fq.ratio_limit(p, q)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=0,
                max_size=5), st.sampled_from([1, 1, 2, 3, -2]))
def test_strip_root_vs_fraction(roots, b):
    # prod (t - c) with repeated roots b among the c, against the rational
    # leading value of prod (1 - (c/b) t) at t = 1
    monic = [1]
    for c in roots:
        monic = poly_mul(monic, [-c, 1])
    scaled = [Fraction(c, b ** k) for k, c in enumerate(monic[::-1])]
    got = strip_root(monic, b)
    assert got == fq.limit_leading(scaled)
    assert got[0] == roots.count(b)


def test_integer_kernels_refuse_other_input():
    for bad in ([2, 2], [1, 3], []):  # leading 2 or 3, or zero
        with pytest.raises(ValueError, match="monic"):
            power_sums(bad, 2)
    with pytest.raises(ValueError, match="p\\(0\\)"):
        ratio_charpoly([0, 1], [-2, 1])
    # a non-integer monic input leaves a remainder in Newton's identities
    with pytest.raises(RuntimeError, match="remainder"):
        composed_product([Fraction(1, 2), 0, 1], [-1, 1])
