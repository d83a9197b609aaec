"""Differential tests against sympy, an independent implementation of the
same integer algebra: resultants, composed products and ratio polynomials,
polynomial gcds, characteristic polynomials, Smith normal forms and
elliptic-curve point counts.

sympy is a test-only dependency (frobext's runtime is the standard
library); these tests are skipped where it is not installed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.ntheory import sqrt_mod  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

from frobext.exact import (  # noqa: E402
    composed_product,
    poly_gcd_monic,
    poly_mul,
    poly_trim,
    ratio_charpoly,
    resultant,
)
from frobext.linalg import charpoly, smith_normal_form  # noqa: E402
from frobext.zeta import _weierstrass_long, elliptic_point_count  # noqa: E402

X, Y = sympy.symbols("x y")


def _sym(c: list, var=X):
    """A sympy expression from ascending integer coefficients."""
    return sum(int(a) * var ** k for k, a in enumerate(c))


def _coeffs(expr, var=X) -> list:
    """Ascending integer coefficients of a sympy polynomial in var."""
    coeffs = sympy.Poly(expr, var).all_coeffs()[::-1]
    assert all(a.is_integer for a in coeffs)
    return poly_trim([int(a) for a in coeffs])


integer_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6) \
    .map(poly_trim).filter(bool)
monic_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4) \
    .map(lambda c: c + [1])


@settings(max_examples=150, deadline=None)
@given(integer_polys, integer_polys)
def test_resultant_vs_sympy(f, g):
    got = resultant(f, g)
    if len(f) == 1 and len(g) == 1:
        assert got == 1  # lc^0 for two constants
        return
    # sympy's Sylvester matrix and determinant give the value; its
    # subresultant `resultant` is compared up to sign, because sympy 1.14
    # returns 8 for Res(x + 2, x^3), where lc(f)^3 g(-2) = -8
    assert got == sylvester(_sym(f), _sym(g), X).det()
    assert abs(got) == abs(sympy.resultant(_sym(f), _sym(g), X))


@settings(max_examples=100, deadline=None)
@given(monic_polys, monic_polys)
def test_composed_product_vs_sympy(u, v):
    # Res_y(u(y), y^dv v(x/y)) = prod over the roots a of u of
    # prod over the roots b of v of (x - a b), for monic u and v
    # (made monic: see the sign note on the resultant test)
    dv = len(v) - 1
    w = sympy.expand(Y ** dv * _sym(v).subs(X, X / Y))
    expected = sympy.Poly(sympy.resultant(_sym(u, Y), w, Y), X).monic()
    assert composed_product(u, v) == _coeffs(expected.as_expr())


@settings(max_examples=100, deadline=None)
@given(monic_polys.filter(lambda c: c[0] != 0), monic_polys)
def test_ratio_charpoly_vs_sympy(p, q):
    # with c = p(0): Res_y(p(y), c^dq q(x y / c)) = prod_i prod_j
    # (x a_i - c b_j), the polynomial of the c b_j / a_i up to a constant
    dq, c = len(q) - 1, p[0]
    if len(p) == 1 or dq == 0:
        assert ratio_charpoly(p, q) == [1]
        return
    f = sympy.expand(sum(b * c ** (dq - k) * (X * Y) ** k
                         for k, b in enumerate(q)))
    expected = sympy.Poly(sympy.resultant(_sym(p, Y), f, Y), X).monic()
    assert ratio_charpoly(p, q) == _coeffs(expected.as_expr())


@settings(max_examples=150, deadline=None)
@given(monic_polys, integer_polys, monic_polys)
def test_gcd_vs_sympy(a, b, common):
    # inputs sharing a monic factor, so that the gcd is not always 1
    a, b = poly_mul(a, common), poly_mul(b, common)
    expected = sympy.Poly(sympy.gcd(_sym(a), _sym(b)), X).monic()
    assert poly_gcd_monic(a, b) == _coeffs(expected.as_expr())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.data())
def test_charpoly_vs_sympy(n, data):
    a = [[data.draw(st.integers(-20, 20)) for _ in range(n)]
         for _ in range(n)]
    expected = sympy.Matrix(a).charpoly(X).all_coeffs()[::-1]
    assert charpoly(a) == [int(c) for c in expected]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_diagonal_vs_sympy(m, n, data):
    a = [[data.draw(st.integers(-20, 20)) for _ in range(n)]
         for _ in range(m)]
    got = [abs(d) for d in smith_normal_form(a).diagonal]
    expected = [abs(int(d)) for d in
                invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)]
    expected += [0] * (min(m, n) - len(expected))
    order = lambda d: (d == 0, d)  # noqa: E731
    assert sorted(got, key=order) == sorted(expected, key=order)


def _sympy_point_count(p: int, coefficients) -> int:
    """#E(F_p) from sympy's modular square roots: y^2 + b y = c has as many
    solutions as b^2 + 4c has square roots mod p, for odd p."""
    a1, a2, a3, a4, a6 = _weierstrass_long(coefficients)
    n = 1
    for x in range(p):
        b = a1 * x + a3
        c = x ** 3 + a2 * x * x + a4 * x + a6
        n += len(sqrt_mod((b * b + 4 * c) % p, p, all_roots=True))
    return n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13, 101, 997]), st.booleans(),
       st.lists(st.integers(0, 996), min_size=5, max_size=5))
def test_point_count_vs_sympy(p, long_form, coeffs):
    coeffs = coeffs if long_form else coeffs[3:]
    try:
        n = elliptic_point_count(p, coeffs)
    except ValueError:  # singular mod p
        return
    assert n == _sympy_point_count(p, coeffs)
