import json
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobext.exact import (
    composed_product,
    poly_deg,
    poly_deriv,
    poly_divmod,
    poly_eval,
    poly_gcd_monic,
    poly_mul,
)
from frobext.zeta import (
    MAX_CURVE_PRIME,
    _spec_betti,
    _squarefree_split,
    _weierstrass_long,
    chi_coherent,
    elliptic_curve,
    elliptic_point_count,
    motivic_cohomology,
    point_count,
    product,
    projective_space,
    variety_from_spec,
    verify_variety_identity,
    zeta_special_value,
)

from fraction_poly import poly_gcd, poly_int, poly_monic
from point_count_oracle import euler_point_count


def brute_point_count(p: int, coefficients) -> int:
    """#E(F_p) over all p^2 pairs (x, y), plus the point at infinity: the
    oracle for the Euler-criterion count (no singularity check)."""
    a1, a2, a3, a4, a6 = _weierstrass_long(coefficients)
    n = 1
    for x in range(p):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % p
        lin = (a1 * x + a3) % p
        for y in range(p):
            if (y * y + lin * y - rhs) % p == 0:
                n += 1
    return n


def squarefree_split_fraction(f) -> list:
    """The squarefree split over Q with Fraction division and gcds: the
    oracle for the integer split."""
    f = poly_monic(f)
    if poly_deg(f) == 0:
        return []
    a = poly_gcd(f, poly_deriv(f))
    b = poly_divmod(f, a)[0]
    out = []
    mult = 1
    while poly_deg(b) > 0:
        c = poly_gcd(a, b)
        piece = poly_divmod(b, c)[0]
        if poly_deg(piece) > 0:
            out.append((poly_int(piece), mult))
        b = c
        a = poly_divmod(a, c)[0]
        mult += 1
    return out


def test_projective_space_polys():
    v = projective_space(4, 2)
    assert v.pieces == [[([-1, 1], 1)], [], [([-4, 1], 1)], [],
                        [([-16, 1], 1)]]
    assert v.hodge == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_point_counts():
    assert point_count(projective_space(3, 1)) == 4
    assert point_count(projective_space(3, 2)) == 13
    assert point_count(projective_space(2, 3)) == 15
    # #P^n(F_{q^m}) = (q^m(n+1) - 1)/(q^m - 1)
    assert point_count(projective_space(2, 2), 3) == (8 ** 3 - 1) // 7


def test_elliptic_point_count_brute_force():
    # y^2 = x^3 + x + 1 over F_5 has 9 points
    assert elliptic_point_count(5, [1, 1]) == 9
    # char-2 curve needs the long Weierstrass form: y^2 + xy = x^3 + 1
    assert elliptic_point_count(2, [1, 0, 0, 0, 1]) == 4
    with pytest.raises(ValueError):
        elliptic_point_count(5, [0, 0])  # singular: y^2 = x^3
    with pytest.raises(ValueError):
        elliptic_curve(4, [1, 1])  # prime fields only


def test_zeta_descriptor_vs_brute_count():
    for p, coeffs in [(5, [1, 1]), (7, [2, 3]), (11, [1, 5]), (13, [4, 1]),
                      (3, [1, 2]), (2, [1, 0, 0, 0, 1])]:
        v = elliptic_curve(p, coeffs)
        assert point_count(v) == brute_point_count(p, coeffs)
        t = p + 1 - point_count(v)
        assert v.pieces[1] == [([p, -t, 1], 1)]


coefficient = st.integers(min_value=-200, max_value=200)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 97]), st.booleans(),
       st.lists(coefficient, min_size=5, max_size=5))
def test_euler_count_vs_brute_force(p, long_form, coeffs):
    coeffs = coeffs if long_form else coeffs[3:]
    try:
        n = elliptic_point_count(p, coeffs)
    except ValueError:
        # rejected exactly when the discriminant vanishes mod p: the curve
        # then has a singular point, where both partial derivatives vanish
        a1, a2, a3, a4, a6 = _weierstrass_long(coeffs)
        assert any((2 * y + a1 * x + a3) % p == 0
                   and (3 * x * x + 2 * a2 * x + a4 - a1 * y) % p == 0
                   and (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x
                        - a4 * x - a6) % p == 0
                   for x in range(p) for y in range(p))
        return
    assert n == brute_point_count(p, coeffs)


PRIMES_BELOW_10_4 = [p for p in range(2, 10 ** 4)
                     if all(p % d for d in range(2, isqrt(p) + 1))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(PRIMES_BELOW_10_4), st.booleans(), st.booleans(),
       st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=5, max_size=5))
@example(2, True, False, [1, 0, 0, 0, 1])
@example(2, False, True, [1, 0, 0, 0, 0])
@example(3, True, False, [1, 2, 0, 1, 2])
@example(3, False, True, [1, 0, 0, 0, 0])
# the last prime on Euler's count: over F_229 no point of y^2 = x^3 + 1 or
# of its twist has an order with one multiple in the Hasse interval
@example(229, False, False, [0, 0, 0, 0, 1])
@example(229, True, True, [5, 0, 0, 0, 0])
@example(233, False, False, [0, 0, 0, 1, 3])   # the first on Mestre's
@example(233, True, False, [1, -1, 1, -1, 1])
@example(233, False, False, [0, 0, 0, 24, 120])  # nine points before #E is fixed
@example(233, False, True, [7, 0, 0, 0, 0])
def test_point_count_vs_the_euler_oracle(p, long_form, singular, coeffs):
    # short and long forms at every prime below 10^4, on both sides of 229;
    # y^2 = x^3 - 3c^2 x + 2c^3 = (x - c)^2 (x + 2c) is singular mod every p
    if singular:
        c = coeffs[0]
        coeffs = [0, 0, 0, -3 * c * c, 2 * c ** 3]
    coeffs = coeffs if long_form else coeffs[3:]
    try:
        want = euler_point_count(p, coeffs)
    except ValueError as refused:
        with pytest.raises(ValueError) as got:
            elliptic_point_count(p, coeffs)
        assert str(got.value) == str(refused)
        return
    assert elliptic_point_count(p, coeffs) == want


def test_point_count_at_a_five_digit_prime():
    start = time.perf_counter()
    n = elliptic_point_count(10007, [1, 3])
    assert time.perf_counter() - start < 5
    assert (10007 + 1 - n) ** 2 <= 4 * 10007


def _products(p: int, draws):
    """Monic integer polynomials of the shape `zeta.product` splits: a
    product of composed products of Lefschetz and h^1-type factors."""
    lefschetz = [[-p ** k, 1] for k in range(3)]
    weil = [[p, -t, 1] for t in range(-2, 3) if t * t < 4 * p]
    factors = lefschetz + weil + [[p * p, -t * p, 1] for t in (-1, 0, 1)]
    acc = [1]
    for i, j in draws:
        u, v = factors[i % len(factors)], factors[j % len(factors)]
        acc = poly_mul(acc, poly_int(composed_product(u, v)))
    return acc


def special_value_fraction(polys: list, q: int, r: int):
    """Order and leading coefficient at s = r by Fraction division of each
    P_j by 1 - q^r t and evaluation at t = q^-r: the oracle for the
    integer strip on the monic reversal."""
    b = q ** r
    order, lead = 0, Fraction(1)
    for j, pj in enumerate(polys):
        sign = 1 if j % 2 else -1
        rest, m = [Fraction(c) for c in pj], 0
        while poly_deg(rest) > 0 and poly_eval(rest, Fraction(1, b)) == 0:
            rest = poly_divmod(rest, [1, -b])[0]
            m += 1
        order += sign * m
        lead *= poly_eval(rest, Fraction(1, b)) ** sign
    return order, lead


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                min_size=1, max_size=3),
       st.lists(st.integers(1, 3), max_size=2), st.integers(0, 3))
def test_integer_special_value_vs_fraction(p, draws, mults, r):
    # the integer squarefree split against the Fraction one; then pieces
    # with multiplicities, each stripped of its root q^r on integers,
    # against Fraction division of their expansion P_j
    f = _products(p, draws)
    split = _squarefree_split(f)
    assert split == squarefree_split_fraction(f)
    assert all(all(isinstance(c, int) for c in g) for g, _ in split)
    g = poly_deriv(f)
    assert poly_gcd_monic(f, g) == poly_int(poly_gcd(f, g))
    pieces = [(g, m) for (g, _), m in zip(split, mults + [1] * 8)]
    expanded = [1]
    for g, m in pieces:
        for _ in range(m):
            expanded = poly_mul(expanded, list(reversed(g)))
    v = projective_space(p, 1)
    v.pieces = [pieces, [([-p, 1], 1)], pieces]
    assert zeta_special_value(v, r) == special_value_fraction(
        [expanded, [1, -p], expanded], p, r)


def test_curve_prime_cap():
    # refused at once above the cap, with the cap in the message: the first
    # prime past it and one far past it
    start = time.perf_counter()
    for p in (MAX_CURVE_PRIME + 37, 10**18 + 3):
        with pytest.raises(ValueError, match="cap of %d" % MAX_CURVE_PRIME):
            elliptic_point_count(p, [1, 3])
        with pytest.raises(ValueError, match="cap"):
            elliptic_curve(p, [1, 3])
    assert time.perf_counter() - start < 1


def test_product_of_several_factors():
    # the factors multiply in turn
    e, line = elliptic_curve(5, [1, 1]), projective_space(5, 1)
    flat, folded = product(e, line, e), product(product(e, line), e)
    for field in ("dimension", "hodge", "pieces"):
        assert getattr(flat, field) == getattr(folded, field)
    curve = {"kind": "elliptic_curve", "q": 5, "coefficients": [1, 1]}
    spec = {"kind": "product", "factors": [
        curve, {"kind": "projective_space", "q": 5, "dimension": 1}, curve]}
    assert variety_from_spec(spec).pieces == flat.pieces


def test_spec_caps(monkeypatch):
    from frobext import zeta
    from frobext.zeta import (MAX_BETTI, MAX_DIMENSION, MAX_WEIL_BITS,
                              _check_size)

    def weil_bits(q, betti):
        # each P_j has b_j + 1 coefficients below 2^b_j q^(j b_j / 2)
        return sum((b + 1) * (b + j * b * q.bit_length() / 2)
                   for j, b in enumerate(betti))

    # at the caps, and one past each
    _check_size(2, [1, 0] * MAX_DIMENSION + [1])
    with pytest.raises(ValueError, match="cap of %d" % MAX_DIMENSION):
        _check_size(2, [1, 0] * (MAX_DIMENSION + 1) + [1])
    _check_size(2, [MAX_BETTI])
    with pytest.raises(ValueError, match="cap of %d" % MAX_BETTI):
        _check_size(2, [MAX_BETTI + 1])
    # (P^1)^11: its Weil polynomials pass the cap over F_q up to 25 bits
    betti = [1]
    for _ in range(11):
        betti = poly_mul(betti, [1, 0, 1])
    _check_size(33554393, betti)                 # 25 bits
    assert weil_bits(33554393, betti) <= MAX_WEIL_BITS
    with pytest.raises(ValueError, match="cap of %d" % MAX_WEIL_BITS):
        _check_size(67108859, betti)             # 26 bits
    assert weil_bits(67108859, betti) > MAX_WEIL_BITS
    # read off the spec alone: a product's Betti numbers are its factors'
    # convolved, and each curve is held to the cap on its own
    p = 999999999999989                          # the last prime below 10^15
    e = {"kind": "elliptic_curve", "q": p, "coefficients": [1, 3]}
    q, betti = _spec_betti({"kind": "product", "factors": [
        e, dict(e, coefficients=[2, 3]),
        {"kind": "projective_space", "q": p, "dimension": 1}]}, "variety")
    assert (q, sum(betti), len(betti)) == (p, 32, 7)
    # a curve that recurs is built and counted once
    counted = []
    monkeypatch.setattr(zeta, "elliptic_point_count", lambda p, c: (
        counted.append(p), elliptic_point_count(p, c))[1])
    variety_from_spec({"kind": "product", "factors": [e, e]})
    assert counted == [p]
    # a curve over the first prime past the cap, alone or as one factor of
    # a product, is refused uncounted
    start = time.perf_counter()
    above = dict(e, q=MAX_CURVE_PRIME + 37)
    for spec in (above, {"kind": "product", "factors": [above, above]}):
        with pytest.raises(ValueError, match="cap of %d" % MAX_CURVE_PRIME):
            variety_from_spec(spec)
    assert time.perf_counter() - start < 0.5
    assert counted == [p]


def test_special_value_anchors():
    assert zeta_special_value(projective_space(4, 1), 1) \
        == (-1, Fraction(4, 3))
    assert zeta_special_value(projective_space(2, 1), 0) \
        == (-1, Fraction(-1))
    order, lead = zeta_special_value(elliptic_curve(5, [1, 1]), 0)
    assert (order, abs(lead)) == (-1, Fraction(9, 4))


def test_chi_coherent():
    assert chi_coherent(projective_space(4, 1), 1) == 1
    assert chi_coherent(projective_space(4, 2), 1) == 1
    assert chi_coherent(elliptic_curve(5, [1, 1]), 0) == 0
    assert chi_coherent(projective_space(4, 1), 0) == 0


def test_product_kunneth():
    pp = product(projective_space(4, 1), projective_space(4, 1))
    assert pp.pieces == [[([-1, 1], 1)], [], [([-4, 1], 2)], [],
                         [([-16, 1], 1)]]
    assert pp.hodge[1][1] == 2  # h^11 of P1 x P1
    assert point_count(pp) == point_count(projective_space(4, 1)) ** 2


def test_motivic_ranks_p1():
    rep = motivic_cohomology(projective_space(4, 1), 1)
    assert rep.ranks == [0, 0, 1, 1, 0]
    assert rep.euler_rank == 0 and rep.vanishing_order == -1
    assert rep.chi_times == Fraction(1, 3) and rep.chi_o == 1


def test_identity_catalogue():
    for q in (2, 3, 4, 5):
        for r in (0, 1):
            for v in (projective_space(q, 1), projective_space(q, 2),
                      product(projective_space(q, 1),
                              projective_space(q, 1))):
                out = verify_variety_identity(v, r)
                assert out["equal"], (v.kind, q, r, out)


def test_identity_elliptic():
    out = verify_variety_identity(elliptic_curve(5, [1, 1]), 0)
    assert out["equal"] and out["order"] == -1
    assert out["chi_times"] == Fraction(9, 4) and out["chi_o"] == 0


def test_supersingular_square_over_f7():
    # y^2 = x^3 + x over F_7 has trace 0, so H^1 ⊗ H^1 of E x E gives the
    # piece t^2 - 49 twice, kept whole; the Ext side splits t - 7 off it
    # only at r = 1, where it would share 7 with L^1
    e = elliptic_curve(7, [1, 0])
    v = product(e, e)
    assert v.pieces[1] == [([7, 0, 1], 2)]
    assert v.pieces[2] == [([-49, 0, 1], 2), ([-7, 1], 2)]
    for r, order, leading, ranks in (
            (0, -1, Fraction(-1849, 972), [1, 1, 0, 0, 0, 0, 0]),
            (1, -4, Fraction(-256, 63), [0, 0, 4, 4, 0, 0, 0]),
            (2, -1, Fraction(1849, 972), [0, 0, 0, 0, 1, 1, 0])):
        out = verify_variety_identity(v, r)
        assert out["equal"]
        assert (out["order"], out["leading"], out["ranks"]) \
            == (order, leading, ranks)
    h2 = [(d["charpoly"], d["multiplicity"]) for d in
          motivic_cohomology(v, 1).pieces if d["degree"] == 2]
    assert h2 == [([-7, 1], 2), ([7, 1], 2), ([-7, 1], 2)]


def test_chi_times_formula_p2():
    # 1/(q-1)^2 for the plane at r = 1
    for q in (2, 3, 4, 5):
        out = verify_variety_identity(projective_space(q, 2), 1)
        assert out["chi_times"] == Fraction(1, (q - 1) ** 2)


def test_json_roundtrip():
    pp = product(projective_space(4, 1), projective_space(4, 2))
    again = variety_from_spec(json.loads(
        '{"kind": "product", "factors": [{"kind": "projective_space", "q": 4,'
        ' "dimension": 1}, {"kind": "projective_space", "q": 4,'
        ' "dimension": 2}]}'))
    assert (again.kind, again.q, again.dimension) == ("product", 4, 3)
    assert again.pieces == pp.pieces and again.hodge == pp.hodge
    with pytest.raises(ValueError):
        variety_from_spec(json.loads('{"kind": "abelian_surface", "q": 5}'))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
def test_random_curves_verify(p, a4, a6):
    try:
        v = elliptic_curve(p, [a4, a6])
    except ValueError:
        return  # singular choice
    out = verify_variety_identity(v, 0)
    assert out["equal"]
    n = point_count(v)
    assert (p + 1 - n) ** 2 <= 4 * p


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2))
def test_projective_identity_random(q, n, r):
    out = verify_variety_identity(projective_space(q, n), r)
    assert out["equal"]
