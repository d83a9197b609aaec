from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from frobext.exact import ratio_limit
from frobext.galois import GaloisModule
from frobext.linalg import companion
from frobext.motive import (
    Motive,
    elliptic_motive,
    global_ext_orders,
    hom_motives,
    lefschetz_motive,
    motive_from_json,
    newton_slopes,
    unit_motive,
    verify_global_identity,
    verify_weil_identity,
    weil_ext,
)


def test_motive_validation():
    with pytest.raises(ValueError):
        Motive(5, [5, 1, 1, 0])  # not monic
    with pytest.raises(ValueError):
        Motive(5, [6, 1])  # constant term not a power of 5
    with pytest.raises(ValueError):
        Motive(5, [0, 1])  # Frobenius eigenvalue zero
    with pytest.raises(ValueError):
        Motive(5, [25, -10, 1])  # (t-5)^2 has a repeated eigenvalue
    with pytest.raises(ValueError):
        Motive(5, [-1, 1], exceptional={5: GaloisModule(5, 6, [[1]])})
    with pytest.raises(ValueError):
        # exceptional free part must be the standard companion lattice
        Motive(5, [5, 3, 1], exceptional={
            2: GaloisModule(2, 5, [[0, -5], [-1, -3]])})
    m = Motive(5, [5, 3, 1])
    assert m.rank == 2 and m.p == 5 and m.a == 1


def test_newton_slopes():
    assert newton_slopes([-1, 1], 5, 1) == [0]
    assert newton_slopes([-5, 1], 5, 1) == [1]
    assert newton_slopes([5, -6, 1], 5, 1) == [0, 1]
    assert newton_slopes([7, 0, 1], 7, 1) == [Fraction(1, 2), Fraction(1, 2)]
    assert newton_slopes([4, 0, 1], 2, 2) == [Fraction(1, 2), Fraction(1, 2)]


def test_constructors_and_slopes():
    assert unit_motive(9).slopes() == [0]
    assert lefschetz_motive(7, 2).charpoly == [-49, 1]
    assert elliptic_motive(5, -3).slopes() == [0, 1]  # ordinary
    assert elliptic_motive(7, 0).slopes() == [Fraction(1, 2)] * 2
    with pytest.raises(ValueError):
        elliptic_motive(5, 5)  # |trace| beyond the Weil bound
    with pytest.raises(ValueError, match="declared slopes disagree"):
        motive_from_json('{"q": 5, "charpoly": [5, 3, 1],'
                         ' "crystal": {"slopes": [0, 0]}}')
    # declared slopes are integers, fractions or decimals (no exponent)
    for slopes in ('[0, 1]', '["0", "1/1"]', '["0.0", "1"]'):
        motive_from_json('{"q": 5, "charpoly": [5, -6, 1],'
                         ' "crystal": {"slopes": %s}}' % slopes)
    motive_from_json('{"q": 7, "charpoly": [7, 0, 1],'
                     ' "crystal": {"slopes": ["1/2", "0.5"]}}')


def test_hom_rank():
    z, l = unit_motive(5), lefschetz_motive(5)
    e = elliptic_motive(5, -3)
    assert hom_motives(z, z) == ([[[1]]], 1)
    assert hom_motives(z, l)[1] == 0
    assert hom_motives(l, e)[1] == 0
    basis, rho = hom_motives(e, e)
    assert rho == 2  # the commutant of the companion matrix is Z[F]


def test_trace_discriminant_elliptic():
    # basis {1, F}: |det [[2, t], [t, t^2 - 2q]]| = |t^2 - 4q|
    for q, t in [(5, -3), (7, 2), (11, 0), (13, 4)]:
        e = elliptic_motive(q, t)
        assert global_ext_orders(e, e).discriminant == abs(t * t - 4 * q)
    assert global_ext_orders(unit_motive(5),
                             lefschetz_motive(5)).discriminant == 1


def test_ext1_unit_to_lefschetz_powers():
    # the group of extensions of the unit by the r-th Lefschetz power is
    # cyclic of order q^r - 1
    for q, r, want in [(2, 1, 1), (2, 2, 3), (3, 1, 2), (3, 2, 8),
                       (4, 1, 3), (5, 3, 124), (7, 2, 48)]:
        rep = global_ext_orders(unit_motive(q), lefschetz_motive(q, r))
        assert rep.ext1_order == want == q ** r - 1
        assert rep.ext2_cotors_order == 1 and rep.hom_tors_order == 1
        assert weil_ext(unit_motive(q), lefschetz_motive(q, r)).ext1_torsion \
            == want


def test_ext1_counts_rational_points():
    # Ext^1(1, h1 E) and Ext^1(h1 E, 1) both have order |E(F_q)| = q + 1 - t
    for q, t in [(5, -3), (7, 2), (3, -1), (13, 4), (2, -1), (9, 3)]:
        e, z = elliptic_motive(q, t), unit_motive(q)
        assert global_ext_orders(z, e).ext1_order == q + 1 - t
        assert global_ext_orders(e, z).ext1_order == q + 1 - t


def _pairs(q, t):
    z, l, e = unit_motive(q), lefschetz_motive(q), elliptic_motive(q, t)
    l2 = lefschetz_motive(q, 2)
    return [(z, z), (z, l), (l, l), (z, l2), (l, l2), (z, e), (e, z),
            (e, e), (e, l), (l, e)]


def test_global_identity_catalogue():
    for q, t in [(5, -3), (7, 2)]:
        for x, y in _pairs(q, t):
            out = verify_global_identity(x, y)
            assert out["equal"], (q, x.charpoly, y.charpoly, out)
            assert out["duality_ok"]


def test_weil_identity_catalogue():
    for q, t in [(5, -3), (7, 2)]:
        for x, y in _pairs(q, t):
            out = verify_weil_identity(x, y)
            assert out["equal"], (q, x.charpoly, y.charpoly, out)
            assert out["lhs"] == out["rhs"]


def test_weil_report_shapes():
    z, l = unit_motive(5), lefschetz_motive(5)
    r = weil_ext(z, z)
    assert (r.ext0_rank, r.ext0_torsion, r.ext1_rank, r.ext1_torsion,
            r.ext2_order) == (1, 1, 1, 1, 1)
    assert r.z_f == 1
    r = weil_ext(z, l)
    assert (r.ext0_rank, r.ext1_rank) == (0, 0)
    assert r.ext1_torsion == 4 and r.z_f == Fraction(1, 4)
    e = elliptic_motive(5, -3)
    r = weil_ext(e, e)
    assert (r.ext0_rank, r.ext1_rank) == (2, 2)
    assert r.z_f == Fraction(1, 55)  # q^chi |N*| = 55 balances it


def test_elliptic_self_pair_orders():
    # lhs = q^2 |N*| = q (4q - t^2)/q * q = 55 at q=5, t=-3; D = 11
    e = elliptic_motive(5, -3)
    out = verify_global_identity(e, e)
    assert out["lhs"] == 55 and out["discriminant"] == 11
    assert out["ext1_order"] == 5 and out["equal"]


def test_chi_conventions_reported():
    e, l = elliptic_motive(5, -3), lefschetz_motive(5)
    out = verify_global_identity(e, l)
    assert out["chi"] == e.slope_sum() * l.rank == 1
    assert out["chi_statement"] == Fraction(e.rank) * l.slope_sum() == 2


def test_torsion_motives():
    q = 5
    z = unit_motive(q)
    t3 = Motive(q, [1], exceptional={3: GaloisModule(3, q, None, (3,), [[1]])})
    t9 = Motive(q, [1], exceptional={3: GaloisModule(3, q, None, (9,), [[4]])})
    rep = global_ext_orders(t3, z)
    assert (rep.hom_tors_order, rep.ext1_order, rep.ext2_cotors_order) \
        == (1, 3, 3)
    rep = global_ext_orders(z, t3)
    assert (rep.hom_tors_order, rep.ext1_order, rep.ext2_cotors_order) \
        == (3, 3, 1)
    for x, y in [(t3, z), (z, t3), (t3, t3), (t9, z), (z, t9), (t9, t3)]:
        assert verify_global_identity(x, y)["equal"]
        assert verify_global_identity(x, y)["duality_ok"]
        assert verify_weil_identity(x, y)["equal"]


def test_torsion_decorated_free_motive():
    q = 5
    cp = [5, 3, 1]
    ed = Motive(q, cp, exceptional={
        2: GaloisModule(2, q, companion(cp), (2,), [[1]])})
    z = unit_motive(q)
    for x, y in [(z, ed), (ed, z), (ed, ed)]:
        assert verify_global_identity(x, y)["equal"]
        assert verify_weil_identity(x, y)["equal"]


def test_extension_fields():
    for q, t in [(4, 1), (9, 3)]:
        z, l, e = unit_motive(q), lefschetz_motive(q), elliptic_motive(q, t)
        for x, y in [(z, z), (z, l), (l, l), (z, e), (e, e)]:
            assert verify_global_identity(x, y)["equal"]
            assert verify_weil_identity(x, y)["equal"]
        assert global_ext_orders(z, e).ext1_order == q + 1 - t


def test_twist_covariance():
    # twisting multiplies every eigenvalue by q^r; the rebuilt report at the
    # twisted pair equals the report computed from the twisted charpoly
    e, z = elliptic_motive(5, -3), unit_motive(5)
    t = e.twisted(1)
    assert t.charpoly == [125, 15, 1] and t.twist == 1
    direct = Motive(5, [125, 15, 1])
    assert global_ext_orders(z, t).ext1_order \
        == global_ext_orders(z, direct).ext1_order == 141
    assert verify_global_identity(t, t)["equal"]
    assert verify_weil_identity(z, t)["equal"]
    assert t.slopes() == [1, 2]


def test_json_roundtrip():
    e = motive_from_json('{"q": 5, "charpoly": [5, 3, 1], "twist": 2,'
                         ' "crystal": {"slopes": ["0", "1"]}}')
    assert (e.q, e.charpoly, e.twist, e.exceptional) == (5, [5, 3, 1], 2, {})
    assert e.slopes() == [0, 1]
    ed = motive_from_json(
        '{"q": 5, "charpoly": [5, 3, 1], "exceptional": {"2": {"torsion":'
        ' [2, 4], "torsion_frobenius": [[1, 2], [0, 1]]}}}')
    mod = ed.exceptional[2]
    assert (mod.l, mod.q, mod.free_frob) == (2, 5, companion([5, 3, 1]))
    assert mod.torsion == (2, 4) and mod.torsion_frob == [[1, 2], [0, 1]]
    assert ed.twist == 0
    with pytest.raises(ValueError):
        motive_from_json('{"q": 5, "charpoly": [-1, 1], '
                         '"crystal": {"slopes": ["1"]}}')


def test_mixed_fields_rejected():
    with pytest.raises(ValueError):
        hom_motives(unit_motive(5), unit_motive(7))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]),
       st.integers(min_value=-6, max_value=6))
def test_point_count_formula_random(q, t):
    if t * t >= 4 * q:
        t = t % 2  # fall back to a small admissible trace
    e, z = elliptic_motive(q, t), unit_motive(q)
    assert global_ext_orders(z, e).ext1_order == q + 1 - t
    assert verify_weil_identity(z, e)["equal"]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(5, -3), (7, 2), (3, -1)]),
       st.integers(min_value=1, max_value=2))
def test_twist_random(pair, r):
    q, t = pair
    e = elliptic_motive(q, t)
    tw = e.twisted(r)
    n = e.rank
    assert tw.charpoly == [e.charpoly[i] * q ** (r * (n - i))
                           for i in range(n + 1)]
    assert verify_global_identity(unit_motive(q), tw)["equal"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=0, max_size=5),
       st.lists(st.sampled_from([[1, 0, 1], [5, -3, 1], [-3, 0, 1]]),
                max_size=2))
def test_squarefree_check_vs_fraction_gcd(roots, quadratics):
    from fraction_poly import poly_gcd
    from frobext.exact import poly_deg, poly_deriv, poly_mul
    from frobext.motive import _is_squarefree
    c = [1]
    for f in [[-r, 1] for r in roots] + quadratics:
        c = poly_mul(c, f)
    assert _is_squarefree(c) == (poly_deg(c) < 2 or
                                 poly_deg(poly_gcd(c, poly_deriv(c))) < 1)


def test_input_caps():
    from frobext.motive import MAX_HOM_DIM, MAX_THETA_DIM, _check_caps
    # at the caps, and one past them
    _check_caps(10, 1, 1)      # a^3 = 1000
    _check_caps(4, 4, 4)       # 1024
    _check_caps(1, 12, 12)     # 144
    _check_caps(1, 1, 144)
    for args, cap in (((11, 1, 1), MAX_THETA_DIM), ((2, 11, 12), MAX_THETA_DIM),
                      ((1, 12, 13), MAX_HOM_DIM)):
        with pytest.raises(ValueError, match="cap of %d" % cap):
            _check_caps(*args)
    # a motive that exceeds a cap against a rank-one partner is refused
    # before its Witt ring is built; a pair above a cap before any local
    # computation
    with pytest.raises(ValueError, match="1024"):
        Motive(2 ** 16, [-1, 1])
    with pytest.raises(ValueError, match="144"):
        Motive(2, [-2] + [0] * 144 + [1])
    x = Motive(2, [-2] + [0] * 12 + [1])
    with pytest.raises(ValueError, match="ranks 13 and 13"):
        global_ext_orders(x, x)


# ---------------------------------------------------------------------------
# the integer Hom system: one gcd split and its resultants per pair for
# every l away from p and the exceptional primes, against the Kronecker
# Smith form with its Hankel swap (tests/hom_oracle.py)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_hankel_symmetrizer(low):
    # the oracle's swap of Hom(X, Y) onto Hom(Y, X) rests on these
    from hom_oracle import hankel, hankel_inverse

    from frobext.linalg import bareiss_det, identity, mat_mul, transpose
    f = low + [1]  # monic, of degree 1 to 6
    c, b, b_inv = companion(f), hankel(f), hankel_inverse(f)
    assert b == transpose(b)
    assert mat_mul(c, b) == mat_mul(b, transpose(c))
    assert bareiss_det(b) in (1, -1)
    assert mat_mul(b, b_inv) == identity(len(low))


def _factor(draw, q: int) -> list[int]:
    """1, L^r or h^1 of a curve twisted by L^r, as a monic charpoly."""
    r = draw(st.integers(0, 2))
    if draw(st.booleans()):
        return [-(q ** r), 1]
    bound = isqrt(4 * q - 1)  # t^2 < 4q
    t = draw(st.integers(-bound, bound))
    return [q ** (2 * r + 1), -t * q ** r, 1]


@st.composite
def motive_pairs(draw):
    """Two motives over F_q, q = p^a with a <= 3, each a product of one or
    two of `_factor`; the second shares the first's first factor (so
    rho > 0) or draws its own (mostly rho = 0)."""
    from frobext.exact import poly_mul
    q = draw(st.sampled_from([2, 3, 5])) ** draw(st.integers(1, 3))
    fx = [_factor(draw, q) for _ in range(draw(st.integers(1, 2)))]
    fy = [_factor(draw, q) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        fy[0] = fx[0]
    cx, cy = [1], [1]
    for f in fx:
        cx = poly_mul(cx, f)
    for f in fy:
        cy = poly_mul(cy, f)
    try:
        return Motive(q, cx), Motive(q, cy)
    except ValueError:  # a repeated eigenvalue
        assume(False)


@settings(max_examples=60, deadline=None)
@given(motive_pairs())
@example((unit_motive(5), lefschetz_motive(5, 2)))         # rho = 0
@example((elliptic_motive(9, 2), elliptic_motive(9, 2)))   # rho = 2
def test_gcd_split_reads_every_l(pair):
    # at every l != p of the support (and a few primes off it) the data read
    # off the pair's one gcd split (Res(A, B) and z0) equals the galois
    # route's own build at l.  The support is that of the assembly, whose
    # p-side refuses some pairs that share only part of their eigenvalues
    # (CHANGES.md)
    from frobext.exact import prime_factors, ratio_limit
    from frobext.motive import _hom_system, _l_side
    x, y = pair
    rho, nstar = ratio_limit(x.charpoly, y.charpoly)
    system = _hom_system(x, y, rho)
    support = {2, 3, 5, 7}
    try:
        for n in (nstar.numerator, nstar.denominator, system.discriminant):
            support.update(prime_factors(n))
    except ValueError as exc:
        # a cofactor past the rho cap, which `ext` refuses (exit 2,
        # `test_cli.py::test_huge_numbers_are_refused_at_once`)
        if "rho steps" not in str(exc):
            raise
        assume(False)
    for l in sorted(support - {x.p}):
        want = _l_side(x, y, l, rho, nstar)
        got = system.l_side(l, nstar)
        assert got == want, l
        assert [type(v) for v in got.values()] \
            == [type(v) for v in want.values()]


@settings(max_examples=60, deadline=None)
@given(motive_pairs())
@example((elliptic_motive(9, 2), elliptic_motive(9, 2)))
def test_swapped_hom_is_the_saturated_kernel(pair):
    # Hom(Y, X) from the closed form (`hom_motives(y, x)`, basis T^j·A) and
    # from the oracle's B_X·Hᵀ·B_Y⁻¹ over its Hom(X, Y) basis both span
    # exactly the saturated kernel of the swapped system
    # H' -> H'·C_Y - C_X·H', solved on its own
    from hom_oracle import KroneckerHom

    from frobext.exact import ratio_limit
    from frobext.linalg import (identity, kernel_basis, kron, lattice_solve,
                                mat_mul, mat_sub, transpose)
    x, y = pair
    rho, _ = ratio_limit(x.charpoly, y.charpoly)
    rx, ry = x.rank, y.rank
    cx, cy = companion(x.charpoly), companion(y.charpoly)
    kernel = kernel_basis(mat_sub(kron(identity(rx), transpose(cy)),
                                  kron(cx, identity(ry))))
    assert len(kernel[0]) == rho
    for swap in (hom_motives(y, x)[0],
                 KroneckerHom(x.charpoly, y.charpoly).swap_basis):
        assert len(swap) == rho
        for h in swap:
            assert mat_mul(h, cy) == mat_mul(cx, h)
        if rho:
            cols = [[h[i][j] for h in swap]
                    for i in range(rx) for j in range(ry)]
            assert lattice_solve(kernel, cols) is not None
            assert lattice_solve(cols, kernel) is not None


@st.composite
def special_pairs(draw):
    """(kind, X, Y): motives of rank at most 2 over F_q, q = p^a with
    p in {2, 3, 5} and a <= 3, with coprime or equal charpolys, or sharing
    one of their linear factors +-q^k (k <= 2) and not the other."""
    from frobext.exact import poly_mul
    q = draw(st.sampled_from([2, 3, 5])) ** draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["coprime", "equal", "shared"]))
    if kind == "shared":
        lines = [[-s * q ** k, 1] for s in (1, -1) for k in range(3)]
        f, g, h = draw(st.permutations(lines))[:3]
        x, y = poly_mul(f, g), draw(st.sampled_from([f, poly_mul(f, h)]))
    else:
        x = _factor(draw, q)
        y = x if kind == "equal" else _factor(draw, q)
        assume(kind == "equal" or ratio_limit(x, y)[0] == 0)
    if draw(st.booleans()):
        x, y = y, x
    return kind, Motive(q, x), Motive(q, y)


@settings(max_examples=60, deadline=None)
@given(special_pairs())
@example(("shared", Motive(5, [5, -6, 1]), unit_motive(5)))  # 1 ⊕ L, 1
@example(("equal", elliptic_motive(9, 2), elliptic_motive(9, 2)))
def test_p_side_vs_the_gcd_split(case):
    # at p, the crystal route on the pair's special modules over W(F_q),
    # q = p^a, against the p-parts of its integer Hom system (the gcd split
    # D, A, B), which the oracle test below pins to the Kronecker Smith
    # form.  On every pair: Hom of rank rho·a^2 and Ext^1 torsion (p-part
    # of Res(A, B))^(a^2).  On the pairs `local_lhs` reads (coprime or
    # equal charpolys): lhs = |z0|_p^(a^2), and the assembly's data at p,
    # read over Z_p whatever a, are the system's p-parts
    from frobext.crystal import ext_presentation, local_lhs, special_module
    from frobext.exact import int_valuation, l_primary
    from frobext.motive import _hom_system
    from frobext.witt import WittRing
    kind, x, y = case
    p, a = x.p, x.a
    rho, _ = ratio_limit(x.charpoly, y.charpoly)
    system = _hom_system(x, y, rho)
    torsion = p ** int_valuation(system.torsion, p)
    z_f = l_primary(system.z0, p)
    ring = WittRing(p, a)
    mx, my = special_module(ring, x.charpoly), special_module(ring, y.charpoly)
    rep = ext_presentation(mx, my)
    assert rep.ext0.free_rank == rep.ext1.free_rank == rho * a * a
    assert rep.ext1.torsion_order == torsion ** (a * a)
    event("%s, a = %d" % (kind, a))
    if kind == "shared":
        return  # `local_lhs` refuses the pair
    assert local_lhs(mx, my).lhs == z_f ** (a * a)
    at_p = global_ext_orders(x, y).per_prime[p]
    assert (at_p["ext1_torsion"], at_p["z_f"]) == (torsion, z_f)


_X12 = Motive(2, [-2] + [0] * 11 + [1])  # x^12 - 2 over F_2, at the Hom cap


@settings(max_examples=60, deadline=None, derandomize=True)
@given(motive_pairs())
@example((Motive(5, [1]), unit_motive(5)))                 # rank 0, rank 1
@example((unit_motive(5), lefschetz_motive(5, 2)))         # rho = 0, D = 1
@example((elliptic_motive(9, 2), elliptic_motive(9, 2)))
@example((Motive(5, [5, -6, 1]), unit_motive(5)))          # (1 ⊕ L, 1)
@example((_X12, _X12))
def test_hom_system_vs_the_kronecker_oracle(pair):
    # the gcd split's rho, Ext^1 torsion Res(A, B), z0 and discriminant
    # Res(D, D'·A·B) against one Smith form of the Kronecker operator with
    # its Hankel swap and Gram determinant; and `hom_motives`' basis T^i·B
    # commutes and spans the oracle's kernel lattice, both ways
    from hom_oracle import KroneckerHom

    from frobext.linalg import lattice_solve, mat_mul
    from frobext.motive import _hom_system
    x, y = pair
    rho, _ = ratio_limit(x.charpoly, y.charpoly)
    oracle = KroneckerHom(x.charpoly, y.charpoly)
    system = _hom_system(x, y, rho)
    assert oracle.rho == rho
    assert (system.torsion, system.z0, system.discriminant) \
        == (oracle.torsion, oracle.z0, oracle.discriminant)
    basis, rho_h = hom_motives(x, y)
    assert rho_h == rho == len(basis) == len(oracle.basis)
    cx, cy = companion(x.charpoly), companion(y.charpoly)
    for h in basis:
        assert mat_mul(h, cx) == mat_mul(cy, h)
    event("rho > 0" if rho else "rho = 0")
    if rho:
        def cols(hs):
            return [[h[i][j] for h in hs]
                    for i in range(y.rank) for j in range(x.rank)]
        assert lattice_solve(cols(basis), cols(oracle.basis)) is not None
        assert lattice_solve(cols(oracle.basis), cols(basis)) is not None
