import json
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from frobext import cli, crystal
from frobext.exact import (
    PrecisionError, abs_at, poly_deriv, poly_mul, resultant, valuation)
from frobext.linalg import (
    companion, identity, kron, mat_mul, mat_sub, padic_det_valuation,
    padic_smith, smith_normal_form, transpose)
from frobext.witt import WittRing
from frobext.zgamma import FinGenAbGroup, HypothesisError
from frobext.crystal import (
    Crystal,
    LOCAL_CASES,
    crystal_charpoly,
    ext_koszul_k,
    ext_orders_finite_source,
    ext_presentation,
    k_module,
    lefschetz_crystal,
    random_finite_crystal,
    random_local_pair,
    random_special_module,
    special_module,
    unit_crystal,
    verify_local_identity,
    _linear_int_matrix,
    _theta_int,
    _z_derivative_map,
)

R31 = WittRing(3, 1)
R51 = WittRing(5, 1)
R32 = WittRing(3, 2)


def _wmat_poly_eval(ring: WittRing, poly, wmat):
    """poly(wmat) by Horner over the ring, scalars on the diagonal."""
    n = len(wmat)
    acc = [[ring.from_int(0) for _ in range(n)] for _ in range(n)]
    for c in reversed(poly):
        acc = mat_mul(acc, wmat)
        for i in range(n):
            acc[i][i] = acc[i][i] + ring.from_int(c)
    return acc


def _z_derivative_on_crystal(m: Crystal) -> Fraction:
    """The derivative map's |det|_p read off the crystal's own Z_p-matrix
    at its working precision: the route `_z_derivative_map` replaces."""
    ring = m.ring
    pi = m.frobenius_power()
    f = mat_mul(pi, _wmat_poly_eval(ring, poly_deriv(m.special_poly), pi))
    v = padic_det_valuation(_linear_int_matrix(ring, f), ring.p, ring.K)
    return Fraction(1, ring.p ** v)


def test_charpoly_examples():
    assert crystal_charpoly(unit_crystal(R31)) == [-1, 1]
    assert crystal_charpoly(unit_crystal(R32)) == [-1, 1]
    assert crystal_charpoly(lefschetz_crystal(R32)) == [-9, 1]  # t - q
    ell = special_module(R51, [5, -1, 1])
    assert crystal_charpoly(ell) == [5, -1, 1]


def test_charpoly_of_special_is_min_poly_power():
    # the companion of m(t^a) has iterate charpoly m^a; check the
    # division-free computation against the exact product
    for ring in (R32, WittRing(2, 2)):
        m = [ring.p, -1, 1]
        expect = poly_mul(m, m)
        assert crystal_charpoly(special_module(ring, m)) == [int(c) for c in expect]


def test_crystal_validation():
    with pytest.raises(ValueError, match="F is singular"):
        Crystal(R31, [[0]])  # singular F on a free crystal
    with pytest.raises(ValueError, match="F is singular"):
        Crystal(R32, [[[1, 1], [2, 2]], [[1, 1], [2, 2]]])  # det F = 0 in W
    # det F is read exactly, not mod p^K: 0 mod 3^20, but nonsingular
    assert Crystal(R31, [[3 ** 25]]).det_valuation == 25
    assert Crystal(R32, [[3 ** 25]]).det_valuation == 50
    assert Crystal(R31, [[3]]).det_valuation == 1
    with pytest.raises(ValueError):
        Crystal(R31, [[1, 1], [1, 1]], exponents=[2, 1])  # filtration broken
    Crystal(R31, [[1, 3], [1, 1]], exponents=[2, 1])  # divisible entry is fine
    # over W(F_9) every coordinate of the entry must be divisible
    Crystal(R32, [[[1], [3, 6]], [[1, 1], [1]]], exponents=[2, 1])
    with pytest.raises(ValueError, match="filtration"):
        Crystal(R32, [[[1], [3, 1]], [[1, 1], [1]]], exponents=[2, 1])
    with pytest.raises(ValueError):
        special_module(R31, [0, 1])
    assert k_module(R31).is_k_type()
    assert not k_module(R31).is_f_invertible()
    assert Crystal(R31, [[1]], exponents=[2]).is_f_invertible()


def test_hom_of_unit_pair():
    # u -> u·sigma - sigma·u kills exactly the sigma-fixed maps; over a=1
    # it is the zero operator on Z_p, so both groups have rank one
    rep = ext_presentation(unit_crystal(R51), unit_crystal(R51))
    assert rep.ext0.free_rank == 1 and rep.ext0.torsion == ()
    assert rep.ext1.free_rank == 1 and rep.ext1.torsion == ()
    assert rep.ext2.order == 1
    assert rep.certified_precision == R51.K + 2


def test_ext_kummer_line_pair():
    # Hom(A/A(F-1), A/A(F-(1+p))) = 0 with Ext^1 of order p
    m = special_module(R31, [-1, 1])
    n = special_module(R31, [-4, 1])
    rep = ext_presentation(m, n)
    assert rep.ext0.order == 1
    assert (rep.ext1.free_rank, rep.ext1.torsion) == (0, (3,))


def test_ext_unit_into_elliptic():
    # Hom(1, E) = 0 and [Ext^1] is the p-part of the charpoly at 1
    ell = special_module(R51, [5, -1, 1])  # P(1) = 5
    rep = ext_presentation(unit_crystal(R51), ell)
    assert rep.ext0.order == 1
    assert rep.ext1.order == 5


def test_ext_presentation_requires_free_source():
    with pytest.raises(ValueError):
        ext_presentation(k_module(R31), unit_crystal(R31))


def test_koszul_examples():
    assert ext_koszul_k(k_module(R31)) == (3, 9, 3)
    assert ext_koszul_k(unit_crystal(R31)) == (1, 1, 1)
    assert ext_koszul_k(lefschetz_crystal(R31)) == (1, 3, 3)
    # a > 1: the residue field seen from k has q = p^a points
    assert ext_koszul_k(k_module(R32)) == (9, 81, 9)


def _koszul_brute(n):
    """Cohomology orders of N --(p, -F)--> N² --(F, p)--> N for N = ⊕ Z/p^e,
    by sheer enumeration of the elements of N."""
    ring = n.ring
    p = ring.p
    from frobext.crystal import _semilinear_int_matrix
    phi = _semilinear_int_matrix(ring, n.coords)
    mods = [p ** e for e in n.exponents for _ in range(ring.a)]
    size = len(mods)

    def f(vec):
        return tuple(sum(phi[i][j] * vec[j] for j in range(size)) % mods[i]
                     for i in range(size))

    def times_p(vec):
        return tuple(p * x % d for x, d in zip(vec, mods))

    elements = list(product(*(range(d) for d in mods)))
    zero = (0,) * size
    im_f = {f(v) for v in elements}
    p_n = {times_p(v) for v in elements}
    n_p = sum(1 for v in elements if times_p(v) == zero)  # [N[p]]
    e0 = sum(1 for v in elements if times_p(v) == zero and f(v) == zero)
    # (x, y) is a cycle when F x = -p y: one y-coset of N[p] for each x
    # with F x in pN
    ker_d1 = sum(1 for v in elements if f(v) in p_n) * n_p
    im_d0 = len({(times_p(v), tuple(-x % d for x, d in zip(f(v), mods)))
                 for v in elements})
    # im d1 = FN + pN, of order [FN]·[pN]/[FN ∩ pN]
    im_d1 = len(im_f) * len(p_n) // len(im_f & p_n)
    return e0, ker_d1 // im_d0, len(elements) // im_d1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(2, 1), (3, 1), (2, 2)]))
def test_koszul_matches_enumeration(seed, pa):
    # exponents up to 3, so that p does not act as zero on N
    p, a = pa
    n = random_finite_crystal(random.Random(seed), WittRing(p, a),
                              max_gens=2, max_exp=3)
    assert ext_koszul_k(n) == _koszul_brute(n)


def test_finite_source_orders():
    # (W/p, sigma) against the unit crystal: Hom = 0, [Ext^1] = [Ext^2] = p
    m = Crystal(R51, [[1]], exponents=[1])
    e0, e1, e2, _ = ext_orders_finite_source(m, unit_crystal(R51))
    assert (e0, e1, e2) == (1, 5, 5)
    with pytest.raises(ValueError):
        ext_orders_finite_source(k_module(R51), unit_crystal(R51))
    with pytest.raises(ValueError):
        mixed = Crystal(R51, [[1, 0], [0, 1]], exponents=[2, 1])
        ext_orders_finite_source(mixed, unit_crystal(R51))


def test_verify_unit_pair():
    out = verify_local_identity(unit_crystal(R51), unit_crystal(R51))
    assert out["case"] == "special-equal"
    assert out["lhs"] == out["rhs"] == 1
    assert out["equal"] and out["rho_pairs"] == 1


def test_verify_kummer_pair():
    out = verify_local_identity(special_module(R31, [-1, 1]),
                                special_module(R31, [-4, 1]))
    assert out["lhs"] == out["rhs"] == Fraction(1, 3)  # |1 - (1+3)|_3
    assert out["case"] == "special-coprime"


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("e", [22, 30])
def test_coprime_rank_names_a_sufficient_precision(a, e):
    # [-1, 1] against [-(1 + 3^e), 1] at K = 20: v_3(Res) = e bounds every
    # valuation of θ, so its one Smith form is read at e + 1, where Ext¹ is
    # (Z/3^e)^{a²} and no divisor vanishes
    ring = WittRing(3, a, 20)
    m, n = special_module(ring, [-1, 1]), special_module(ring, [-(1 + 3 ** e), 1])
    out = verify_local_identity(m, n)
    assert out["equal"] and out["certified_precision"] == e + 1
    assert out["lhs"] == Fraction(1, 3 ** (e * a * a))
    rep = ext_presentation(m, n)
    assert rep.ext0.order == 1 and rep.ext1.torsion == (3 ** e,) * (a * a)
    assert rep.certified_precision == e + 1


def test_verify_weight_two_self_pair():
    # M = N = A/A(F - q), a = 1: z(f) = |q·m'(q)|_p = 1/p
    out = verify_local_identity(special_module(R51, [-5, 1]),
                                special_module(R51, [-5, 1]))
    assert out["lhs"] == out["rhs"] == Fraction(1, 5)
    assert out["case"] == "special-equal" and out["rho_pairs"] == 1


def test_verify_hypothesis_gate():
    m = special_module(R31, [1, -2, 1])  # (t-1)^2 is not squarefree
    with pytest.raises(HypothesisError):
        verify_local_identity(m, special_module(R31, [1, -2, 1]))
    # a shared simple eigenvalue between distinct special modules is out of
    # the supported cases but not a hypothesis violation
    with pytest.raises(ValueError):
        verify_local_identity(special_module(R31, [-1, 1]),
                              special_module(R31, [2, -3, 1]))


def test_verify_rejects_mixed_rings():
    with pytest.raises(ValueError):
        verify_local_identity(unit_crystal(R31), unit_crystal(R51))


def test_verify_free_disjoint_without_special_tag():
    # strip the special marker: the dispatch must fall back to the general
    # torsion-free route with a certified eigenvalue separation
    m = Crystal(R31, [[1]])
    n = Crystal(R31, [[4]])
    out = verify_local_identity(m, n)
    assert out["case"] == "free-disjoint"
    assert out["lhs"] == out["rhs"] == Fraction(1, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([3, 5]), st.sampled_from([1, 2]),
       st.sampled_from(LOCAL_CASES))
def test_verify_random_cases(seed, p, a, case):
    ring = WittRing(p, a)
    rng = random.Random(seed)
    m, n = random_local_pair(rng, ring, case)
    out = verify_local_identity(m, n)
    assert out["equal"], out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(3, 1), (5, 1), (3, 2)]))
def test_coprime_oracles(seed, pa):
    """Two independent recomputations of the coprime-pair identity: the
    resultant form of the right side and the cyclic-presentation cokernel
    of m_M at the Frobenius iterate of N for the left."""
    p, a = pa
    ring = WittRing(p, a)
    rng = random.Random(seed)
    m, n = random_local_pair(rng, ring, "special-coprime")
    out = verify_local_identity(m, n)
    assert out["equal"]
    res = resultant(m.special_poly, n.special_poly)
    assert out["rhs"] == abs_at(p, res) ** (a * a)
    lam = _wmat_poly_eval(ring, m.special_poly, n.frobenius_power())
    vals = padic_smith(_linear_int_matrix(ring, lam), p, ring.K)
    assert all(v is not None for v in vals)
    assert out["lhs"] == Fraction(1, p ** sum(vals))


RINGS = {(p, a, K): WittRing(p, a, K)
         for p in (2, 3, 5) for a in (1, 2, 3) for K in (3, 5)}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_z_derivative_integer_form_vs_crystal(key, data):
    # the d x d integer form reads what the crystal's Z_p-matrix reads: the
    # same |det|_p, or the same error naming the same precision
    p, a, K = key
    ring = RINGS[key]
    units = st.integers(min_value=1, max_value=p - 1)
    coeff = st.builds(lambda u, e, s: s * u * p ** e, units,
                      st.integers(0, K + 1), st.sampled_from([1, -1]))
    m = data.draw(st.lists(coeff, min_size=1, max_size=3)
                  .map(lambda c: c + [1])
                  .filter(lambda c: resultant(c, poly_deriv(c)) != 0))
    # a special module is built whatever v_p(det F^a) is, and the integer
    # form reads exactly: where the crystal's own matrix cannot be read at
    # K, it is read at the precision its error names
    x = special_module(ring, m)
    while True:
        try:
            want = _z_derivative_on_crystal(x)
            break
        except PrecisionError as exc:
            x = x.with_ring(ring.at_precision(exc.required))
    assert _z_derivative_map(special_module(ring, m)) == want


def _integer_cokernel_oracle(mm, mn, p, a):
    """(Hom, Ext¹) of a special pair as a² copies of the kernel and cokernel
    of φ -> C_N·φ - φ·C_M on d_N x d_M integer matrices (C the companion
    matrix), read at p off an integer Smith form."""
    cm, cn = companion(mm), companion(mn)
    op = mat_sub(kron(cn, identity(len(cm))), kron(identity(len(cn)), transpose(cm)))
    diag = smith_normal_form(op).diagonal
    rank = len(op) - sum(1 for d in diag if d)
    torsion = sorted(p ** valuation(d, p) for d in diag if d and d % p == 0)
    return (FinGenAbGroup(rank * a * a),
            FinGenAbGroup(rank * a * a, tuple(sorted(torsion * (a * a)))))


def _monic(p, units):
    """A monic linear polynomial t - c with c = ±u·p^e, c != 0."""
    return st.builds(lambda u, e, s: [-s * u * p ** e, 1],
                     units, st.integers(0, 3), st.sampled_from([1, -1]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RINGS)),
       st.sampled_from(["coprime", "equal", "shared", "deep"]), st.data())
def test_certificate_vs_integer_cokernel(key, kind, data):
    # θ is read once at max(K+2, b+1), b = v_p(Res(m_M/g, m_N/g)), and its
    # groups are a² copies of the small integer system's
    p, a, K = key
    ring = RINGS[key]
    lin = _monic(p, st.integers(1, 2 * p))
    if kind == "deep":
        e = data.draw(st.integers(K - 2, K + 6))
        u, v, g = [-1, 1], [-(1 + p ** e), 1], [1]
    else:
        u = data.draw(lin)
        v = u if kind == "equal" else data.draw(lin.filter(
            lambda c: resultant(c, u) != 0))
        g = data.draw(lin) if kind == "shared" else [1]
        if kind == "equal":
            u, v, g = [1], [1], u
    b = valuation(resultant(u, v), p)
    mm, mn = poly_mul(u, g), poly_mul(v, g)
    rep = ext_presentation(special_module(ring, mm), special_module(ring, mn))
    assert (rep.ext0, rep.ext1) == _integer_cokernel_oracle(mm, mn, p, a)
    assert rep.certified_precision == max(K + 2, b + 1)


def test_special_equal_reads_k_plus_2():
    # (t - 1)(t - 1 - 3^5): the derivative map's largest Smith valuation is
    # 10, but its determinant is read exactly over Z, so every K certifies,
    # also K = 8 and below, where a read mod p^(K+2) could not
    poly = [1 + 3**5, -(2 + 3**5), 1]
    for K in (3, 8, 9, 10, 11):
        m = special_module(WittRing(3, 1, K), poly)
        out = verify_local_identity(m, m)
        assert out["case"] == "special-equal" and out["equal"]
        assert out["lhs"] == Fraction(1, 3 ** 10)
        assert out["certified_precision"] == K + 2


def test_special_equal_rho_counts_all_pairs():
    m = special_module(R32, [3, -1, 1])
    out = verify_local_identity(m, special_module(R32, [3, -1, 1]))
    # 2 eigenvalues, multiplicity a each: a^2·deg coincident pairs
    assert out["rho_pairs"] == 8
    assert out["equal"]


def test_random_generators_shapes():
    rng = random.Random(11)
    c = random_finite_crystal(rng, R32, invertible=True)
    assert c.is_f_invertible() and len(set(c.exponents)) == 1
    s = random_special_module(rng, R31, coprime_to=[-1, 1])
    assert resultant(s.special_poly, [-1, 1]) != 0


# verify_local_identity reports, and the ext_presentation report when the
# source is free: every case at p in {3, 5}, a in {1, 2}, K in {5, 6, 20}.
# The rows include [-1, 1] against [-(1 + p^e), 1] for e = K-2 .. K+3: θ is
# read at max(K+2, e+1), so from e = K+2 on the certified precision is
# e + 1 and Ext¹ is (Z/p^e)^{a²}.  The general crystals [[1]] and
# [[1 + p^K]] cannot be separated at K; at a = 1 the error names
# v_p(Res) + 1 = K + 1 from their integer F-matrices, at a = 2 it names 2K.
P_LOCAL = json.loads(
    (pathlib.Path(__file__).parent / "data" / "p_local_reports.json").read_text())


def _outcome(fn):
    try:
        return cli._jsonable(fn())
    except Exception as exc:  # the recorded outcome may be any error
        return {"error": type(exc).__name__, "message": str(exc),
                "required": getattr(exc, "required", None)}


def _presentation_obj(rep):
    out = {"ext%d" % i: [g.free_rank, list(g.torsion)]
           for i, g in enumerate((rep.ext0, rep.ext1, rep.ext2))}
    out["certified_precision"] = rep.certified_precision
    return out


def test_p_local_golden_reports():
    for row in P_LOCAL:
        def build(o):
            return cli._crystal_from_obj(o, WittRing(row["p"], row["a"], row["K"]))
        m, n = build(row["m"]), build(row["n"])
        assert _outcome(lambda: verify_local_identity(m, n)) == row["report"], row
        if "presentation" in row:
            got = _outcome(lambda: _presentation_obj(ext_presentation(m, n)))
            assert got == row["presentation"], row


@pytest.mark.parametrize("a", [1, 2, 3])
def test_theta_on_a_deeper_ring_reduces_to_theta(a):
    # sigma is the unique Hensel root, so θ read on the K+4 ring is θ on
    # the K ring, mod p^K
    rng = random.Random(a)
    ring = WittRing(3, a, 6)
    deep = ring.at_precision(10)
    pairs = [(random_special_module(rng, ring), random_special_module(rng, ring))
             for _ in range(2)]
    unit = [1] + [rng.randrange(9) for _ in range(a - 1)]
    pairs.append((Crystal(ring, [[unit]]),
                  Crystal(ring, [[[rng.randrange(9) for _ in range(a)]
                                  for _ in range(2)], [[3], unit]])))
    for m, n in pairs:
        shallow = _theta_int(m, n, ring)
        lifted = _theta_int(m, n, deep)
        assert [[x % ring.pK for x in row] for row in lifted] == \
            [[x % ring.pK for x in row] for row in shallow]


def test_one_smith_form_per_pair(monkeypatch):
    depths = []

    def counting(mat, p, K):
        depths.append(K)
        return padic_smith(mat, p, K)

    m, n = special_module(R31, [-1, 1]), special_module(R31, [-4, 1])
    monkeypatch.setattr(crystal, "padic_smith", counting)
    # the identity and a presentation alone each read one form, at K+2
    assert verify_local_identity(m, n)["certified_precision"] == 22
    assert depths == [22]
    depths.clear()
    assert ext_presentation(m, n).certified_precision == 22
    assert depths == [22]
    # a valuation in [K, K+2) is read at K+2 too: b = v_3(Res) = 6 < K+2
    ring = WittRing(3, 1, 6)
    m, n = special_module(ring, [-1, 1]), special_module(ring, [-(1 + 3 ** 6), 1])
    depths.clear()
    out = verify_local_identity(m, n)
    assert out["equal"] and out["certified_precision"] == 8
    assert depths == [8]


def _padic_det_route(x: Crystal) -> int:
    """v_p(det F^a) read off the Z_p-matrix of F^a over the ring mod p^K,
    divided by a: the route the exact determinant replaces."""
    ring = x.ring
    pi = x.frobenius_power()
    n, a = len(pi), ring.a
    mat = [[0] * (a * n) for _ in range(a * n)]
    for i in range(n):
        for j in range(n):
            blk = ring.mul_matrix(pi[i][j])
            for r in range(a):
                for c in range(a):
                    mat[i * a + r][j * a + c] = blk[r][c]
    return padic_det_valuation(mat, ring.p, ring.K) // a


DEEP_RINGS = {(p, a): WittRing(p, a, 60) for p in (2, 3, 5) for a in (1, 2, 3)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DEEP_RINGS)), st.integers(1, 2), st.data())
def test_exact_det_valuation_vs_padic_route(key, rank, data):
    # the exact det of F agrees with the mod-p^K route where that route
    # reads one, and a crystal with exact det 0 is refused
    p, a = key
    ring = DEEP_RINGS[key]
    scaled = st.builds(lambda c, e: c * p ** e, st.integers(-p, p),
                       st.integers(0, 3))
    entry = st.lists(scaled, min_size=1, max_size=a)
    coords = data.draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                                min_size=rank, max_size=rank))
    try:
        x = Crystal(ring, coords)
    except ValueError:
        # exact det 0: the p-adic route reads 0 mod p^K as well
        x = object.__new__(Crystal)
        x.ring, x.coords = ring, coords
        with pytest.raises(PrecisionError):
            _padic_det_route(x)
        return
    assert x.det_valuation == _padic_det_route(x)


def _unitriangular(ring: WittRing, r: int) -> Crystal:
    return Crystal(ring, [[1 if i == j else [j, 1][:ring.a] if j > i else 0
                           for j in range(r)] for i in range(r)])


@pytest.mark.parametrize("ring, rm, rn", [
    (R31, 2, 3), (R32, 3, 2), (R32, 3, 1), (WittRing(2, 3), 2, 2)])
def test_theta_is_the_presentation_map(monkeypatch, ring, rm, rn):
    # θ applied to the coordinates of a W-linear map u: M -> N gives those
    # of u·F_M - F_N·sigma(u), on F-matrices that are not symmetric, and it
    # multiplies by each entry of F_M and F_N once, not once per row and
    # column it touches: r_M² + r_N² multiplication matrices
    rng = random.Random(rm * 10 + rn)
    m, n = _unitriangular(ring, rm), _unitriangular(ring, rn)
    fm, fn = ([[ring.elem(c) for c in row] for row in x.coords] for x in (m, n))
    u = [[ring.elem([rng.randrange(-9, 10) for _ in range(ring.a)])
          for _ in range(rm)] for _ in range(rn)]
    want = [[sum((u[i][k] * fm[k][j] for k in range(rm)), ring.zero())
             - sum((fn[i][k] * ring.sigma(u[k][j]) for k in range(rn)),
                   ring.zero())
             for j in range(rm)] for i in range(rn)]
    calls = []
    mul_matrix = WittRing.mul_matrix
    monkeypatch.setattr(WittRing, "mul_matrix",
                        lambda r, w: calls.append(w) or mul_matrix(r, w))
    theta = _theta_int(m, n, ring)
    assert len(calls) == rm ** 2 + rn ** 2
    vec = [c for row in u for x in row for c in x.c]
    got = [sum(t * v for t, v in zip(row, vec)) for row in theta]
    assert [x % ring.pK for x in got] == [c for row in want for x in row for c in x.c]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from([(2, 1), (3, 1), (3, 2)]))
def test_finite_target_vs_the_integer_route(seed, pa):
    # Hom and Ext¹ into a finite target from two p-adic Smith forms (the
    # kernel as the cokernel of the dual map) against the kernel and
    # cokernel of θ on the integer presentation of the group of maps
    from frobext.zgamma import GroupHom, moduli_presentation
    p, a = pa
    ring = WittRing(p, a)
    rng = random.Random(seed)
    m = random_special_module(rng, ring) if rng.random() < 0.5 \
        else _unitriangular(ring, rng.randint(1, 2))
    n = random_finite_crystal(rng, ring, max_gens=2, max_exp=3)
    pres = moduli_presentation([p ** e for e in n.exponents
                                for _ in range(m.dim * a)])
    hom = GroupHom(pres, pres, _theta_int(m, n, ring))
    rep = ext_presentation(m, n)
    assert (rep.ext0, rep.ext1) == (hom.kernel_group(), hom.cokernel_group())


def test_koszul_euler_check_is_not_an_assert(monkeypatch):
    # a duality reader that reads a wrong kernel order breaks rank-nullity
    monkeypatch.setattr(crystal, "_finite_kernel",
                        lambda mat, src, tgt, p: FinGenAbGroup(0, (7,)))
    with pytest.raises(RuntimeError, match="Euler product"):
        ext_koszul_k(k_module(R31))


def test_vanishing_determinant_names_a_sufficient_precision():
    # a general crystal whose det F^a is 0 mod p^K (e.g. F = [[0, -9], [3, 0]]
    # at p = 3, a = 2, K = 5: det F^a = 3^6) is valid input that needs more
    # precision; the error names max v_p(det F^a) + 1, and a rerun there
    # certifies
    rows = [row for row in P_LOCAL
            if "determinant" in row["report"].get("message", "")]
    assert [row["report"]["required"] for row in rows] == [7, 9, 7, 9, 9, 9, 11, 9]
    for row in rows:
        def pair(K):
            ring = WittRing(row["p"], row["a"], K)
            return [cli._crystal_from_obj(row[k], ring) for k in "mn"]

        with pytest.raises(PrecisionError) as exc:
            verify_local_identity(*pair(row["K"]))
        assert exc.value.required == row["report"]["required"]
        assert verify_local_identity(*pair(exc.value.required))["equal"], row


PAIRS_BY_CASE = {
    "special-coprime": lambda: (special_module(R31, [-1, 1]),
                                special_module(R31, [-4, 1])),
    "special-equal": lambda: (special_module(R32, [3, -1, 1]),
                              special_module(R32, [3, -1, 1])),
    "free-disjoint": lambda: (Crystal(R31, [[1]]), Crystal(R31, [[4]])),
    "finite-source": lambda: (Crystal(R51, [[1]], exponents=[1]),
                              special_module(R51, [5, -1, 1])),
}


@pytest.mark.parametrize("case", sorted(PAIRS_BY_CASE))
def test_identity_is_one_pass(monkeypatch, case):
    # θ is read once, at K+2: one ring there, built from the crystals' exact
    # coordinates with no crystal moved to it, nothing at any other
    # precision (none at all for special-equal), and one right side from
    # one charpoly per side
    m, n = PAIRS_BY_CASE[case]()
    K = m.ring.K
    rings, moves, charpolys, rhs = [], [], [], []

    def recording(owner, name, log, key):
        fn = getattr(owner, name)

        def wrapper(*args):
            log.append(key(*args))
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    recording(WittRing, "at_precision", rings, lambda ring, k: k)
    recording(Crystal, "with_ring", moves, lambda x, ring: ring.K)
    recording(crystal, "_charpoly_for_identity", charpolys, lambda x: x.coords)
    recording(crystal, "_rhs_value", rhs, lambda *args: 1)
    out = verify_local_identity(m, n)
    assert out["equal"] and out["case"] == case
    assert out["certified_precision"] == K + 2
    assert rings == ([] if case == "special-equal" else [K + 2])
    assert moves == []
    if case == "finite-source":
        assert charpolys == [] and rhs == []
    else:
        assert charpolys == [m.coords, n.coords] and rhs == [1]


def test_finite_source_shares_one_smith_form(monkeypatch):
    # a finite-invertible source with a special target: its torsion-free
    # lift is validated once, and θ is read once, at K+2
    m = Crystal(R51, [[1]], exponents=[1])
    n = special_module(R51, [5, -1, 1])
    depths, lifts = [], []
    check_free = Crystal._check_free

    def counting(mat, p, K):
        depths.append(K)
        return padic_smith(mat, p, K)

    def checked(self):
        if self.coords == m.coords:
            lifts.append(self.ring.K)
        check_free(self)

    monkeypatch.setattr(crystal, "padic_smith", counting)
    monkeypatch.setattr(Crystal, "_check_free", checked)
    out = verify_local_identity(m, n)
    assert out["equal"] and out["case"] == "finite-source"
    assert depths == [R51.K + 2] and lifts == [R51.K]


def test_k_plus_2_check_is_the_theta_rule(monkeypatch):
    # a finite source of exponent 1 against N = diag(1 + 3^8, 1 + 3^12): θ
    # has valuations 8 and 12.  The source's orders cap every valuation at
    # its exponent, where a vanishing divisor counts the same, so one form
    # at K+2 answers at K = 6 what it answers at K = 16
    depths = []

    def counting(mat, p, K):
        depths.append(K)
        return padic_smith(mat, p, K)

    def pair(K):
        ring = WittRing(3, 1, K)
        return (Crystal(ring, [[1]], exponents=[1]),
                Crystal(ring, [[1 + 3 ** 8, 0], [0, 1 + 3 ** 12]]))

    monkeypatch.setattr(crystal, "padic_smith", counting)
    shallow = verify_local_identity(*pair(6))
    assert shallow["equal"] and shallow["certified_precision"] == 8
    assert depths == [8]
    deep = verify_local_identity(*pair(16))
    assert deep["equal"] and deep["certified_precision"] == 18
    assert (shallow["lhs"], shallow["rhs"]) == (deep["lhs"], deep["rhs"])
