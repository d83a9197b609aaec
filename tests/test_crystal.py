import json
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from frobext import cli, crystal
from frobext.exact import (
    PrecisionError, abs_at, poly_deriv, poly_mul, poly_pow, resultant,
    valuation)
from frobext.linalg import (
    block_diag, companion, identity, kron, mat_mul, mat_sub,
    padic_det_valuation, padic_smith, smith_normal_form, sparse_rows,
    transpose)
from frobext.witt import WittRing, _pm_mul
from frobext.zgamma import FinGenAbGroup, HypothesisError
from lift_oracle import lift_orders
from frobext.crystal import (
    Crystal,
    LOCAL_CASES,
    crystal_charpoly,
    ext_koszul_k,
    ext_presentation,
    koszul_orders,
    k_module,
    lefschetz_crystal,
    random_finite_crystal,
    random_local_pair,
    random_special_module,
    special_module,
    unit_crystal,
    verify_local_identity,
    _semilinear_int_matrix,
    _theta_int,
    _z_derivative_map,
)

R31 = WittRing(3, 1)
R51 = WittRing(5, 1)
R32 = WittRing(3, 2)


def _frobenius_power(x: Crystal):
    """Φ^a mod p^K, Φ the Z_p-matrix of the semilinear F: the Z_p-matrix of
    the W-linear a-th Frobenius iterate."""
    ring = x.ring
    phi = _semilinear_int_matrix(ring, x.coords)
    out = identity(len(phi))
    for _ in range(ring.a):
        out = [[c % ring.pK for c in row] for row in mat_mul(out, phi)]
    return out


def _poly_eval(poly, mat, mod: int):
    """poly(mat) mod `mod`, by Horner, scalars on the diagonal."""
    n = len(mat)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(poly):
        acc = mat_mul(acc, mat)
        for i in range(n):
            acc[i][i] += c
        acc = [[x % mod for x in row] for row in acc]
    return acc


def _z_derivative_on_crystal(m: Crystal) -> Fraction:
    """The derivative map's |det|_p read off the crystal's own Z_p-matrix
    at its working precision: the route `_z_derivative_map` replaces."""
    ring = m.ring
    pi = _frobenius_power(m)
    f = mat_mul(pi, _poly_eval(poly_deriv(m.special_poly), pi, ring.pK))
    v = padic_det_valuation(f, ring.p, ring.K)
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


@pytest.mark.parametrize("p, a, K, m", [
    (3, 1, 20, [5, -1, 1]), (3, 2, 20, [3, -1, 1]), (2, 3, 20, [-2, 1, 0, 1]),
    # 20^2 = 400 lies above 3^4 / 2: its balanced lift is 400 - 5·81 = -5
    (3, 2, 4, [20, 1])])
def test_charpoly_of_general_coords_is_min_poly_power(p, a, K, m):
    # a special module's F-matrix read as a general crystal (no special_poly)
    # goes through the semilinear Φ: its charpoly is m^a, balanced mod p^K
    ring = WittRing(p, a, K)
    x = Crystal(ring, special_module(ring, m).coords)
    assert x.special_poly is None
    pK = ring.pK
    want = [c % pK for c in poly_pow(m, a)]
    assert crystal_charpoly(x) == [c - pK if c > pK // 2 else c for c in want]
    if K == 4:
        assert poly_pow(m, a)[0] == 400 and crystal_charpoly(x)[0] == -5


def test_charpoly_refuses_a_wrong_sigma():
    # σ = identity over W(F_9): Φ is the W-linear 1 + x, whose Z_p-charpoly
    # (t - 1)^2 + 1 is not a polynomial in t^2
    ring = WittRing(3, 2)
    ring.sigma_matrix = identity(2)
    with pytest.raises(RuntimeError, match=r"not a polynomial in t\^a"):
        crystal_charpoly(Crystal(ring, [[[1, 1]]]))


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


def _koszul_brute(m, n):
    """Cohomology orders of Hom(P, N) = N^k -> N^2k -> N^k for the
    resolution P of the finite source M (generators e_j, relations
    r_j = F e_j - Σ_i c_ij e_i and s_j = p^{n_j} e_j, syzygies t_j =
    p^{n_j} r_j - F s_j + Σ_i c_ij p^{n_j - n_i} s_i), by enumeration of
    N^k and of the subgroup of N^k that the image of d1 spans."""
    ring, p, k = n.ring, n.ring.p, m.dim
    phi = _semilinear_int_matrix(ring, n.coords)
    mods = [p ** e for e in n.exponents for _ in range(ring.a)]

    def act(mat, x):
        return [sum(c * v for c, v in zip(row, x)) for row in mat]

    def scalar(c, x):
        return act(block_diag(*[ring.mul_matrix(c)] * n.dim), x)

    def reduce(*terms):
        return tuple(sum(t) % d for t, d in zip(zip(*terms), mods))

    def d0(x):
        rel = [reduce(act(phi, x[j]), *([-v for v in scalar(m.coords[i][j], x[i])]
                                         for i in range(k)))
               for j in range(k)]
        return tuple(rel + [reduce(scalar([p ** nj], x[j]))
                            for j, nj in enumerate(m.exponents)])

    def d1(y):
        return tuple(reduce(
            scalar([p ** nj], y[j]), [-v for v in act(phi, y[k + j])],
            *(scalar([c * p ** nj // p ** ni for c in m.coords[i][j]], y[k + i])
              for i, ni in enumerate(m.exponents)))
            for j, nj in enumerate(m.exponents))

    zero_n = (0,) * len(mods)
    group = list(product(*(range(d) for d in mods)))
    cochains = list(product(group, repeat=k))
    zero = (zero_n,) * k
    assert all(d1(d0(x)) == zero for x in cochains)
    e0 = sum(1 for x in cochains if d0(x) == (zero_n,) * (2 * k))
    # the image of d1 is spanned by the images of the unit cochains of N^2k
    units = [tuple(tuple(int(b == i and c == j) for c in range(len(mods)))
                   for b in range(2 * k))
             for i in range(2 * k) for j in range(len(mods))]
    gens = [d1(u) for u in units]
    image, frontier = {zero}, [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(reduce(a, b) for a, b in zip(x, g))
            if y not in image:
                image.add(y)
                frontier.append(y)
    size = len(cochains)
    ker_d1, im_d0 = size * size // len(image), size // e0
    return e0, ker_d1 // im_d0, size // len(image)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(2, 1), (3, 1), (2, 2)]))
def test_koszul_matches_enumeration(seed, pa):
    # any finite source, mixed exponents and a singular F included, against
    # a finite target small enough to enumerate N^k
    p, a = pa
    rng = random.Random(seed)
    ring = WittRing(p, a)
    m = random_finite_crystal(rng, ring, max_gens=2, max_exp=3)
    n = random_finite_crystal(rng, ring, max_gens=2, max_exp=2)
    while p ** (a * sum(n.exponents) * m.dim) > 4096:
        n = random_finite_crystal(rng, ring, max_gens=1, max_exp=2)
    assert koszul_orders(m, n) == _koszul_brute(m, n)


def test_koszul_k_is_the_finite_source_route():
    # the residue field is the finite source k with zero F
    rng = random.Random(5)
    for _ in range(5):
        n = random_finite_crystal(rng, R32, max_gens=2, max_exp=3)
        assert ext_koszul_k(n) == koszul_orders(k_module(R32), n)


def _random_free_crystal(rng, ring: WittRing) -> Crystal:
    """A torsion-free crystal of rank 1 or 2 with random Witt entries."""
    p = ring.p
    while True:
        r = rng.randint(1, 2)
        coords = [[[rng.randrange(-p * p, p * p) for _ in range(ring.a)]
                   for _ in range(r)] for _ in range(r)]
        try:
            return Crystal(ring, coords)
        except ValueError:
            continue


LIFT_RINGS = {(p, a): WittRing(p, a) for p in (2, 3, 5) for a in (1, 2)}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(LIFT_RINGS)),
       st.sampled_from(["finite", "special", "free"]))
def test_koszul_vs_the_lift_oracle(seed, key, target):
    # on a source with invertible F at one exponent, the torsion-free lift
    # reads the same three orders, into finite and torsion-free targets
    ring = LIFT_RINGS[key]
    rng = random.Random(seed)
    m = random_finite_crystal(rng, ring, max_exp=3, invertible=True)
    n = {"finite": lambda: random_finite_crystal(rng, ring, max_exp=3),
         "special": lambda: random_special_module(rng, ring),
         "free": lambda: _random_free_crystal(rng, ring)}[target]()
    assert koszul_orders(m, n) == lift_orders(m, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.sampled_from(sorted(LIFT_RINGS)),
       st.sampled_from(["special", "free"]))
def test_identity_on_any_finite_source(seed, key, target):
    # mixed exponents and a singular F, which the lift could not read,
    # against torsion-free targets, where [Ext¹] = [Ext²] is no Euler
    # tautology: the identity holds
    ring = LIFT_RINGS[key]
    rng = random.Random(seed)
    m = random_finite_crystal(rng, ring, max_gens=3, max_exp=4)
    n = random_special_module(rng, ring) if target == "special" \
        else _random_free_crystal(rng, ring)
    out = verify_local_identity(m, n)
    assert out["equal"] and out["certified_precision"] is None, out


def test_koszul_reads_a_direct_sum_blockwise():
    # a mixed-exponent source with block-diagonal F is the direct sum of
    # single-exponent sources the lift reads, and its orders multiply
    ring = WittRing(3, 1)
    blocks = [Crystal(ring, [[1, 3], [1, 1]], exponents=[2, 2]),
              Crystal(ring, [[2]], exponents=[1])]
    m = Crystal(ring, [[1, 3, 0], [1, 1, 0], [0, 0, 2]], exponents=[2, 2, 1])
    for n in (special_module(ring, [-4, 1]), special_module(ring, [3, -1, 1]),
              Crystal(ring, [[1, 9], [0, 4]], exponents=[3, 1])):
        got = koszul_orders(m, n)
        parts = [lift_orders(b, n) for b in blocks]
        assert got == tuple(x * y for x, y in zip(*parts))


def test_finite_source_orders():
    # (W/p, sigma) against the unit crystal: Hom = 0, [Ext^1] = [Ext^2] = p
    m = Crystal(R51, [[1]], exponents=[1])
    assert koszul_orders(m, unit_crystal(R51)) == (1, 5, 5)
    # sources the lift could not read are answered: a singular F, and mixed
    # exponents (W/25 ⊕ W/5, F = sigma), and the identity holds on both
    assert koszul_orders(k_module(R51), unit_crystal(R51)) == (1, 1, 1)
    mixed = Crystal(R51, [[1, 0], [0, 1]], exponents=[2, 1])
    assert koszul_orders(mixed, unit_crystal(R51)) == (1, 125, 125)
    for src in (Crystal(R51, [[5]], exponents=[2]), mixed):
        out = verify_local_identity(src, unit_crystal(R51))
        assert out["case"] == "finite-source" and out["equal"]
        assert out["certified_precision"] is None
    with pytest.raises(ValueError, match="finite"):
        koszul_orders(unit_crystal(R51), unit_crystal(R51))


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
    mat = _poly_eval(m.special_poly, _frobenius_power(n), ring.pK)
    vals = padic_smith(sparse_rows(mat), len(mat), p, ring.K)
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


def test_theta_stores_its_nonzero_entries_only():
    # (1, L) over F_1024 has a θ at the p-adic cap, of size
    # a·r(M)·r(N) = 1000.  Each F is a companion matrix with one nonzero
    # entry per row and per column, so each of θ's 100 block rows takes a
    # times one block of u·F_M (a diagonal block) and one of F_N·σ(u) (an
    # integer times σ's matrix, 91 nonzero entries at a = 10): 10100
    # entries, where the dense matrix has 10^6.  No size² matrix is made on
    # the way either: a 1000×1000 list of zeros alone takes 8 MB.
    import tracemalloc
    ring = WittRing(2, 10)
    m, n = special_module(ring, [-1, 1]), special_module(ring, [-1024, 1])
    sigma_entries = sum(1 for row in ring.sigma_matrix for x in row if x)
    assert sigma_entries == 91
    tracemalloc.start()
    try:
        theta = _theta_int(m, n, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(theta) == 1000
    assert sum(map(len, theta)) == 100 * (10 + sigma_entries) == 10100
    assert peak < 4 * 2 ** 20, peak


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
        assert [{c: x % ring.pK for c, x in row.items() if x % ring.pK}
                for row in lifted] == \
            [{c: x % ring.pK for c, x in row.items() if x % ring.pK}
             for row in shallow]


def test_one_smith_form_per_pair(monkeypatch):
    depths = []

    def counting(rows, ncols, p, K):
        depths.append(K)
        return padic_smith(rows, ncols, p, K)

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
    """v_p(det F^a) read off Φ^a mod p^K, divided by a: the route the exact
    determinant replaces."""
    return padic_det_valuation(_frobenius_power(x), x.ring.p, x.ring.K) \
        // x.ring.a


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


# general Witt coordinates, zero and nonzero entries mixed, det F nonzero
_GENERAL_32 = ([[[2, -1], 0, [0, 4]], [0, [1, 1], 0], [[5, 0], 0, [-3, 2]]],
               [[[0, 1], [7, 0]], [0, [1, -2]]])
_GENERAL_23 = ([[[1, 0, 1], 0], [[0, 2, -1], [0, 0, 3]]],
               [[0, [1, 1, 0], 0], [[2, 0, 1], 0, 0], [0, 0, [0, 0, 1]]])


@pytest.mark.parametrize("ring, rm, rn", [
    (R31, 2, 3), (R32, 3, 2), (R32, 3, 1), (WittRing(2, 3), 2, 2),
    (R32, *_GENERAL_32), (WittRing(2, 3), *_GENERAL_23)])
def test_theta_is_the_presentation_map(monkeypatch, ring, rm, rn):
    # every entry of θ against the presentation map u -> u·F_M -
    # F_N·sigma(u), applied to each coordinate vector u (one Witt
    # coordinate of one entry of a W-linear map M -> N), on F-matrices that
    # are not symmetric; θ stores its nonzero entries only, and it
    # multiplies by each nonzero entry of F_M and F_N once, not once per
    # row and column it touches, and not at all by a zero entry.  `rm` and
    # `rn` are a rank (a unitriangular F) or an F-matrix.
    m, n = (_unitriangular(ring, r) if isinstance(r, int) else Crystal(ring, r)
            for r in (rm, rn))
    rm, rn, a, h, pK = m.dim, n.dim, ring.a, ring.modulus, ring.pK
    fm, fn = m.coords, n.coords

    def dot(pairs):  # Σ x·y over W mod p^K, on coordinate lists
        out = [0] * a
        for x, y in pairs:
            out = [(u + v) % pK for u, v in zip(out, _pm_mul(x, y, h, pK))]
        return out

    calls = []
    mul_matrix = WittRing.mul_matrix
    monkeypatch.setattr(WittRing, "mul_matrix",
                        lambda r, w: calls.append(w) or mul_matrix(r, w))
    theta = _theta_int(m, n, ring)
    assert len(calls) == sum(any(c) for x in (m, n)
                             for row in x.coords for c in row)
    size = a * rm * rn
    assert len(theta) == size
    assert all(0 <= c < size and x for row in theta for c, x in row.items())
    for col in range(size):
        flat = [int(k == col) for k in range(size)]
        u = [[flat[(i * rm + j) * a:(i * rm + j + 1) * a]
              for j in range(rm)] for i in range(rn)]
        want = [[(x - y) % pK for x, y in zip(
                    dot((u[i][k], fm[k][j]) for k in range(rm)),
                    dot((fn[i][k], ring.sigma(u[k][j])) for k in range(rn)))]
                for i in range(rn) for j in range(rm)]
        got = [row.get(col, 0) % pK for row in theta]
        assert got == [c for x in want for c in x], col


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


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
    theta = _theta_int(m, n, ring)
    hom = GroupHom(pres, pres, _dense(theta, len(theta)))
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
    # one charpoly per side.  A finite source reads no θ, so it builds no
    # ring, no charpoly and no right side, and certifies no precision
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
    assert moves == []
    if case == "finite-source":
        assert out["certified_precision"] is None
        assert rings == [] and charpolys == [] and rhs == []
    else:
        assert out["certified_precision"] == K + 2
        assert rings == ([] if case == "special-equal" else [K + 2])
        assert charpolys == [m.coords, n.coords] and rhs == [1]


def _no_theta(*args):
    raise AssertionError("a finite source reads no θ")


def test_finite_source_shares_one_smith_form(monkeypatch):
    # a finite-invertible source with a special target: no torsion-free lift
    # is built and no θ is read; the complex into N/p takes three local
    # Smith forms, each mod p^2
    m = Crystal(R51, [[1]], exponents=[1])
    n = special_module(R51, [5, -1, 1])
    depths, lifts = [], []
    check_free = Crystal._check_free

    def counting(rows, ncols, p, K):
        depths.append(K)
        return padic_smith(rows, ncols, p, K)

    def checked(self):
        if self.coords == m.coords:
            lifts.append(self.ring.K)
        check_free(self)

    monkeypatch.setattr(crystal, "padic_smith", counting)
    monkeypatch.setattr(crystal, "_theta_int", _no_theta)
    monkeypatch.setattr(Crystal, "_check_free", checked)
    out = verify_local_identity(m, n)
    assert out["equal"] and out["case"] == "finite-source"
    assert out["certified_precision"] is None
    assert depths == [2, 2, 2] and lifts == []


def test_k_plus_2_check_is_the_theta_rule(monkeypatch):
    # a finite source of exponent 1 against N = diag(1 + 3^8, 1 + 3^12), a
    # θ with valuations 8 and 12 that the lift route read at K+2 with no
    # count: the complex into N/3 reads no θ and does not depend on K, so
    # K = 6 and K = 16 take the same three forms and give the same answer
    depths = []

    def counting(rows, ncols, p, K):
        depths.append(K)
        return padic_smith(rows, ncols, p, K)

    def pair(K):
        ring = WittRing(3, 1, K)
        return (Crystal(ring, [[1]], exponents=[1]),
                Crystal(ring, [[1 + 3 ** 8, 0], [0, 1 + 3 ** 12]]))

    monkeypatch.setattr(crystal, "padic_smith", counting)
    monkeypatch.setattr(crystal, "_theta_int", _no_theta)
    shallow = verify_local_identity(*pair(6))
    assert shallow["equal"] and shallow["certified_precision"] is None
    assert depths == [2, 2, 2]
    deep = verify_local_identity(*pair(16))
    assert deep == shallow and depths == [2, 2, 2] * 2
    assert koszul_orders(*pair(6)) == koszul_orders(*pair(16)) == (1, 9, 9)


def test_koszul_complex_check_is_not_an_assert(monkeypatch):
    # a complex whose d1·d0 is not zero on N^k is an internal error
    def broken(m, n):
        d0, d1 = koszul_complex(m, n)
        d1[0][0] += 1
        return d0, d1

    koszul_complex = crystal._koszul_complex
    monkeypatch.setattr(crystal, "_koszul_complex", broken)
    with pytest.raises(RuntimeError, match="d1·d0"):
        ext_koszul_k(Crystal(R31, [[1]], exponents=[2]))
