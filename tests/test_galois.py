import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobext import cli
from frobext.exact import l_primary
from frobext.galois import (
    GaloisModule,
    check_hypothesis,
    ext1_bar_module,
    ext_groups_l,
    f_map_and_z,
    hom_module,
    random_admissible_pair,
    random_module,
    verify_local_identity,
)
from frobext.linalg import block_diag, companion, dims, identity, mat_mul
from frobext.zgamma import HypothesisError


def test_module_validation():
    with pytest.raises(ValueError):
        GaloisModule(3, 9, [[1]])  # l divides q
    with pytest.raises(ValueError):
        GaloisModule(2, 3, [[2]])  # det not a 2-unit
    with pytest.raises(ValueError):
        GaloisModule(2, 3, None, (6,))  # 6 is not a 2-power
    with pytest.raises(ValueError):
        GaloisModule(2, 3, None, (2,), [[2]])  # kills the generator
    m = GaloisModule(2, 3, [[1, 1], [0, 1]], (2, 4), [[1, 2], [0, 1]])
    assert m.rank == 2 and m.torsion == (2, 4)


def test_trivial_pair():
    one = GaloisModule(2, 3, [[1]])
    rep = ext_groups_l(one, one)
    assert rep.ext0.free_rank == 1 and rep.ext0.torsion == ()
    assert rep.ext1_rank == 1
    assert rep.ext2.order == 1
    assert rep.z_f == 1
    out = verify_local_identity(one, one)
    assert out["equal"] and out["lhs"] == 1 and out["rho_pairs"] == 1


def test_twist_line_orders():
    # against the q^r-eigenvalue line, [Ext^1] is the l-part of q^r - 1
    for l, q, r in [(2, 3, 1), (2, 3, 2), (3, 2, 2), (2, 7, 1), (31, 2, 5)]:
        one = GaloisModule(l, q, [[1]])
        line = GaloisModule(l, q, [[q**r]])
        rep = ext_groups_l(one, line)
        assert rep.ext0.order == 1
        assert rep.ext1_rank == 0
        assert rep.ext1_torsion == l_primary(q**r - 1, l)
        assert rep.ext2.order == 1
        out = verify_local_identity(one, line)
        assert out["equal"]
        assert out["lhs"] == 1 / l_primary(q**r - 1, l)


def test_torsion_source():
    # M = Z/l with trivial action against the trivial line
    for l in (2, 5):
        m = GaloisModule(l, 3, None, (l,))
        n = GaloisModule(l, 3, [[1]])
        rep = ext_groups_l(m, n)
        assert rep.ext0.order == 1
        assert (rep.ext1_rank, rep.ext1_torsion) == (0, l)
        assert rep.ext2.order == l and rep.ext2.torsion == (l,)
        out = verify_local_identity(m, n)
        assert out["lhs"] == out["rhs"] == 1
        # and the finite-coefficient duality: [Hom(N, M)] = [Ext^2(M, N)]
        assert ext_groups_l(n, m).ext0.order == l


def test_ext1_torsion_rule():
    # Ext^1 extends the bar-Ext invariants by the Hom coinvariants: its
    # torsion is determined when the coinvariants are finite or the bar-Ext
    # invariants vanish, and its full order only in the first case
    for l in (2, 5):
        one = GaloisModule(l, 3, [[1]])
        decorated = GaloisModule(l, 3, [[1]], (l,))
        rep = ext_groups_l(one, decorated)  # no bar-Ext: torsion from Hom
        assert (rep.ext1_rank, rep.ext1_torsion) == (1, l)
        rep = ext_groups_l(decorated, one)  # both pieces: not determined
        assert (rep.ext1_rank, rep.ext1_torsion) == (1, None)
        rep = ext_groups_l(GaloisModule(l, 3, None, (l,)), one)
        assert (rep.ext1_rank, rep.ext1_torsion) == (0, l)


def test_integrality_checks_raise():
    # a torsion action that is no endomorphism (a generator of order 3 sent
    # to one of order 9) breaks the integral coordinates of Hom and bar-Ext;
    # the checks raise, also under python -O
    m = GaloisModule(3, 2, None, (3, 9), [[1, 0], [3, 2]])
    m.torsion_frob = [[1, 0], [1, 1]]
    with pytest.raises(RuntimeError, match="must stay integral"):
        hom_module(m, m)
    with pytest.raises(RuntimeError, match="must stay integral"):
        ext1_bar_module(m, m)


def test_ext1_bar_shape():
    m = GaloisModule(2, 3, None, (2, 4))
    n = GaloisModule(2, 3, [[1]])
    pair = ext1_bar_module(m, n)
    assert pair.pres.gens == 2
    assert pair.invariants().order == 8  # trivial action keeps all of Z/2 + Z/4


def solve_exact(a, b):
    """Solve A X = B over Q for A with full column rank (test oracle)."""
    m, n = dims(a)
    k = dims(b)[1]
    aug = [[Fraction(x) for x in ra] + [Fraction(y) for y in rb]
           for ra, rb in zip(a, b)]
    r = 0
    for c in range(n):
        piv = next(i for i in range(r, m) if aug[i][c] != 0)
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return [[aug[i][n + j] for j in range(k)] for i in range(n)]


def _frac(mat):
    return [[Fraction(x) for x in row] for row in mat]


def test_hom_action_is_conjugation():
    # rank-2 self-pair: gamma on Hom must be H -> F H F^{-1} in row-major vec
    f = companion([3, -1, 1])
    m = GaloisModule(5, 3, f)
    pair = hom_module(m, m)
    eye4 = _frac(identity(4))
    gamma = mat_mul(_frac(pair.g_mat), solve_exact(pair.u_mat, eye4))
    f_inv = solve_exact(f, _frac(identity(2)))
    for i in range(2):
        for j in range(2):
            h = [[Fraction(int((r, c) == (i, j))) for c in range(2)] for r in range(2)]
            img = mat_mul(mat_mul(_frac(f), h), f_inv)
            vec = [[img[r][c]] for r in range(2) for c in range(2)]
            basis = [[Fraction(int(k == i * 2 + j))] for k in range(4)]
            assert mat_mul(gamma, basis) == vec


def test_self_pair_weight_one():
    # t^2 - t + 3: eigenvalue ratios are 1, 1, x, 1/x with
    # (1 - x)(1 - 1/x) = (4q - a^2)/q = 11/3
    m = GaloisModule(11, 3, companion([3, -1, 1]))
    out = verify_local_identity(m, m)
    assert out["rho_pairs"] == 2
    assert out["rhs"] == Fraction(1, 11)
    assert out["equal"]
    m2 = GaloisModule(2, 3, companion([3, -1, 1]))
    out2 = verify_local_identity(m2, m2)
    assert out2["rhs"] == 1 and out2["equal"]


def test_hypothesis_gate():
    jordan = GaloisModule(2, 3, [[1, 1], [0, 1]])
    with pytest.raises(HypothesisError):
        f_map_and_z(jordan, jordan)
    assert ext_groups_l(jordan, jordan).z_f is None
    # a unipotent block against a disjoint eigenvalue is fine
    n = GaloisModule(2, 3, [[3]])
    check_hypothesis(jordan, n)
    out = verify_local_identity(jordan, n)
    assert out["equal"] and out["lhs"] == Fraction(1, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_local_identity_random(seed, l):
    rng = random.Random(seed)
    choices = [q for q in (2, 3, 4, 5, 7, 9) if q % l != 0]
    m, n = random_admissible_pair(rng, l, rng.choice(choices), max_rank=3)
    out = verify_local_identity(m, n)
    assert out["equal"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_duality_torsion_vs_free(seed, l):
    rng = random.Random(seed)
    q = 3 if l != 3 else 2
    m = random_module(rng, l, q, max_rank=0, max_torsion=3)  # torsion only
    n = random_module(rng, l, q, max_rank=3, max_torsion=0)  # free only
    assert ext_groups_l(n, m).ext0.order == ext_groups_l(m, n).ext2.order


def _direct_sum(m: GaloisModule, n: GaloisModule) -> GaloisModule:
    return GaloisModule(
        m.l, m.q,
        block_diag(m.free_frob, n.free_frob) if m.rank + n.rank else None,
        m.torsion + n.torsion, block_diag(m.torsion_frob, n.torsion_frob))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_direct_sum_additivity(seed):
    rng = random.Random(seed)
    l = rng.choice([2, 3])
    m1 = random_module(rng, l, 5, 2, 1)
    m2 = random_module(rng, l, 5, 2, 1)
    n = random_module(rng, l, 5, 2, 1)
    whole = ext_groups_l(_direct_sum(m1, m2), n)
    p1, p2 = ext_groups_l(m1, n), ext_groups_l(m2, n)
    assert whole.ext0.free_rank == p1.ext0.free_rank + p2.ext0.free_rank
    assert whole.ext0.torsion_order == p1.ext0.torsion_order * p2.ext0.torsion_order
    assert whole.ext2.order == p1.ext2.order * p2.ext2.order
    assert whole.ext1_rank == p1.ext1_rank + p2.ext1_rank
    if whole.ext1_rank == 0:
        assert whole.ext1_torsion == p1.ext1_torsion * p2.ext1_torsion


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_ext2_always_finite(seed):
    rng = random.Random(seed)
    l = rng.choice([2, 3, 5])
    m = random_module(rng, l, 7 if l != 7 else 2, 2, 2)
    n = random_module(rng, l, 7 if l != 7 else 2, 2, 2)
    rep = ext_groups_l(m, n)
    assert rep.ext2.is_finite
    assert all(d % l == 0 for d in rep.ext2.torsion)


# For l in {2, 3, 5, 7} (q = 3 at l = 2, else 2, as `verify-local` picks),
# the first 25 pairs random_admissible_pair(random.Random(l), l, q,
# max_rank=4) draws, each with its verify_local_identity report: the table
# pins the generator's draws and every l-adic answer on them
L_LOCAL = json.loads(
    (pathlib.Path(__file__).parent / "data" / "l_local_reports.json").read_text())


def test_l_local_golden_reports():
    rngs = {}
    for row in L_LOCAL:
        l, q = row["l"], row["q"]
        rng = rngs.setdefault(l, random.Random(l))
        m, n = random_admissible_pair(rng, l, q, max_rank=4)
        assert (cli._module_obj(m), cli._module_obj(n)) == (row["m"], row["n"])
        assert cli._jsonable(verify_local_identity(m, n)) == row["report"], row
    assert sorted(rngs) == [2, 3, 5, 7] and len(L_LOCAL) == 100


# On the same 100 draws, every field of ext_groups_l: the groups Ext^0 and
# Ext^2, Ext^1's rank and torsion order, and z(f)
L_EXT_GROUPS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "l_ext_groups.json").read_text())


def _group_obj(g):
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def test_l_ext_groups_golden():
    rngs = {}
    for row in L_EXT_GROUPS:
        l, q = row["l"], row["q"]
        rng = rngs.setdefault(l, random.Random(l))
        rep = ext_groups_l(*random_admissible_pair(rng, l, q, max_rank=4))
        got = {"l": l, "q": q, "ext0": _group_obj(rep.ext0),
               "ext1_rank": rep.ext1_rank, "ext1_torsion": rep.ext1_torsion,
               "ext2": _group_obj(rep.ext2), "z_f": cli._jsonable(rep.z_f)}
        assert got == row
    assert [(r["l"], r["q"]) for r in L_EXT_GROUPS] == \
        [(r["l"], r["q"]) for r in L_LOCAL]
