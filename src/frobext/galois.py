"""Frobenius modules over Z_l for a finite field of order q (l coprime to q)
and their Hom/Ext groups.

A module is split: Z_l^r with Frobenius acting through an integer matrix
whose determinant is an l-unit, plus a finite l-group with an invertible
action.  All Ext computations reduce to kernels and cokernels of gamma - 1
on two auxiliary gamma-modules,

  * Hom(M, N) over Z_l, and
  * the first Ext of the underlying modules, realized as sum_i N/d_i N over
    the torsion generator orders d_i of M,

each carried as a PairAction (gamma = G o U^{-1} with integer G, U and
l-unit det U), so the whole computation stays in integer Smith normal form
and l-parts are read off at the end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exact import (
    abs_at,
    is_prime,
    l_primary,
    prime_power,
    ratio_limit,
)
from .linalg import (
    Matrix,
    bareiss_det,
    block_diag,
    charpoly,
    identity,
    kron,
    minimal_polynomial,
    transpose,
    zeros,
)
from .zgamma import (
    FinGenAbGroup,
    HypothesisError,
    PairAction,
    finite_automorphism,
    hypothesis_gate,
    moduli_presentation,
)


class GaloisModule:
    """A split Frobenius module: free part + finite l-power torsion part.

    free_frob is r x r over Z with det an l-unit; torsion lists generator
    orders (powers of l, any order, not necessarily a chain) and
    torsion_frob must act invertibly on the corresponding finite group.
    """

    # no per-instance dict: callers keep many modules alive at once
    __slots__ = ("l", "q", "free_frob", "rank", "torsion", "torsion_frob")

    def __init__(self, l: int, q: int, free_frob: Matrix | None = None,
                 torsion: tuple[int, ...] = (), torsion_frob: Matrix | None = None):
        if not is_prime(l):
            raise ValueError("l must be prime")
        p, _ = prime_power(q)
        if p == l:
            raise ValueError("l must not divide q")
        self.l = l
        self.q = q
        self.free_frob = [row[:] for row in free_frob] if free_frob else []
        self.rank = len(self.free_frob)
        if self.rank:
            det = bareiss_det(self.free_frob)
            if det == 0 or det % l == 0:
                raise ValueError("free Frobenius determinant must be an l-unit")
        self.torsion = tuple(torsion)
        for d in self.torsion:
            if d < l or l_primary(d, l) != d:
                raise ValueError("torsion orders must be powers of l")
        s = len(self.torsion)
        self.torsion_frob = ([row[:] for row in torsion_frob]
                             if torsion_frob is not None else identity(s))
        if s and not finite_automorphism(self.torsion_frob, self.torsion, l):
            raise ValueError("torsion action must be invertible")

    def charpoly(self) -> list[int]:
        return charpoly(self.free_frob)

    def min_poly(self, cp: list[int] | None = None) -> list[int]:
        """`cp`: the charpoly, where the caller already holds it."""
        return minimal_polynomial(self.free_frob, cp) if self.rank else [1]

    def __repr__(self):
        return "GaloisModule(l=%d, q=%d, rank=%d, torsion=%s)" % (
            self.l, self.q, self.rank, list(self.torsion))


@dataclass
class ExtReportL:
    """Ext^i(M, N) in the l-adic category; everything beyond degree 2 vanishes.

    Ext^1 is an extension of the bar-Ext invariants (finite) by the Hom
    coinvariants, so its rank is that of the coinvariants.  Its torsion is
    determined when the coinvariants are finite (it is then the full order)
    or the bar-Ext invariants vanish (it is then the coinvariants' torsion).
    """

    l: int
    ext0: FinGenAbGroup
    ext1_rank: int
    ext1_torsion: int | None  # None: the extension is not determined
    ext2: FinGenAbGroup
    z_f: Fraction | None      # None: the hypothesis fails


def _require_compatible(m: GaloisModule, n: GaloisModule):
    if m.l != n.l or m.q != n.q:
        raise ValueError("modules live over different (l, q)")


def hom_module(m: GaloisModule, n: GaloisModule) -> PairAction:
    """Hom_{Z_l}(M, N) with gamma acting by H -> F_N H F_M^{-1}.

    Coordinates: the free-to-free block (row-major), then free-to-torsion,
    then torsion-to-torsion; denominators from F_M^{-1} live in the U matrix
    of the pair, whose determinant is an l-unit.
    """
    _require_compatible(m, n)
    rm, rn = m.rank, n.rank
    sm, sn = len(m.torsion), len(n.torsion)
    blocks_g, blocks_u, moduli = [], [], []
    if rm and rn:
        blocks_g.append(kron(n.free_frob, identity(rm)))
        blocks_u.append(kron(identity(rn), transpose(m.free_frob)))
        moduli.extend([0] * (rm * rn))
    if rm and sn:
        blocks_g.append(kron(n.torsion_frob, identity(rm)))
        blocks_u.append(kron(identity(sn), transpose(m.free_frob)))
        moduli.extend(e for e in n.torsion for _ in range(rm))
    if sm and sn:
        g_tt, u_tt, mod_tt = _hom_torsion_pair(m, n)
        blocks_g.append(g_tt)
        blocks_u.append(u_tt)
        moduli.extend(mod_tt)
    g = block_diag(*blocks_g)
    u = block_diag(*blocks_u)
    return PairAction(moduli_presentation(moduli), g, u)


def _hom_torsion_pair(m: GaloisModule, n: GaloisModule):
    """Hom of the torsion parts in coordinates u_{ji} of modulus gcd(e_j, d_i)
    (the map sending the i-th generator to u_{ji} e_j/gcd * the j-th one)."""
    d, e = m.torsion, n.torsion
    sm, sn = len(d), len(e)
    gt = [[gcd(e[j], d[i]) for i in range(sm)] for j in range(sn)]
    dim = sn * sm
    idx = lambda j, i: j * sm + i
    g_mat = zeros(dim, dim)
    u_mat = zeros(dim, dim)
    for k in range(sn):
        for i in range(sm):
            for j in range(sn):
                num = n.torsion_frob[k][j] * e[j] * gt[k][i]
                den = e[k] * gt[j][i]
                if num % den:
                    raise RuntimeError("left composition must stay integral")
                g_mat[idx(k, i)][idx(j, i)] = num // den
    for j in range(sn):
        for i in range(sm):
            for mm in range(sm):
                num = m.torsion_frob[mm][i] * gt[j][i]
                den = gt[j][mm]
                if num % den:
                    raise RuntimeError("right composition must stay integral")
                u_mat[idx(j, i)][idx(j, mm)] = num // den
    moduli = [gt[j][i] for j in range(sn) for i in range(sm)]
    return g_mat, u_mat, moduli


def ext1_bar_module(m: GaloisModule, n: GaloisModule) -> PairAction:
    """Ext^1 of the underlying modules: sum_i N/d_i N over the torsion
    generator orders d_i of M, with gamma acting by gamma_N on each summand
    and, through U, by the conjugated lift D^{-1} T_M D of the torsion action
    on the index."""
    _require_compatible(m, n)
    sm = len(m.torsion)
    dim_n = n.rank + len(n.torsion)
    d = m.torsion
    lift = zeros(sm, sm)
    for a in range(sm):
        for b in range(sm):
            num = m.torsion_frob[a][b] * d[b]
            if num % d[a]:
                raise RuntimeError("conjugated lift must stay integral")
            lift[a][b] = num // d[a]
    gamma_n = block_diag(n.free_frob, n.torsion_frob)
    g_mat = kron(identity(sm), gamma_n)
    u_mat = kron(transpose(lift), identity(dim_n))
    moduli = []
    for i in range(sm):
        moduli.extend([d[i]] * n.rank)
        moduli.extend(gcd(e, d[i]) for e in n.torsion)
    return PairAction(moduli_presentation(moduli), g_mat, u_mat)


def check_hypothesis(m: GaloisModule, n: GaloisModule, charpolys=(None, None)):
    """The minimal polynomials may not share a root that is multiple in
    either; raises HypothesisError otherwise.  `charpolys`: the modules'
    charpolys, where the caller already holds them."""
    hypothesis_gate(m.min_poly(charpolys[0]), n.min_poly(charpolys[1]))


def ext_groups_l(m: GaloisModule, n: GaloisModule,
                 charpolys=(None, None)) -> ExtReportL:
    """Ext of two l-adic modules: Ext^0 = Hom^Gamma; Ext^1 is an extension
    of the bar-Ext invariants by the Hom coinvariants; Ext^2 = bar-Ext
    coinvariants (always finite); z(f) = z(f_0) / [bar-Ext invariants], f_0
    the map from Hom invariants to Hom coinvariants (None where the
    hypothesis fails).  All are Smith forms over Z, read in l-parts:
    localization at l is exact.  `charpolys` as for `check_hypothesis`."""
    _require_compatible(m, n)
    l = m.l
    f0 = hom_module(m, n).f0()  # Hom invariants -> Hom coinvariants
    bar = ext1_bar_module(m, n)
    try:
        check_hypothesis(m, n, charpolys)
    except HypothesisError:
        z0 = None
    else:
        z0 = f0.z()
        if z0 is None:
            raise RuntimeError("z(f_0) is undefined although the hypothesis"
                               " holds")
    h1 = f0.cod.group().primary_part(l)
    e_inv = bar.invariants().primary_part(l)  # finite, as is bar-Ext
    if h1.free_rank == 0:
        ext1_torsion = h1.order * e_inv.order
    elif e_inv.order == 1:
        ext1_torsion = h1.torsion_order
    else:
        ext1_torsion = None
    return ExtReportL(
        l=l,
        ext0=f0.dom.group().primary_part(l),
        ext1_rank=h1.free_rank,
        ext1_torsion=ext1_torsion,
        ext2=bar.coinvariants().primary_part(l),
        z_f=None if z0 is None else l_primary(z0, l) / e_inv.order,
    )


def _gated_report(m: GaloisModule, n: GaloisModule,
                  charpolys=(None, None)) -> ExtReportL:
    """ext_groups_l, raising the hypothesis gate's error where z(f) is
    undefined."""
    rep = ext_groups_l(m, n, charpolys)
    if rep.z_f is None:
        check_hypothesis(m, n, charpolys)  # None only where the gate fails
    return rep


def f_map_and_z(m: GaloisModule, n: GaloisModule):
    """(z(f), z(f) * [Ext^2]) where f is the Hom -> coinvariants-of-Hom-bar
    comparison map; z(f) = z(f_0) / [bar-Ext invariants], all in l-parts."""
    rep = _gated_report(m, n)
    return rep.z_f, rep.z_f * rep.ext2.order


def verify_local_identity(m: GaloisModule, n: GaloisModule) -> dict:
    """Check z(f) * [Ext^2(M,N)] = |prod over eigenvalue pairs a_i != b_j of
    (1 - b_j/a_i)|_l, the left side by Smith normal form and the right side
    by resultants."""
    charpolys = m.charpoly(), n.charpoly()
    rep = _gated_report(m, n, charpolys)
    lhs = rep.z_f * rep.ext2.order
    rho, nstar = ratio_limit(*charpolys)
    rhs = abs_at(m.l, nstar)
    return {
        "l": m.l,
        "q": m.q,
        "z_f": rep.z_f,
        "ext2_order": rep.ext2.order,
        "lhs": lhs,
        "rhs": rhs,
        "rho_pairs": rho,
        "equal": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# random instances for the verification harness


def random_module(rng: random.Random, l: int, q: int, max_rank: int = 3,
                  max_torsion: int = 2) -> GaloisModule:
    rank = rng.randint(0, max_rank)
    free = None
    if rank:
        while True:
            free = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
            det = bareiss_det(free)
            if det != 0 and det % l != 0:
                break
    torsion = tuple(l ** rng.randint(1, 2) for _ in range(rng.randint(0, max_torsion)))
    tfrob = None
    if torsion:
        s = len(torsion)
        while True:
            tfrob = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)]
            for j in range(s):
                for i in range(s):
                    step = torsion[j] // gcd(torsion[j], torsion[i])
                    tfrob[j][i] *= step
                if tfrob[j][j] % l == 0:
                    tfrob[j][j] += 1  # push the diagonal away from l
            try:
                if finite_automorphism(tfrob, torsion, l):
                    break
            except ValueError:
                continue
    return GaloisModule(l, q, free, torsion, tfrob)


def random_admissible_pair(rng: random.Random, l: int, q: int,
                           max_rank: int = 3, max_torsion: int = 2):
    """A pair satisfying the no-shared-multiple-root hypothesis."""
    for _ in range(200):
        m = random_module(rng, l, q, max_rank, max_torsion)
        n = random_module(rng, l, q, max_rank, max_torsion)
        try:
            check_hypothesis(m, n)
        except HypothesisError:
            continue
        return m, n
    raise RuntimeError("could not generate an admissible pair")
