"""Motives over F_q carried as a Frobenius characteristic polynomial with the
standard lattice at every good prime and optional torsion at finitely many
exceptional primes l != p; at p the charpoly determines the cyclic F-crystal.

Global Hom is the integer commutation lattice of the charpoly companions,
the kernel of S: H -> H C_X - C_Y H.  Both lattices are cyclic Z[T]-modules,
so one gcd split D = gcd(P_X, P_Y), A = P_X/D, B = P_Y/D per pair
(`_hom_system`) gives rho = deg D, the Ext^1 torsion |Res(A, B)|, the trace
discriminant |Res(D, D' A B)| and z(f_0).  Their l-parts are the local data
at every l != p where both local modules are the companion lattices, and at
p, where the cyclic crystals are induced from them.  So away from the primes
where a motive carries exceptional torsion, the global Ext orders are read
off the gcd split in closed form, and the local identities there are the
l-parts of one rational equality, z(f_0) |q^chi N*| = 1, where

    N* = prod over eigenvalue pairs a_i != b_j of (1 - b_j/a_i).

Each exceptional prime takes the l-adic machinery of `galois`.

Two verifiers compare the assembled group data against the leading
coefficient of the zeta side q^chi * prod(1 - (b_j/a_i) q^-s) at s = 0:

  * verify_global_identity: |q^chi N*| = [Ext^1] D / ([Hom_tors][Ext^2_cotors]),
  * verify_weil_identity:   |q^chi N*| * z(f) * [Ext^2_W] = 1,

where z(f) = [Ker f]/[Coker f] is the product of the local comparison-map
values.  The second form is the product formula applied to the local
identities; the first refines it by the factorization of the trace
discriminant D.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exact import (
    abs_at,
    int_valuation,
    l_primary,
    poly_deg,
    poly_deriv,
    poly_gcd_monic,
    poly_mul,
    poly_quo_monic,
    prime_factors,
    prime_power,
    ratio_limit,
    resultant,
)
from .galois import GaloisModule, ext_groups_l, hom_module
# unused here, but the benchmark harness's self-check (perfbench/selfcheck.py,
# tracing) asserts that this alias is rebound and restored
from .galois import verify_local_identity as _verify_galois_pair  # noqa: F401
from .linalg import companion, transpose
from .zgamma import HypothesisError

# input caps.  A pair's integer Hom lattice is d_X·d_Y square, d the rank.
# Its Hom system is read off resultants of polynomials of degree at most d,
# at every prime p included, so the cap bounds `hom_motives`' basis and
# `verify-local`'s bound and replay ranks on the galois route more than it
# bounds `ext`.  `_assemble` refuses a pair above it, and a motive that
# would exceed it even against a rank-one partner is refused when it is
# constructed.  The residue degree a is not capped: no motive computation
# grows with a itself, only with the size of q (CHANGES.md has the
# timings).
MAX_HOM_DIM = 144
# torsion generators of an l-adic module read from JSON, exceptional or
# replayed: the galois route's integer Smith forms grow fast with them
MAX_TORSION_GENS = 6


def check_cap(what: str, value: int, cap: int):
    if value > cap:
        raise ValueError("%s %d, above the cap of %d" % (what, value, cap))


def _check_caps(dx: int, dy: int):
    check_cap("ranks %d and %d give an integer Hom system of dimension"
              % (dx, dy), dx * dy, MAX_HOM_DIM)


def _is_squarefree(c: list[int]) -> bool:
    if poly_deg(c) < 2:
        return True
    return poly_deg(poly_gcd_monic(c, poly_deriv(c))) < 1


def newton_slopes(c: list[int], p: int, a: int) -> list[Fraction]:
    """Valuations of the roots of a monic integer polynomial, normalized so
    that q = p^a has valuation 1; ascending, one entry per root.

    >>> newton_slopes([5, -6, 1], 5, 1)   # roots 1 and 5
    [Fraction(0, 1), Fraction(1, 1)]
    """
    n = poly_deg(c)
    pts = [(i, int_valuation(abs(c[i]), p)) for i in range(n + 1) if c[i] != 0]
    out: list[Fraction] = []
    i, vi = pts[0]
    while i < n:
        # steepest descent to the next vertex of the lower hull
        best = None
        for j, vj in pts:
            if j <= i:
                continue
            s = Fraction(vi - vj, j - i)
            if best is None or s > best[0] or (s == best[0] and j > best[1]):
                best = (s, j, vj)
        s, j, vj = best
        out.extend([s / a] * (j - i))
        i, vi = j, vj
    return sorted(out)


class Motive:
    """An effective motive, determined by q, a monic squarefree integer
    charpoly with constant term +-(power of p) and torsion decorations at
    exceptional primes.

    The default local lattice at l != p is the companion lattice of the
    charpoly; an exceptional entry keeps that free part (the serialized form
    carries no comparison data that could glue a different one) and adds a
    finite l-primary torsion module.  At p the charpoly fixes the crystal:
    the cyclic module W_sigma[F] / (charpoly(F^a)).  Ext between two such
    crystals is a^2 copies of the p-part of the pair's integer Hom system,
    which a pair reads at p as at every other prime (`_hom_system`).
    """

    def __init__(self, q: int, charpoly: list[int],
                 exceptional: dict[int, GaloisModule] | None = None,
                 twist: int = 0):
        p, a = prime_power(q)
        self.q, self.p, self.a = q, p, a
        cp = [int(c) for c in charpoly]
        if not cp or cp[-1] != 1:
            raise ValueError("the characteristic polynomial must be monic")
        if cp[0] == 0:
            raise ValueError("the Frobenius may not have eigenvalue zero")
        _check_caps(len(cp) - 1, 1)  # against a rank-one partner
        if abs(cp[0]) != p ** int_valuation(cp[0], p):
            raise ValueError("the constant coefficient must be a power of"
                             " the characteristic up to sign")
        if not _is_squarefree(cp):
            raise ValueError("repeated eigenvalues: pass the simple factors"
                             " separately")
        self.charpoly = cp
        self.rank = poly_deg(cp)
        if twist < 0:
            raise ValueError("twist %d: a motive is effective, so twist >= 0"
                             % twist)
        self.twist = int(twist)
        self.exceptional: dict[int, GaloisModule] = {}
        std = companion(cp) if self.rank else None
        for l, mod in (exceptional or {}).items():
            if l == p:
                raise ValueError("torsion at the characteristic is not"
                                 " supported")
            if mod.l != l or mod.q != q:
                raise ValueError("exceptional module over the wrong (l, q)")
            if (mod.free_frob or None) != std and mod.rank:
                raise ValueError("exceptional free part must be the standard"
                                 " companion lattice")
            if mod.rank != self.rank:
                raise ValueError("exceptional free rank differs from deg P")
            self.exceptional[l] = mod

    def local_module(self, l: int) -> GaloisModule:
        """The l-adic lattice: exceptional entry if present, else companion."""
        if l == self.p:
            raise ValueError("the module at the characteristic is the"
                             " special module of the charpoly"
                             " (crystal.special_module)")
        if l in self.exceptional:
            return self.exceptional[l]
        return GaloisModule(l, self.q, companion(self.charpoly)
                            if self.rank else None)

    def slope_sum(self) -> Fraction:
        """s(X_p): total valuation of the eigenvalues, normalized to q."""
        if self.rank == 0:
            return Fraction(0)
        return Fraction(int_valuation(abs(self.charpoly[0]), self.p), self.a)

    def slopes(self) -> list[Fraction]:
        return newton_slopes(self.charpoly, self.p, self.a) if self.rank else []

    def twisted(self, r: int = 1) -> "Motive":
        """Tensor by the r-th power of the Lefschetz motive: every eigenvalue
        is multiplied by q^r and the local data is rebuilt in the standard
        presentation of the new charpoly."""
        if r < 0:
            raise ValueError("only effective twists")
        n = self.rank
        cp = [self.charpoly[i] * self.q ** (r * (n - i)) for i in range(n + 1)] \
            if n else [1]
        exc = {}
        for l, mod in self.exceptional.items():
            scale = pow(self.q, r)
            tfrob = [[scale * e for e in row] for row in mod.torsion_frob]
            exc[l] = GaloisModule(l, self.q, companion(cp) if n else None,
                                  mod.torsion, tfrob)
        return Motive(self.q, cp, exc, self.twist + r)

    def __repr__(self):
        return "Motive(q=%d, charpoly=%s, twist=%d)" % (
            self.q, self.charpoly, self.twist)


def unit_motive(q: int) -> Motive:
    return Motive(q, [-1, 1])


def lefschetz_motive(q: int, r: int = 1) -> Motive:
    """Eigenvalue q^r; r = 0 gives the unit motive."""
    if r < 0:
        raise ValueError("only effective powers")
    return Motive(q, [-q ** r, 1])


def elliptic_motive(q: int, frob_trace: int) -> Motive:
    """The weight-one motive of an elliptic curve with the given Frobenius
    trace: charpoly t^2 - trace*t + q."""
    if frob_trace * frob_trace >= 4 * q:
        raise ValueError("trace violates |t| < 2 sqrt q (equality would"
                         " repeat an eigenvalue)")
    return Motive(q, [q, -frob_trace, 1])


# JSON input takes integers only where JSON integers stand (a number such as
# 1.5 or a boolean is refused, not truncated or read as 1) and objects and
# arrays only where they stand; the ValueError names the field


def _json_kind(value) -> str:
    for kind, name in ((bool, "a boolean"), (int, "an integer"),
                       (float, "a number"), (str, "a string"),
                       (list, "an array"), (dict, "an object")):
        if isinstance(value, kind):
            return name
    return "null"


def _refuse(field: str, want: str, value):
    raise ValueError("%s must be %s, not %s" % (field, want, _json_kind(value)))


def json_field(obj: dict, field: str, read):
    """read(value, field) of the required key that ends the JSON path
    `field`; ValueError naming the path when obj lacks it."""
    key = field.rpartition(".")[2]
    if key not in obj:
        raise ValueError("%s is missing" % field)
    return read(obj[key], field)


def json_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _refuse(field, "an integer", value)
    return value


def json_array(value, field: str) -> list:
    if not isinstance(value, list):
        _refuse(field, "an array", value)
    return value


def json_ints(value, field: str) -> list[int]:
    return [json_int(v, "%s[%d]" % (field, i))
            for i, v in enumerate(json_array(value, field))]


def json_matrix(value, field: str, size=None, entry=json_int) -> list:
    """A square matrix of JSON entries, size by size when a size is given."""
    rows = [[entry(v, "%s[%d][%d]" % (field, i, j))
             for j, v in enumerate(json_array(row, "%s[%d]" % (field, i)))]
            for i, row in enumerate(json_array(value, field))]
    n = len(rows) if size is None else size
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError("%s must be %d by %d" % (field, n, n))
    return rows


def json_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        _refuse(field, "an object", value)
    return value


def json_document(text: str, field: str) -> dict:
    """The JSON object that the document `text` holds; ValueError naming the
    document when it is not JSON, nests deeper than the decoder's recursion
    limit or holds no object."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("%s is not JSON: %s" % (field, exc)) from None
    except RecursionError:
        raise ValueError("%s nests too deeply to decode" % field) from None
    return json_object(value, field)


def _json_exceptional(key: str, data, q: int, cp: list[int]) -> GaloisModule:
    field = "exceptional[%s]" % json.dumps(key)
    if not (key.isascii() and key.isdigit()):
        raise ValueError("%s: the key must be a prime in decimal" % field)
    data = json_object(data, field)
    torsion = json_ints(data.get("torsion", []), field + ".torsion")
    check_cap(field + ".torsion has a torsion generator count of",
              len(torsion), MAX_TORSION_GENS)
    tfrob = data.get("torsion_frobenius")
    if tfrob is not None:
        tfrob = json_matrix(tfrob, field + ".torsion_frobenius", len(torsion))
    return GaloisModule(int(key), q, companion(cp) if poly_deg(cp) else None,
                        tuple(torsion), tfrob)


def motive_from_json(text: str) -> Motive:
    obj = json_document(text, "a motive")
    q = json_field(obj, "q", json_int)
    cp = json_field(obj, "charpoly", json_ints)
    exc = {}
    raw = obj.get("exceptional")
    for key, data in json_object(raw if raw is not None else {},
                                 "exceptional").items():
        mod = _json_exceptional(key, data, q, cp)
        exc[mod.l] = mod
    m = Motive(q, cp, exc, twist=json_int(obj.get("twist", 0), "twist"))
    crystal = obj.get("crystal")
    slopes = None if crystal is None else \
        json_object(crystal, "crystal").get("slopes")
    if slopes is not None:
        declared = []
        for i, s in enumerate(json_array(slopes, "crystal.slopes")):
            if isinstance(s, bool) or not isinstance(s, (int, str)):
                _refuse("crystal.slopes[%d]" % i, "a string or an integer", s)
            try:
                # Fraction(str) would expand an exponent such as 1e99999999
                if isinstance(s, str) and ("e" in s or "E" in s):
                    raise ValueError(s)
                declared.append(Fraction(s))
            except (ValueError, ZeroDivisionError):
                raise ValueError("crystal.slopes[%d] is not a fraction: %s"
                                 % (i, json.dumps(s))) from None
        if declared != m.slopes():
            raise ValueError("declared slopes disagree with the charpoly")
    return m


# ---------------------------------------------------------------------------
# the global Hom lattice and the trace pairing


def _require_comparable(x: Motive, y: Motive):
    if x.q != y.q:
        raise ValueError("motives over different fields")


def _gcd_split(px: list, py: list, rho: int) -> tuple[list, list, list]:
    """D = gcd(P_X, P_Y), A = P_X/D and B = P_Y/D, monic over Z (Gauss's
    lemma), with deg D checked to be rho."""
    d = poly_gcd_monic(px, py)
    if poly_deg(d) != rho:
        raise RuntimeError("the charpolys' gcd has degree %d, not rho = %d;"
                           " the charpolys are not squarefree?"
                           % (poly_deg(d), rho))
    return d, poly_quo_monic(px, d), poly_quo_monic(py, d)


def _hom_system(px: list, py: list, rho: int) -> tuple[int, Fraction, int]:
    """The integer Hom system of squarefree charpolys P_X and P_Y, read off
    the gcd split: the order |Res(A, B)| of the Ext^1 torsion, z(f_0) over
    Z and the |det| of the trace pairing, with the gcd checked to have
    degree rho and the pairing checked to be nondegenerate.

    Both lattices are cyclic, M = Z[T]/(P) with T acting as the companion
    matrix C_P, and H -> H·C_X - C_Y·H is multiplication by U - V on
    M_X ⊗ M_Y = Z[U, V]/(P_X(U), P_Y(V)).  So Hom(X, Y) = B·Z[T]/(P_Y) ≅
    Z[T]/(D), with basis T^i·B for i < rho = deg D, and Hom(Y, X) has
    basis T^j·A.  Ext^1 = Z[T]/(P_X, P_Y) is Z[T]/(D) extended by its
    torsion Z[T]/(A, B), of order |Res(A, B)|.  The trace pairing's Gram
    matrix is [Tr_{Z[T]/(D)}(A·B·T^(i+j))], of determinant
    N(A·B)·disc(D) = ±Res(D, D'·A·B).  f_0: Hom -> Ext^1, H -> [H·C_X], is
    multiplication by T·D'·A·B on the free quotient Z[T]/(D), so
    z(f_0) = 1/(|Res(A, B)|·|Res(D, T·D'·A·B)|), and Res(D, T) = ±D(0).

    At every l != p where both local modules are the companion lattices,
    Hom and Ext^1 over Z_l are the l-parts of these (det C_X = ±p^k is an
    l-unit), the bar-Ext side vanishes, and the swapped Hom is
    torsion-free.  So it is at p: F^a is central in W_sigma[F], so the
    crystal W_sigma[F]/(P(F^a)) over W(F_q) is induced from W[T]/(P(T)),
    and by Shapiro's lemma (Brown, Cohomology of Groups, III.5-6) and flat
    base change from Z_p to W its Ext is a^2 copies of the p-parts of
    these, read over Z_p whatever a."""
    d, a, b = _gcd_split(px, py, rho)
    torsion = abs(resultant(a, b))
    # at rho = 0, D = 1 and D' is the zero polynomial, whose resultant is 0
    disc = abs(resultant(d, poly_mul(poly_deriv(d), poly_mul(a, b)))) \
        if rho else 1
    if disc == 0:
        raise RuntimeError("the trace pairing is degenerate although the"
                           " charpolys are squarefree")
    return torsion, Fraction(1, torsion * abs(d[0]) * disc), disc


def hom_motives(x: Motive, y: Motive) -> tuple[list, int]:
    """Basis of the saturated integer solution lattice of H F_X = F_Y H
    (matrices Y-rank by X-rank) together with its rank rho; rho is checked
    against the multiplicity of the eigenvalue ratio 1.  The basis is
    T^i·B for i < rho: column j of its i-th matrix is T^(i+j)·B mod P_Y.

    >>> z = unit_motive(5)
    >>> hom_motives(z, z)
    ([[[1]]], 1)
    >>> hom_motives(z, lefschetz_motive(5))[1]
    0
    """
    _require_comparable(x, y)
    rho, _ = ratio_limit(x.charpoly, y.charpoly)
    _, _, b = _gcd_split(x.charpoly, y.charpoly, rho)
    py, ry = y.charpoly, y.rank
    basis = []
    for i in range(rho):
        g = [0] * i + b + [0] * (ry - i - len(b))  # T^i·B, of degree < d_Y
        cols = []
        for _ in range(x.rank):
            cols.append(g)
            top = g[-1]  # T·g, reduced by the monic P_Y
            g = [(g[k - 1] if k else 0) - top * py[k] for k in range(ry)]
        basis.append(transpose(cols))
    return basis, rho


# ---------------------------------------------------------------------------
# per-prime local data


def _l_side(x: Motive, y: Motive, l: int, rho: int, nstar: Fraction) -> dict:
    """The local data at l from the pair's modules at l, built there: Ext
    on the galois route (`ext_groups_l`) and the invariants of the swapped
    Hom."""
    mx, my = x.local_module(l), y.local_module(l)
    rep = ext_groups_l(mx, my)
    swap = hom_module(my, mx).invariants()
    if rep.ext0.free_rank != rho or rep.ext1_rank != rho:
        raise RuntimeError("local Hom rank at l=%d differs from rho" % l)
    if rep.z_f is None:
        raise RuntimeError("squarefree charpolys failed the hypothesis at"
                           " l=%d" % l)
    # the free part of a local module is the companion lattice of the
    # charpoly, so the resultant side of the local identity is the pair's N*
    if rep.z_f * rep.ext2.order != abs_at(l, nstar):
        raise RuntimeError("l-adic local identity failed at l=%d" % l)
    return {
        "hom_tors": rep.ext0.torsion_order,
        "ext1_torsion": rep.ext1_torsion,
        "ext2": rep.ext2.order,
        "z_f": rep.z_f,
        "swap_tors": swap.primary_part(l).torsion_order,
    }


# ---------------------------------------------------------------------------
# assembly


class GlobalExtReport:
    """The assembled data of one motive pair.  Both identity checks and the
    Weil-group Ext are read off it (`global_identity`, `weil_identity`,
    `weil_ext`), so one assembly answers every question about the pair."""

    __slots__ = ("q", "rho", "hom_tors_order", "ext1_order", "ext2_cotors_order",
                 "discriminant", "chi", "chi_statement", "nstar", "support",
                 "leading", "z_f", "ext1_torsion", "swap_tors")

    def __init__(self, q: int, rho: int, hom_tors_order: int, ext1_order: int,
                 ext2_cotors_order: int, discriminant: int, chi: Fraction,
                 chi_statement: Fraction, nstar: Fraction,
                 support: tuple[int, ...], leading: Fraction, z_f: Fraction,
                 ext1_torsion: int | None, swap_tors: int):
        self.q, self.rho, self.hom_tors_order = q, rho, hom_tors_order
        self.ext1_order, self.ext2_cotors_order = ext1_order, ext2_cotors_order
        self.discriminant = discriminant
        self.chi = chi  # s(X_p) r(Y_p), the exponent the identity uses
        self.chi_statement = chi_statement  # r(X_p) s(Y_p), the printed variant
        self.nstar, self.support = nstar, support
        self.leading = leading  # q^chi |N*|, the zeta side of both identities
        self.z_f = z_f  # the product of the local comparison-map values
        self.ext1_torsion = ext1_torsion  # None when one prime leaves it open
        self.swap_tors = swap_tors  # [Hom(Y, X)_tors]

    def global_identity(self) -> dict:
        """The result of verify_global_identity on the pair."""
        rhs = Fraction(self.ext1_order * self.discriminant,
                       self.hom_tors_order * self.ext2_cotors_order)
        return {
            "q": self.q,
            "rho": self.rho,
            "lhs": self.leading,
            "rhs": rhs,
            "equal": self.leading == rhs,
            "duality_ok": self.swap_tors == self.ext2_cotors_order,
            "chi": self.chi,
            "chi_statement": self.chi_statement,
            "ext1_order": self.ext1_order,
            "discriminant": self.discriminant,
            "hom_tors_order": self.hom_tors_order,
            "ext2_cotors_order": self.ext2_cotors_order,
            "support": self.support,
        }

    def weil_identity(self) -> dict:
        """The result of verify_weil_identity on the pair."""
        balance = self.leading * self.z_f * self.ext2_cotors_order
        return {
            "q": self.q,
            "rho": self.rho,
            "lhs": self.leading,
            "z_f": self.z_f,
            "ext2_order": self.ext2_cotors_order,
            "rhs": 1 / (self.z_f * self.ext2_cotors_order),
            "balance": balance,
            "equal": balance == 1,
            "chi": self.chi,
            "chi_statement": self.chi_statement,
            "support": self.support,
        }

    def weil_ext(self) -> "WeilExtReport":
        """The result of weil_ext on the pair."""
        if self.ext1_torsion is None:
            raise HypothesisError("Ext^1 torsion is not determined when torsion"
                                  " meets positive local rank at one prime")
        return WeilExtReport(
            q=self.q, rho=self.rho, ext0_rank=self.rho,
            ext0_torsion=self.hom_tors_order, ext1_rank=self.rho,
            ext1_torsion=self.ext1_torsion, ext2_order=self.ext2_cotors_order,
            z_f=self.z_f)


class WeilExtReport:
    """Hom/Ext over the discrete-Frobenius subgroup: finitely generated,
    rank rho in degrees 0 and 1, finite in degree 2, zero above."""

    __slots__ = ("q", "rho", "ext0_rank", "ext0_torsion", "ext1_rank",
                 "ext1_torsion", "ext2_order", "z_f")

    def __init__(self, q: int, rho: int, ext0_rank: int, ext0_torsion: int,
                 ext1_rank: int, ext1_torsion: int, ext2_order: int, z_f: Fraction):
        self.q, self.rho, self.z_f = q, rho, z_f
        self.ext0_rank, self.ext0_torsion = ext0_rank, ext0_torsion
        self.ext1_rank, self.ext1_torsion = ext1_rank, ext1_torsion
        self.ext2_order = ext2_order


def _q_power(p: int, a: int, chi: Fraction) -> Fraction:
    e = chi * a
    if e.denominator != 1:
        raise RuntimeError("non-integral exponent of p")
    return Fraction(p) ** e.numerator


def _away_from(primes, x: Fraction) -> Fraction:
    """x with its l-parts taken out for every l in primes."""
    for l in primes:
        x /= l_primary(x, l)
    return x


def _assemble(x: Motive, y: Motive) -> GlobalExtReport:
    _require_comparable(x, y)
    _check_caps(x.rank, y.rank)
    # rho pairs a_i = b_j, and N* the product of (1 - b_j/a_i) over the rest
    rho, nstar = ratio_limit(x.charpoly, y.charpoly)
    torsion, z0, disc = _hom_system(x.charpoly, y.charpoly, rho)
    p = x.p
    chi = x.slope_sum() * y.rank
    leading = _q_power(p, x.a, chi) * abs(nstar)
    exceptional = sorted(set(x.exceptional) | set(y.exceptional))
    # the support is factored only to be printed
    support = {p, *exceptional}
    support.update(prime_factors(nstar.numerator))
    support.update(prime_factors(nstar.denominator))
    support.update(prime_factors(disc))
    # away from the exceptional primes both local modules are the companion
    # lattices of the charpolys, at p the cyclic crystals induced from them,
    # so every l-part there is read off the gcd split: z(f_l) is that of z0,
    # the Ext^1 torsion that of |Res(A, B)|, [Ext^1] that of
    # |Res(A, B)|·|D(0)| = 1/(z0·disc), and Hom_tors, Ext^2 and the swapped
    # Hom_tors are 1.  The local identities z(f_l) = |q^chi N*|_l there are
    # the l-parts of one rational equality, and a rational number is fixed
    # by its valuations, so it checks them all at once: two exact routes,
    # resultants of D, A and B against `ratio_limit`'s composed products
    z_f = _away_from(exceptional, z0)
    if z_f * _away_from(exceptional, leading) != 1:
        raise RuntimeError("the local identities failed away from the"
                           " exceptional primes")
    ext1_torsion = _away_from(exceptional, Fraction(torsion)).numerator
    ext1_order = _away_from(exceptional, 1 / (z0 * disc)).numerator
    hom_tors = ext2 = swap_tors = 1
    # each exceptional prime builds both local modules on the galois route
    for l in exceptional:
        d = _l_side(x, y, l, rho, nstar)
        hom_tors *= d["hom_tors"]
        ext2 *= d["ext2"]
        swap_tors *= d["swap_tors"]
        z_f *= d["z_f"]
        if ext1_torsion is not None and d["ext1_torsion"] is not None:
            ext1_torsion *= d["ext1_torsion"]
        else:
            ext1_torsion = None
        # the group-of-extensions order carried by the identity at l:
        # [Hom_tors(l)] |D|_l / z(f_l), an l-power by the local identity
        contrib = Fraction(d["hom_tors"]) * abs_at(l, disc) / d["z_f"]
        if contrib.denominator != 1:
            raise RuntimeError("non-integral Ext^1 contribution at l=%d" % l)
        ext1_order *= contrib.numerator
        if rho == 0 and d["ext1_torsion"] is not None \
                and contrib.numerator != d["ext1_torsion"]:
            raise RuntimeError("the z-route and the group route disagree"
                               " at l=%d" % l)
    return GlobalExtReport(
        q=x.q, rho=rho, hom_tors_order=hom_tors,
        ext1_order=ext1_order, ext2_cotors_order=ext2, discriminant=disc,
        chi=chi, chi_statement=Fraction(x.rank) * y.slope_sum(), nstar=nstar,
        support=tuple(sorted(support)), leading=leading, z_f=z_f,
        ext1_torsion=ext1_torsion, swap_tors=swap_tors)


def global_ext_orders(x: Motive, y: Motive) -> GlobalExtReport:
    """Orders of the global Hom torsion, Ext^1 and Ext^2 cotorsion, assembled
    from local computations on the support of N*, the trace discriminant and
    the torsion primes; everywhere else the contribution is trivial because
    N* and D are units there.

    >>> global_ext_orders(unit_motive(5), lefschetz_motive(5, 2)).ext1_order
    24
    """
    return _assemble(x, y)


def verify_global_identity(x: Motive, y: Motive) -> dict:
    """Leading coefficient of q^chi prod(1 - (b_j/a_i) q^-s) at s = 0 against
    [Ext^1] D / ([Hom_tors] [Ext^2_cotors]), in absolute value, with the
    duality [Hom(Y,X)_tors] = [Ext^2(X,Y)_cotors] checked alongside.

    >>> verify_global_identity(unit_motive(3), lefschetz_motive(3))["equal"]
    True
    """
    return _assemble(x, y).global_identity()


def weil_ext(x: Motive, y: Motive) -> WeilExtReport:
    """Ext groups over the subgroup generated by the Frobenius itself: both
    Ext^0 and Ext^1 have rank rho, their torsion is the product of the local
    torsions, Ext^2 is finite and everything above vanishes.

    >>> weil_ext(unit_motive(5), lefschetz_motive(5)).ext1_torsion
    4
    """
    return _assemble(x, y).weil_ext()


def verify_weil_identity(x: Motive, y: Motive) -> dict:
    """The product-formula form of the comparison: the leading coefficient
    q^chi |N*| times z(f) times [Ext^2] balances to exactly 1, where z(f) =
    [Ker f]/[Coker f] multiplies the verified local comparison values.

    >>> verify_weil_identity(unit_motive(3), unit_motive(3))["equal"]
    True
    """
    return _assemble(x, y).weil_identity()
