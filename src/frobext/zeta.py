"""Zeta functions for a small catalogue of smooth projective varieties over
F_q -- projective spaces, elliptic curves over prime fields, and binary
products -- with exact special values at integer arguments and a comparison
of the leading coefficient against motivic Ext data.

The zeta side is computed purely from point counts and Frobenius
polynomials: Z(V, t) = prod_j P_j(t)^((-1)^(j+1)) with P_j(t) = prod(1 - b t)
over the eigenvalues b on H^j, and the special value at s = r is read off
factor by factor in powers of (1 - q^(r-s)).  The Ext side decomposes each
H^j into squarefree catalogue motives and assembles

    chi_times = q^(chi_tot - chi_O) * prod_j (z(f_j) [Ext^2_j])^((-1)^j)

from the verified local-to-global machinery, where chi_tot = r * e(V) counts
the p-adic normalization of the comparison maps and chi_O is the coherent
Euler characteristic sum over the Hodge table.  The verifier checks

    |leading coefficient| = chi_times * q^chi_O

together with the vanishing-order and rank bookkeeping; the two sides share
no code beyond exact arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    composed_product,
    poly_deg,
    poly_deriv,
    poly_eval,
    poly_gcd_monic,
    poly_mul,
    poly_quo_monic,
    poly_trim,
    power_sums,
    prime_power,
)
from .motive import Motive, lefschetz_motive, verify_weil_identity


@dataclass
class VarietyDescriptor:
    kind: str
    q: int
    dimension: int
    hodge: list            # hodge[i][j] = dim H^j(X, Omega^i)
    frobenius_polys: list  # P_j(t) = prod(1 - b t), ascending, P_j(0) = 1
    pieces: list           # per degree: [(monic integer charpoly, mult), ...]
    spec: dict             # the defining data, for serialization


def _pieces_to_weil(pieces) -> list[int]:
    """Expand [(monic charpoly, mult)] into P(t) = prod(1 - b t), over Z."""
    acc = [1]
    for cp, mult in pieces:
        rev = list(reversed(cp))  # prod(t - b) -> prod(1 - b t)
        for _ in range(mult):
            acc = poly_mul(acc, rev)
    return acc


def projective_space(q: int, n: int) -> VarietyDescriptor:
    """P^n: H^(2i) is the i-th power of the Lefschetz motive, odd rows vanish.

    >>> projective_space(4, 2).frobenius_polys
    [[1, -1], [1], [1, -4], [1], [1, -16]]
    """
    if n < 0:
        raise ValueError("negative dimension")
    prime_power(q)
    pieces = []
    for j in range(2 * n + 1):
        pieces.append([([-q ** (j // 2), 1], 1)] if j % 2 == 0 else [])
    hodge = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    return VarietyDescriptor(
        kind="projective_space", q=q, dimension=n, hodge=hodge,
        frobenius_polys=[_pieces_to_weil(p) for p in pieces], pieces=pieces,
        spec={"kind": "projective_space", "q": q, "dimension": n})


def _weierstrass_long(coefficients) -> tuple:
    c = [int(x) for x in coefficients]
    if len(c) == 2:
        return (0, 0, 0, c[0], c[1])
    if len(c) == 5:
        return tuple(c)
    raise ValueError("expected [a4, a6] or [a1, a2, a3, a4, a6]")


# the count takes one modular power per x, about 2.3 µs each: 2.3 s at the
# cap (CHANGES.md has the timings)
MAX_CURVE_PRIME = 10 ** 6


def elliptic_point_count(p: int, coefficients) -> int:
    """#E(F_p) for y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, including
    the point at infinity; rejects singular curves.

    For odd p the equation is (2y + a1 x + a3)^2 = v(x) with
    v = 4(x^3 + a2 x^2 + a4 x + a6) + (a1 x + a3)^2, and y -> 2y + a1 x + a3
    is a bijection of F_p, so each x carries 1 + (v(x)/p) points; the
    Legendre symbol comes from Euler's criterion.  p = 2 is counted
    directly, and p above MAX_CURVE_PRIME is refused (ValueError).

    >>> elliptic_point_count(5, [1, 1])
    9
    """
    if p > MAX_CURVE_PRIME:
        raise ValueError("elliptic curves are counted over primes up to the"
                         " cap of %d; got p = %d" % (MAX_CURVE_PRIME, p))
    a1, a2, a3, a4, a6 = _weierstrass_long(coefficients)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc % p == 0:
        raise ValueError("singular Weierstrass equation over F_%d" % p)
    if p == 2:
        return 1 + sum(1 for x in range(2) for y in range(2)
                       if (y * y + (a1 * x + a3) * y
                           - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0)
    n = p + 1
    half = (p - 1) // 2
    for x in range(p):
        lin = a1 * x + a3
        v = (4 * (((x + a2) * x + a4) * x + a6) + lin * lin) % p
        if v:
            n += 1 if pow(v, half, p) == 1 else -1
    return n


def elliptic_curve(q: int, coefficients) -> VarietyDescriptor:
    """Elliptic curve over a prime field from Weierstrass coefficients; the
    Frobenius trace comes from the point count and is checked
    against the |t| <= 2 sqrt(q) bound."""
    p, a = prime_power(q)
    if a != 1:
        raise ValueError("elliptic curves are supported over prime fields")
    n1 = elliptic_point_count(p, coefficients)
    t = q + 1 - n1
    if t * t > 4 * q:
        raise RuntimeError("point count %d violates the Weil bound" % n1)
    if t * t == 4 * q:
        raise ValueError("repeated Frobenius eigenvalue is out of scope")
    pieces = [[([-1, 1], 1)], [([q, -t, 1], 1)], [([-q, 1], 1)]]
    return VarietyDescriptor(
        kind="elliptic_curve", q=q, dimension=1, hodge=[[1, 1], [1, 1]],
        frobenius_polys=[_pieces_to_weil(x) for x in pieces], pieces=pieces,
        spec={"kind": "elliptic_curve", "q": q,
              "coefficients": [int(c) for c in coefficients]})


def _squarefree_split(f: list) -> list:
    """Monic f over Z -> [(monic squarefree factor, multiplicity)], on
    integers throughout (every factor is monic with integer coefficients)."""
    if poly_deg(f) < 1:
        return []
    a = poly_gcd_monic(f, poly_deriv(f))
    b = poly_quo_monic(f, a)  # product of the distinct roots
    out = []
    mult = 1
    while poly_deg(b) > 0:
        c = poly_gcd_monic(a, b)
        piece = poly_quo_monic(b, c)
        if poly_deg(piece) > 0:
            out.append((piece, mult))
        b = c
        a = poly_quo_monic(a, c)
        mult += 1
    return out


def _integer_root_split(f: list, p: int) -> list:
    """Split +-p^k roots off a squarefree monic integer polynomial so that
    no remaining factor shares an eigenvalue with a Lefschetz power."""
    out = []
    rest = f
    k = 0
    while poly_deg(rest) > 0 and p ** k <= abs(rest[0]):
        for c in (p ** k, -p ** k):
            if poly_deg(rest) > 0 and poly_eval(rest, c) == 0:
                rest = poly_quo_monic(rest, [-c, 1])
                out.append(([-c, 1], 1))
        k += 1
    if poly_deg(rest) > 0:
        out.append((rest, 1))
    return out


def product(v: VarietyDescriptor, w: VarietyDescriptor) -> VarietyDescriptor:
    """Product variety: Kunneth on cohomology, eigenvalue products on the
    Frobenius side, convolution on the Hodge table."""
    if v.q != w.q:
        raise ValueError("factors over different fields")
    p, _ = prime_power(v.q)
    dim = v.dimension + w.dimension
    pieces: list = [{} for _ in range(2 * dim + 1)]

    def _push(j, cp, mult):
        key = tuple(cp)
        pieces[j][key] = pieces[j].get(key, 0) + mult

    for ja, row_a in enumerate(v.pieces):
        for jb, row_b in enumerate(w.pieces):
            for fa, ma in row_a:
                for fb, mb in row_b:
                    prod_poly = composed_product(fa, fb)
                    for g, mg in _squarefree_split(prod_poly):
                        for h, mh in _integer_root_split(g, p):
                            _push(ja + jb, h, ma * mb * mg * mh)
    plist = [sorted(d.items()) for d in pieces]
    plist = [[(list(cp), m) for cp, m in row] for row in plist]
    hodge = [[0] * (dim + 1) for _ in range(dim + 1)]
    for i1, row1 in enumerate(v.hodge):
        for j1, h1 in enumerate(row1):
            for i2, row2 in enumerate(w.hodge):
                for j2, h2 in enumerate(row2):
                    hodge[i1 + i2][j1 + j2] += h1 * h2
    return VarietyDescriptor(
        kind="product", q=v.q, dimension=dim, hodge=hodge,
        frobenius_polys=[_pieces_to_weil(x) for x in plist], pieces=plist,
        spec={"kind": "product", "q": v.q, "factors": [v.spec, w.spec]})


def variety_from_spec(spec: dict) -> VarietyDescriptor:
    kind = spec.get("kind")
    if kind == "projective_space":
        return projective_space(int(spec["q"]), int(spec["dimension"]))
    if kind == "elliptic_curve":
        return elliptic_curve(int(spec["q"]), spec["coefficients"])
    if kind == "product":
        factors = [variety_from_spec(s) for s in spec["factors"]]
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        out = factors[0]
        for f in factors[1:]:
            out = product(out, f)
        return out
    raise ValueError("unknown variety kind %r" % (kind,))


def variety_from_json(text: str) -> VarietyDescriptor:
    return variety_from_spec(json.loads(text))


def variety_to_json(v: VarietyDescriptor) -> str:
    return json.dumps(v.spec, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the zeta side: point counts and exact special values


def point_count(v: VarietyDescriptor, n: int = 1) -> int:
    """#V(F_{q^n}) from the Frobenius polynomials by Newton power sums.

    >>> point_count(projective_space(3, 2))
    13
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    for j, row in enumerate(v.pieces):
        sign = -1 if j % 2 else 1
        for cp, mult in row:
            tr = power_sums(cp, n)[-1] if poly_deg(cp) else 0
            total += sign * mult * tr
    if total < 0:
        raise RuntimeError("inconsistent Frobenius data")
    return total


def _strip_root(weil_poly: list, b: int) -> tuple[int, Fraction]:
    """(m, value) for P(t) = prod(1 - b_i t): m factors 1 - b t divide P,
    and value = prod over b_i != b of (1 - b_i/b), the quotient at t = 1/b.
    On the monic integer reversal R(t) = prod(t - b_i) (P(0) = 1): m is the
    multiplicity of the root b, and with R' = R / (t - b)^m over Z the value
    is R'(b) / b^deg R'."""
    rest = list(reversed(poly_trim(weil_poly)))
    m = 0
    while len(rest) > 1 and poly_eval(rest, b) == 0:
        rest = poly_quo_monic(rest, [-b, 1])
        m += 1
    return m, Fraction(poly_eval(rest, b), b ** (len(rest) - 1))


def zeta_special_value(v: VarietyDescriptor, r: int) -> tuple[int, Fraction]:
    """Order of vanishing and exact leading coefficient of zeta(V, s) at
    s = r, the expansion variable being (1 - q^(r-s)).

    >>> zeta_special_value(projective_space(4, 1), 1)
    (-1, Fraction(4, 3))
    >>> zeta_special_value(elliptic_curve(5, [1, 1]), 0)
    (-1, Fraction(-9, 4))
    """
    if r < 0:
        raise ValueError("special values at non-negative r only")
    b = v.q ** r
    order = 0
    lead = Fraction(1)
    for j, pj in enumerate(v.frobenius_polys):
        sign = 1 if j % 2 else -1  # odd cohomology in the numerator
        m, value = _strip_root(pj, b)
        order += sign * m
        lead *= value ** sign
    return order, lead


def chi_coherent(v: VarietyDescriptor, r: int) -> int:
    """sum over 0 <= i <= r, 0 <= j <= dim of (-1)^(i+j) (r-i) h^j(Omega^i).

    >>> chi_coherent(projective_space(4, 1), 1)
    1
    """
    total = 0
    for i in range(0, min(r, v.dimension) + 1):
        for j in range(v.dimension + 1):
            total += (-1) ** (i + j) * (r - i) * v.hodge[i][j]
    return total


# ---------------------------------------------------------------------------
# the Ext side: motivic cohomology of the catalogue decomposition


@dataclass
class MotivicCohomologyReport:
    q: int
    r: int
    ranks: list            # rank of H^i for i = 0 .. 2 dim + 2
    euler_rank: int        # alternating rank sum (must vanish)
    vanishing_order: int   # sum (-1)^i i rank_i
    chi_times: Fraction    # alternating product over the comparison complex
    chi_o: int
    pieces: list           # per-piece dicts: degree, charpoly, mult, rho, ...


def motivic_cohomology(v: VarietyDescriptor, r: int) -> MotivicCohomologyReport:
    """Decompose every H^j into squarefree catalogue motives, pair each with
    the r-th Lefschetz power, and assemble ranks and the multiplicative Euler
    characteristic from the verified local-to-global Ext machinery."""
    if r < 0:
        raise ValueError("non-negative twists only")
    q = v.q
    source = lefschetz_motive(q, r)
    rho_by_degree = [0] * (2 * v.dimension + 1)
    chi_tot = 0
    zprod = Fraction(1)
    piece_data = []
    for j, row in enumerate(v.pieces):
        sign = -1 if j % 2 else 1
        for cp, mult in row:
            target = Motive(q, cp)
            out = verify_weil_identity(source, target)
            if not out["equal"]:
                raise RuntimeError("local identity failed for a piece of"
                                   " H^%d" % j)
            rho_by_degree[j] += mult * out["rho"]
            chi_tot += sign * mult * int(out["chi"])
            zprod *= (out["z_f"] * out["ext2_order"]) ** (sign * mult)
            piece_data.append({
                "degree": j, "charpoly": cp, "multiplicity": mult,
                "rho": out["rho"], "z_f": out["z_f"],
                "ext2_order": out["ext2_order"]})
    chi_o = chi_coherent(v, r)
    chi_times = zprod * Fraction(q) ** (chi_tot - chi_o)
    ranks = []
    for i in range(2 * v.dimension + 3):
        rk = 0
        if i < len(rho_by_degree):
            rk += rho_by_degree[i]
        if 0 <= i - 1 < len(rho_by_degree):
            rk += rho_by_degree[i - 1]
        ranks.append(rk)
    euler = sum((-1) ** i * rk for i, rk in enumerate(ranks))
    order = sum((-1) ** i * i * rk for i, rk in enumerate(ranks))
    return MotivicCohomologyReport(
        q=q, r=r, ranks=ranks, euler_rank=euler, vanishing_order=order,
        chi_times=chi_times, chi_o=chi_o, pieces=piece_data)


def verify_variety_identity(v: VarietyDescriptor, r: int) -> dict:
    """Compare the zeta special value at s = r with the Ext-side data:
    the vanishing order must equal sum (-1)^i i rank_i, the alternating rank
    sum must vanish, and |leading| must equal chi_times * q^chi_O.  The two
    sides are computed independently.

    >>> verify_variety_identity(projective_space(2, 1), 1)["equal"]
    True
    """
    order, leading = zeta_special_value(v, r)  # first: it rejects r < 0
    rep = motivic_cohomology(v, r)
    lhs = abs(leading)
    rhs = rep.chi_times * Fraction(v.q) ** rep.chi_o
    equal = (lhs == rhs and order == rep.vanishing_order
             and rep.euler_rank == 0)
    return {
        "kind": v.kind,
        "q": v.q,
        "r": r,
        "order": order,
        "leading": leading,
        "lhs": lhs,
        "rhs": rhs,
        "vanishing_order": rep.vanishing_order,
        "euler_rank": rep.euler_rank,
        "chi_times": rep.chi_times,
        "chi_o": rep.chi_o,
        "ranks": rep.ranks,
        "equal": equal,
    }
