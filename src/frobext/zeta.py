"""Zeta functions for a small catalogue of smooth projective varieties over
F_q -- projective spaces, elliptic curves over prime fields, and binary
products -- with exact special values at integer arguments and a comparison
of the leading coefficient against motivic Ext data.

The zeta side is computed purely from point counts and the Kunneth pieces
of each H^j: Z(V, t) = prod_j P_j(t)^((-1)^(j+1)) with P_j(t) =
prod(1 - b t) over the eigenvalues b on H^j, the product of its pieces'
reversed charpolys.  No P_j is expanded: the special value at s = r is read
off piece by piece in powers of (1 - q^(r-s)).  The Ext side decomposes each
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

from fractions import Fraction
from math import isqrt

from .exact import (
    RHO_STEPS,
    composed_product,
    poly_deg,
    poly_deriv,
    poly_eval,
    poly_gcd_monic,
    poly_mul,
    poly_quo_monic,
    power_sums,
    prime_power,
    round_fits,
    strip_root,
)
from .motive import (
    MAX_THETA_DIM,
    Motive,
    check_cap,
    json_array,
    json_field,
    json_int,
    json_ints,
    json_object,
    lefschetz_motive,
    verify_weil_identity,
)


class VarietyDescriptor:
    __slots__ = ("kind", "q", "dimension", "hodge", "pieces")

    def __init__(self, kind: str, q: int, dimension: int, hodge: list, pieces: list):
        self.kind, self.q, self.dimension = kind, q, dimension
        self.hodge = hodge    # hodge[i][j] = dim H^j(X, Omega^i)
        self.pieces = pieces  # per degree: [(monic integer charpoly, mult), ...]


def projective_space(q: int, n: int) -> VarietyDescriptor:
    """P^n: H^(2i) is the i-th power of the Lefschetz motive, odd rows vanish.

    >>> projective_space(4, 2).pieces
    [[([-1, 1], 1)], [], [([-4, 1], 1)], [], [([-16, 1], 1)]]
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
        pieces=pieces)


def _weierstrass_long(coefficients) -> tuple:
    c = [int(x) for x in coefficients]
    if len(c) == 2:
        return (0, 0, 0, c[0], c[1])
    if len(c) == 5:
        return tuple(c)
    raise ValueError("expected [a4, a6] or [a1, a2, a3, a4, a6]")


# the count takes O(p^(1/4)) group operations above p = 229: 0.15 ms at
# p = 10^6 and 60 ms at the cap (CHANGES.md has the timings); each curve
# factor of a spec is held to it (`variety_from_spec`)
MAX_CURVE_PRIME = 10 ** 15


def _ec_add(a: int, p: int, P, Q):
    """P + Q on y^2 = x^3 + a x + b over F_p, affine, None the identity."""
    if P is None or Q is None:
        return P or Q
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _hasse_multiple(a: int, p: int, P, w: int):
    """The one N with |N - (p + 1)| <= w and N P = O, or None when several
    fit: baby steps j P for j <= m, giant steps (p + 1) P +- i (2m + 1) P."""
    m = max(isqrt(w), 1)
    baby = {}
    R = prev = P
    for j in range(1, m + 1):
        if R is None or R[1] == 0 or R[0] in baby:
            return None  # the order is at most 2m, and several N fit
        baby[R[0]] = j, R[1]
        prev, R = R, _ec_add(a, p, R, P)
    G = _ec_add(a, p, R, prev)  # (2m + 1) P
    S0, T, n = None, P, p + 1
    while n:
        if n & 1:
            S0 = _ec_add(a, p, S0, T)
        T, n = _ec_add(a, p, T, T), n >> 1
    found, g = set(), 2 * m + 1
    for sign in (1, -1):
        S, step = S0, G and (G[0], sign * G[1] % p)
        for i in range(-(-(w - m) // g) + 1):
            if S is None or S[0] in baby:
                j, y = baby[S[0]] if S else (0, 0)
                k = sign * i * g + (j if S and y != S[1] else -j)
                if abs(k) <= w:
                    found.add(p + 1 + k)
            S = _ec_add(a, p, S, step)
        if len(found) > 1:
            return None
    if not found:
        raise RuntimeError("no multiple of a point's order in the Hasse"
                           " interval over F_%d" % p)
    return found.pop()


def elliptic_point_count(p: int, coefficients) -> int:
    """#E(F_p) for y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, including
    the point at infinity; rejects singular curves.

    p = 2 is counted directly.  For odd p up to 229 the equation is
    (2y + a1 x + a3)^2 = v(x) with v = 4(x^3 + a2 x^2 + a4 x + a6)
    + (a1 x + a3)^2, and y -> 2y + a1 x + a3 is a bijection of F_p, so each
    x carries 1 + (v(x)/p) points, the Legendre symbol from Euler's
    criterion.  Above 229 the count is Mestre's baby-step giant-step on the
    short model y^2 = f(x) = x^3 - 27 c4 x - 54 c6 (Cohen, GTM 138, 7.4):
    at x = 0, 1, 2, ... with d = f(x) != 0, (d x, d^2) lies on
    Y^2 = X^3 + d^2 A X + d^3 B, which is E when d is a square and its
    quadratic twist E' (#E' = 2p + 2 - #E) when not; the first point whose
    order has one multiple N in the Hasse interval gives #E.  For p > 229
    Mestre's theorem puts such a point on E or E'.  p above MAX_CURVE_PRIME
    is refused (ValueError).

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
    if p > 229:
        c4, c6 = b2 * b2 - 24 * b4, 36 * b2 * b4 - b2 ** 3 - 216 * b6
        A, B = -27 * c4 % p, -54 * c6 % p
        for x in range(p):
            d = (x * (x * x + A) + B) % p
            if d:
                n = _hasse_multiple(d * d * A % p, p, (d * x % p, d * d % p),
                                    isqrt(4 * p))
                if n is not None:
                    return n if pow(d, p // 2, p) == 1 else 2 * p + 2 - n
        raise RuntimeError("no point on E or its twist over F_%d fixes"
                           " #E" % p)
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
        pieces=pieces)


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


def _kunneth(pieces_v: list, pieces_w: list) -> list:
    """The pieces of a product: H^j is the sum of H^a ⊗ H^b over a + b = j,
    each tensor product the squarefree factors of a composed product."""
    pieces: list = [{} for _ in range(len(pieces_v) + len(pieces_w) - 1)]
    for ja, row_a in enumerate(pieces_v):
        for jb, row_b in enumerate(pieces_w):
            for fa, ma in row_a:
                for fb, mb in row_b:
                    prod_poly = composed_product(fa, fb)
                    for g, mg in _squarefree_split(prod_poly):
                        key = tuple(g)
                        pieces[ja + jb][key] = pieces[ja + jb].get(key, 0) \
                            + ma * mb * mg
    return [[(list(cp), m) for cp, m in sorted(d.items())] for d in pieces]


def _convolve(hodge_v: list, hodge_w: list) -> list:
    dim = len(hodge_v) + len(hodge_w) - 2
    hodge = [[0] * (dim + 1) for _ in range(dim + 1)]
    for i1, row1 in enumerate(hodge_v):
        for j1, h1 in enumerate(row1):
            for i2, row2 in enumerate(hodge_w):
                for j2, h2 in enumerate(row2):
                    hodge[i1 + i2][j1 + j2] += h1 * h2
    return hodge


def product(v: VarietyDescriptor, w: VarietyDescriptor,
            *more: VarietyDescriptor) -> VarietyDescriptor:
    """Product variety: Kunneth on cohomology, eigenvalue products on the
    Frobenius side, convolution on the Hodge table.  Further factors are
    multiplied in turn."""
    factors = (v, w) + more
    if any(f.q != v.q for f in factors):
        raise ValueError("factors over different fields")
    pieces, hodge = v.pieces, v.hodge
    for f in factors[1:]:
        pieces = _kunneth(pieces, f.pieces)
        hodge = _convolve(hodge, f.hodge)
    return VarietyDescriptor(
        kind="product", q=v.q, dimension=sum(f.dimension for f in factors),
        hodge=hodge, pieces=pieces)


# spec caps, checked on the spec alone before any table is built: the
# dimension, the total Betti number (the product of the factors' own), and
# the bit size of Z(V, t)'s data, its Weil polynomials P_j, whose
# coefficients are sums of products of b_j eigenvalues of absolute value
# q^(j/2), so below 2^b_j q^(j b_j / 2).  No P_j is expanded; the special
# value, which the pieces' values multiply to, is of that size.  Each
# curve factor lies over a prime up to MAX_CURVE_PRIME, and the residue
# degree a has a^3 at most motive.MAX_THETA_DIM, although each piece's
# p-side is read over Z_p whatever a.  At the caps a query took up to about
# 1.6 s as a whole process (Python 3.11, 2-CPU shared VM): a curve over
# p = 10^15 - 11 about 0.1 s, three distinct ones up to about 0.9 s and
# five up to about 1.6 s to a refusal at the rho cap, P^64 over F_1024
# about 0.7 s to the same refusal, P^8 over F_1024 about 0.1 s.
MAX_DIMENSION = 64
MAX_BETTI = 2048
MAX_WEIL_BITS = 10 ** 8


def _check_size(q: int, betti: list[int]):
    """The caps on a variety, or on part of a product (each measure only
    grows as factors are added), with Betti numbers [b_0, ..., b_2d]."""
    check_cap("a variety of dimension", (len(betti) - 1) // 2, MAX_DIMENSION)
    check_cap("a variety of total Betti number", sum(betti), MAX_BETTI)
    check_cap("a variety with Weil polynomials of bit size",
              sum((b + 1) * b * (2 + j * q.bit_length()) // 2
                  for j, b in enumerate(betti)), MAX_WEIL_BITS)


def _check_r(q: int, r: int):
    """r >= 0, refused when q^r lies above the largest number one primality
    round fits in exact.RHO_STEPS (`round_fits`): the pieces' N* are of its
    size and are factored.  q^r has at most r·b + 1 bits, b the bit length
    of q - 1, so the check never forms it."""
    if r < 0:
        raise ValueError("special values at non-negative r only")
    bits = r * (q - 1).bit_length() + 1
    if not round_fits(bits):
        raise ValueError("r = %d gives q^r of up to %d bits; one primality"
                         " round on a number that large takes more than the"
                         " cap of %d rho steps" % (r, bits, RHO_STEPS))


def _spec_betti(spec, field: str) -> tuple[int, list[int]]:
    """(q, [b_0, ..., b_2d]) of a variety spec, read from the spec alone,
    with each field it reads checked to be of its JSON type and the caps
    checked as the factors come in."""
    spec = json_object(spec, field)
    kind = spec.get("kind")
    if kind == "projective_space":
        q = json_field(spec, field + ".q", json_int)
        n = json_field(spec, field + ".dimension", json_int)
        if n < 0:
            raise ValueError("negative dimension")
        check_cap("a variety of dimension", n, MAX_DIMENSION)  # before 2n + 1
        betti = [1, 0] * n + [1]
    elif kind == "elliptic_curve":
        q = json_field(spec, field + ".q", json_int)
        json_field(spec, field + ".coefficients", json_ints)
        check_cap("an elliptic curve over q =", q, MAX_CURVE_PRIME)
        betti = [1, 2, 1]
    elif kind == "product":
        factors = json_field(spec, field + ".factors", json_array)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        q, betti = _spec_betti(factors[0], field + ".factors[0]")
        for i, f in enumerate(factors[1:], 1):
            qf, bf = _spec_betti(f, "%s.factors[%d]" % (field, i))
            if qf != q:
                raise ValueError("factors over different fields")
            betti = poly_mul(betti, bf)
            _check_size(q, betti)
        return q, betti
    else:
        raise ValueError("unknown variety kind %r" % (kind,))
    _, a = prime_power(q)
    check_cap("residue degree %d gives each piece a p-adic system of"
              " dimension at least a^3 =" % a, a ** 3, MAX_THETA_DIM)
    _check_size(q, betti)
    return q, betti


def _build(spec: dict, curves: dict) -> VarietyDescriptor:
    """The variety of a checked spec; a curve that recurs is built (and
    point-counted) once."""
    kind = spec["kind"]
    if kind == "projective_space":
        return projective_space(spec["q"], spec["dimension"])
    if kind == "elliptic_curve":
        key = spec["q"], tuple(spec["coefficients"])
        if key not in curves:
            curves[key] = elliptic_curve(spec["q"], spec["coefficients"])
        return curves[key]
    return product(*[_build(f, curves) for f in spec["factors"]])


def variety_from_spec(spec: dict) -> VarietyDescriptor:
    """The variety of a JSON spec, refused (ValueError) when a field has
    the wrong JSON type or the spec lies above a cap."""
    _spec_betti(spec, "variety")
    return _build(spec, {})


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


def zeta_special_value(v: VarietyDescriptor, r: int) -> tuple[int, Fraction]:
    """Order of vanishing and exact leading coefficient of zeta(V, s) at
    s = r, the expansion variable being (1 - q^(r-s)), read piece by piece:
    P_j is the product of its pieces' reversed charpolys, so the order and
    the value add and multiply over the pieces.

    >>> zeta_special_value(projective_space(4, 1), 1)
    (-1, Fraction(4, 3))
    >>> zeta_special_value(elliptic_curve(5, [1, 1]), 0)
    (-1, Fraction(-9, 4))
    """
    _check_r(v.q, r)
    b = v.q ** r
    order = 0
    lead = Fraction(1)
    for j, row in enumerate(v.pieces):
        sign = 1 if j % 2 else -1  # odd cohomology in the numerator
        for cp, mult in row:
            m, value = strip_root(cp, b)
            order += sign * mult * m
            lead *= value ** (sign * mult)
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


class MotivicCohomologyReport:
    __slots__ = ("q", "r", "ranks", "euler_rank", "vanishing_order", "chi_times",
                 "chi_o", "pieces")

    def __init__(self, q: int, r: int, ranks: list, euler_rank: int,
                 vanishing_order: int, chi_times: Fraction, chi_o: int, pieces: list):
        self.q, self.r, self.chi_o = q, r, chi_o
        self.ranks = ranks  # rank of H^i for i = 0 .. 2 dim + 2
        self.euler_rank = euler_rank  # alternating rank sum (must vanish)
        self.vanishing_order = vanishing_order  # sum (-1)^i i rank_i
        self.chi_times = chi_times  # alternating product over the comparison complex
        self.pieces = pieces  # per-piece dicts: degree, charpoly, mult, rho, ...


def _split_root(cp: list, b: int) -> list:
    """[t - b, cp / (t - b)] if cp, squarefree of degree above 1, has the
    root b, else [cp]."""
    # only because crystal.local_lhs refuses special pairs that share an
    # eigenvalue unless equal; reading p off the gcd split drops it
    if len(cp) > 2 and poly_eval(cp, b) == 0:
        return [[-b, 1], poly_quo_monic(cp, [-b, 1])]
    return [cp]


def motivic_cohomology(v: VarietyDescriptor, r: int) -> MotivicCohomologyReport:
    """Decompose every H^j into squarefree catalogue motives, pair each with
    the r-th Lefschetz power, and assemble ranks and the multiplicative Euler
    characteristic from the verified local-to-global Ext machinery."""
    _check_r(v.q, r)
    q = v.q
    b = q ** r
    source = lefschetz_motive(q, r)
    rho_by_degree = [0] * (2 * v.dimension + 1)
    chi_tot = 0
    zprod = Fraction(1)
    piece_data = []
    for j, row in enumerate(v.pieces):
        sign = -1 if j % 2 else 1
        for cp, mult in row:
            for motive_cp in _split_root(cp, b):
                out = verify_weil_identity(source, Motive(q, motive_cp))
                if not out["equal"]:
                    raise RuntimeError("local identity failed for a piece of"
                                       " H^%d" % j)
                rho_by_degree[j] += mult * out["rho"]
                chi_tot += sign * mult * int(out["chi"])
                zprod *= (out["z_f"] * out["ext2_order"]) ** (sign * mult)
                piece_data.append({
                    "degree": j, "charpoly": motive_cp, "multiplicity": mult,
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
