"""F-crystals over the Witt vectors of F_q and their Hom/Ext groups.

A crystal here is a finitely generated module over W = W(F_q) with a
sigma-semilinear endomorphism F whose kernel is torsion.  Torsion-free
crystals are stored through an F-matrix with torsion cokernel condition
(det F nonzero, read exactly); torsion crystals are direct
sums of W/p^{n_i} with an F-matrix respecting the filtration.  Hom and Ext
are taken over the twisted polynomial ring W[F; sigma], out of a finite
source through one Koszul-type resolution; the local identity
compares z(f)·[Ext²] against the p-adic absolute value of an eigenvalue
product read off the characteristic polynomials.  Integer matrices of maps
come from `WittRing.mul_matrix`, their groups from the local Smith form
`linalg.padic_smith`, and a crystal's characteristic polynomial from
`linalg.charpoly` mod p^K of the integer matrix of its semilinear F.  The
torsion filtration is tested by `zgamma.respects_moduli`, as moduli
homomorphisms are at l.
"""

from fractions import Fraction
from math import gcd

from .exact import (
    PrecisionError,
    abs_at,
    int_valuation,
    poly_deg,
    poly_deriv,
    poly_gcd_monic,
    poly_pow,
    poly_quo_monic,
    ratio_limit,
    resultant,
)
from .linalg import (
    bareiss_det,
    block_diag,
    charpoly,
    companion,
    mat_mul,
    mat_sub,
    padic_smith,
    sparse_rows,
)
from .witt import WittRing
from .zgamma import (
    FinGenAbGroup,
    finite_automorphism,
    hypothesis_gate,
    respects_moduli,
)


# ---------------------------------------------------------------------------
# matrices over a Witt ring


def _linear_int_matrix(ring: WittRing, wmat):
    """Z-coordinate matrix (size a·n) of v -> wmat·v over Z[x]/(h), for an
    n x n matrix of coordinate lists: exact over Z, and congruent mod p^K to
    the map over the ring."""
    blocks = [[ring.mul_matrix(x) for x in row] for row in wmat]
    return [[x for blk in row for x in blk[r]]
            for row in blocks for r in range(ring.a)]


def _semilinear_int_matrix(ring: WittRing, wmat):
    """Z_p-coordinate matrix of v -> wmat·sigma(v)."""
    sigma = block_diag(*[ring.sigma_matrix] * len(wmat))
    return mat_mul(_linear_int_matrix(ring, wmat), sigma)


def _coord_list(x):
    if isinstance(x, (list, tuple)):
        return [int(c) for c in x]
    return [int(x)]


# ---------------------------------------------------------------------------
# crystals


class Crystal:
    """A finitely generated W-module with a sigma-semilinear Frobenius.

    `coords` is a square matrix over W; entries may be integers or
    coordinate lists in the x-power basis, kept exactly so the crystal can
    be re-read at any working precision.  With `exponents` the module is
    ⊕_i W/p^{n_i} and the matrix must respect the filtration
    (p^{n_i - n_j} divides entry (i, j) when n_i > n_j); without, it is
    free and the F-matrix must have nonzero determinant (read exactly, at
    no working precision).

    >>> ring = WittRing(5, 1)
    >>> unit_crystal(ring).dim
    1
    >>> k_module(ring).kind
    'finite'
    """

    def __init__(self, ring: WittRing, coords, exponents=None, special_poly=None):
        self.ring = ring
        self.coords = [[_coord_list(x) for x in row] for row in coords]
        n = len(self.coords)
        if any(len(row) != n for row in self.coords):
            raise ValueError("the F-matrix must be square")
        if any(len(c) > ring.a for row in self.coords for c in row):
            raise ValueError("coordinate lists longer than the residue degree")
        self.dim = n
        self.exponents = list(exponents) if exponents is not None else None
        self.kind = "free" if self.exponents is None else "finite"
        self.special_poly = list(special_poly) if special_poly else None
        self.det_valuation = None  # v_p(det F^a), set by _check_free
        if self.kind == "finite":
            self._check_finite()
        elif n:
            self._check_free()

    def _check_finite(self):
        exps = self.exponents
        if len(exps) != self.dim or any(e < 1 for e in exps):
            raise ValueError("one exponent >= 1 per torsion generator")
        if max(exps, default=1) > self.ring.K:
            raise PrecisionError("working precision below the torsion"
                                 " exponents", required=max(exps))
        # an entry respects the filtration iff the gcd of its coordinates does
        moduli = [self.ring.p ** e for e in exps]
        content = [[gcd(*c) for c in row] for row in self.coords]
        if not respects_moduli(content, moduli, moduli):
            raise ValueError("F does not respect the torsion filtration")

    def _check_free(self):
        if self.special_poly:
            # F is the integer companion of m(t^a), so det F^a = (±m(0))^a
            # exactly, and m(0) != 0
            self.det_valuation = self.ring.a * int_valuation(
                self.special_poly[0], self.ring.p)
            return
        # Z[x]/(h) embeds in W (h is irreducible mod p), so det F is read
        # exactly: its Z-determinant is the norm of the W-determinant, of
        # valuation a·v(det F) = v(det F^a)
        det = bareiss_det(_linear_int_matrix(self.ring, self.coords))
        if det == 0:
            raise ValueError("F is singular; the kernel must be torsion")
        self.det_valuation = int_valuation(det, self.ring.p)

    def is_k_type(self) -> bool:
        """Copies of the residue field with zero Frobenius."""
        p = self.ring.p
        return (self.kind == "finite"
                and all(e == 1 for e in self.exponents)
                and all(c % p == 0 for row in self.coords for ent in row for c in ent))

    def is_f_invertible(self) -> bool:
        """F bijective on a finite crystal: its Z_p-matrix on ⊕ W/p^{n_i}
        has a determinant that is a unit mod p (`finite_automorphism`)."""
        if self.kind != "finite":
            return False
        ring = self.ring
        return finite_automorphism(
            _semilinear_int_matrix(ring, self.coords),
            [ring.p ** e for e in self.exponents for _ in range(ring.a)], ring.p)

    def with_ring(self, ring: WittRing) -> "Crystal":
        """The same crystal over another ring."""
        return Crystal(ring, self.coords, self.exponents, self.special_poly)

    def __repr__(self):
        if self.kind == "finite":
            return "Crystal(finite, exponents=%r, p=%d, a=%d)" % (
                self.exponents, self.ring.p, self.ring.a)
        return "Crystal(free, rank=%d, p=%d, a=%d)" % (
            self.dim, self.ring.p, self.ring.a)


def unit_crystal(ring: WittRing) -> Crystal:
    """(W, sigma); cyclic with F acting through sigma."""
    mp = [-1, 1] if ring.a == 1 else None
    return Crystal(ring, [[1]], special_poly=mp)


def lefschetz_crystal(ring: WittRing) -> Crystal:
    """(W, p·sigma); the weight-two line."""
    mp = [-ring.p, 1] if ring.a == 1 else None
    return Crystal(ring, [[ring.p]], special_poly=mp)


def k_module(ring: WittRing) -> Crystal:
    """The residue field, with zero Frobenius."""
    return Crystal(ring, [[0]], exponents=[1])


def special_module(ring: WittRing, min_poly) -> Crystal:
    """The cyclic module on which the a-th iterate of F satisfies the given
    monic integer polynomial m: the F-matrix is the companion of m(t^a), so
    the characteristic polynomial of the iterate is m^a.

    >>> special_module(WittRing(5, 1), [5, -1, 1]).dim
    2
    """
    m = [int(c) for c in min_poly]
    if poly_deg(m) < 1 or m[-1] != 1:
        raise ValueError("need a monic integer polynomial of positive degree")
    if m[0] == 0:
        raise ValueError("zero constant coefficient would make F singular")
    lifted = [0] * (ring.a * (len(m) - 1) + 1)
    for i, c in enumerate(m):
        lifted[ring.a * i] = c
    return Crystal(ring, companion(lifted), special_poly=m)


# ---------------------------------------------------------------------------
# characteristic polynomial


def crystal_charpoly(m: Crystal) -> list[int]:
    """Ascending integer coefficients of the characteristic polynomial P of
    the a-th Frobenius iterate, through balanced lifts mod p^K.

    It is read off Φ, the Z_p-matrix of the semilinear F (rank a·r).  Over
    W ⊗ W ≅ W^a, Φ is block-cyclic with Φ^a = F^a, so det(t - Φ) = P(t^a):
    every coefficient off a multiple of a must vanish mod p^K
    (RuntimeError otherwise).

    >>> crystal_charpoly(unit_crystal(WittRing(3, 2)))
    [-1, 1]
    """
    if m.kind != "free":
        raise ValueError("characteristic polynomial needs a torsion-free crystal")
    ring = m.ring
    a, pK = ring.a, ring.pK
    cp = charpoly(_semilinear_int_matrix(ring, m.coords), pK)
    if any(c for i, c in enumerate(cp) if i % a):
        raise RuntimeError("the charpoly of the semilinear F is not a"
                           " polynomial in t^a")
    return [c - pK if c > pK // 2 else c for c in cp[::a]]


# ---------------------------------------------------------------------------
# Hom/Ext via the two-term presentation (torsion-free source)


class ExtReportP:
    __slots__ = ("p", "ext0", "ext1", "ext2", "certified_precision")

    def __init__(self, p: int, ext0: FinGenAbGroup, ext1: FinGenAbGroup,
                 ext2: FinGenAbGroup, certified_precision: int | None = None):
        self.p, self.ext0, self.ext1, self.ext2 = p, ext0, ext1, ext2
        self.certified_precision = certified_precision


def _require_pair(m: Crystal, n: Crystal):
    ra, rb = m.ring, n.ring
    if ra is not rb and \
            (ra.p, ra.a, ra.K, ra.modulus) != (rb.p, rb.a, rb.K, rb.modulus):
        raise ValueError("crystals live over different rings")


def _theta_int(m: Crystal, n: Crystal, ring: WittRing):
    """Integer matrix of u -> u·F_M - F_N·sigma(u) on W-linear maps M -> N,
    in the (N-index, M-index, Witt coordinate) basis; size a·r(M)·r(N), as
    sparse rows ({column: entry} of the nonzero entries, `padic_smith`'s
    form).  From the exact coordinates and σ of `ring`: θ over `ring` mod
    its p^K."""
    a, rm, rn = ring.a, m.dim, n.dim
    s_mat = ring.sigma_matrix
    # one multiplication matrix per nonzero F-matrix entry, σ folded into
    # N's and the sign of its term taken; a zero entry adds no block
    mul_m = [{k: ring.mul_matrix(x) for k, x in enumerate(col) if any(x)}
             for col in zip(*m.coords)]
    mul_n = [{k: mat_mul(ring.mul_matrix([-c for c in x]), s_mat)
              for k, x in enumerate(row) if any(x)} for row in n.coords]
    out = []
    for i in range(rn):
        for j in range(rm):
            # u_ik·F_M[k][j] lands in column block (i, k) and
            # F_N[i][k]·σ(u_kj) in (k, j): the two meet at (i, j) alone
            fm, fn = mul_m[j], mul_n[i]
            blocks = [((i * rm + k) * a, blk)
                      for k, blk in fm.items() if k != j]
            blocks += [((k * rm + j) * a, blk)
                       for k, blk in fn.items() if k != i]
            if j in fm and i in fn:
                blocks.append(((i * rm + j) * a, [
                    [x + y for x, y in zip(r1, r2)]
                    for r1, r2 in zip(fm[j], fn[i])]))
            elif j in fm or i in fn:
                blocks.append(((i * rm + j) * a, fm.get(j) or fn[i]))
            for r in range(a):
                out.append({co + c: x for co, blk in blocks
                            for c, x in enumerate(blk[r]) if x})
    return out


def _finite_cokernel(rows, ncols: int, exps: list[int],
                     p: int) -> FinGenAbGroup:
    """The cokernel of a map into ⊕ Z/p^e (sparse rows, `ncols` columns),
    killed by p^max(e): exact from [mat | diag(p^e)] read mod
    p^(max(e)+1)."""
    rows = [{**row, ncols + i: p ** e}
            for i, (row, e) in enumerate(zip(rows, exps))]
    vals = padic_smith(rows, ncols + len(exps), p, max(exps, default=0) + 1)
    return FinGenAbGroup(0, tuple(p ** v for v in vals if v))


def _finite_kernel(rows, src_exps: list[int], tgt_exps: list[int],
                   p: int) -> FinGenAbGroup:
    """The kernel of a map (sparse rows) from ⊕ Z/p^f to ⊕ Z/p^g, by
    Pontryagin duality: the cokernel of the dual map A'_ji =
    A_ij·p^(f_j - g_i), integral when the map is one of these groups
    (RuntimeError otherwise)."""
    src = [p ** f for f in src_exps]
    dual: list[dict[int, int]] = [{} for _ in src]
    for i, (row, g) in enumerate(zip(rows, tgt_exps)):
        t = p ** g
        for j, x in row.items():
            y, r = divmod(x * src[j], t)
            if r:
                raise RuntimeError("the map does not respect the torsion"
                                   " filtration")
            dual[j][i] = y
    return _finite_cokernel(dual, len(tgt_exps), src_exps, p)


def _finite_target_report(m: Crystal, n: Crystal) -> ExtReportP:
    """Hom and Ext¹ into a finite target: the kernel and cokernel of θ on
    the group ⊕ W/p^{e_i} of W-maps M -> N (θ respects the torsion
    filtration, so its dual is integral)."""
    ring = m.ring
    p = ring.p
    theta = _theta_int(m, n, ring)
    exps = [e for e in n.exponents for _ in range(m.dim * ring.a)]
    return ExtReportP(p, _finite_kernel(theta, exps, exps, p),
                      _finite_cokernel(theta, len(exps), exps, p),
                      FinGenAbGroup(0), None)


def _special_rank_and_bound(m: Crystal, n: Crystal) -> tuple[int, int]:
    """(Hom rank, b) of two special modules: Ext¹ is a² copies of
    Z_p[T]/(m_M, m_N), so with g = gcd(m_M, m_N) Hom has rank deg(g)·a² and
    no torsion valuation of θ exceeds b = v_p(Res(m_M/g, m_N/g))."""
    mm, mn = m.special_poly, n.special_poly
    g = poly_gcd_monic(mm, mn)
    res = resultant(poly_quo_monic(mm, g), poly_quo_monic(mn, g))
    return poly_deg(g) * m.ring.a ** 2, int_valuation(res, m.ring.p)


def _theta_report(m: Crystal, n: Crystal, k: int,
                  rank: int | None = None) -> ExtReportP:
    """Hom and Ext¹ of a torsion-free pair from one Smith form of θ mod
    p^k, a vanishing divisor read as rank; with `rank`, k exceeds every
    torsion valuation and the count must equal it."""
    ring = m.ring.at_precision(k)
    theta = _theta_int(m, n, ring)
    vals = padic_smith(theta, len(theta), ring.p, k)
    zero = vals.count(None)
    if rank is not None and zero != rank:
        raise RuntimeError("θ has %d vanishing divisors mod p^%d where the"
                           " Hom rank is %d" % (zero, k, rank))
    torsion = tuple(ring.p ** v for v in vals if v is not None and v > 0)
    return ExtReportP(ring.p, FinGenAbGroup(zero), FinGenAbGroup(zero, torsion),
                      FinGenAbGroup(0), k)


def ext_presentation(m: Crystal, n: Crystal) -> ExtReportP:
    """Hom = kernel and Ext¹ = cokernel of u -> u·F_M - F_N·sigma(u) on
    W-linear maps; Ext² = 0 (the source has a length-one presentation).

    The source must be torsion-free.  For a torsion-free target θ is read
    once, at the `certified_precision` k: for special modules k =
    max(K+2, b+1) with b from `_special_rank_and_bound`, and the count of
    vanishing divisors must be their Hom rank; any other pair is read at
    K+2, where no divisor may vanish (else PrecisionError).
    """
    _require_pair(m, n)
    if m.kind != "free":
        raise ValueError("the source must be torsion-free")
    if n.kind == "finite":
        return _finite_target_report(m, n)
    K = m.ring.K
    if m.special_poly and n.special_poly:
        rank, b = _special_rank_and_bound(m, n)
        return _theta_report(m, n, max(K + 2, b + 1), rank)
    rep = _theta_report(m, n, K + 2)
    if rep.ext0.free_rank:
        raise PrecisionError("θ has elementary divisors that vanish mod p^%d"
                             % (K + 2))
    return rep


# ---------------------------------------------------------------------------
# finite sources: one Koszul-type resolution


def _koszul_complex(m: Crystal, n: Crystal):
    """(d0, d1) of N^k -> N^2k -> N^k, Hom into a finite N of the
    resolution of M = ⊕ W/p^{n_j} with F e_j = Σ_i c_ij e_i: generators
    e_j, relations s_j = p^{n_j} e_j and r_j = F e_j - Σ_i c_ij e_i, and
    their one syzygy t_j = p^{n_j} r_j - F s_j + Σ_i c_ij p^{n_j - n_i} s_i,
    integral because F respects the filtration.  The values on the s_j come
    first, so d1's Φ and C blocks precede its p^{n_j} blocks and its local
    Smith forms meet their unit pivots first.  Entries are reduced mod
    their row's modulus, where p^{n_j} may vanish."""
    ring, p, k, exps = m.ring, m.ring.p, m.dim, m.exponents
    phi = _semilinear_int_matrix(ring, n.coords)
    mods = [p ** e for e in n.exponents for _ in range(ring.a)]

    def mul(c):  # multiplication by c on N
        return block_diag(*[ring.mul_matrix(c)] * n.dim)

    def flat(rows):  # a matrix of blocks, each an endomorphism of N
        return [[x % d for blk in brow for x in blk[r]]
                for brow in rows for r, d in enumerate(mods)]

    zero = mul([0])
    pn = [mul([p ** e]) for e in exps]
    d0 = flat([[pn[j] if i == j else zero for i in range(k)] for j in range(k)]
              + [[mat_sub(phi if i == j else zero, mul(m.coords[i][j]))
                  for i in range(k)] for j in range(k)])
    d1 = flat([[mat_sub(mul([x * p ** nj // p ** ni for x in m.coords[i][j]]),
                        phi if i == j else zero) for i, ni in enumerate(exps)]
               + [pn[j] if i == j else zero for i in range(k)]
               for j, nj in enumerate(exps)])
    return d0, d1


def koszul_orders(m: Crystal, n: Crystal) -> tuple[int, int, int]:
    """([Ext⁰], [Ext¹], [Ext²]) of a finite source M into N, off the complex
    of `_koszul_complex` (Weibel, Homological Algebra, §4.5).

    For finite N, Ext⁰ = ker d0, Ext² = coker d1 and [Ext¹] =
    [ker d1]·[Ext⁰]/[N^k].  Rank-nullity gives [ker d1] = [N^k]·[coker d1];
    the two sides come from different Smith forms and are compared, and
    d1·d0 must vanish on N^k (RuntimeError otherwise).  A torsion-free N is
    read through N/p^E, E = max n_j: p^E kills M, so 0 -> Ext^i(M, N) ->
    Ext^i(M, N/p^E) -> Ext^{i+1}(M, N) -> 0, and Hom(M, N) = 0.

    >>> koszul_orders(Crystal(WittRing(5, 1), [[1, 0], [0, 1]], [2, 1]),
    ...               unit_crystal(WittRing(5, 1)))
    (1, 125, 125)
    """
    _require_pair(m, n)
    if m.kind != "finite":
        raise ValueError("the source must be finite")
    if n.kind == "free":
        b0, _, b2 = koszul_orders(
            m, Crystal(n.ring, n.coords, [max(m.exponents)] * n.dim))
        return 1, b0, b2
    p = m.ring.p
    d0, d1 = _koszul_complex(m, n)
    exps = [e for e in n.exponents for _ in range(m.ring.a)] * m.dim
    if any(x % p ** e for row, e in zip(mat_mul(d1, d0), exps) for x in row):
        raise RuntimeError("d1·d0 does not vanish on N^k")
    d0, d1 = sparse_rows(d0), sparse_rows(d1)
    e0 = _finite_kernel(d0, exps, exps + exps, p).order
    e2 = _finite_cokernel(d1, 2 * len(exps), exps, p).order
    ker_d1 = _finite_kernel(d1, exps + exps, exps, p).order
    c0 = p ** sum(exps)
    if ker_d1 != c0 * e2:
        raise RuntimeError("the Euler product of the complex is not 1")
    return e0, ker_d1 * e0 // c0, e2


def ext_koszul_k(n: Crystal) -> tuple[int, int, int]:
    """`koszul_orders` of the residue field with zero Frobenius into N.

    >>> ext_koszul_k(k_module(WittRing(3, 1)))
    (3, 9, 3)
    """
    return koszul_orders(k_module(n.ring), n)


# ---------------------------------------------------------------------------
# the local identity at p


class LocalReportP:
    """The left side of the local identity at p: z(f)·[Ext²(M, N)], with the
    charpolys of two torsion-free crystals."""

    __slots__ = ("case", "lhs", "certified_precision", "charpolys")

    def __init__(self, case: str, lhs: Fraction, certified_precision: int | None = None,
                 charpolys: tuple | None = None):
        self.case, self.lhs = case, lhs
        self.certified_precision = certified_precision
        self.charpolys = charpolys


def _charpoly_for_identity(x: Crystal) -> list:
    if x.special_poly:
        return poly_pow(x.special_poly, x.ring.a)
    return crystal_charpoly(x)


def _rhs_value(m: Crystal, n: Crystal, pm: list, pn: list):
    """(coincident pairs, |q^{s(M)·r(N)} · prod_{a_i != b_j} (1 - b_j/a_i)|_p)
    from the two characteristic polynomials."""
    p = m.ring.p
    rn = poly_deg(pn)
    if poly_deg(pm) == 0 or rn == 0:
        return 0, Fraction(1)
    if pm[0] == 0:
        # det F^a vanishes mod p^K: neither s(M) nor 1/a_i can be read
        raise PrecisionError(
            "the determinant of F^a vanishes mod p^K",
            required=max(m.det_valuation, n.det_valuation) + 1)
    rho, lead = ratio_limit(pm, pn)
    vq = int_valuation(abs(pm[0]), p)  # = a·s(M)
    return rho, abs_at(p, lead) * Fraction(1, p ** (vq * rn))


def _z_derivative_map(m: Crystal) -> Fraction:
    """z of multiplication by F^a·(d/dF^a)(m(F^a)) on a special module, its
    |det|_p read exactly.  F is the integer companion of m(t^a), which σ
    fixes, so F^a is multiplication by t^a on Z[t]/(m(t^a)): a copies of
    the companion C of m, up to a permutation of the basis.  Over Z_p the
    map is a² such copies of C·m'(C), so its valuation is a² times that of
    det(C·m'(C)) = ±m(0)·Res(m, m'), nonzero for a squarefree m."""
    mp, p, a = m.special_poly, m.ring.p, m.ring.a
    v = int_valuation(mp[0], p) + int_valuation(resultant(mp, poly_deriv(mp)), p)
    return Fraction(1, p ** (a * a * v))


def _separating_precision(m: Crystal, n: Crystal) -> int | None:
    """v_p(Res) + 1 for the charpolys of the exact integer F-matrices at
    a = 1, None if they share an eigenvalue; 2K for Witt entries (a > 1)."""
    if m.ring.a > 1:
        return 2 * m.ring.K
    res = resultant(*(charpoly([[c[0] if c else 0 for c in row]
                                for row in x.coords]) for x in (m, n)))
    return int_valuation(res, m.ring.p) + 1 if res else None


def local_lhs(m: Crystal, n: Crystal) -> LocalReportP:
    """z(f)·[Ext²(M, N)] on a supported pair, computed and certified once.

    Supported: every finite source (the residue field is the k-source),
    read off one Koszul-type resolution with no θ and no certified
    precision; finite target; special modules with equal or coprime
    minimal polynomials; torsion-free pairs with separated eigenvalue
    sets.  θ is read once, at k = max(K+2, b+1) with b = v_p of the
    resultant of the minimal polynomials (or charpolys), where no divisor
    may vanish, and k is reported as certified; special-equal, whose
    derivative map is exact, reports K+2.
    """
    _require_pair(m, n)
    K = m.ring.K
    if m.kind == "finite" and m.is_k_type():
        e0, e1, e2 = ext_koszul_k(n)
        return LocalReportP("k-source", Fraction(e0 * e2, e1) ** m.dim)
    if m.kind == "finite":
        e0, e1, e2 = koszul_orders(m, n)
        return LocalReportP("finite-source", Fraction(e0 * e2, e1))
    if n.kind == "finite":
        # z(f) of any map between the finite groups Hom and Ext¹ is
        # [Ext⁰]/[Ext¹], and Ext² = 0
        rep = ext_presentation(m, n)
        return LocalReportP("finite-target",
                            Fraction(rep.ext0.order, rep.ext1.order))
    p = m.ring.p
    charpolys = pm, pn = _charpoly_for_identity(m), _charpoly_for_identity(n)
    mm, mn = m.special_poly, n.special_poly
    if mm and mn and mm == mn:
        hypothesis_gate(mm, mn)
        return LocalReportP("special-equal", _z_derivative_map(m), K + 2,
                            charpolys)
    if mm and mn:
        rank, b = _special_rank_and_bound(m, n)
        if rank:
            hypothesis_gate(mm, mn)
            raise ValueError("special pair with a shared eigenvalue is not supported")
        case = "special-coprime"
    else:
        res = resultant(pm, pn)
        if res == 0 or int_valuation(res, p) >= K:
            raise PrecisionError(
                "cannot separate the eigenvalue sets at this precision",
                required=_separating_precision(m, n))
        # the charpolys are exact mod p^K, and so is a valuation below K
        case, b = "free-disjoint", int_valuation(res, p)
    rep = _theta_report(m, n, max(K + 2, b + 1), 0)
    return LocalReportP(case, Fraction(1, rep.ext1.order),
                        rep.certified_precision, charpolys)


def verify_local_identity(m: Crystal, n: Crystal) -> dict:
    """Check z(f)·[Ext²(M, N)] = |q^{s(M)·r(N)} · prod (1 - b_j/a_i)|_p with
    the product over non-coincident eigenvalue pairs of the a-th Frobenius
    iterates, on a pair that `local_lhs` supports.  The left side is
    `local_lhs`; the right side is read off the ratio polynomial of the two
    characteristic polynomials.
    """
    local = local_lhs(m, n)
    p, a = m.ring.p, m.ring.a
    rho, rhs = _rhs_value(m, n, *local.charpolys) if local.charpolys \
        else (0, Fraction(1))
    return {"p": p, "a": a, "q": p ** a, "case": local.case,
            "lhs": local.lhs, "rhs": rhs, "rho_pairs": rho,
            "equal": local.lhs == rhs,
            "certified_precision": local.certified_precision}


# ---------------------------------------------------------------------------
# random instances

LOCAL_CASES = ("k-finite", "finite-invertible", "special-coprime", "special-equal")


def random_finite_crystal(rng, ring: WittRing, max_gens: int = 2,
                          max_exp: int = 2, invertible: bool = False) -> Crystal:
    p = ring.p
    for _ in range(300):
        gens = rng.randint(1, max_gens)
        if invertible:
            exps = [rng.randint(1, max_exp)] * gens
        else:
            exps = [rng.randint(1, max_exp) for _ in range(gens)]
        coords = []
        for i in range(gens):
            row = []
            for j in range(gens):
                gap = max(0, exps[i] - exps[j])
                row.append([p ** gap * rng.randrange(p ** (exps[i] - gap + 1))
                            for _ in range(ring.a)])
            coords.append(row)
        c = Crystal(ring, coords, exponents=exps)
        if not invertible or c.is_f_invertible():
            return c
    raise ValueError("no finite crystal found")


def random_special_module(rng, ring: WittRing, max_deg: int = 2,
                          coprime_to=None) -> Crystal:
    """A cyclic module on a random squarefree monic integer polynomial with
    nonzero constant term (coprime to `coprime_to` when given)."""
    p = ring.p
    for _ in range(500):
        deg = rng.randint(1, max_deg)
        m = [rng.randint(-p, p) for _ in range(deg)] + [1]
        if m[0] == 0:
            continue
        if poly_deg(poly_gcd_monic(m, poly_deriv(m))) >= 1:
            continue
        if coprime_to is not None and resultant(m, coprime_to) == 0:
            continue
        return special_module(ring, m)
    raise ValueError("no special module found")


def random_local_pair(rng, ring: WittRing, case: str):
    """A random (M, N) in one of the generator cases of the local identity."""
    if case == "k-finite":
        return k_module(ring), random_finite_crystal(rng, ring)
    if case == "finite-invertible":
        m = random_finite_crystal(rng, ring, invertible=True)
        if rng.random() < 0.5:
            return m, random_finite_crystal(rng, ring)
        return m, random_special_module(rng, ring)
    if case == "special-coprime":
        m = random_special_module(rng, ring)
        return m, random_special_module(rng, ring, coprime_to=m.special_poly)
    if case == "special-equal":
        m = random_special_module(rng, ring)
        return m, special_module(ring, m.special_poly)
    raise ValueError("unknown case: %r" % (case,))
