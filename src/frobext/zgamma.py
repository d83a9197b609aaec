"""The [kernel]/[cokernel] calculus on finitely generated abelian groups and
the cohomology of a procyclic group <gamma> acting on them.

Groups are carried as integer presentations (Z^gens modulo the column
lattice of a relation matrix), so kernels, cokernels, induced maps and the
quantity z(f) = [Ker f]/[Coker f] all come out of Smith normal form with no
approximation.  The generator gamma may act through a single integer matrix,
or through a pair (G, U) with gamma = G o U^{-1}; the pair form admits
actions whose matrices have denominators that are units at every prime under
study (the denominator sits in U and never moves a valuation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .exact import (
    PrecisionError,
    is_prime,
    l_primary,
    limit_leading,
    poly_deg,
    poly_deriv,
    poly_gcd,
    reversed_form,
    valuation,
)
from .linalg import (
    Matrix,
    bareiss_det,
    charpoly,
    column_lattice_basis,
    hstack,
    identity,
    kernel_basis,
    lattice_solve,
    mat_int,
    mat_mul,
    mat_sub,
    minimal_polynomial,
    smith_normal_form,
    zeros,
)

GAMMA_HAT = "gamma_hat"  # the full procyclic group (profinite completion of Z)
GAMMA0 = "gamma0"        # its dense subgroup generated by gamma


class HypothesisError(ValueError):
    """A stated hypothesis of the computation fails for the given input."""


def hypothesis_gate(ma, mb):
    """The minimal polynomials may not share a root that is multiple in
    either; raises HypothesisError otherwise."""
    g = poly_gcd(ma, mb)
    if poly_deg(g) < 1:
        return
    if poly_deg(poly_gcd(g, poly_deriv(ma))) >= 1 or \
       poly_deg(poly_gcd(g, poly_deriv(mb))) >= 1:
        raise HypothesisError("minimal polynomials share a multiple root")


@dataclass(frozen=True)
class FinGenAbGroup:
    """Z^free_rank + sum_i Z/d_i in canonical form: 1 < d_1 | d_2 | ...

    >>> FinGenAbGroup(1, (2, 6)).order is None
    True
    >>> FinGenAbGroup(0, (2, 6)).order
    12
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion", tuple(self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative rank")
        prev = 1
        for d in self.torsion:
            if d <= 1 or d % prev != 0:
                raise ValueError("torsion must be a divisibility chain of factors > 1")
            prev = d

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int | None:
        return prod(self.torsion) if self.is_finite else None

    @property
    def torsion_order(self) -> int:
        return prod(self.torsion)

    def primary_part(self, l: int) -> FinGenAbGroup:
        """Same rank, l-primary torsion only."""
        parts = tuple(l_primary(d, l) for d in self.torsion)
        return FinGenAbGroup(self.free_rank, tuple(int(x) for x in parts if x != 1))

    def direct_sum(self, other: FinGenAbGroup) -> FinGenAbGroup:
        return group_from_orders(self.free_rank + other.free_rank,
                                 list(self.torsion) + list(other.torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def group_from_orders(free_rank: int, orders: list[int]) -> FinGenAbGroup:
    """Canonical form of Z^free_rank + sum Z/orders[i] (orders need not be a chain)."""
    cyclic = [o for o in orders if o != 1]
    if any(o < 1 for o in cyclic):
        raise ValueError("orders must be positive")
    if not cyclic:
        return FinGenAbGroup(free_rank)
    n = len(cyclic)
    diag = [[cyclic[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return FinGenAbGroup(free_rank, Presentation(n, diag).group().torsion)


class Presentation:
    """Z^gens modulo the column lattice of `rels` (a gens x k integer matrix)."""

    def __init__(self, gens: int, rels: Matrix | None = None):
        self.gens = gens
        self.rels = [row[:] for row in rels] if rels else [[] for _ in range(gens)]
        if len(self.rels) != gens:
            raise ValueError("relation matrix must have one row per generator")
        self._group: FinGenAbGroup | None = None

    @property
    def rel_count(self) -> int:
        return len(self.rels[0]) if self.gens else 0

    def group(self) -> FinGenAbGroup:
        if self._group is None:
            if self.gens == 0:
                self._group = FinGenAbGroup(0)
            elif self.rel_count == 0:
                self._group = FinGenAbGroup(self.gens)
            else:
                diag = smith_normal_form(self.rels).diagonal
                rank = sum(1 for d in diag if d != 0)
                tors = tuple(d for d in diag if d > 1)
                self._group = FinGenAbGroup(self.gens - rank, tors)
        return self._group

    def order(self) -> int | None:
        return self.group().order

    def __repr__(self):
        return "Presentation(%d gens, %d rels: %s)" % (
            self.gens, self.rel_count, self.group())


def standard_presentation(g: FinGenAbGroup) -> Presentation:
    """Free generators first, then torsion generators in chain order."""
    f, s = g.free_rank, len(g.torsion)
    rels = [[g.torsion[j] if i == f + j else 0 for j in range(s)] for i in range(f + s)]
    return Presentation(f + s, rels)


def moduli_presentation(moduli) -> Presentation:
    """The sum of Z/d over the moduli d, one generator each; a zero modulus
    gives a free generator."""
    n = len(moduli)
    cols = [i for i, d in enumerate(moduli) if d]
    rels = [[moduli[i] if i == j else 0 for j in cols] for i in range(n)]
    return Presentation(n, rels if cols else None)


class GroupHom:
    """A homomorphism of presented groups, given on ambient coordinates.

    `mat` has shape cod.gens x dom.gens and must carry the domain's relation
    lattice into the codomain's (checked on construction).
    """

    def __init__(self, dom: Presentation, cod: Presentation, mat: Matrix, check=True):
        self.dom = dom
        self.cod = cod
        self.mat = [row[:] for row in mat] if mat else [[] for _ in range(cod.gens)]
        if len(self.mat) != cod.gens or (cod.gens and len(self.mat[0]) != dom.gens):
            raise ValueError("matrix shape does not match the presentations")
        if check and dom.rel_count and cod.gens:
            image = mat_mul(self.mat, dom.rels)
            if cod.rel_count:
                ok = lattice_solve(cod.rels, image) is not None
            else:
                ok = all(x == 0 for row in image for x in row)
            if not ok:
                raise ValueError("matrix does not define a homomorphism")
        self._kernel = None
        self._cokernel = None

    def kernel(self) -> tuple[Presentation, Matrix]:
        """(presentation of ker, inclusion matrix into the domain's ambient Z^m)."""
        if self._kernel is None:
            self._kernel = self._compute_kernel()
        return self._kernel

    def _compute_kernel(self):
        m, n = self.dom.gens, self.cod.gens
        if m == 0:
            return Presentation(0), []
        if n == 0:
            return self.dom, identity(m)
        psi = hstack(self.mat, self.cod.rels) if self.cod.rel_count else self.mat
        full = kernel_basis(psi)
        if not full or not full[0]:
            return Presentation(0), [[] for _ in range(m)]
        proj = [full[i] for i in range(m)]
        basis = column_lattice_basis(proj)
        if not basis or not basis[0]:
            return Presentation(0), [[] for _ in range(m)]
        width = len(basis[0])
        if self.dom.rel_count:
            rels = lattice_solve(basis, self.dom.rels)
            assert rels is not None, "domain relations must land in the kernel lattice"
        else:
            rels = None
        return Presentation(width, rels), basis

    def cokernel(self) -> Presentation:
        if self._cokernel is None:
            n = self.cod.gens
            if n == 0:
                self._cokernel = Presentation(0)
            else:
                rels = self.mat
                if self.cod.rel_count:
                    rels = hstack(self.mat, self.cod.rels)
                self._cokernel = Presentation(n, rels if rels and rels[0] else None)
        return self._cokernel

    def kernel_group(self) -> FinGenAbGroup:
        return self.kernel()[0].group()

    def cokernel_group(self) -> FinGenAbGroup:
        return self.cokernel().group()

    def z(self) -> Fraction | None:
        """[ker]/[coker], or None when either is infinite."""
        kg, cg = self.kernel_group(), self.cokernel_group()
        if not kg.is_finite or not cg.is_finite:
            return None
        return Fraction(kg.order, cg.order)

    def then(self, other: GroupHom) -> GroupHom:
        assert other.dom is self.cod or other.dom.rels == self.cod.rels
        if 0 in (self.dom.gens, self.cod.gens, other.cod.gens):
            comp = zeros(other.cod.gens, self.dom.gens)  # empty mats lose shape
        else:
            comp = mat_mul(other.mat, self.mat)
        return GroupHom(self.dom, other.cod, comp, check=False)


def middle_cohomology(d0: GroupHom, d1: GroupHom) -> FinGenAbGroup:
    """ker(d1)/im(d0) for consecutive maps with d1 o d0 = 0.

    The composite vanishing on the groups is exactly the condition that the
    columns of d0 lie in the kernel lattice of d1, so it is checked for free.
    """
    assert d0.cod.gens == d1.dom.gens
    kpres, incl = d1.kernel()
    if kpres.gens == 0:
        return FinGenAbGroup(0)
    if d0.dom.gens == 0:
        return kpres.group()
    lift = lattice_solve(incl, d0.mat)
    if lift is None:
        raise ValueError("maps do not compose to zero")
    return GroupHom(d0.dom, kpres, lift, check=False).cokernel_group()


def z_of_map(dom: FinGenAbGroup, cod: FinGenAbGroup, mat: Matrix) -> Fraction | None:
    """z(f) = [Ker f]/[Coker f] for f given in the standard presentations.

    >>> z_of_map(FinGenAbGroup(0, (4,)), FinGenAbGroup(0, (2,)), [[1]])
    Fraction(2, 1)
    >>> z_of_map(FinGenAbGroup(1), FinGenAbGroup(1), [[0]]) is None
    True
    """
    return GroupHom(standard_presentation(dom), standard_presentation(cod), mat).z()


def z_det_formula(dom: FinGenAbGroup, cod: FinGenAbGroup, a: Matrix,
                  mode: str = "integer", p: int | None = None,
                  witt_degree: int = 1) -> Fraction | None:
    """Closed form for z(f) from the matrix induced on the free parts.

    Integer mode: [dom torsion] / (|det a| * [cod torsion]).  Witt mode
    (modules over a truncated Witt ring of degree `witt_degree` over Z_p):
    the determinant contributes |det|_p^witt_degree instead of 1/|det|.
    """
    if dom.free_rank != cod.free_rank:
        raise ValueError("free ranks differ")
    det = bareiss_det(a) if dom.free_rank else 1
    if det == 0:
        return None
    ratio = Fraction(dom.torsion_order, cod.torsion_order)
    if mode == "integer":
        return ratio / abs(det)
    if mode == "witt":
        if p is None or not is_prime(p):
            raise ValueError("witt mode needs the residue prime")
        return ratio * Fraction(1, p ** (witt_degree * valuation(det, p)))
    raise ValueError("mode must be 'integer' or 'witt'")


def z_compose_check(dom: FinGenAbGroup, mid: FinGenAbGroup, cod: FinGenAbGroup,
                    f_mat: Matrix, g_mat: Matrix):
    """(z(f), z(g), z(g o f)); multiplicativity holds whenever two are defined."""
    f = GroupHom(standard_presentation(dom), standard_presentation(mid), f_mat)
    g = GroupHom(f.cod, standard_presentation(cod), g_mat)
    return f.z(), g.z(), f.then(g).z()


class PairAction:
    """gamma = G o U^{-1} on a presented group.

    G and U are integer matrices preserving the relation lattice.  U must be
    invertible on the group after localizing at the primes of interest (det U
    a unit there); then ker/coker of gamma-1 are, up to transport by the
    automorphism U, the kernel and cokernel of G - U, and the map induced by
    the identity from invariants to coinvariants sends y to the class of U y.
    """

    def __init__(self, pres: Presentation, g_mat: Matrix, u_mat: Matrix | None = None,
                 check: bool = True):
        self.pres = pres
        self.g_mat = g_mat
        self.u_mat = u_mat if u_mat is not None else identity(pres.gens)
        if check:
            GroupHom(pres, pres, self.g_mat)
            GroupHom(pres, pres, self.u_mat)
            if pres.gens and bareiss_det(self.u_mat) == 0:
                raise ValueError("U must be injective")
        self._delta = GroupHom(pres, pres, mat_sub(self.g_mat, self.u_mat), check=False)

    def invariants(self) -> FinGenAbGroup:
        return self._delta.kernel_group()

    def coinvariants(self) -> FinGenAbGroup:
        return self._delta.cokernel_group()

    def f0(self) -> GroupHom:
        """The invariants -> coinvariants map induced by the identity."""
        kpres, incl = self._delta.kernel()
        cpres = self._delta.cokernel()
        mat = mat_mul(self.u_mat, incl) if kpres.gens else [[] for _ in range(cpres.gens)]
        return GroupHom(kpres, cpres, mat)

    def z_f0(self) -> Fraction | None:
        return self.f0().z()

    def cohomology(self) -> list[FinGenAbGroup]:
        return [self.invariants(), self.coinvariants()]


class GammaModule:
    """A finitely generated group with a gamma-action in its standard
    presentation (free coordinates first, then torsion coordinates).

    The action must be injective mod torsion and bijective on the torsion
    subgroup; torsion columns may not feed free coordinates.
    """

    def __init__(self, group: FinGenAbGroup, action: Matrix):
        self.group = group
        f, s = group.free_rank, len(group.torsion)
        if len(action) != f + s or (action and len(action[0]) != f + s):
            raise ValueError("action matrix must be %d x %d" % (f + s, f + s))
        self.action = [row[:] for row in action]
        self.pres = standard_presentation(group)
        self.pair = PairAction(self.pres, self.action)
        if f and bareiss_det(self.free_block()) == 0:
            raise ValueError("action must be invertible on the free part over Q")
        if s:
            tors = Presentation(s, [row[f:] for row in self.pres.rels[f:]])
            tblock = [row[f:] for row in self.action[f:]]
            if GroupHom(tors, tors, tblock).kernel_group().order != 1:
                raise ValueError("action must be invertible on the torsion part")

    def free_block(self) -> Matrix:
        f = self.group.free_rank
        return [row[:f] for row in self.action[:f]]


def invariants_coinvariants(m: GammaModule):
    """(invariants, coinvariants, induced map between them) for gamma - 1."""
    return m.pair.invariants(), m.pair.coinvariants(), m.pair.f0()


def z_invariants_map(m: GammaModule) -> Fraction | None:
    """z of the invariants -> coinvariants map, when 1 is at most a simple
    root of the minimal polynomial of gamma on the free part; None otherwise.

    When defined, z satisfies z * |prod over eigenvalues a != 1 of (1 - a)| = 1,
    and this identity is asserted against the characteristic polynomial.
    """
    f = m.group.free_rank
    if f:
        mp = minimal_polynomial(m.free_block())
        if poly_deg(poly_gcd(mp, [1, -2, 1])) >= 2:
            return None
    z = m.pair.z_f0()
    assert z is not None, "z must be defined under the simple-root condition"
    cp = charpoly(m.free_block()) if f else [1]
    _, lead = limit_leading(reversed_form(cp))
    assert z * abs(lead) == 1
    return z


@dataclass
class CofinTorsionGroup:
    """(Q_l/Z_l)^corank + finite l-group; gamma acts on the divisible part by
    a matrix with l-unit denominators and trivially on the finite part.

    `precision` bounds the certified valuation window: when a kernel order
    would need a valuation within 2 of it, the computation refuses rather
    than silently truncate.
    """

    l: int
    corank: int
    finite_part: tuple[int, ...] = ()
    action: Matrix | None = None
    precision: int | None = None

    def __post_init__(self):
        if not is_prime(self.l):
            raise ValueError("l must be prime")
        if self.corank < 0:
            raise ValueError("corank must be nonnegative")
        self.finite_part = tuple(self.finite_part)
        for d in self.finite_part:
            if d < 2 or l_primary(d, self.l) != d:
                raise ValueError("finite part entries must be powers of l")
        if self.action is None:
            self.action = identity(self.corank)
        if len(self.action) != self.corank:
            raise ValueError("action must be corank x corank")


def _cofin_cohomology(g: CofinTorsionGroup):
    """H0 = ker(gamma-1), H1 = coker(gamma-1); the cokernel on the divisible
    part vanishes whenever gamma-1 is injective there."""
    if g.corank == 0:
        h = FinGenAbGroup(0, g.finite_part)
        return [h, h]
    delta = [[Fraction(x) - (1 if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate(g.action)]
    scale = lcm(*(x.denominator for row in delta for x in row), 1)
    if scale % g.l == 0:
        raise ValueError("action denominators must be l-units")
    cleared = mat_int([[x * scale for x in row] for row in delta])
    diag = smith_normal_form(cleared).diagonal
    orders = []
    new_corank = 0
    for d in diag:
        if d == 0:
            new_corank += 1
            continue
        v = valuation(d, g.l) if d % g.l == 0 else 0
        if g.precision is not None and v >= g.precision - 2:
            raise PrecisionError("kernel valuation %d too close to precision %d"
                                 % (v, g.precision), required=v + 4)
        if v:
            orders.append(g.l ** v)
    h0_fin = group_from_orders(0, orders + list(g.finite_part))
    if new_corank == 0:
        return [h0_fin, FinGenAbGroup(0, g.finite_part)]
    return [CofinTorsionGroup(g.l, new_corank, h0_fin.torsion),
            CofinTorsionGroup(g.l, new_corank, g.finite_part)]


def gamma_cohomology(m, group: str = GAMMA0) -> list:
    """[H^0, H^1] of the procyclic group on m (all higher groups vanish for
    the module kinds handled here).

    The GAMMA_HAT / GAMMA0 distinction is carried for callers' bookkeeping;
    on the finitely generated and cofinite-torsion modules supported here the
    two theories agree in degrees 0 and 1 and share this code path.
    """
    if group not in (GAMMA_HAT, GAMMA0):
        raise ValueError("unknown group kind %r" % (group,))
    if isinstance(m, CofinTorsionGroup):
        return _cofin_cohomology(m)
    if isinstance(m, GammaModule):
        return m.pair.cohomology()
    if isinstance(m, PairAction):
        return m.cohomology()
    raise TypeError("unsupported module type %r" % type(m).__name__)
