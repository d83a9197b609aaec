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

from fractions import Fraction
from math import prod

from .exact import (
    int_valuation,
    l_primary,
    poly_deg,
    poly_deriv,
    poly_gcd_monic,
    prime_factors,
    strip_root,
)
from .linalg import (
    SNF,
    Matrix,
    bareiss_det,
    charpoly,
    column_lattice_basis,
    hstack,
    identity,
    kernel_basis,
    lattice_solve,
    mat_mul,
    mat_sub,
    minimal_polynomial,
    smith_normal_form,
    zeros,
)

class HypothesisError(ValueError):
    """A stated hypothesis of the computation fails for the given input."""


def hypothesis_gate(ma, mb):
    """The monic integer minimal polynomials may not share a root that is
    multiple in either; raises HypothesisError otherwise."""
    g = poly_gcd_monic(ma, mb)
    if poly_deg(g) < 1:
        return
    if poly_deg(poly_gcd_monic(g, poly_deriv(ma))) >= 1 or \
       poly_deg(poly_gcd_monic(g, poly_deriv(mb))) >= 1:
        raise HypothesisError("minimal polynomials share a multiple root")


class FinGenAbGroup:
    """Z^free_rank + sum_i Z/d_i in canonical form: 1 < d_1 | d_2 | ...

    >>> FinGenAbGroup(1, (2, 6)).order is None
    True
    >>> FinGenAbGroup(0, (2, 6)).order
    12
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("negative rank")
        self.free_rank = free_rank
        self.torsion = torsion = tuple(torsion)
        prev = 1
        for d in torsion:
            if d <= 1 or d % prev != 0:
                raise ValueError("torsion must be a divisibility chain of factors > 1")
            prev = d

    def __eq__(self, other):
        if other.__class__ is not FinGenAbGroup:
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return "FinGenAbGroup(free_rank=%r, torsion=%r)" % (self.free_rank,
                                                             self.torsion)

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
    return FinGenAbGroup(free_rank, moduli_presentation(cyclic).group().torsion)


class Presentation:
    """Z^gens modulo the column lattice of `rels` (a gens x k integer matrix).

    `moduli` is the diagonal d of a presentation built by
    `moduli_presentation` (the sum of Z/d_i), and None for any other.  The
    Smith form of `rels` is taken on first read and kept: the group reads
    its diagonal, and a homomorphism check into this presentation solves
    against it.
    """

    def __init__(self, gens: int, rels: Matrix | None = None):
        self.gens = gens
        self.rels = [row[:] for row in rels] if rels else [[] for _ in range(gens)]
        if len(self.rels) != gens:
            raise ValueError("relation matrix must have one row per generator")
        self.moduli: tuple[int, ...] | None = None
        self._snf: SNF | None = None
        self._group: FinGenAbGroup | None = None

    @property
    def rel_count(self) -> int:
        return len(self.rels[0]) if self.gens else 0

    def snf(self) -> SNF:
        if self._snf is None:
            self._snf = smith_normal_form(self.rels)
        return self._snf

    def group(self) -> FinGenAbGroup:
        if self._group is None:
            if self.gens == 0:
                self._group = FinGenAbGroup(0)
            elif self.rel_count == 0:
                self._group = FinGenAbGroup(self.gens)
            else:
                diag = self.snf().diagonal
                rank = sum(1 for d in diag if d != 0)
                tors = tuple(d for d in diag if d > 1)
                self._group = FinGenAbGroup(self.gens - rank, tors)
        return self._group

    def __repr__(self):
        return "Presentation(%d gens, %d rels: %s)" % (
            self.gens, self.rel_count, self.group())


def standard_presentation(g: FinGenAbGroup) -> Presentation:
    """Free generators first, then torsion generators in chain order."""
    return moduli_presentation([0] * g.free_rank + list(g.torsion))


def moduli_presentation(moduli) -> Presentation:
    """The sum of Z/d over the moduli d, one generator each; a zero modulus
    gives a free generator."""
    n = len(moduli)
    cols = [i for i, d in enumerate(moduli) if d]
    rels = [[moduli[i] if i == j else 0 for j in cols] for i in range(n)]
    pres = Presentation(n, rels if cols else None)
    pres.moduli = tuple(moduli)
    return pres


def respects_moduli(mat: Matrix, dom, cod) -> bool:
    """Whether mat (len(cod) x len(dom)) maps the sum of Z/d over the moduli
    `dom` into the one over `cod`: d_cod,i | mat_ij·d_dom,j, read as
    mat_ij·d_dom,j = 0 where d_cod,i = 0 (a free generator)."""
    return all(x * d % c == 0 if c else x * d == 0
               for row, c in zip(mat, cod) for x, d in zip(row, dom))


def finite_automorphism(mat: Matrix, moduli, p: int) -> bool:
    """Whether mat is an automorphism of the finite p-group sum of Z/d over
    the moduli d (powers p^e, e >= 1, one generator each).  ValueError unless mat
    is a homomorphism, d_i | mat_ij·d_j (the check GroupHom makes on the
    moduli presentation).  By Nakayama's lemma it is then bijective iff it
    is so mod p, i.e. iff det(mat) is a unit mod p."""
    n = len(moduli)
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ValueError("matrix shape does not match the presentations")
    if not respects_moduli(mat, moduli, moduli):
        raise ValueError("matrix does not define a homomorphism")
    return bareiss_det([[x % p for x in row] for row in mat]) % p != 0


class GroupHom:
    """A homomorphism of presented groups, given on ambient coordinates.

    `mat` has shape cod.gens x dom.gens and must carry the domain's relation
    lattice into the codomain's (checked on construction: by divisibility
    between two moduli presentations, else by solving over Z against the
    codomain's kept Smith form).
    """

    def __init__(self, dom: Presentation, cod: Presentation, mat: Matrix, check=True):
        self.dom = dom
        self.cod = cod
        # a row of the wrong length drops out of the copy, so the counts differ
        self.mat = [row[:] for row in mat if len(row) == dom.gens]
        if len(self.mat) != len(mat) or len(mat) != cod.gens:
            raise ValueError("matrix shape does not match the presentations")
        if check and dom.rel_count and cod.gens:
            if dom.moduli is not None and cod.moduli is not None:
                ok = respects_moduli(self.mat, dom.moduli, cod.moduli)
            else:
                image = mat_mul(self.mat, dom.rels)
                if cod.rel_count:
                    ok = lattice_solve(cod.rels, image, cod.snf()) is not None
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
        if not (m and n):  # from or to Z^0: the kernel is the domain
            return self.dom, identity(m)
        full = kernel_basis(hstack(self.mat, self.cod.rels))
        # with no columns, full[:m] is its own lattice basis: no Smith form
        basis = column_lattice_basis(full[:m]) if full[0] else full[:m]
        if self.dom.rel_count:
            rels = lattice_solve(basis, self.dom.rels)
            if rels is None:
                raise RuntimeError("domain relations must land in the kernel"
                                   " lattice")
        else:
            rels = None
        return Presentation(len(basis[0]), rels), basis

    def cokernel(self) -> Presentation:
        if self._cokernel is None:
            self._cokernel = Presentation(self.cod.gens,
                                          hstack(self.mat, self.cod.rels))
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
        if other.dom is not self.cod and other.dom.rels != self.cod.rels:
            raise ValueError("the maps do not compose")
        if self.cod.gens:
            comp = mat_mul(other.mat, self.mat)
        else:  # a product through Z^0 has lost its column count
            comp = zeros(other.cod.gens, self.dom.gens)
        return GroupHom(self.dom, other.cod, comp, check=False)


def z_of_map(dom: FinGenAbGroup, cod: FinGenAbGroup, mat: Matrix) -> Fraction | None:
    """z(f) = [Ker f]/[Coker f] for f given in the standard presentations.

    >>> z_of_map(FinGenAbGroup(0, (4,)), FinGenAbGroup(0, (2,)), [[1]])
    Fraction(2, 1)
    >>> z_of_map(FinGenAbGroup(1), FinGenAbGroup(1), [[0]]) is None
    True
    """
    return GroupHom(standard_presentation(dom), standard_presentation(cod), mat).z()


def z_det_formula(dom: FinGenAbGroup, cod: FinGenAbGroup,
                  a: Matrix) -> Fraction | None:
    """Closed form for z(f) from the matrix induced on the free parts:
    [dom torsion] / (|det a| * [cod torsion])."""
    if dom.free_rank != cod.free_rank:
        raise ValueError("free ranks differ")
    det = bareiss_det(a) if dom.free_rank else 1
    if det == 0:
        return None
    return Fraction(dom.torsion_order, cod.torsion_order * abs(det))


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

    def __init__(self, pres: Presentation, g_mat: Matrix, u_mat: Matrix | None = None):
        self.pres = pres
        self.g_mat = g_mat
        self.u_mat = u_mat if u_mat is not None else identity(pres.gens)
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
        return GroupHom(kpres, cpres, mat_mul(self.u_mat, incl))

    def z_f0(self) -> Fraction | None:
        return self.f0().z()


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
        # the torsion is the sum of its p-parts, each the sum of Z/p^v_p(d)
        # over the invariants d with p | d, and PairAction checked that the
        # action is a homomorphism, so it is one on each p-part.  Mod p the
        # action is block triangular for the split p | d, p ∤ d, whose other
        # block says nothing of the p-part: the full determinant would not
        # do.  prime_factors charges its step budget.
        tors = group.torsion
        for p in prime_factors(tors[-1]) if tors else ():
            idx = [i for i, d in enumerate(tors) if d % p == 0]
            block = [[self.action[f + i][f + j] for j in idx] for i in idx]
            moduli = [p ** int_valuation(tors[i], p) for i in idx]
            if not finite_automorphism(block, moduli, p):
                raise ValueError("action must be invertible on the torsion part")

    def free_block(self) -> Matrix:
        f = self.group.free_rank
        return [row[:f] for row in self.action[:f]]


def z_invariants_map(m: GammaModule) -> Fraction | None:
    """z of the invariants -> coinvariants map, when 1 is at most a simple
    root of the minimal polynomial of gamma on the free part; None otherwise.

    When defined, z satisfies z * |prod over eigenvalues a != 1 of (1 - a)| = 1,
    and this identity is checked against the characteristic polynomial.
    """
    f = m.group.free_rank
    cp = charpoly(m.free_block()) if f else [1]
    if f:
        try:
            hypothesis_gate(minimal_polynomial(m.free_block(), cp), [-1, 1])
        except HypothesisError:
            return None
    z = m.pair.z_f0()
    if z is None:
        raise RuntimeError("z must be defined under the simple-root condition")
    _, lead = strip_root(cp, 1)
    if z * abs(lead) != 1:
        raise RuntimeError("z of the invariants map disagrees with the"
                           " characteristic polynomial")
    return z
