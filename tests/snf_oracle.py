"""Smith-form routes that the package replaced, kept as test oracles.
None of this is used by the package.

* `full_scan_smith_normal_form`: a pivot search that reads the whole
  trailing block, and a divisibility scan after every pivot.
  `linalg.smith_normal_form`'s search stops at the first unit, and it skips
  the scan after a unit pivot.  Both take the first entry of least absolute
  value in row-major order, and a unit divides every entry, so both give
  the same D, L and R.
* `three_form_kernel`: `GroupHom`'s kernel by three Smith forms
  (`kernel_basis`, `column_lattice_basis`, `lattice_solve`).
  `GroupHom._compute_kernel` solves the domain's relations against the
  second form, so it takes two.  Both read the basis off the same form of
  the same projection, and against a basis of full column rank each
  relation has one solution, so both give the same basis and relations.
* `scan_padic_smith`: the local Smith form that pivots on an entry of
  least valuation, read by `int_valuation` at every scan.
  `linalg.padic_smith` pivots only on units of a p-scaled block and takes
  one valuation per rescaling.  Both clear by unimodular operations over
  Z/p^K, so both give the same valuations.
"""

from __future__ import annotations

from frobext.exact import int_valuation
from frobext.linalg import (SNF, Matrix, dims, hstack, identity, kernel_basis,
                            lattice_solve, mat_copy, mat_mul,
                            smith_normal_form)


def full_scan_smith_normal_form(a: Matrix) -> SNF:
    """Diagonalize over Z, smallest-pivot selection with intermediate
    reduction; each pivot search reads the whole trailing block."""
    m, n = dims(a)
    d = mat_copy(a)
    left = identity(m)
    right = identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            d[r][i] -= q * d[r][j]
        for r in range(n):
            right[r][i] -= q * right[r][j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            right[r][i], right[r][j] = right[r][j], right[r][i]

    def pivot(t) -> bool:
        # move the smallest nonzero entry of the trailing block to (t, t);
        # False if the block is zero
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            return False
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        return True

    t = 0
    while t < min(m, n):
        if not pivot(t):
            break
        while True:
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    if q:
                        row_op(i, t, q)
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    if q:
                        col_op(j, t, q)
            if any(d[i][t] for i in range(t + 1, m)) or any(d[t][j] for j in range(t + 1, n)):
                # leftover remainders are smaller than the pivot: re-pivot
                pivot(t)
                continue
            # pivot clears its row and column; enforce divisibility of the rest
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # fold the offending row in and retry
        t += 1
    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            left[i] = [-x for x in left[i]]
    return SNF(d, left, right)


def scan_padic_smith(mat: Matrix, p: int, K: int) -> list[int | None]:
    """Elementary divisor p-valuations of an integer matrix read mod p^K,
    min(m, n) of them ascending, None for a divisor that vanishes mod p^K;
    each pivot is the first entry of least valuation, which every scan
    reads again."""
    work = [[x % p**K for x in row] for row in mat]
    ppow = p**K
    m, n = dims(work)
    vals: list[int | None] = []
    top = 0
    while top < min(m, n):
        best, bi, bj = None, None, None
        for i in range(top, m):
            for j in range(top, n):
                x = work[i][j]
                if x:
                    v = int_valuation(x, p)
                    if best is None or v < best:
                        best, bi, bj = v, i, j
                        if v == 0:
                            break
            if best == 0:
                break
        if best is None:
            vals.extend([None] * (min(m, n) - top))
            break
        work[top], work[bi] = work[bi], work[top]
        for row in work:
            row[top], row[bj] = row[bj], row[top]
        pivot = work[top][top]
        unit_inv = pow(pivot // p**best, -1, ppow)
        # only the pivot column is cleared: once it is, clearing the pivot
        # row by column operations would touch that row alone, and no later
        # step reads it
        for i in range(top + 1, m):
            x = work[i][top]
            if x:
                f = (x // p**best) * unit_inv % ppow
                for j in range(top, n):
                    work[i][j] = (work[i][j] - f * work[top][j]) % ppow
        vals.append(best)
        top += 1
    finite = sorted(v for v in vals if v is not None)
    return finite + [None] * (len(vals) - len(finite))


def column_lattice_basis(a: Matrix) -> Matrix:
    """Basis (as columns) of the lattice generated by the columns of A: the
    first rank(A) columns of A·R, since A·R = L⁻¹·D with R unimodular."""
    s = smith_normal_form(a)
    r = s.rank
    return [row[:r] for row in mat_mul(a, s.right)]


def three_form_kernel(hom) -> tuple[int, Matrix, Matrix]:
    """(generators, relations, inclusion) of the kernel of a `GroupHom`."""
    m, n = hom.dom.gens, hom.cod.gens
    if not (m and n):
        return m, hom.dom.rels, identity(m)
    full = kernel_basis(hstack(hom.mat, hom.cod.rels))
    basis = column_lattice_basis(full[:m]) if full[0] else full[:m]
    rels = None
    if hom.dom.rel_count:
        rels = lattice_solve(basis, hom.dom.rels)
        if rels is None:
            raise RuntimeError("domain relations must land in the kernel"
                               " lattice")
    gens = len(basis[0])
    return gens, rels if rels else [[] for _ in range(gens)], basis
