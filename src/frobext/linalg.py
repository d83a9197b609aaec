"""Exact integer / rational matrix algebra.

Matrices are lists of rows; maps act on column vectors.  An m×0 matrix is
m empty rows, and [] is 0×k for every k, so only a product through a zero
inner dimension loses its column count.  Integer routines never leave Z;
rational ones use Fraction.  Smith normal form over Z tracks the unimodular
transforms on both sides so callers can move between coordinates.  The
local Smith form (`padic_smith`) reads only the p-valuations of the
elementary divisors, from the matrix mod p^K: a module over Z_p or W is
read off it.  It takes the matrix as sparse rows, {column: entry} of the
nonzero entries, and eliminates on those alone: θ of a companion F, the
map it reads most, is mostly zeros.  It pivots only on units of a block
scaled by the power of p taken out so far, so no entry's valuation is
computed.  The one characteristic polynomial, Berkowitz's, is
division-free: it runs over Z, or mod an integer, where a crystal's is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

Matrix = list  # list[list[int]] or list[list[Fraction]]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def dims(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """A·B.  Each entry is sum(map(mul, row, col)): the products in order,
    added from 0, with the dot product's loop in C."""
    if a and len(a[0]) != len(b):  # [] is 0×k for any k
        raise ValueError("shape mismatch")
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(r) for r in zip(*a)] if a else []


def kron(a: Matrix, b: Matrix) -> Matrix:
    ma, na = dims(a)
    mb, nb = dims(b)
    out = zeros(ma * mb, na * nb)
    for i in range(ma):
        for j in range(na):
            for k in range(mb):
                for l in range(nb):
                    out[i * mb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def block_diag(*blocks: Matrix) -> Matrix:
    m = sum(len(b) for b in blocks)
    n = sum(dims(b)[1] for b in blocks)
    out = zeros(m, n)
    r = c = 0
    for b in blocks:
        bm, bn = dims(b)
        for i in range(bm):
            for j in range(bn):
                out[r + i][c + j] = b[i][j]
        r += bm
        c += bn
    return out


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b):
        raise ValueError("shape mismatch")
    return [ra + rb for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# determinants, rank, solving


def bareiss_det(a: Matrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials


def charpoly(a: Matrix, mod: int | None = None) -> list[int]:
    """det(t*I - A) of an integer matrix, ascending coefficients, by
    Berkowitz's division-free recursion (Berkowitz, IPL 18, 1984).  With
    `mod`, the charpoly mod `mod`, coefficients in [0, mod): the matrix,
    the vectors M^i·C and the partial charpolys are kept as least absolute
    residues, so no entry grows past mod/2 and a small one, a small
    negative one included, stays small.  A crystal's charpoly is read so,
    mod p^K, off the matrix of its semilinear F.

    The charpoly of the trailing minor M of size m is extended to the one of
    [[x, R], [C, M]] by the Toeplitz column (1, -x, -R·C, -R·M·C, ...,
    -R·M^(m-1)·C) acting on its descending coefficients.
    """
    n = len(a)
    if mod:
        half = mod // 2

        def reduce(v):  # least absolute residues: a small entry stays small
            return [x - mod if x > half else x for x in (y % mod for y in v)]
        a = [reduce(row) for row in a]
    poly = [1]  # descending charpoly of the trailing minor
    for k in range(n - 1, -1, -1):
        row, minor = a[k][k + 1:], [r[k + 1:] for r in a[k + 1:]]
        vec = [r[k] for r in a[k + 1:]]
        m = len(minor)
        s = [1, -a[k][k]]
        for _ in range(m):
            s.append(-sum(map(mul, row, vec)))
            vec = [sum(map(mul, r, vec)) for r in minor]
            if mod:
                vec = reduce(vec)
        poly = [sum(s[i - j] * poly[j]
                    for j in range(max(0, i - m - 1), min(i, m) + 1))
                for i in range(m + 2)]
        if mod:
            poly = reduce(poly)
    return [x % mod for x in poly[::-1]] if mod else poly[::-1]


def minimal_polynomial(a: Matrix, cp: list[int] | None = None) -> list[int]:
    """Monic minimal polynomial of an integer matrix; its coefficients are
    integers (Gauss's lemma: it divides the monic integer charpoly).  A
    companion matrix (ones on the sub-diagonal, zeros elsewhere outside the
    last column, as `companion` builds it) is cyclic, so its minimal
    polynomial is its charpoly, read off the last column.  So is a matrix
    whose charpoly χ is squarefree, gcd(χ, χ') = 1: the minimal polynomial
    divides χ and has every root of χ.  Any other matrix takes the first
    Krylov dependency, found over Q.  `cp` is a's charpoly, where the caller
    already holds it."""
    from .exact import poly_deriv, poly_gcd_monic  # exact imports linalg

    n = len(a)
    if all(a[i][j] == int(i == j + 1) for i in range(n) for j in range(n - 1)):
        return [-row[-1] for row in a] + [1]
    if cp is None:
        cp = charpoly(a)
    if poly_gcd_monic(cp, poly_deriv(cp)) == [1]:
        return cp
    return _krylov_minimal_polynomial(a)


def _krylov_minimal_polynomial(a: Matrix) -> list[int]:
    """The first dependency among I, A, A^2, ... over Q, monic."""
    n = len(a)
    basis: list[tuple[list[Fraction], list[Fraction]]] = []  # (reduced vec, tail)
    power = identity(n)
    for k in range(n + 1):
        vec = [Fraction(power[i][j]) for i in range(n) for j in range(n)]
        tail = [Fraction(1 if i == k else 0) for i in range(n + 1)]
        for red, rtail in basis:
            piv = next(i for i, x in enumerate(red) if x != 0)
            if vec[piv] != 0:
                f = vec[piv] / red[piv]
                vec = [x - f * y for x, y in zip(vec, red)]
                tail = [x - f * y for x, y in zip(tail, rtail)]
        if all(x == 0 for x in vec):
            out = [x / tail[k] for x in tail[:k + 1]]
            if any(x.denominator != 1 for x in out):
                raise RuntimeError("the minimal polynomial of an integer"
                                   " matrix has a non-integer coefficient")
            return [int(x) for x in out]
        basis.append((vec, tail))
        power = mat_mul(power, a)
    raise RuntimeError("Cayley-Hamilton violated")


def companion(p: list) -> Matrix:
    """Companion matrix of a monic integer polynomial (ascending
    coefficients)."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    if not p or p[-1] != 1 or not all(isinstance(c, int) for c in p):
        raise ValueError("the polynomial must be monic with integer"
                         " coefficients")
    n = len(p) - 1
    c = zeros(n, n)
    for i in range(1, n):
        c[i][i - 1] = 1
    for i in range(n):
        c[i][n - 1] = -p[i]
    return c


# ---------------------------------------------------------------------------
# Smith normal form


class SNF:
    """L @ A @ R = D with L, R unimodular, D diagonal with a divisibility chain."""

    __slots__ = ("d", "left", "right")

    def __init__(self, d: Matrix, left: Matrix, right: Matrix):
        self.d = d
        self.left = left
        self.right = right

    @property
    def diagonal(self) -> list[int]:
        m, n = dims(self.d)
        return [self.d[i][i] for i in range(min(m, n))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(a: Matrix) -> SNF:
    """Diagonalize over Z, smallest-pivot selection with intermediate reduction.

    Each pivot is the first entry of least absolute value, in row-major
    order, of the trailing block.  The search for it stops at the first
    unit, which no later entry can beat.  Once a pivot has cleared its row
    and column, the trailing block is scanned for an entry it does not
    divide, which is folded in; a unit pivot divides every entry, so its
    scan is skipped.  Column operations and swaps walk
    the rows of D and R (`for row in d`), so that no entry is reached by
    index arithmetic; the arithmetic and its order are a column loop's.
    """
    m, n = dims(a)
    d = mat_copy(a)
    left = identity(m)
    right = identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in right:
            row[i] -= q * row[j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def pivot(t) -> bool:
        # move the first smallest nonzero entry (row-major) of the trailing
        # block to (t, t); False if the block is zero
        best = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    x = abs(x)
                    if x < best or not best:
                        best, pi, pj = x, i, j
            if best == 1:  # no later entry beats a unit
                break
        if not best:
            return False
        row_swap(t, pi)
        col_swap(t, pj)
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
            if d[t][t] in (1, -1):
                break
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


def sparse_rows(mat: Matrix) -> list[dict[int, int]]:
    """The rows of a dense matrix as {column: entry} of their nonzero
    entries, the input form of `padic_smith`."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def padic_smith(rows: list[dict[int, int]], ncols: int, p: int,
                K: int) -> list[int | None]:
    """Elementary divisor p-valuations of an integer matrix read mod p^K.

    The matrix is given by its rows, each {column: entry} of its nonzero
    entries, and its column count (`sparse_rows` converts a dense one).
    Returns min(m, n) entries sorted ascending, None meaning the divisor is
    0 mod p^K (valuation at least K, possibly infinite).  Valuations below K
    are exact: they are determined by the matrix mod p^K.

    Every pivot is a unit of a p-scaled block.  The block B stands for
    p^s·B mod p^K, so it is kept mod p^(K-s).  A unit of B, in the first
    row whose gcd with p is 1, records the divisor p^s: its row is taken
    out, its column is popped from every other row, and a row with an
    entry there is updated at the pivot row's nonzero columns only, so a
    zero entry costs nothing.  When B has no unit, g = gcd(p^(K-s), B)
    is a power of p: if it is p^(K-s), every remaining divisor vanishes mod
    p^K; otherwise B is divided by g and s grows by v_p(g).  So each
    rescaling takes one valuation, no entry's valuation is computed, and
    since s only grows the valuations come out ascending.  The input is
    not modified.
    """
    size = min(len(rows), ncols)
    mod = p ** K
    block = [{j: y for j, x in row.items() if (y := x % mod)} for row in rows]
    vals: list[int | None] = []
    s = 0
    while len(vals) < size:
        for i, row in enumerate(block):
            if gcd(p, *row.values()) == 1:  # the row has a unit
                break
        else:
            g = gcd(mod, *(gcd(*row.values()) for row in block))
            if g == mod:
                vals.extend([None] * (size - len(vals)))
                break
            from .exact import int_valuation  # exact imports linalg
            s += int_valuation(g, p)
            mod //= g
            block = [{j: x // g for j, x in row.items()}
                     for row in block if row]
            continue
        prow = block.pop(i)
        for j, x in prow.items():
            if x % p:
                break
        inv = pow(prow.pop(j), -1, mod)
        piv = [(c, y * inv % mod) for c, y in prow.items()]
        for row in block:
            f = row.pop(j, 0)
            if f:
                get = row.get
                row.update({c: (get(c, 0) - f * y) % mod for c, y in piv})
        vals.append(s)
    return vals


def padic_det_valuation(mat: Matrix, p: int, K: int) -> int:
    """Exact p-valuation of det for a square matrix known mod p^K.

    Raises PrecisionError when the determinant vanishes mod p^K, since then
    its valuation is not determined by the data.
    """
    from .exact import PrecisionError  # exact imports linalg

    vals = padic_smith(sparse_rows(mat), len(mat), p, K)
    if any(v is None for v in vals):
        raise PrecisionError("determinant valuation not determined mod p^%d" % K,
                             required=2 * K)
    return sum(vals)


def kernel_basis(a: Matrix) -> Matrix:
    """Columns form a basis of the saturated integer kernel lattice of A."""
    s = smith_normal_form(a)
    r = s.rank
    return [row[r:] for row in s.right]


def lattice_solve(a: Matrix, b: Matrix, s: SNF | None = None) -> Matrix | None:
    """Integer solutions X of A X = B, or None if some column has none.

    Solvability of each column is decided in the Smith coordinates of A, so
    A may be rank-deficient or rectangular.  `s` is A's Smith form, where
    the caller already holds it.
    """
    m, n = dims(a)
    mb, k = dims(b)
    if m != mb:
        raise ValueError("shape mismatch")
    if s is None:
        s = smith_normal_form(a)
    r = s.rank
    c = mat_mul(s.left, b)
    y = zeros(n, k)
    for j in range(k):
        for i in range(m):
            if i < r and i < n:
                if c[i][j] % s.d[i][i] != 0:
                    return None
                y[i][j] = c[i][j] // s.d[i][i]
            elif c[i][j] != 0:
                return None
    return mat_mul(s.right, y)
