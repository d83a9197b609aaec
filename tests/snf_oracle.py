"""Smith normal form with a pivot search that reads the whole trailing
block: the route that `linalg.smith_normal_form`'s search, which stops at
the first unit, replaced, kept as a test oracle.  Both take the first entry
of least absolute value in row-major order, so both give the same D, L and
R.  None of this is used by the package.
"""

from __future__ import annotations

from frobext.linalg import SNF, Matrix, dims, identity, mat_copy


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
