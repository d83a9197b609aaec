from __future__ import annotations

from fractions import Fraction

from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from frobext.exact import PrecisionError, int_valuation, poly_eval
from frobext.linalg import (
    _krylov_minimal_polynomial,
    bareiss_det,
    block_diag,
    charpoly,
    companion,
    dims,
    hstack,
    identity,
    kernel_basis,
    lattice_solve,
    mat_mul,
    mat_sub,
    minimal_polynomial,
    padic_det_valuation,
    padic_smith,
    smith_normal_form,
    sparse_rows,
    transpose,
    zeros,
)


def int_matrices(n_max=4, lo=-9, hi=9):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=lo, max_value=hi), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    )


def _cofactor_det(a):
    """Textbook cofactor expansion (test oracle)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _cofactor_det(minor)
    return total


@given(int_matrices())
def test_bareiss_against_cofactor(a):
    assert bareiss_det(a) == _cofactor_det(a)


def _schoolbook(a, b, m, k, n):
    """A·B (m×k by k×n) by the triple loop, each entry summed from 0 in
    order (test oracle)."""
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i][j] = out[i][j] + a[i][t] * b[t][j]
    return out


def _mat_of(m, n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=m, max_size=m)


_mm_entries = st.one_of(st.integers(-2 ** 64, 2 ** 64),
                        st.fractions(max_denominator=2 ** 64))


@settings(max_examples=200)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_mat_mul_is_the_schoolbook_product(m, k, n, data):
    # an m×0 matrix is m empty rows, and [] is 0×k for any k; only a
    # product through k = 0 (b = []) loses its column count, so k = 0
    # forces n = 0
    n = n if k else 0
    a = data.draw(_mat_of(m, k, _mm_entries))
    b = data.draw(_mat_of(k, n, _mm_entries))
    got, want = mat_mul(a, b), _schoolbook(a, b, m, k, n)
    assert got == want
    assert [[type(x) for x in row] for row in got] == \
        [[type(x) for x in row] for row in want]


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_mat_mul_refuses_a_shape_mismatch(m, k, k2, n):
    if k == k2:
        k2 += 1
    a, b = [[1] * k for _ in range(m)], [[1] * n for _ in range(k2)]
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(a, b)


def _mat_scale(a, s):
    return [[s * x for x in row] for row in a]


@given(int_matrices(), st.integers(min_value=-10, max_value=10))
def test_charpoly_matches_det(a, x):
    # char poly evaluated anywhere must equal det(xI - A), computed by an
    # entirely different elimination
    p = charpoly(a)
    n = len(a)
    xi_a = mat_sub(_mat_scale(identity(n), x), a)
    assert poly_eval(p, x) == bareiss_det(xi_a)


@given(int_matrices(), st.integers(min_value=2, max_value=10 ** 30))
def test_charpoly_mod_is_the_charpoly_reduced(a, mod):
    # reducing as it goes changes nothing but the representatives
    assert charpoly(a, mod) == [c % mod for c in charpoly(a)]


def test_companion_roundtrip():
    p = [6, -5, -2, 1]
    assert charpoly(companion(p)) == p


def test_minimal_polynomial():
    assert minimal_polynomial([[1, 0], [0, 1]]) == [-1, 1]
    assert minimal_polynomial([[1, 1], [0, 1]]) == [1, -2, 1]
    p = [6, -5, -2, 1]
    assert minimal_polynomial(companion(p)) == p


def _annihilates(m, a) -> bool:
    """m(a) == 0, by Horner over Q."""
    n = len(a)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(m):
        acc = mat_mul(acc, a)
        for i in range(n):
            acc[i][i] += c
    return all(x == 0 for row in acc for x in row)


monic_polys = st.lists(st.integers(min_value=-30, max_value=30),
                       min_size=1, max_size=6).map(lambda c: c + [1])


@settings(max_examples=300)
@given(monic_polys)
def test_companion_minimal_polynomial_vs_krylov(p):
    # a companion matrix's minimal polynomial is read off its last column;
    # its transpose has the same minimal polynomial but not the companion
    # shape, so for n >= 2 it takes the Krylov route
    c = companion(p)
    m = minimal_polynomial(c)
    assert m == p
    if len(c) >= 2:
        assert minimal_polynomial(transpose(c)) == m
        assert _krylov_minimal_polynomial(transpose(c)) == m


@settings(max_examples=300)
@given(monic_polys.filter(lambda p: len(p) >= 3), st.data())
def test_near_companion_takes_krylov(p, data):
    # one sub-diagonal entry changed: no longer a companion, so the last
    # column does not give the minimal polynomial and Krylov must run
    a = companion(p)
    i = data.draw(st.integers(min_value=1, max_value=len(a) - 1))
    a[i][i - 1] = data.draw(st.integers(min_value=-3, max_value=3)
                            .filter(lambda v: v != 1))
    m = minimal_polynomial(a)
    assert _annihilates(m, a)
    assert m == minimal_polynomial(transpose(a))
    assert m == _krylov_minimal_polynomial(a)


@settings(max_examples=300, deadline=None)
@given(int_matrices(n_max=3, lo=-4, hi=4),
       st.sampled_from(["plain", "double", "jordan"]), st.data())
def test_minimal_polynomial_vs_krylov(b, shape, data):
    # the squarefree-charpoly route against the Krylov route: plain
    # matrices (mostly squarefree), and repeated eigenvalues, block_diag(B, B)
    # and a Jordan block J_k(c) beside B, conjugated by an elementary
    # matrix so that no block shape shows
    if shape == "double":
        a = block_diag(b, b)
    elif shape == "jordan":
        c, k = data.draw(st.integers(-3, 3)), data.draw(st.integers(2, 3))
        a = block_diag([[c if j == i else int(j == i + 1) for j in range(k)]
                        for i in range(k)], b)
    else:
        a = b
    n = len(a)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    if i != j:
        t = data.draw(st.integers(-2, 2))
        e, e_inv = identity(n), identity(n)
        e[i][j], e_inv[i][j] = t, -t
        a = mat_mul(mat_mul(e, a), e_inv)
    want = _krylov_minimal_polynomial(a)
    assert minimal_polynomial(a) == want
    assert minimal_polynomial(a, charpoly(a)) == want


@given(int_matrices(n_max=3, lo=-5, hi=5))
def test_minimal_divides_char(a):
    from frobext.exact import poly_divmod
    m = minimal_polynomial(a)
    c = charpoly(a)
    _, r = poly_divmod([Fraction(x) for x in c], [Fraction(x) for x in m])
    assert all(x == 0 for x in r)


def gcd_of_minors(a, k: int) -> int:
    """gcd of all k x k minors (0 if none are nonzero).  Brute-force oracle."""
    m, n = dims(a)
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = gcd(g, bareiss_det(sub))
    return abs(g)


def test_snf_example():
    s = smith_normal_form([[2, 0], [0, 3]])
    assert s.diagonal == [1, 6]


def test_snf_rectangular():
    s = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert s.diagonal == [2, 6, 12]


def _check_snf(a):
    s = smith_normal_form(a)
    m, n = len(a), len(a[0])
    diag = s.diagonal
    # reassembly: L A R = D
    d = [[0] * n for _ in range(m)]
    for i, x in enumerate(diag):
        d[i][i] = x
    assert mat_mul(mat_mul(s.left, a), s.right) == d
    # transforms are unimodular
    assert abs(bareiss_det(s.left)) == 1
    assert abs(bareiss_det(s.right)) == 1
    # divisibility chain, nonnegative
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    # determinantal divisors: prod of first k entries = gcd of k-minors
    prod = 1
    for k in range(1, min(len(diag), 3) + 1):
        prod *= diag[k - 1]
        assert prod == gcd_of_minors(a, k)


@settings(max_examples=60)
@given(int_matrices(n_max=4, lo=-6, hi=6))
def test_snf_properties(a):
    _check_snf(a)


@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
                min_size=2, max_size=2))
def test_snf_wide(a):
    _check_snf(a)


# entries: many units, small ties, and some up to 2^64 in size; or no
# units at all, so that ties above 1 decide each pivot
_snf_big = st.integers(-2 ** 64, 2 ** 64)
_snf_entries = (
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-3, 3), _snf_big),
    st.one_of(st.sampled_from([0, 2, -2, 3, -3, 4, 6]), _snf_big),
)


@st.composite
def _snf_inputs(draw):
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 10))
    entries = draw(st.sampled_from(_snf_entries))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else ():
        a[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        for row in a:
            row[j] = 0
    return a


@settings(max_examples=300, deadline=None)
@given(_snf_inputs())
@example([[2, 3], [1, 0]])  # the unit is not in the first nonzero row
def test_snf_pivot_keeps_the_transforms(a):
    # the pivot search stops at the first unit; the first entry of least
    # absolute value is the same, so D, L and R equal the full scan's
    from snf_oracle import full_scan_smith_normal_form

    s, t = smith_normal_form(a), full_scan_smith_normal_form(a)
    assert (s.d, s.left, s.right) == (t.d, t.left, t.right)


@settings(max_examples=100)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_column_lattice_basis_spans_the_columns(m, n, k, data):
    from snf_oracle import column_lattice_basis

    # A = B·C through an inner dimension k, so rank-deficient inputs come up
    ents = st.integers(min_value=-6, max_value=6)
    b = data.draw(st.lists(st.lists(ents, min_size=k, max_size=k),
                           min_size=m, max_size=m))
    c = data.draw(st.lists(st.lists(ents, min_size=n, max_size=n),
                           min_size=k, max_size=k))
    a = mat_mul(b, c) if k else zeros(m, n)
    basis = column_lattice_basis(a)
    rank = max(j for j in range(min(m, n) + 1)
               if j == 0 or gcd_of_minors(a, j))
    assert dims(basis) == (m, rank)
    # each side is an integer combination of the other's columns
    assert lattice_solve(basis, a) is not None
    assert lattice_solve(a, basis) is not None


def test_kernel_basis_saturated():
    a = [[2, 4, 0], [1, 2, 0]]
    k = kernel_basis(a)
    # kernel of the rational map has dimension 2, basis must be primitive
    assert len(k[0]) == 2
    for col in range(2):
        v = [k[i][col] for i in range(3)]
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in a)
    s = smith_normal_form(k)
    assert s.diagonal == [1, 1]
    # no columns: the kernel lives in Z^0, a basis with no rows
    assert kernel_basis([[], []]) == []


def test_hstack_keeps_zero_dimensions():
    # hstack of m×0 and m×k is the m×k block; [] is 0×k, so it stacks
    # only with another matrix of no rows
    assert hstack([[], []], [[1], [2]]) == [[1], [2]]
    assert hstack([[1], [2]], [[], []]) == [[1], [2]]
    assert hstack([], []) == []
    with pytest.raises(ValueError, match="shape mismatch"):
        hstack([], [[1]])


def _smith(mat, p, K):
    """`padic_smith` of a dense matrix."""
    return padic_smith(sparse_rows(mat), dims(mat)[1], p, K)


def test_padic_smith_examples():
    assert _smith([[2, 4], [4, 2]], 2, 10) == [1, 1]
    assert _smith([[4, 0], [0, 6]], 2, 10) == [1, 2]
    assert _smith([[8, 0], [0, 256]], 2, 8) == [3, None]
    assert _smith([[0, 0], [0, 0]], 3, 6) == [None, None]
    # sparse rows as given: a zero row, and a column count past the entries
    assert padic_smith([{1: 4}, {}, {0: 3, 2: 9}], 4, 3, 5) == [0, 1, None]
    assert padic_smith([{0: 6}], 3, 2, 4) == [1]
    assert padic_det_valuation([[3, 1], [0, 9]], 3, 8) == 3
    # factor valuations below K certify the sum even when the sum exceeds K
    assert padic_det_valuation([[9, 0], [0, 9]], 3, 3) == 4
    with pytest.raises(PrecisionError) as err:
        padic_det_valuation([[27, 0], [0, 1]], 3, 3)
    assert err.value.required == 6


@settings(max_examples=60)
@given(st.lists(st.integers(-40, 40), min_size=9, max_size=9), st.sampled_from([2, 3, 5]))
def test_padic_smith_against_exact_smith(entries, p):
    mat = [entries[0:3], entries[3:6], entries[6:9]]
    if bareiss_det(mat) == 0:
        return
    vals = _smith(mat, p, 40)
    s = smith_normal_form([row[:] for row in mat])
    expect = sorted(int_valuation(abs(s.diagonal[i]), p) for i in range(3))
    assert vals == expect


def _unimodular(rnd, n):
    """A random integer matrix of determinant 1: elementary row operations
    applied to the identity."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rnd.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rnd.randint(-6, 6)
            mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
    return mat


def _truncate(vals, K):
    return [v if v is not None and v < K else None for v in vals]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(3, 12), st.integers(1, 4),
       st.integers(1, 4), st.data())
def test_padic_smith_is_the_deeper_form_truncated(p, K, rows, cols, data):
    # U·diag(p^e)·V with e up to K+6, so divisors fall below, at and above K
    rnd = data.draw(st.randoms(use_true_random=False))
    exps = data.draw(st.lists(st.one_of(st.integers(0, K + 6), st.none()),
                              min_size=min(rows, cols), max_size=min(rows, cols)))
    diag = [[(p ** exps[i] * rnd.choice([1, -1, p + 1, 2 * p - 1])
              if i == j and exps[i] is not None else 0)
             for j in range(cols)] for i in range(rows)]
    mat = mat_mul(mat_mul(_unimodular(rnd, rows), diag), _unimodular(rnd, cols))
    vals = _smith(mat, p, K)
    assert vals == _truncate(_smith(mat, p, K + 4), K)
    # the constructed exponents, independent of padic_smith: the multipliers
    # are p-adic units, and a zero divisor has infinite valuation
    finite = sorted(e for e in exps if e is not None)
    assert vals == _truncate(finite + [None] * exps.count(None), K)


@st.composite
def _local_smith_inputs(draw):
    """(p, K, matrix): shapes 0..7 a side, with zero entries, entries near
    ±p^K, signed multiples of powers of p and general signed integers; the
    whole matrix is scaled by 0 (a zero block) or by p or p² (no unit)."""
    p = draw(st.sampled_from([2, 3, 5, 101, 65537]))
    K = draw(st.integers(0, 12))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    pk = p ** K
    entry = st.one_of(
        st.just(0),
        st.builds(lambda s, d: s * pk + d, st.sampled_from([1, -1]),
                  st.integers(-3, 3)),
        st.builds(lambda e, u: p ** e * u, st.integers(0, K + 2),
                  st.integers(-p - 1, p + 1)),
        st.integers(-10 ** 6, 10 ** 6))
    mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    scale = draw(st.sampled_from([1, 1, 0, p, p * p]))
    return p, K, [[x * scale for x in row] for row in mat]


@settings(max_examples=400, deadline=None)
@given(_local_smith_inputs())
@example((3, 4, [[], [], []]))           # 3×0
@example((5, 6, []))                     # 0×n
@example((2, 0, [[1, 2], [3, 4]]))       # K = 0: all vanish
@example((101, 3, [[101 ** 3 - 1, 101 ** 3 + 101], [-101 ** 3, 101 ** 2]]))
def test_padic_smith_is_the_scan_form(case):
    # unit pivots on a p-scaled block against the scan that reads every
    # entry's valuation at every pivot; the input is left as it was
    from snf_oracle import scan_padic_smith
    p, K, mat = case
    rows = sparse_rows(mat)
    before = [dict(row) for row in rows]
    vals = padic_smith(rows, dims(mat)[1], p, K)
    assert rows == before
    assert vals == scan_padic_smith(mat, p, K)
    assert len(vals) == min(dims(mat))


@st.composite
def _sparse_theta_like(draw):
    """(p, K, rows, ncols): a θ-like matrix of b×b blocks of size a, size
    n = a·b up to 60: c·I at the block corner and on the block
    sub-diagonal, where a companion F has its constant coefficient and its
    ones, and scattered entries in the last block column (the rest of the
    coefficients), with at most n²/20 nonzero entries (or one), a few rows
    and columns cleared, and up to two extra zero columns."""
    p = draw(st.sampled_from([2, 3, 5, 101]))
    K = draw(st.integers(1, 24))
    a = draw(st.integers(1, 4))
    b = draw(st.integers(1, 60 // a))
    n = a * b
    budget = max(1, n * n // 20)
    entry = st.one_of(
        st.builds(lambda e, u: p ** e * u, st.integers(0, K + 2),
                  st.sampled_from([1, -1, p - 1, p + 1])),
        st.builds(lambda s, d: s * p ** K + d, st.sampled_from([1, -1]),
                  st.integers(-3, 3)),
        st.integers(-10 ** 6, 10 ** 6))
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    # c·I at the block corner (a companion's constant coefficient), then
    # on the sub-diagonal
    for i in range(min(b, budget // a)):
        c = draw(entry)
        for r in range(a):
            rows[i * a + r][((i - 1) % b) * a + r] = c
    used = sum(map(len, rows))
    for _ in range(draw(st.integers(0, max(0, budget - used)))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(n - a, n - 1))] = \
            draw(entry)
    dead_rows = draw(st.sets(st.integers(0, n - 1), max_size=3))
    dead_cols = draw(st.sets(st.integers(0, n - 1), max_size=3))
    rows = [{} if i in dead_rows else
            {j: x for j, x in row.items() if x and j not in dead_cols}
            for i, row in enumerate(rows)]
    return p, K, rows, n + draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(_sparse_theta_like())
@example((2, 22, [{1: 1}, {0: 1}, {}, {}], 4))       # two zero rows
@example((3, 1, [{2: 3}, {0: 9}, {1: 27}], 3))       # no unit mod 3
def test_sparse_padic_smith_is_the_scan_form(case):
    # the elimination on nonzero entries against the dense scan form, on
    # matrices as sparse as θ of a companion F; the input is left as it was
    from snf_oracle import scan_padic_smith
    p, K, rows, ncols = case
    before = [dict(row) for row in rows]
    vals = padic_smith(rows, ncols, p, K)
    assert rows == before
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    assert vals == scan_padic_smith(dense, p, K)
    assert len(vals) == min(len(rows), ncols)


@settings(max_examples=100)
@given(int_matrices(n_max=4, lo=-5, hi=5))
def test_minimal_polynomial_is_integer(a):
    # Gauss's lemma: the monic minimal polynomial of an integer matrix is
    # integer, on the Krylov route as on the companion one
    m = minimal_polynomial(a)
    assert all(type(c) is int for c in m) and m[-1] == 1
    assert _annihilates(m, a)


def test_companion_takes_monic_integer_polynomials():
    assert companion([6, -5, 1]) == [[0, -6], [1, 5]]
    assert all(type(x) is int for row in companion([3, 0, 1]) for x in row)
    for bad in ([2, 4], [1, 2, 2], [Fraction(1, 2), 1], []):
        with pytest.raises(ValueError, match="monic"):
            companion(bad)
