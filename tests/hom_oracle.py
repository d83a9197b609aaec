"""The structural route to a motive pair's integer Hom system, which the
package replaced by the gcd split and resultants (`motive._hom_system`),
kept as a test oracle.  None of this is used by the package.

One integer Smith form L·S·R = D of the Kronecker operator
S: H -> H·C_X - C_Y·H on Y-rank by X-rank matrices (C the companion
matrices):

* Hom(X, Y) is the kernel of S, the last rho columns of R;
* the torsion of coker S is prod d_i over the nonzero d_i;
* f_0: Hom -> coker S, H -> [H·C_X], has z(f_0) = 1/(|det F| prod d_i),
  F the free (last rho) rows of L applied to the images;
* Hom(Y, X) is H -> B_X·Hᵀ·B_Y⁻¹ of Hom(X, Y), B_f the unimodular Hankel
  matrix of f with C_f·B_f = B_f·C_fᵀ (Taussky and Zassenhaus, Pacific
  J. Math. 9, 1959): a bijection of the integer matrices carrying one
  commutation equation to the other, so it maps the saturated lattice
  onto the saturated lattice;
* the trace discriminant is |det| of the Gram matrix (g, f) -> trace(f∘g)
  on those two bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from frobext.linalg import (Matrix, bareiss_det, companion, identity, kron,
                            mat_mul, mat_sub, smith_normal_form, transpose)


def hankel(c: list[int]) -> Matrix:
    """B_f with (B_f)_ij = f_{i+j+1} (zero past the degree) for monic f: a
    symmetric matrix with C_f·B_f = B_f·C_fᵀ and ones on the
    anti-diagonal, so det B_f = ±1."""
    n = len(c) - 1
    return [[c[i + j + 1] if i + j < n else 0 for j in range(n)]
            for i in range(n)]


def hankel_inverse(c: list[int]) -> Matrix:
    """B_f⁻¹ over Z.  B_f·J (J the reversal) is the upper unitriangular
    Toeplitz matrix of g = 1 + f_{n-1} t + ... + f_1 t^{n-1}, so its
    inverse is that of the power series s = 1/g mod t^n, and
    (B_f⁻¹)_ij = s_{i+j+1-n} (zero above the anti-diagonal)."""
    n = len(c) - 1
    s = [1] + [0] * (n - 1)
    for k in range(1, n):
        s[k] = -sum(c[n - m] * s[k - m] for m in range(1, k + 1))
    return [[s[i + j + 1 - n] if i + j + 1 >= n else 0 for j in range(n)]
            for i in range(n)]


def trace(a: Matrix) -> int:
    return sum(a[i][i] for i in range(len(a)))


class KroneckerHom:
    """What one Smith form of S gives: rho, Hom(X, Y) and Hom(Y, X) bases,
    the torsion of coker S, z(f_0) and the trace discriminant (None when
    z(f_0) or the pairing is degenerate)."""

    __slots__ = ("rho", "basis", "swap_basis", "torsion", "z0",
                 "discriminant")

    def __init__(self, px: list[int], py: list[int]):
        rx, ry = len(px) - 1, len(py) - 1
        self.basis, self.swap_basis = [], []
        self.rho, self.torsion = 0, 1
        self.z0, self.discriminant = Fraction(1), 1
        if not (rx and ry):
            return
        cx, cy = companion(px), companion(py)
        n = rx * ry
        snf = smith_normal_form(
            mat_sub(kron(identity(ry), transpose(cx)), kron(cy, identity(rx))))
        r = snf.rank
        self.rho = n - r
        self.basis = [[[snf.right[i * rx + j][k] for j in range(rx)]
                       for i in range(ry)] for k in range(r, n)]
        images = [[e for row in mat_mul(h, cx) for e in row]
                  for h in self.basis]
        free = [[sum(a * b for a, b in zip(row, v)) for v in images]
                for row in snf.left[r:]]
        det = bareiss_det(free)
        self.torsion = prod(snf.diagonal[:r])
        self.z0 = Fraction(1, abs(det) * self.torsion) if det else None
        bx, byi = hankel(px), hankel_inverse(py)
        self.swap_basis = [mat_mul(mat_mul(bx, transpose(h)), byi)
                           for h in self.basis]
        gram = [[trace(mat_mul(h, g)) for h in self.basis]
                for g in self.swap_basis]
        self.discriminant = abs(bareiss_det(gram)) or None
