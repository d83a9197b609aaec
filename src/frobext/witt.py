"""Truncated Witt vectors of F_q.

W(F_q), q = p^a, is modeled as Z_p[x]/(h) with h monic of degree a and
irreducible mod p, all coefficients carried mod p^K.  Elements are length-a
coordinate lists in the x-power basis, and there is no element type: a
W-linear map is read through the integer matrices of multiplication
(`WittRing.mul_matrix`), a semilinear one through those and sigma's matrix.
The Frobenius lift sigma is the unique ring automorphism with sigma(x) = x^p
mod p; it is found by Hensel iteration and represented by its coordinate
matrix.

The mod-p^K model is exact within its precision: ring operations introduce
no further error, so a quantity whose valuation is certified below K is
known exactly.  The Smith form mod p^K uses nothing of the ring and lives
in `linalg` (`padic_smith`), beside the one over Z.
"""

from __future__ import annotations

from operator import mul

from .exact import is_prime
from .linalg import bareiss_det
# unused here: the local Smith form lives in linalg, and the benchmark
# harness (perfbench/spans.py) traces it under these names
from .linalg import padic_det_valuation, padic_smith  # noqa: F401


# ---------------------------------------------------------------------------
# polynomial helpers mod (h, p^m); coordinates are fixed-length int lists


def _pm_norm(u: list[int], a: int, ppow: int) -> list[int]:
    u = [c % ppow for c in u]
    return u + [0] * (a - len(u)) if len(u) < a else u[:a]


def _pm_mul(u, v, h, ppow):
    """Product of coordinate vectors mod (h, ppow); h monic, ascending."""
    a = len(h) - 1
    acc = [0] * (2 * a - 1 if a > 1 else 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                acc[i + j] = (acc[i + j] + x * y) % ppow
    for k in range(len(acc) - 1, a - 1, -1):
        lead = acc[k]
        if lead:
            acc[k] = 0
            for i in range(a + 1):
                acc[k - a + i] = (acc[k - a + i] - lead * h[i]) % ppow
    return acc[:a]


def _pm_eval(poly: list[int], y: list[int], h, ppow) -> list[int]:
    """Evaluate an integer polynomial at the element y, Horner style."""
    a = len(h) - 1
    out = [0] * a
    for c in reversed(poly):
        out = _pm_mul(out, y, h, ppow)
        out[0] = (out[0] + c) % ppow
    return out


def _pm_pow(u, e, h, ppow):
    out = _pm_norm([1], len(h) - 1, ppow)
    base = u[:]
    while e:
        if e & 1:
            out = _pm_mul(out, base, h, ppow)
        base = _pm_mul(base, base, h, ppow)
        e >>= 1
    return out


def _mul_matrix(h: list[int], v: list[int]) -> list[list[int]]:
    """Integer matrix of multiplication by v (a-length coordinates) on
    Z[x]/(h) in the x-power basis.  Column j is v·x^j, by the shift
    recurrence with no reduction: exact over Z, and congruent mod any p^m to
    multiplication mod (h, p^m)."""
    a = len(h) - 1
    cols = []
    for _ in range(a):
        cols.append(v)
        v = [x - v[-1] * c for x, c in zip([0] + v[:-1], h)]
    return [[cols[j][i] for j in range(a)] for i in range(a)]


def _pm_inv(u, h, p, ppow):
    """Unit inverse mod (h, ppow): u^(q-2) inverts u in F_q = F_p[x]/(h),
    then Newton doubling lifts it."""
    a = len(h) - 1
    v = _pm_pow(_pm_norm(u, a, p), p ** a - 2, h, p)
    if _pm_mul(u, v, h, p) != _pm_norm([1], a, p):
        raise RuntimeError("the element to invert is not a unit mod p")
    return _pm_lift_inv(u, v, h, p, ppow)


def _pm_lift_inv(u, v, h, p, ppow):
    """The inverse of u mod (h, ppow), lifted by Newton doubling from v, an
    inverse of u mod (h, p)."""
    a = len(h) - 1
    v = _pm_norm(v, a, ppow)
    m = p
    while m < ppow:
        m = min(m * m, ppow)
        uv = _pm_mul(u, v, h, m)
        two_minus = [(-c) % m for c in uv]
        two_minus[0] = (two_minus[0] + 2) % m
        v = _pm_mul(v, two_minus, h, m)
    return _pm_norm(v, a, ppow)


def _is_irreducible(h: list[int], p: int) -> bool:
    """h monic: irreducible over F_p iff x^{p^a} = x and, for each prime
    ell | a, gcd(x^{p^{a/ell}} - x, h) = 1 (Rabin).  That gcd is 1 iff the
    element is a unit of F_p[x]/(h), i.e. iff the determinant of its
    multiplication matrix is nonzero mod p."""
    a = len(h) - 1
    if a < 1:
        return False

    def frob_power(times):
        y = [0, 1] if a > 1 else [0]
        y = _pm_norm(y, a, p)
        for _ in range(times):
            y = _pm_pow(y, p, h, p)
        return y

    x = _pm_norm([0, 1] if a > 1 else [0], a, p)
    if frob_power(a) != x:
        return False
    for ell in {d for d in range(2, a + 1) if a % d == 0 and is_prime(d)}:
        y = frob_power(a // ell)
        diff = [(yc - xc) % p for yc, xc in zip(y, x)]
        if bareiss_det(_mul_matrix(h, diff)) % p == 0:
            return False
    return True


def first_irreducible(p: int, a: int) -> list[int]:
    """Lexicographically first monic degree-a polynomial irreducible mod p,
    its coefficients read as the base-p digits of a counter (constant term
    most significant).  For a > 1 it has a nonzero constant term (else x
    divides it), so the count starts past the p^(a-1) candidates with
    constant term 0."""
    if a == 1:
        return [0, 1]
    for n in range(p ** (a - 1), p ** a):
        h = [n // p ** (a - 1 - i) % p for i in range(a)] + [1]
        if _is_irreducible(h, p):
            return h
    raise RuntimeError("unreachable: irreducibles exist in every degree")


# ---------------------------------------------------------------------------
# the ring


class WittRing:
    """W(F_q) truncated mod p^K, with the Frobenius lift sigma."""

    def __init__(self, p: int, a: int, precision: int = 20,
                 modulus: list[int] | None = None):
        if not is_prime(p):
            raise ValueError("p must be prime")
        if a < 1 or precision < 3:
            raise ValueError("need a >= 1 and precision >= 3")
        self.p, self.a, self.K = p, a, precision
        self.pK = p**precision
        self.modulus = list(modulus) if modulus else first_irreducible(p, a)
        if len(self.modulus) != a + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree a")
        if not _is_irreducible([c % p for c in self.modulus], p):
            raise ValueError("modulus must be irreducible mod p")
        self.sigma_image = self._hensel_sigma()
        self.sigma_matrix = self._sigma_matrix()
        self._check_sigma()

    # -- construction internals

    def _hensel_sigma(self) -> list[int]:
        h, p, a = self.modulus, self.p, self.a
        if a == 1:
            return [0]
        y = _pm_pow(_pm_norm([0, 1], a, p), p, h, p)
        dh = [i * c for i, c in enumerate(h)][1:]
        # y stays x^p mod p, so h'(y) has one inverse mod p: each step lifts it
        seed = _pm_inv(_pm_eval(dh, y, h, p), h, p, p)
        m = 1
        while m < self.K:
            m = min(2 * m, self.K)
            ppow = p**m
            err = _pm_eval(h, y, h, ppow)
            inv = _pm_lift_inv(_pm_eval(dh, y, h, ppow), seed, h, p, ppow)
            step = _pm_mul(err, inv, h, ppow)
            y = [(u - s) % ppow for u, s in zip(y, step)]
        return y

    def _sigma_matrix(self):
        cols = []
        power = _pm_norm([1], self.a, self.pK)
        for _ in range(self.a):
            cols.append(power)
            power = _pm_mul(power, self.sigma_image, self.modulus, self.pK)
        return [[cols[j][i] for j in range(self.a)] for i in range(self.a)]

    def _check_sigma(self):
        h, p, a = self.modulus, self.p, self.a
        if _pm_eval(h, self.sigma_image, h, self.pK) != [0] * a:
            raise RuntimeError("sigma image must be a root of the modulus")
        x = _pm_norm([0, 1] if a > 1 else [0], a, p)
        if [c % p for c in self.sigma_image] != _pm_pow(x, p, h, p):
            raise RuntimeError("sigma must reduce to the p-power map")
        y = x
        for _ in range(a):
            y = self.sigma(y)
        if y != x:
            raise RuntimeError("sigma^a must be the identity")

    # -- operations on coordinate lists

    def sigma(self, coords: list[int]) -> list[int]:
        """sigma of the element with these coordinates, reduced mod p^K."""
        return [sum(map(mul, row, coords)) % self.pK
                for row in self.sigma_matrix]

    def mul_matrix(self, coords: list[int]) -> list[list[int]]:
        """Integer matrix of multiplication by the element with these
        coordinates on Z[x]/(h) in the x-power basis (`_mul_matrix`): exact
        over Z, and congruent mod p^K to multiplication in the ring."""
        return _mul_matrix(self.modulus,
                           list(coords) + [0] * (self.a - len(coords)))

    def at_precision(self, precision: int) -> "WittRing":
        """The same ring carried to another working precision."""
        if precision == self.K:
            return self
        return WittRing(self.p, self.a, precision, self.modulus)

    def __repr__(self):
        return "WittRing(p=%d, a=%d, K=%d)" % (self.p, self.a, self.K)
