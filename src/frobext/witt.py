"""Truncated Witt vectors of F_q.

W(F_q), q = p^a, is modeled as Z_p[x]/(h) with h monic of degree a and
irreducible mod p, all coefficients carried mod p^K.  Elements are length-a
coordinate vectors in the x-power basis.  The Frobenius lift sigma is the
unique ring automorphism with sigma(x) = x^p mod p; it is found by Hensel
iteration and represented by its coordinate matrix.

The mod-p^K model is exact within its precision: ring operations introduce
no further error, so a quantity whose valuation is certified below K is
known exactly.  The Smith form mod p^K uses nothing of the ring and lives
in `linalg` (`padic_smith`), beside the one over Z.
"""

from __future__ import annotations

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
# the ring and its elements


class WittElem:
    """Element of a WittRing: coordinates in the x-power basis, mod p^K."""

    __slots__ = ("ring", "c")

    def __init__(self, ring: "WittRing", coords):
        self.ring = ring
        self.c = tuple(x % ring.pK for x in coords)

    def _coerce(self, other) -> "WittElem":
        if isinstance(other, WittElem):
            if other.ring is not self.ring:
                raise ValueError("elements of different rings")
            return other
        return self.ring.from_int(other)

    def __add__(self, other):
        o = self._coerce(other)
        return WittElem(self.ring, [x + y for x, y in zip(self.c, o.c)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return WittElem(self.ring, [x - y for x, y in zip(self.c, o.c)])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return WittElem(self.ring, [-x for x in self.c])

    def __mul__(self, other):
        o = self._coerce(other)
        r = self.ring
        return WittElem(r, _pm_mul(list(self.c), list(o.c), r.modulus, r.pK))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        r = self.ring
        return WittElem(r, _pm_pow(list(self.c), e, r.modulus, r.pK))

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.c == o.c

    def __hash__(self):
        return hash(self.c)

    def __bool__(self):
        return any(self.c)

    def __repr__(self):
        terms = []
        for i, x in enumerate(self.c):
            if x:
                half = self.ring.pK // 2
                v = x - self.ring.pK if x > half else x
                terms.append("%d*x^%d" % (v, i) if i else str(v))
        return " + ".join(terms) if terms else "0"

    def constant_lift(self) -> int:
        """Balanced integer lift, requiring all non-constant coordinates to
        vanish mod p^K (i.e. the element lies in Z_p)."""
        if any(self.c[1:]):
            raise ValueError("element is not in Z_p: %r" % (self,))
        x = self.c[0]
        return x - self.ring.pK if x > self.ring.pK // 2 else x


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
        self._lifts: dict[int, WittRing] = {}

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
        h, p = self.modulus, self.p
        if _pm_eval(h, self.sigma_image, h, self.pK) != [0] * self.a:
            raise RuntimeError("sigma image must be a root of the modulus")
        xp = _pm_pow(_pm_norm([0, 1] if self.a > 1 else [0], self.a, p), p, h, p)
        if [c % p for c in self.sigma_image] != xp:
            raise RuntimeError("sigma must reduce to the p-power map")
        y = self.x()
        for _ in range(self.a):
            y = self.sigma(y)
        if y != self.x():
            raise RuntimeError("sigma^a must be the identity")

    # -- elements

    def elem(self, coords) -> WittElem:
        return WittElem(self, list(coords) + [0] * (self.a - len(coords)))

    def from_int(self, n: int) -> WittElem:
        return self.elem([n])

    def zero(self) -> WittElem:
        return self.from_int(0)

    def x(self) -> WittElem:
        return self.elem([0, 1]) if self.a > 1 else self.zero()

    # -- operations

    def sigma(self, w: WittElem) -> WittElem:
        out = [0] * self.a
        for j, c in enumerate(w.c):
            if c:
                for i in range(self.a):
                    out[i] += self.sigma_matrix[i][j] * c
        return WittElem(self, out)

    def mul_matrix(self, w):
        """Integer matrix of multiplication by w, an element or integer
        coordinates, on Z[x]/(h) in the x-power basis (`_mul_matrix`):
        exact for integer coordinates, and congruent mod p^K to
        multiplication in the ring."""
        a = self.a
        v = list(w.c) if isinstance(w, WittElem) else list(w) + [0] * (a - len(w))
        return _mul_matrix(self.modulus, v)

    def at_precision(self, precision: int) -> "WittRing":
        """The same ring carried to another working precision, built once."""
        if precision == self.K:
            return self
        ring = self._lifts.get(precision)
        if ring is None:
            ring = self._lifts[precision] = WittRing(
                self.p, self.a, precision, self.modulus)
        return ring

    def __repr__(self):
        return "WittRing(p=%d, a=%d, K=%d)" % (self.p, self.a, self.K)
