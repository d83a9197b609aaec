"""The O(p) count of #E(F_p) by Euler's criterion, which the package keeps
only for p <= 229 (`zeta.elliptic_point_count` counts above it by Mestre's
baby-step giant-step), kept as a test oracle for every p.

For odd p the curve y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 is
(2y + a1 x + a3)^2 = v(x) with v = 4 x^3 + b2 x^2 + 2 b4 x + b6, and
y -> 2y + a1 x + a3 is a bijection of F_p, so each x carries 1 + (v(x)/p)
points.  The curve is singular exactly when the cubic v has a repeated
root, that is when its discriminant (16 times the curve's) vanishes mod p;
it is read here off v's coefficients, not off the b8 formula the package
uses.  p = 2 is counted over all four (x, y), singular exactly when a
point has both partial derivatives zero.
"""

from __future__ import annotations


def euler_point_count(p: int, coefficients) -> int:
    """#E(F_p), the point at infinity included; ValueError with the
    package's message on a singular curve."""
    c = [int(x) for x in coefficients]
    a1, a2, a3, a4, a6 = c if len(c) == 5 else [0, 0, 0] + c
    if p == 2:
        on = [(x, y) for x in range(2) for y in range(2)
              if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x
                  - a4 * x - a6) % 2 == 0]
        if any((a1 * y + 3 * x * x + 2 * a2 * x + a4) % 2 == 0
               and (2 * y + a1 * x + a3) % 2 == 0 for x, y in on):
            raise ValueError("singular Weierstrass equation over F_2")
        return 1 + len(on)
    a, b, cc, d = 4, a1 * a1 + 4 * a2, 2 * (2 * a4 + a1 * a3), a3 * a3 + 4 * a6
    disc = (b * b * cc * cc - 4 * a * cc ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * cc * d)
    if disc % p == 0:
        raise ValueError("singular Weierstrass equation over F_%d" % p)
    n = p + 1
    for x in range(p):
        v = (((a * x + b) * x + cc) * x + d) % p
        if v:
            n += 1 if pow(v, (p - 1) // 2, p) == 1 else -1
    return n
