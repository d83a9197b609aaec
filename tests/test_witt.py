import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import frobext
from frobext.exact import poly_divmod, poly_mul
from frobext.crystal import _semilinear_int_matrix
from frobext.linalg import charpoly, identity, mat_mul
from frobext.witt import (
    WittRing, _pm_eval, _pm_mul, _pm_pow, first_irreducible)


def test_default_moduli():
    assert WittRing(2, 2).modulus == [1, 1, 1]
    assert WittRing(3, 2).modulus == [1, 0, 1]
    assert WittRing(5, 1).modulus == [0, 1]
    assert first_irreducible(7, 3)[-1] == 1


def test_sigma_images():
    r = WittRing(2, 2)
    # -1 - x, the conjugate root of x^2+x+1
    assert r.sigma([0, 1]) == [-1 % r.pK, -1 % r.pK]
    r3 = WittRing(3, 2)
    assert r3.sigma([0, 1]) == [0, -1 % r3.pK]
    r5 = WittRing(5, 1)
    assert r5.sigma([17]) == [17]


def test_sigma_is_a_frobenius_lift():
    for p, a in ((2, 2), (3, 2), (5, 2), (3, 3)):
        r = WittRing(p, a)
        h, pK = r.modulus, r.pK
        x = [0, 1] + [0] * (a - 2)
        sx = r.sigma(x)
        # h(sigma x) = 0 and sigma x = x^p mod p
        assert _pm_eval(h, sx, h, pK) == [0] * a
        diff = [u - v for u, v in zip(sx, _pm_pow(x, p, h, pK))]
        assert all(c % p == 0 for c in diff)
        # sigma^a = id and sigma is multiplicative
        w = v = [3, 2] + [0] * (a - 2)
        for _ in range(a):
            v = r.sigma(v)
        assert v == w
        assert r.sigma(_pm_mul(w, x, h, pK)) == \
            _pm_mul(r.sigma(w), r.sigma(x), h, pK)


def test_mul_matrix_matches_multiplication():
    r = WittRing(2, 3, precision=10)
    w, v = [3, 1, 5], [1, 2, 0]  # 3 + x + 5x^2 and 1 + 2x
    mat = r.mul_matrix(w)
    prod = [sum(mat[i][j] * v[j] for j in range(3)) % r.pK for i in range(3)]
    assert prod == _pm_mul(w, v, r.modulus, r.pK)
    # integer coordinates above p^K: the matrix is exact over Z[x]/(h),
    # and congruent mod p^K to multiplication in the ring
    for a in (1, 2, 3):
        r = WittRing(3, a, precision=4)
        u = [r.pK * 7 + 5, -r.pK ** 2 + 1, 2 * r.pK][:a]
        v = [11, -r.pK - 4, 6][:a]
        mat = r.mul_matrix(u)
        got = [sum(x * y for x, y in zip(row, v)) for row in mat]
        _, rem = poly_divmod(poly_mul(u, v), r.modulus)
        assert got == [int(c) for c in rem] + [0] * (a - len(rem))
        assert [x % r.pK for x in got] == _pm_mul(u, v, r.modulus, r.pK)
        reduced = r.mul_matrix([c % r.pK for c in u])
        assert [[x % r.pK for x in row] for row in reduced] == \
            [[x % r.pK for x in row] for row in mat]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 2), (3, 3)]), st.integers(0, 4), st.data())
def test_one_charpoly_over_z_and_w(field, n, data):
    # the same Berkowitz charpoly: over W(F_9) and W(F_27), read mod p^K, an
    # integer matrix has the integer charpoly mod p^K; a matrix of Witt
    # elements, as the semilinear Φ, has a charpoly P(t^a), and P annihilates
    # Φ^a, the Z_p-matrix of the W-linear F^a (Cayley-Hamilton)
    r = WittRing(*field, precision=6)
    a = [[data.draw(st.integers(-400, 400)) for _ in range(n)]
         for _ in range(n)]
    assert charpoly(a, r.pK) == [c % r.pK for c in charpoly(a)]
    w = [[[data.draw(st.integers(-50, 50)) for _ in range(r.a)]
          for _ in range(n)] for _ in range(n)]
    phi = _semilinear_int_matrix(r, w)
    cp = charpoly(phi, r.pK)
    assert not any(c for i, c in enumerate(cp) if i % r.a)
    power = identity(r.a * n)
    for _ in range(r.a):
        power = mat_mul(power, phi)
    acc = [[0] * (r.a * n) for _ in range(r.a * n)]
    for c in reversed(cp[::r.a]):  # Horner at Φ^a
        acc = mat_mul(acc, power)
        for i in range(r.a * n):
            acc[i][i] += c
        acc = [[x % r.pK for x in row] for row in acc]
    assert all(not x for row in acc for x in row)


def test_ring_at_another_precision():
    r = WittRing(3, 2, precision=6)
    assert r.at_precision(6) is r
    lift = r.at_precision(10)
    assert (lift.K, lift.modulus) == (10, r.modulus)
    assert [c % r.pK for c in lift.sigma_image] == r.sigma_image


def test_sigma_checks_survive_optimize():
    # the checks of the Frobenius lift are not asserts: python -O keeps them
    code = ("import frobext.witt as w\n"
            "w.WittRing._hensel_sigma = lambda self: [1] + [0] * (self.a - 1)\n"
            "try:\n"
            "    w.WittRing(3, 2)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(frobext.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.stdout == "sigma image must be a root of the modulus\n"


def test_first_irreducible_skips_zero_constant_terms():
    # the same polynomial as the plain lexicographic search over all p^a
    # candidates, which it skips the p^(a-1) multiples of x of
    from itertools import product

    from frobext.witt import _is_irreducible

    def by_enumeration(p, a):
        for low in product(range(p), repeat=a):
            if _is_irreducible(list(low) + [1], p):
                return list(low) + [1]

    for p in (2, 3, 5, 7):
        for a in (2, 3, 4):
            assert first_irreducible(p, a) == by_enumeration(p, a)
    # the enumeration would pass about p candidates with constant term 0
    # here; the ring over F_{p^2}, p = 10^17 + 3, builds at once
    p = 10**17 + 3
    h = first_irreducible(p, 2)
    assert h[0] == 1 and _is_irreducible(h, p)


def test_is_irreducible_vs_the_fp_gcd_route():
    # the determinant test for Rabin's gcd condition against the Euclidean
    # route it replaced, on every monic candidate with p <= 13, p^a <= 2000
    # (p^a <= 10^5 agrees too, but takes minutes)
    from fp_poly import rabin_irreducible

    from frobext.witt import _is_irreducible

    for p in (2, 3, 5, 7, 11, 13):
        a = 1
        while p ** a <= 2000:
            for n in range(p ** a):
                h = [n // p ** i % p for i in range(a)] + [1]
                assert _is_irreducible(h, p) == rabin_irreducible(h, p), (h, p)
            a += 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (5, 3), (7, 2), (2, 5)]), st.data())
def test_unit_inverse_vs_euclid(field, data):
    # the power u^(q-2) seeds the same inverse as the extended Euclid, and
    # Newton doubling lifts it mod p^6; a non-unit is refused
    from fp_poly import fp_inv

    from frobext.witt import _pm_inv, _pm_mul, _pm_norm

    p, a = field
    h, ppow = first_irreducible(p, a), p ** 6
    u = data.draw(st.lists(st.integers(0, ppow - 1), min_size=a, max_size=a))
    if data.draw(st.booleans()):
        u = [p * c for c in u]
    if all(c % p == 0 for c in u):
        with pytest.raises(RuntimeError, match="not a unit"):
            _pm_inv(u, h, p, ppow)
        return
    v = _pm_inv(u, h, p, ppow)
    assert [c % p for c in v] == fp_inv(u, h, p)
    assert _pm_mul(u, v, h, ppow) == _pm_norm([1], a, ppow)


def test_sigma_takes_one_unit_power(monkeypatch):
    # y stays x^p mod p through the Hensel steps, so h'(y) is inverted by
    # the power u^(q-2) once per ring; each step lifts that seed
    from frobext import witt

    calls = []
    real = witt._pm_inv
    monkeypatch.setattr(witt, "_pm_inv",
                        lambda *args: calls.append(args) or real(*args))
    WittRing(5, 3, 40)  # six Hensel steps
    assert len(calls) == 1
