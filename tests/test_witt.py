import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import frobext
from frobext.exact import poly_divmod, poly_mul
from frobext.linalg import charpoly, mat_mul
from frobext.witt import WittRing, first_irreducible


def test_default_moduli():
    assert WittRing(2, 2).modulus == [1, 1, 1]
    assert WittRing(3, 2).modulus == [1, 0, 1]
    assert WittRing(5, 1).modulus == [0, 1]
    assert first_irreducible(7, 3)[-1] == 1


def test_sigma_images():
    r = WittRing(2, 2)
    x = r.x()
    assert r.sigma(x) == -1 - x  # the conjugate root of x^2+x+1
    r3 = WittRing(3, 2)
    assert r3.sigma(r3.x()) == -r3.x()
    r5 = WittRing(5, 1)
    assert r5.sigma(r5.from_int(17)) == r5.from_int(17)


def test_sigma_is_a_frobenius_lift():
    for p, a in ((2, 2), (3, 2), (5, 2), (3, 3)):
        r = WittRing(p, a)
        x = r.x()
        sx = r.sigma(x)
        # h(sigma x) = 0 and sigma x = x^p mod p
        assert not sum((r.from_int(c) * sx ** i for i, c in enumerate(r.modulus)),
                       r.zero())
        diff = sx - x ** p
        assert all(c % p == 0 for c in diff.c)
        # sigma^a = id and sigma is multiplicative
        w = v = 3 + 2 * x
        for _ in range(a):
            v = r.sigma(v)
        assert v == w
        assert r.sigma(w * x) == r.sigma(w) * r.sigma(x)


def test_constant_lift():
    r = WittRing(3, 2, precision=12)
    with pytest.raises(ValueError):
        (r.x()).constant_lift()
    assert r.from_int(-7).constant_lift() == -7


def test_mul_matrix_matches_multiplication():
    r = WittRing(2, 3, precision=10)
    w = 3 + r.x() + 5 * r.x() ** 2
    v = 1 + 2 * r.x()
    mat = r.mul_matrix(w)
    prod = [sum(mat[i][j] * v.c[j] for j in range(3)) % r.pK for i in range(3)]
    assert prod == list((w * v).c)
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
        assert [x % r.pK for x in got] == list((r.elem(u) * r.elem(v)).c)
        w = r.elem(u)
        assert r.mul_matrix(w) == r.mul_matrix(list(w.c))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 2), (3, 3)]), st.integers(0, 4), st.data())
def test_one_charpoly_over_z_and_w(field, n, data):
    # the same Berkowitz charpoly: over W(F_9) and W(F_27), an integer matrix
    # lifts to the integer charpoly mod p^K; a matrix of Witt elements is
    # annihilated by its own (Cayley-Hamilton)
    r = WittRing(*field, precision=6)
    a = [[data.draw(st.integers(-400, 400)) for _ in range(n)]
         for _ in range(n)]
    lifted = charpoly(a, r.from_int(1))
    assert [c.constant_lift() % r.pK for c in lifted] == \
        [c % r.pK for c in charpoly(a)]
    w = [[r.elem([data.draw(st.integers(-50, 50)) for _ in range(r.a)])
          for _ in range(n)] for _ in range(n)]
    acc = [[r.zero()] * n for _ in range(n)]
    for c in reversed(charpoly(w, r.from_int(1))):  # Horner at w
        acc = mat_mul(acc, w)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    assert all(not x for row in acc for x in row)


def test_ring_reuses_its_lifts():
    r = WittRing(3, 2, precision=6)
    assert r.at_precision(6) is r
    lift = r.at_precision(10)
    assert r.at_precision(10) is lift
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
