"""The paper's functoriality as properties of `frobext ext`, run through
`cli.main` on derandomized hypothesis draws.

* Weil restriction.  Let Y over F_{q^n} have charpoly P(T).  Its restriction
  to F_q is the companion lattice of P(T^n), since
  Z[T] ⊗_{Z[T^n]} Z[S]/(P(S)) = Z[T]/(P(T^n)), and Shapiro's lemma gives
  Ext_{F_q}(L^s, Res Y) = Ext_{F_{q^n}}(L^s, Y).  The two sides have
  residue degrees n and 1, so the p-side is read across degrees.  The
  reports agree but where L^s shares an eigenvalue with Y (ρ = 1): over
  F_q it also meets that eigenvalue's other n-th roots, and N*, [Ext¹]·D
  and 1/z(f) gain n^ρ.
* Tate twist.  Away from p, Ext(X(r), Y(r)) = Ext(X, Y).  At p the twist
  multiplies F by q^r, which is not invertible on crystals, and the
  identity's exponent χ = s(X)·d_Y grows by r·d_X·d_Y: [Ext¹]·D gains
  q^(r·d_X·d_Y) and z(f) loses it.

Both sides of a relation are refused alike.  The outcomes are counted per
message (per ρ where the restriction answers) and the counts pinned; they
are those of the derandomized draws, which a change to `_sweep`'s inner
test or to hypothesis's generator moves, so CI pins hypothesis's version.
"""

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from frobext.cli import main
from frobext.exact import int_valuation, poly_mul, prime_power

REPEATED = "input error: repeated eigenvalues: pass the simple factors" \
    " separately"


def _ext(x: list, y: list, q: int) -> tuple:
    """(0, the `ext --json` report without "q") or (exit code, stderr) of
    the pair of charpolys x, y over F_q."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["ext", json.dumps({"q": q, "charpoly": x}),
                     json.dumps({"q": q, "charpoly": y}), "--json"])
    if code:
        return code, err.getvalue().strip()
    report = json.loads(out.getvalue())
    del report["q"]
    return 0, report


def _piece(draw, q: int) -> list:
    """An elliptic charpoly t² − a·t + q, |a| < 2√q, or L^k, k ≤ 2."""
    if draw(st.booleans()):
        bound = isqrt(4 * q - 1)
        return [q, -draw(st.integers(-bound, bound)), 1]
    return [-q ** draw(st.integers(0, 2)), 1]


def _sum(draw, q: int) -> list:
    """The charpoly of a sum of one or two pieces."""
    c = [1]
    for _ in range(draw(st.integers(1, 2))):
        c = poly_mul(c, _piece(draw, q))
    return c


@st.composite
def restrictions(draw):
    """(p, n, s, P): L^s and Y over F_{p^n}, P Y's charpoly."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.sampled_from([2, 3]))
    return p, n, draw(st.integers(0, 1)), _sum(draw, p ** n)


@st.composite
def twists(draw):
    """(q, r, X, Y): two charpolys over F_q, q ≤ 27, and r ∈ {1, 2}."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]))
    return q, draw(st.integers(1, 2)), _sum(draw, q), _sum(draw, q)


def _sweep(draws, check) -> Counter:
    """check(draw) on 200 derandomized draws, its outcomes counted: what
    check returns where both sides answer, else the refusals."""
    outcomes = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(draws)
    def run(case):
        outcomes[check(case)] += 1

    run()
    return outcomes


def test_weil_restriction():
    def check(case):
        p, n, s, big = case
        small = [0] * (n * (len(big) - 1) + 1)
        for i, c in enumerate(big):
            small[n * i] = c  # P(T^n)
        over_big = _ext([-p ** (n * s), 1], big, p ** n)
        over_small = _ext([-p ** s, 1], small, p)
        if over_big[0] or over_small[0]:
            assert over_big == over_small
            return over_big[1]
        e, f = over_big[1], over_small[1]
        # over F_q a shared eigenvalue q^s of L^s also meets its n - 1
        # conjugates ζ·q^s (ζ^n = 1, ζ ≠ 1) in P(T^n), and
        # ∏(1 − ζ) = n: N*, [Ext¹]·D and 1/z(f) gain n^ρ, the rest agrees
        gain = Fraction(n) ** e["rho"]
        assert Fraction(f["nstar"]) == gain * Fraction(e["nstar"])
        assert Fraction(f["ext1_order"] * f["discriminant"],
                        e["ext1_order"] * e["discriminant"]) == gain
        assert Fraction(e["weil"]["z_f"]) / Fraction(f["weil"]["z_f"]) == gain
        if e["rho"] == 0:
            assert e == f
        for report in (e, f):
            for key in ("nstar", "ext1_order", "discriminant", "support"):
                del report[key]
            del report["weil"]["z_f"]
        assert e == f
        return e["rho"]

    # ρ where both sides answer, else the refusal
    assert _sweep(restrictions(), check) == Counter({
        0: 138,
        1: 36,
        REPEATED: 26,
    })


def _without_p(report: dict, p: int) -> dict:
    """The report with the p-parts of [Ext¹], D, the Weil Ext¹ torsion and
    z(f) removed."""
    def away(x):
        x = Fraction(x)
        return str(x / Fraction(p) ** (int_valuation(x.numerator, p)
                                       - int_valuation(x.denominator, p)))

    weil = report["weil"]
    weil = dict(weil, ext1_torsion=away(weil["ext1_torsion"]),
                z_f=away(weil["z_f"]))
    return dict(report, ext1_order=away(report["ext1_order"]),
                discriminant=away(report["discriminant"]), weil=weil)


def test_tate_twist():
    def check(case):
        q, r, x, y = case
        dx, dy = len(x) - 1, len(y) - 1
        plain = _ext(x, y, q)
        twisted = _ext([c * q ** (r * (dx - i)) for i, c in enumerate(x)],
                       [c * q ** (r * (dy - i)) for i, c in enumerate(y)], q)
        if plain[0] or twisted[0]:
            assert plain == twisted
            return plain[1]
        e, f, p = plain[1], twisted[1], prime_power(q)[0]
        assert _without_p(e, p) == _without_p(f, p)
        gain = Fraction(q) ** (r * dx * dy)
        assert Fraction(f["ext1_order"] * f["discriminant"],
                        e["ext1_order"] * e["discriminant"]) == gain
        assert Fraction(e["weil"]["z_f"]) / Fraction(f["weil"]["z_f"]) == gain
        return None

    assert _sweep(twists(), check) == Counter({None: 169, REPEATED: 31})
