import ast
import gc
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from frobext import cli, crystal, exact, galois, motive, zeta
from frobext.cli import main
from frobext.crystal import Crystal
from frobext.exact import PrecisionError
from frobext.galois import GaloisModule
from frobext.zgamma import FinGenAbGroup
from frobext.motive import GlobalExtReport
from frobext.witt import WittRing


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_ext_command(capsys):
    mx = '{"q": 5, "charpoly": [-1, 1]}'
    my = '{"q": 5, "charpoly": [5, 3, 1], "crystal": {"slopes": ["0", "1"]}}'
    code, out = run(capsys, ["ext", mx, my, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ext1_order"] == 9
    assert obj["global_identity"] is True and obj["weil_identity"] is True
    assert obj["weil"]["ext1_torsion"] == 9


@pytest.mark.parametrize("target, order", [
    ([-(10**17 + 3), 1], 10**17 + 2),    # (1, L): q - 1
    ([10**17 + 3, -5, 1], 10**17 - 1),   # (1, h1E), trace 5: q + 1 - 5
])
def test_ext_at_an_eighteen_digit_prime(capsys, target, order):
    q = 10**17 + 3
    code, out = run(capsys, ["ext", json.dumps({"q": q, "charpoly": [-1, 1]}),
                             json.dumps({"q": q, "charpoly": target}),
                             "--json"])
    assert code == 0
    assert json.loads(out)["ext1_order"] == order


def test_ext_where_q_minus_1_has_ten_digit_primes(capsys):
    # the support holds the primes of N* = 1 - q = -2·(10^9+7)·(10^9+9),
    # found by rho past trial division
    q = 2000000032000000127
    code, out = run(capsys, ["ext", json.dumps({"q": q, "charpoly": [-1, 1]}),
                             json.dumps({"q": q, "charpoly": [-q, 1]}),
                             "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["ext1_order"] == q - 1
    assert obj["support"] == [2, 10**9 + 7, 10**9 + 9, q]


def test_q_above_the_primality_cap_is_an_input_error(capsys):
    q = 2**89 - 1  # a prime above exact.PRIME_BOUND
    code = main(["ext", json.dumps({"q": q, "charpoly": [-1, 1]}),
                 json.dumps({"q": q, "charpoly": [-q, 1]})])
    assert code == 2
    assert "certified only below" in capsys.readouterr().err


def test_factoring_cap_is_an_input_error(capsys):
    # (1, L) at q = p^3, p = 10^17 + 3: the support needs the factors of
    # q - 1 = (p - 1)(p^2 + p + 1), one of them near 3·10^13, past the rho cap
    q = (10**17 + 3) ** 3
    start = time.perf_counter()
    code = main(["ext", json.dumps({"q": q, "charpoly": [-1, 1]}),
                 json.dumps({"q": q, "charpoly": [-q, 1]})])
    assert time.perf_counter() - start < 3
    assert code == 2
    assert "cap of %d rho steps" % exact.RHO_STEPS in capsys.readouterr().err


@pytest.mark.parametrize("start, code", [(10**8, 0), (2 * 10**8, 2)])
def test_ext_factoring_cap_on_a_large_nstar(capsys, start, code):
    # (1, Y) over F_5 with Y of charpoly t^2 + (N - 6) t + 5, so N* = N, the
    # product of the 40 primes after `start` (about 1100 bits): rho charges
    # a step on it as 5 (less as factors come off), so the first N (about
    # 1 s) is answered and the second, which took 1.7 s when every step
    # counted as one, is refused
    primes, n = [], start
    while len(primes) < 40:
        n += 1
        if exact.is_prime(n):
            primes.append(n)
    nstar = 1
    for prime in primes:
        nstar *= prime
    assert nstar.bit_length() > 1024
    assert main(["ext", json.dumps({"q": 5, "charpoly": [-1, 1]}),
                 json.dumps({"q": 5, "charpoly": [5, nstar - 6, 1]}),
                 "--json"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["support"] == [5] + primes
    else:
        assert "cap of %d rho steps" % exact.RHO_STEPS in err


@pytest.mark.parametrize("argv, cap", [
    # (1, L) over F_{2^16} and F_{3^20}: θ of dimension a^3 = 4096 and 8000
    (["ext", json.dumps({"q": 2**16, "charpoly": [-1, 1]}),
      json.dumps({"q": 2**16, "charpoly": [-2**16, 1]})], "1024"),
    (["ext", json.dumps({"q": 3**20, "charpoly": [-1, 1]}),
      json.dumps({"q": 3**20, "charpoly": [-3**20, 1]})], "1024"),
    # two rank-13 motives: an integer Hom system of dimension 169
    (["ext", json.dumps({"q": 2, "charpoly": [-2] + [0] * 12 + [1]}),
      json.dumps({"q": 2, "charpoly": [2] + [0] * 12 + [1]})], "144"),
    # a curve over a prime above the point-count cap
    (["zeta", json.dumps({"kind": "elliptic_curve", "q": 10**15 + 37,
                          "coefficients": [1, 3], "r": 1})], str(10**15)),
])
def test_input_caps_exit_2_at_once(capsys, argv, cap):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "cap of %s" % cap in err


_L5 = '{"q": 5, "charpoly": [-5, 1]}'


def _with(**fields) -> str:
    obj = {"q": 5, "charpoly": [-1, 1]}
    obj.update(fields)
    return json.dumps(obj)


def _exc(data) -> str:
    return _with(exceptional={"2": data})


@pytest.mark.parametrize("argv, field", [
    (["ext", '{"q": "5", "charpoly": [-1, 1]}', _L5], "q must be"),
    (["ext", _with(q=True), _L5], "q must be"),
    (["ext", _with(q=5.0), _L5], "q must be"),
    (["ext", _with(charpoly=[-1.5, 1]), _L5], "charpoly[0]"),
    (["ext", _with(charpoly=[-1, True]), _L5], "charpoly[1]"),
    (["ext", _with(charpoly="ab"), _L5], "charpoly must be"),
    (["ext", _with(twist=1.5), _L5], "twist"),
    (["ext", _with(exceptional=[2]), _L5], "exceptional must be"),
    (["ext", _with(exceptional={"two": {"torsion": [2]}}), _L5],
     'exceptional["two"]'),
    (["ext", _exc([2]), _L5], 'exceptional["2"] must be'),
    (["ext", _exc({"torsion": ["2"]}), _L5], 'exceptional["2"].torsion[0]'),
    (["ext", _exc({"torsion": [2], "torsion_frobenius": [[1.0]]}), _L5],
     'exceptional["2"].torsion_frobenius[0][0]'),
    (["ext", _exc({"torsion": [2], "torsion_frobenius": [[1, 0]]}), _L5],
     "must be 1 by 1"),
    (["ext", _with(crystal=[]), _L5], "crystal must be"),
    (["ext", _with(crystal={"slopes": "0"}), _L5], "crystal.slopes must be"),
    (["ext", _with(crystal={"slopes": [0.0]}), _L5], "crystal.slopes[0]"),
    (["ext", _with(crystal={"slopes": ["x"]}), _L5], "crystal.slopes[0]"),
    (["ext", _with(crystal={"slopes": ["1/0"]}), _L5], "crystal.slopes[0]"),
    (["zeta", '{"kind": "product", "q": 5, "factors": "ab"}'],
     "variety.factors must be"),
    (["zeta", '{"kind": "product", "factors": [1, 2]}'],
     "variety.factors[0] must be"),
    (["zeta", '{"kind": "projective_space", "q": 5, "dimension": 1,'
      ' "r": 1.5}'], "r must be"),
    (["zeta", '{"kind": "projective_space", "q": 5, "dimension": 1,'
      ' "r": true}'], "r must be"),
    (["zeta", '{"kind": "projective_space", "q": 5, "dimension": "2"}'],
     "variety.dimension"),
    (["zeta", '{"kind": "projective_space", "q": 5.0, "dimension": 2}'],
     "variety.q"),
    (["zeta", '{"kind": "elliptic_curve", "q": 5, "coefficients": [1, 1.0]}'],
     "variety.coefficients[1]"),
    (["ext", _with(twist=-1), _L5], "twist -1"),
    # Fraction("1e99999999") would expand the exponent
    (["ext", _with(crystal={"slopes": ["1e99999999"]}), _L5],
     "crystal.slopes[0] is not a fraction"),
    (["ext", _with(crystal={"slopes": ["0", "1E9999999"]}), _L5],
     "crystal.slopes[1] is not a fraction"),
    # a required field that is missing is named by its JSON path
    (["ext", '{"charpoly": [-1, 1]}', _L5], "q is missing"),
    (["ext", '{"q": 5}', _L5], "charpoly is missing"),
    (["zeta", '{"kind": "projective_space", "dimension": 1}'],
     "variety.q is missing"),
    (["zeta", '{"kind": "projective_space", "q": 5}'],
     "variety.dimension is missing"),
    (["zeta", '{"kind": "elliptic_curve", "q": 5}'],
     "variety.coefficients is missing"),
    (["zeta", '{"kind": "product"}'], "variety.factors is missing"),
    (["zeta", '{"kind": "product", "factors": [{"kind": "projective_space",'
      ' "q": 5, "dimension": 1}, {"kind": "elliptic_curve",'
      ' "coefficients": [1, 1]}]}'], "variety.factors[1].q is missing"),
])
def test_hostile_json_types_are_input_errors(capsys, argv, field):
    # a field of the wrong JSON type exits 2 with the field named, at once:
    # no traceback, and no number truncated or boolean read as an integer
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("input error") and field in err, err


def test_json_that_is_not_an_object_is_an_input_error(capsys, tmp_path):
    # inline JSON starts with "{" or "["; anything else is read from a file
    path = tmp_path / "array.json"
    path.write_text("[5]")
    for source in (str(path), "[1]", " []"):
        assert main(["ext", source, _L5]) == 2
        assert "a motive must be an object, not an array" \
            in capsys.readouterr().err
        assert main(["zeta", source]) == 2
        assert "variety must be an object, not an array" \
            in capsys.readouterr().err


@pytest.mark.parametrize("argv, document", [
    (["ext", "{deep}", _L5], "a motive"),
    (["zeta", "{deep}"], "variety"),
    (["verify-local", "--replay", "{deep}"], "the replay file"),
])
def test_deeply_nested_json_is_an_input_error(tmp_path, argv, document):
    # a document nested past the decoder's recursion limit is bad input that
    # names the document, not an internal error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = [str(path) if a == "{deep}" else a for a in argv]
    out = subprocess.run([sys.executable, "-m", "frobext.cli"] + argv,
                         capture_output=True, text=True)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr == "input error: %s nests too deeply to decode\n" \
        % document


def test_text_that_is_not_json_names_the_document(capsys):
    assert main(["zeta", '{"kind": 1']) == 2
    assert capsys.readouterr().err.startswith(
        "input error: variety is not JSON: Expecting")


_MERSENNE = 2 ** 11213 - 1  # a prime of 11213 bits


def _p1(r: int) -> str:
    return json.dumps({"kind": "projective_space", "q": 5, "dimension": 1,
                       "r": r})


@pytest.mark.parametrize("argv, says", [
    # (1, L^4000) and (1, L^6000) over F_5: N* = 1 - 5^r of 9288 and 13932
    # bits, whose cofactor is refused before its first primality round
    (["ext", _with(), json.dumps({"q": 5, "charpoly": [-5 ** 4000, 1]})],
     "a primality test of a 9208-bit number"),
    (["ext", _with(), json.dumps({"q": 5, "charpoly": [-5 ** 6000, 1]})],
     "a primality test of a"),
    # q = 10^4000 + 1: the prime power search tries up to 2656 roots
    (["ext", _with(q=10 ** 4000 + 1), _with(q=10 ** 4000 + 1)],
     "a prime power test of a 13288-bit number"),
    # a prime l of 11213 bits, as --prime and as an exceptional key
    (["verify-local", "--random", "1", "--prime", str(_MERSENNE)],
     "a primality test of a 11213-bit number"),
    (["ext", _with(exceptional={str(_MERSENNE): {"torsion": []}}), _L5],
     "a primality test of a 11213-bit number"),
    # P^1 over F_5 at r = 4000, 8000 and 10^5: refused from r and q alone
    (["zeta", _p1(4000)], "r = 4000 gives q^r of up to 12001 bits"),
    (["zeta", _p1(8000)], "r = 8000 gives q^r of up to 24001 bits"),
    (["zeta", _p1(10 ** 5)], "r = 100000 gives q^r"),
    # a pair over F_125 whose N* has an 82-bit cofactor past the rho cap
    (["ext", _with(q=125, charpoly=[30517578125, -62500, 1]),
      _with(q=125, charpoly=[15625, -125, 250, -1, 1])],
     "factoring a 82-bit number"),
])
def test_huge_numbers_are_refused_at_once(argv, says):
    # primality rounds and integer roots are charged to the step cap, and
    # zeta caps r, so each of these is refused before any costly step
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "frobext.cli"] + argv,
                         capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr.startswith("input error: " + says), out.stderr
    assert "cap of %d rho steps" % exact.RHO_STEPS in out.stderr


@pytest.mark.parametrize("q", [0, 1, -5])
def test_q_below_two_is_named_itself(capsys, q):
    # a q below 2 is no prime power, named by its value: its bit length
    # would call -5 a 3-bit number
    for argv in (["ext", _with(q=q), _L5],
                 ["zeta", json.dumps({"kind": "projective_space", "q": q,
                                      "dimension": 1, "r": 1})]):
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "input error: not a prime power: %d\n" % q


def test_large_q_is_no_prime_power():
    # q = 10^2000 + 1, 6644 bits: a short root's powers are bracketed on
    # small numbers before any is taken in full, so the root search and one
    # primality round fit the step cap, which the search alone used to spend
    big = _with(q=10 ** 2000 + 1)
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "frobext.cli", "ext", big, big],
                         capture_output=True, text=True)
    assert time.perf_counter() - start < 2
    assert out.returncode == 2 and "Traceback" not in out.stderr
    assert out.stderr == "input error: not a prime power: a 6644-bit number\n"


def _curve(q: int) -> dict:
    return {"kind": "elliptic_curve", "q": q, "coefficients": [2, 3]}


def _pn(q: int, n: int) -> dict:
    return {"kind": "projective_space", "q": q, "dimension": n}


def _times(*factors) -> dict:
    return {"kind": "product", "factors": list(factors)}


@pytest.mark.parametrize("spec, r", [
    (_pn(2, 64), 1),                                 # dimension 64
    (_times(*[_curve(13)] * 5, _pn(13, 1)), 1),      # total Betti number 2048
    (_times(*[_curve(1009)] * 5, _pn(1009, 1)), 1),
    (_times(*[_pn(33554393, 1)] * 11), 5),           # Weil polynomials, 25 bits
    (_curve(999999999999989), 1),                    # a curve below 10^15
])
def test_zeta_at_the_caps(capsys, spec, r):
    # answers of many thousand digits are printed in full
    start = time.perf_counter()
    code, out = run(capsys, ["zeta", json.dumps(spec), "--r", str(r),
                             "--json"])
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["equal"] is True


@pytest.mark.parametrize("spec, cap", [
    (_pn(2, 65), 64),
    (_pn(5, 5000), 64),
    (_times(*[_curve(13)] * 6), 2048),           # Betti 4096
    (_times(*[_curve(13)] * 7), 2048),
    (_times(*[_pn(2, 1)] * 30), 2048),           # Betti 2^30
    (_times(*[_curve(1000000000000037)] * 2),
     10 ** 15),                                  # curves past the prime cap
    (_times(*[_pn(2 ** 400, 1)] * 2), 1024),     # residue degree 400
    (_times(*[_pn(3317044064679887385961813, 1)] * 11), 10 ** 8),
])
def test_zeta_above_the_caps_exits_2_at_once(capsys, spec, cap):
    start = time.perf_counter()
    code = main(["zeta", json.dumps(spec), "--r", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "cap of %d" % cap in err


# `ext --json` output on a fixed table of pairs: (1, L^r), (1, h1E),
# (h1E, L^r), (L, h1E) and E x E over F_5, F_9, F_25, F_8 and F_27, then
# pairs with l-torsion decorations: on one side or both, at one prime or two,
# of several orders and Frobenius actions, on finite motives, on twists, and
# meeting positive local rank (three with indeterminate Weil Ext^1)
EXT_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "ext_table.json").read_text())


def test_ext_json_table(capsys):
    for row in EXT_TABLE:
        code, out = run(capsys, ["ext", row["x"], row["y"], "--json"])
        assert (code, out) == (0, row["stdout"]), (row["x"], row["y"])


def test_ext_pairs_back_to_back(capsys):
    # one process, different pairs in turn: each answer belongs to its own
    # pair, also when a pair comes back after another one
    for i in (0, 2, 1, 0, 4, 2):
        row = EXT_TABLE[i]
        assert run(capsys, ["ext", row["x"], row["y"], "--json"]) \
            == (0, row["stdout"])
    # and no assembly outlives its query, so none can be handed to a later
    # pair (a memo keyed on object ids would be, once the ids are reused)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, GlobalExtReport)]


def test_one_l_adic_report_per_prime(capsys, monkeypatch):
    # `ext` reads every l != p away from the exceptional primes off one gcd
    # split per motive pair (`motive._hom_system`: D = gcd(P_X, P_Y), A, B
    # and their resultants): both local modules are the companion lattices
    # there, so no Hom or bar-Ext module is built at those primes.  An
    # exceptional prime keeps its own build on the galois route: the
    # forward and the swapped Hom once each, bar-Ext once.  The resultant
    # side of each local identity comes from the pair's own N*: no ratio
    # polynomial there
    built = {"hom_module": 0, "ext1_bar_module": 0, "smith": 0}
    in_l_side, ratios_in_l_side = [], []

    def counted(name, fn):
        def wrapper(*args):
            built[name] += 1
            return fn(*args)
        return wrapper

    hom, bar = galois.hom_module, galois.ext1_bar_module
    ratio = exact.ratio_charpoly
    monkeypatch.setattr(galois, "hom_module", counted("hom_module", hom))
    monkeypatch.setattr(motive, "hom_module", counted("hom_module", hom))
    monkeypatch.setattr(galois, "ext1_bar_module",
                        counted("ext1_bar_module", bar))
    # integer Smith forms outside the galois route's own builds (an
    # exceptional prime's `_l_side`, or the l-adic identity called on its
    # own): the pair's Hom system is one gcd split and its resultants, so
    # it takes none and "smith" stays 0
    from frobext import linalg
    smith, l_side = linalg.smith_normal_form, motive._l_side
    on_its_own = []

    def counted_smith(a):
        if l_side not in in_l_side and not on_its_own:
            built["smith"] += 1
        return smith(a)

    def galois_identity(*args):
        on_its_own.append(None)
        try:
            return verify(*args)
        finally:
            on_its_own.pop()

    verify = galois.verify_local_identity
    monkeypatch.setattr(galois, "verify_local_identity", galois_identity)

    for name, module in list(sys.modules.items()):
        if name.startswith("frobext") and \
                getattr(module, "smith_normal_form", None) is smith:
            monkeypatch.setattr(module, "smith_normal_form", counted_smith)

    def tracked(fn):
        def wrapper(*args):
            in_l_side.append(fn)
            try:
                return fn(*args)
            finally:
                in_l_side.pop()
        return wrapper

    def tracked_ratio(*args):
        if in_l_side:
            ratios_in_l_side.append(in_l_side[-1])
        return ratio(*args)

    def expected(x: str, y: str, support: list) -> dict:
        exceptional = {int(l) for m in (x, y)
                       for l in json.loads(m).get("exceptional", {})}
        n = len(exceptional & set(support))
        return {"hom_module": 2 * n, "ext1_bar_module": n, "smith": 0}

    monkeypatch.setattr(motive, "_l_side", tracked(motive._l_side))
    monkeypatch.setattr(motive._HomSystem, "l_side",
                        tracked(motive._HomSystem.l_side))
    for mod in (exact, galois, motive, crystal):
        if getattr(mod, "ratio_charpoly", None) is ratio:
            monkeypatch.setattr(mod, "ratio_charpoly", tracked_ratio)
    shared_only = with_exceptional = 0
    for row in EXT_TABLE:
        built.update(hom_module=0, ext1_bar_module=0, smith=0)
        code, out = run(capsys, ["ext", row["x"], row["y"], "--json"])
        assert (code, out) == (0, row["stdout"])
        support = json.loads(out)["support"]
        want = expected(row["x"], row["y"], support)
        assert built == want, row
        if want["hom_module"]:
            with_exceptional += 1
        elif len(support) > 2 and all(
                len(json.loads(row[m])["charpoly"]) > 1 for m in "xy"):
            shared_only += 1  # several primes l != p, one gcd split
    assert shared_only and with_exceptional
    assert ratios_in_l_side == []
    # (1 with torsion at 2, L^2) over F_5: N* = -24, so the support is
    # {2, 3, 5}; 3 reads the gcd split, 2 its own build
    x = json.dumps({"q": 5, "charpoly": [-1, 1], "exceptional": {
        "2": {"torsion": [2], "torsion_frobenius": [[1]]}}})
    y = json.dumps({"q": 5, "charpoly": [-25, 1]})
    built.update(hom_module=0, ext1_bar_module=0, smith=0)
    code, out = run(capsys, ["ext", x, y, "--json"])
    assert code == 0 and json.loads(out)["support"] == [2, 3, 5]
    assert built == {"hom_module": 2, "ext1_bar_module": 1, "smith": 0}
    built.update(hom_module=0, ext1_bar_module=0, smith=0)
    code, out = run(capsys, ["ext", json.dumps({"q": 5, "charpoly": [-1, 1]}),
                             y, "--json"])
    assert code == 0 and json.loads(out)["support"] == [2, 3, 5]
    assert built == {"hom_module": 0, "ext1_bar_module": 0, "smith": 0}
    # the l-adic identity on its own reads both Hom and bar-Ext once
    built.update(hom_module=0, ext1_bar_module=0, smith=0)
    m = GaloisModule(3, 2, [[2, 1], [1, 1]], (3, 9), [[1, 0], [3, 2]])
    n = GaloisModule(3, 2, [[1]], (9,), [[4]])
    assert galois.verify_local_identity(m, n)["equal"]
    assert built == {"hom_module": 1, "ext1_bar_module": 1, "smith": 0}


def test_one_ratio_polynomial_per_query(capsys, monkeypatch):
    # the assembly builds the pair's ratio polynomial once, and both local
    # sides take their right side from its N*: no other ratio polynomial
    ratio = exact.ratio_charpoly
    calls = []

    def counted(*args):
        calls.append(args)
        return ratio(*args)

    for mod in (exact, galois, motive, crystal):
        if getattr(mod, "ratio_charpoly", None) is ratio:
            monkeypatch.setattr(mod, "ratio_charpoly", counted)
    for row in EXT_TABLE:
        calls.clear()
        code, out = run(capsys, ["ext", row["x"], row["y"], "--json"])
        assert (code, out) == (0, row["stdout"])
        ranks = [len(json.loads(row[k])["charpoly"]) - 1 for k in "xy"]
        assert len(calls) == (1 if all(ranks) else 0), row


def test_ext_reads_files(tmp_path, capsys):
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text('{"q": 3, "charpoly": [-1, 1]}')
    fy.write_text('{"q": 3, "charpoly": [-1, 1]}')
    code, out = run(capsys, ["ext", str(fx), str(fy), "--json"])
    assert code == 0
    assert json.loads(out)["rho"] == 1


def test_verify_local_random_l_adic(capsys):
    code, out = run(capsys, ["verify-local", "--random", "8", "--prime", "5",
                             "--seed", "11", "--json", "--bound", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"failures": 0, "instances": 8, "l": 5, "q": 2}


def test_verify_local_random_p_adic(capsys, monkeypatch):
    # random crystal pairs are read at the starting precision, and again
    # only at a precision that an error names
    rings = []
    init = WittRing.__init__

    def counted(self, p, a, precision=20, modulus=None):
        rings.append(precision)
        init(self, p, a, precision, modulus)

    monkeypatch.setattr(WittRing, "__init__", counted)
    code, out = run(capsys, ["verify-local", "--random", "2", "--case",
                             "finite-invertible", "--prime", "3", "--seed",
                             "4", "--json"])
    assert code == 0
    assert json.loads(out)["failures"] == 0
    assert rings[0] == 20  # WittRing's default working precision


@pytest.mark.parametrize("argv, message", [
    (["--random", "-3"], "--random -3: the number of instances must not be"
                         " negative"),
    # B = 13: random modules of rank up to 13, a Hom system up to 169
    (["--random", "1", "--bound", "13"], "--bound 13 gives a Hom system of"
                                         " dimension up to 169, above the"
                                         " cap of 144"),
])
def test_verify_local_random_options_are_input_errors(capsys, argv, message):
    start = time.perf_counter()
    assert main(["verify-local"] + argv) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == "input error: %s\n" % message


def test_verify_local_replay(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    case = {"m": {"l": 3, "q": 2, "free_frob": [[2]], "torsion": [],
                  "torsion_frob": None},
            "n": {"l": 3, "q": 2, "free_frob": [[1]], "torsion": [3],
                  "torsion_frob": [[1]]}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    code, out = run(capsys, ["verify-local", "--replay", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["equal"] is True


def _crystal_replay(path, a: int, m, n, **extra) -> list:
    case = {"case": "free-disjoint", "p": 3, "degree": a,
            "m": {"coords": m, "exponents": None, "special_poly": None},
            "n": {"coords": n, "exponents": None, "special_poly": None}}
    path.write_text(json.dumps(dict(case, **extra)))
    return ["verify-local", "--replay", str(path), "--json"]


# general crystals over F_3 and F_9 that need more than the starting
# precision: [[1]] and [[1 + 3^45]] cannot be separated at 20, and at a = 1
# v_3 of the resultant of their integer charpolys names 46, where θ is read
# at 48; at a = 2 the error names 2K, so the pair is read at 40 and 80.  The
# det of [[3^25]] vanishes mod 3^20 and is read exactly: the error names 26.
# [[1]] against itself at a = 2 names 2K up to the ceiling, and [[0]] is
# singular
REPLAYS = [
    (1, [[1]], [[1 + 3 ** 45]], 0, 48),
    (1, [[3 ** 25]], [[1]], 0, 28),
    (2, [[1]], [[1 + 3 ** 45]], 0, 82),
    (2, [[1]], [[1]], 4, None),
    (1, [[0]], [[1]], 2, None),
]


def test_replay_precision_order(tmp_path, capsys, monkeypatch):
    # a replay is read at WittRing's default precision, then at each larger
    # precision a PrecisionError names, and never past PRECISION_CEILING
    rings = []
    at_precision = WittRing.at_precision

    def recorded(ring, k):
        rings.append(k)
        return at_precision(ring, k)

    monkeypatch.setattr(WittRing, "at_precision", recorded)
    for a, m, n, code, certified in REPLAYS:
        rings.clear()
        argv = _crystal_replay(tmp_path / "case.json", a, m, n)
        start = time.perf_counter()
        assert main(argv) == code, (a, m, n)
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert all(k <= cli.PRECISION_CEILING for k in rings)
        if code == 0:
            out = json.loads(captured.out)
            assert out["equal"] and out["certified_precision"] == certified
        elif code == 4:
            assert rings[-1] == cli.PRECISION_CEILING
            assert captured.err.endswith(
                "(read up to the ceiling p^%d)\n" % cli.PRECISION_CEILING)
            assert "--precision" not in captured.err


def test_replay_ignores_a_precision_field(tmp_path, capsys):
    # older replay files carry a "precision" field; it is read and ignored
    argv = _crystal_replay(tmp_path / "case.json", 1, [[1]], [[1 + 3 ** 45]])
    assert main(argv) == 0
    want = capsys.readouterr().out
    for precision in (8, 46, 100, "junk"):
        argv = _crystal_replay(tmp_path / "old.json", 1, [[1]],
                               [[1 + 3 ** 45]], precision=precision)
        assert run(capsys, argv) == (0, want)


def _diag(r: int, d: int = 1) -> list:
    return [[d if i == j else 0 for j in range(r)] for i in range(r)]


def _l_adic(rank: int, gens: int) -> dict:
    return {"l": 3, "q": 2, "free_frob": _diag(rank), "torsion": [3] * gens}


def _crystals(a: int, m: dict, n: dict) -> dict:
    return {"case": "c", "p": 3, "degree": a, "m": m, "n": n}


@pytest.mark.parametrize("case, says", [
    # two free l-adic modules of rank 16, and free rank 2 with 16 torsion
    # generators (85 s before)
    ({"m": _l_adic(16, 0), "n": _l_adic(16, 0)},
     "m.free_frob of rank 16 gives a Hom system of dimension up to 256,"
     " above the cap of 144"),
    ({"m": _l_adic(1, 0), "n": _l_adic(2, 16)},
     "n.torsion has a torsion generator count of 16, above the cap of 6"),
    # a 40 x 40 crystal against a 1 x 1 one (3.4 s before), a finite crystal
    # of rank 2·3 over Z_p, and a special module of rank 2·8 over Z_p
    (_crystals(1, {"coords": _diag(40)}, {"coords": [[1]]}),
     "m.coords gives a free crystal of Z_p-rank 40, above the cap of 12"),
    (_crystals(2, {"coords": [[1]]},
               {"coords": _diag(3, 0), "exponents": [1] * 3}),
     "n.coords gives a finite crystal of Z_p-rank 6, above the cap of 4"),
    (_crystals(2, {"special_poly": [2, 0, 0, 1, 1]}, {"coords": [[1]]}),
     "m.special_poly gives a free crystal of Z_p-rank 16, above the cap of"
     " 12"),
])
def test_oversized_replays_are_refused_at_once(tmp_path, capsys, case, says):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    start = time.perf_counter()
    assert main(["verify-local", "--replay", str(path)]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "input error: %s\n" % says


def test_replays_at_the_caps_are_read():
    # what `--random --bound 12` and the p-adic generators draw lies below
    # every cap: l-adic free rank 12 with up to 6 torsion generators, free
    # crystals of Z_p-rank 12 and finite ones of Z_p-rank 4
    mod = cli._module_from_obj(_l_adic(12, 6), "m")
    assert (mod.rank, len(mod.torsion)) == (12, 6)
    for a, obj in ((1, {"coords": _diag(12)}),
                   (2, {"special_poly": [2, 0, 1, 1]}),
                   (1, {"coords": _diag(4, 0), "exponents": [1] * 4}),
                   (2, {"coords": _diag(2, 0), "exponents": [1] * 2})):
        x = cli._crystal_from_obj(obj, WittRing(3, a))
        assert x.ring.a * x.dim == (4 if x.exponents else 12)


def test_exceptional_torsion_generators_are_capped(capsys):
    # 160 torsion generators at l = 3 ran 10.6 s and exited 0
    big = _with(exceptional={"3": {"torsion": [3] * 160}})
    start = time.perf_counter()
    assert main(["ext", big, _L5]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == (
        'input error: exceptional["3"].torsion has a torsion generator count'
        " of 160, above the cap of 6\n")


def test_replay_reads_deep_torsion(tmp_path, capsys):
    # a torsion exponent above the working precision names itself: the pair
    # is read there (a finite source reads no θ, so it certifies no
    # precision), and above the ceiling it is not read at all
    case = {"case": "finite-invertible", "p": 3, "degree": 1,
            "m": {"coords": [[1]], "exponents": [30]},
            "n": {"special_poly": [-4, 1]}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    code, out = run(capsys, ["verify-local", "--replay", str(path), "--json"])
    out = json.loads(out)
    assert code == 0 and out["case"] == "finite-source" and out["equal"]
    assert out["certified_precision"] is None
    case["m"]["exponents"] = [cli.PRECISION_CEILING + 1]
    path.write_text(json.dumps(case))
    assert main(["verify-local", "--replay", str(path)]) == 4
    assert capsys.readouterr().err == "precision not certified: working" \
        " precision below the torsion exponents (read up to the ceiling" \
        " p^%d)\n" % cli.PRECISION_CEILING


def test_deep_finite_source_takes_one_valuation_per_rescaling(
        tmp_path, capsys, monkeypatch):
    # the largest finite source in the caps (a = 1, four generators at
    # exponent 320, F = 1) against t^12 - 1 at p = 65537: each local Smith
    # form takes one valuation per rescaling of its block, at most min(m, n),
    # where a form that reads every entry's valuation takes thousands
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    case = {"case": "finite-source", "p": 65537, "degree": 1,
            "m": {"coords": eye, "exponents": [320] * 4},
            "n": {"special_poly": [-1] + [0] * 11 + [1]}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    calls, forms = [0], []
    int_valuation, padic_smith = exact.int_valuation, crystal.padic_smith

    def counted(x, p):
        calls[0] += 1
        return int_valuation(x, p)

    def smith(rows, ncols, p, K):
        before = calls[0]
        vals = padic_smith(rows, ncols, p, K)
        forms.append((calls[0] - before, len(vals)))
        return vals

    monkeypatch.setattr(exact, "int_valuation", counted)  # linalg's import
    monkeypatch.setattr(crystal, "padic_smith", smith)
    code, out = run(capsys, ["verify-local", "--replay", str(path), "--json"])
    out = json.loads(out)
    assert code == 0 and out["case"] == "finite-source" and out["equal"]
    assert len(forms) == 3
    assert all(used <= size for used, size in forms), forms


_MODULE = {"l": 3, "q": 5, "free_frob": [[2]], "torsion": [],
           "torsion_frob": None}
_CRYSTAL = {"coords": [[1]], "exponents": None, "special_poly": None}


@pytest.mark.parametrize("case, field", [
    ([1, 2], "the replay file must be an object, not an array"),
    ("x", "the replay file must be an object, not a string"),
    ({"m": {"l": 3, "q": 5, "free_frob": "x"}},
     "m.free_frob must be an array, not a string"),
    ({"m": _MODULE}, "n must be an object, not null"),
    ({"m": dict(_MODULE, l="3"), "n": _MODULE},
     "m.l must be an integer, not a string"),
    ({"m": dict(_MODULE, q=None), "n": _MODULE},
     "m.q must be an integer, not null"),
    ({"m": dict(_MODULE, free_frob=[[2, 1]]), "n": _MODULE},
     "m.free_frob must be 1 by 1"),
    ({"m": dict(_MODULE, free_frob=[[1.5]]), "n": _MODULE},
     "m.free_frob[0][0] must be an integer, not a number"),
    ({"m": dict(_MODULE, torsion=[3], torsion_frob=[[1, 0]]), "n": _MODULE},
     "m.torsion_frob must be 1 by 1"),
    ({"m": dict(_MODULE, torsion="3"), "n": _MODULE},
     "m.torsion must be an array, not a string"),
    ({"case": "c", "p": 3, "m": dict(_CRYSTAL, coords="x"), "n": _CRYSTAL},
     "m.coords must be an array, not a string"),
    ({"case": "c", "p": 3, "m": _CRYSTAL, "n": dict(_CRYSTAL, coords=[["1"]])},
     "n.coords[0][0] must be an integer, not a string"),
    ({"case": "c", "p": 3, "m": dict(_CRYSTAL, coords=[[[1, True]]]),
      "n": _CRYSTAL}, "m.coords[0][0][1] must be an integer, not a boolean"),
    ({"case": "c", "p": 3, "m": dict(_CRYSTAL, exponents=2), "n": _CRYSTAL},
     "m.exponents must be an array, not an integer"),
    ({"case": "c", "p": 3, "m": dict(_CRYSTAL, special_poly={}),
      "n": _CRYSTAL}, "m.special_poly must be an array, not an object"),
    ({"case": "c", "p": "3", "m": _CRYSTAL, "n": _CRYSTAL},
     "p must be an integer, not a string"),
    ({"case": "c", "p": 3, "degree": 1.0, "m": _CRYSTAL, "n": _CRYSTAL},
     "degree must be an integer, not a number"),
    ({"case": "c", "p": 3, "n": _CRYSTAL}, "m must be an object, not null"),
    # the residue degree takes the a^3 cap of `ext` and `zeta`
    ({"case": "c", "p": 2, "degree": 11, "m": _CRYSTAL, "n": _CRYSTAL},
     "degree 11 gives a p-adic system of dimension at least a^3 = 1331"),
    ({"case": "c", "p": 2, "degree": 300, "m": _CRYSTAL, "n": _CRYSTAL},
     "degree 300 gives"),
])
def test_malformed_replay_is_an_input_error(tmp_path, capsys, case, field):
    # every field of a replay file is checked as `ext` checks its JSON: exit
    # 2 naming the field, at once and with no traceback
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    start = time.perf_counter()
    assert main(["verify-local", "--replay", str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("input error: %s" % field), err


def test_replay_at_the_degree_cap_answers(tmp_path, capsys):
    # a = 10, a^3 = 1000: the largest residue degree a replay is read at
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"case": "c", "p": 2, "degree": 10,
                                "m": {"coords": [[1]]},
                                "n": {"coords": [[3]]}}))
    assert main(["verify-local", "--replay", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["q"] == 1024


def test_hypothesis_violation_exit_code(tmp_path, capsys):
    # a shared multiple eigenvalue violates the hypothesis of the theorem
    case = {"m": {"l": 3, "q": 2, "free_frob": [[1, 1], [0, 1]],
                  "torsion": [], "torsion_frob": None},
            "n": {"l": 3, "q": 2, "free_frob": [[1, 1], [0, 1]],
                  "torsion": [], "torsion_frob": None}}
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    assert main(["verify-local", "--replay", str(path)]) == 3


def test_zeta_command(capsys):
    code, out = run(capsys, ["zeta", json.dumps(
        {"kind": "projective_space", "q": 4, "dimension": 1, "r": 1}),
        "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["equal"] is True and obj["order"] == -1
    assert obj["leading"] == "4/3"


def test_one_witt_ring_per_prime(capsys, monkeypatch):
    # the p-side reads every residue degree over Z_p: it builds one Witt
    # ring W(F_p) per prime, plus the K+2 lift that θ is read at, whatever
    # the number of motives and pairs, and none of degree above 1
    motive._ring.cache_clear()
    built = []
    init = WittRing.__init__

    def counted(self, p, a, precision=20, modulus=None):
        built.append((p, a, precision))
        init(self, p, a, precision, modulus)

    monkeypatch.setattr(WittRing, "__init__", counted)
    curve = {"kind": "elliptic_curve", "q": 5, "coefficients": [1, 1]}
    spec = {"kind": "product", "q": 5, "r": 1, "factors": [curve, curve]}
    assert main(["zeta", json.dumps(spec)]) == 0
    assert main(["ext", '{"q": 9, "charpoly": [-1, 1]}',
                 '{"q": 9, "charpoly": [-9, 1]}']) == 0
    capsys.readouterr()
    assert sorted(built) == [(3, 1, 20), (3, 1, 22), (5, 1, 20), (5, 1, 22)]
    for argv in (["ext", '{"q": 8, "charpoly": [8, 1, 1]}',
                  '{"q": 8, "charpoly": [-1, 1]}'],
                 ["ext", '{"q": 125, "charpoly": [-1, 1]}',
                  '{"q": 125, "charpoly": [-125, 1]}'],
                 ["zeta", json.dumps(_pn(4, 2) | {"r": 1})]):
        assert main(argv) == 0
    capsys.readouterr()
    assert {a for _, a, _ in built} == {1}


def test_zeta_product_spec(capsys):
    spec = {"kind": "product", "q": 3, "r": 1, "factors": [
        {"kind": "projective_space", "q": 3, "dimension": 1},
        {"kind": "projective_space", "q": 3, "dimension": 1}]}
    code, out = run(capsys, ["zeta", json.dumps(spec), "--json"])
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_zeta_negative_r_and_one_special_value(capsys, monkeypatch):
    spec = {"kind": "projective_space", "q": 3, "dimension": 1}
    assert main(["zeta", json.dumps(dict(spec, r=-1))]) == 2
    assert capsys.readouterr().err == \
        "input error: special values at non-negative r only\n"
    # the zeta side is computed once per query
    calls = []
    special_value = zeta.zeta_special_value

    def counted(v, r):
        calls.append(r)
        return special_value(v, r)

    for mod in (cli, zeta):
        if getattr(mod, "zeta_special_value", None) is special_value:
            monkeypatch.setattr(mod, "zeta_special_value", counted)
    code, out = run(capsys, ["zeta", json.dumps(dict(spec, r=1)), "--json"])
    assert code == 0 and json.loads(out)["leading"] == "3/2"
    assert calls == [1]


def test_input_error_exit_codes(capsys):
    assert main(["zeta", '{"kind": "abelian", "q": 5}']) == 2
    assert main(["ext", '{"q":5,"charpoly":[6,1]}',
                 '{"q": 5, "charpoly": [-1, 1]}']) == 2
    assert main(["verify-local", "--random", "1", "--prime", "4"]) == 2
    assert main(["verify-local"]) == 2  # neither --random nor --replay


@pytest.mark.parametrize("required, hint", [
    (28, "; rerun with --precision 28"), (None, "")])
def test_precision_error_exit_code(capsys, monkeypatch, required, hint):
    # exit 4 prints the error alone, with no hint to rerun with a
    # precision: verify-local has already read the pair at the precision
    # the error names
    def fail(args):
        raise PrecisionError("cannot separate at K", required=required)
    monkeypatch.setattr(cli, "_cmd_verify_local", fail)
    assert main(["verify-local", "--random", "1"]) == 4
    err = capsys.readouterr().err
    assert err == "precision not certified: cannot separate at K\n"
    assert not hint or hint not in err


def test_deep_twists_answer_exactly(capsys):
    # a special module is certified from its polynomials, whatever the
    # valuation of its determinant: (1, L^10) over F_9 has Ext¹ of order
    # 9^10 - 1, and (L^11, L^11) is special-equal with a·r = 22
    one, lef10, lef11 = ('{"q": 9, "charpoly": [%d, 1]}' % c
                         for c in (-1, -9 ** 10, -9 ** 11))
    code, out = run(capsys, ["ext", one, lef10, "--json"])
    assert code == 0 and json.loads(out)["ext1_order"] == 9 ** 10 - 1
    code, out = run(capsys, ["ext", lef11, lef11, "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["rho"] == 1
    assert obj["global_identity"] and obj["weil_identity"]


@pytest.mark.parametrize("argv", [
    ["ext", '{"q": 5, "charpoly": [-1, 1]}', '{"q": 5, "charpoly": [-5, 1]}'],
    ["zeta", '{"kind": "projective_space", "q": 3, "dimension": 1}'],
    ["verify-local", "--random", "1", "--case", "special-coprime"]])
def test_no_subcommand_takes_a_precision(capsys, argv):
    # no motive answer depends on a working precision, and verify-local
    # works out its own, so every subcommand rejects the option as unknown
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--precision", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision 8" in capsys.readouterr().err


def test_internal_error_exit_code(capsys, monkeypatch):
    def fail(args):
        raise RuntimeError("sigma^a must be the identity")
    monkeypatch.setattr(cli, "_cmd_ext", fail)
    assert main(["ext", "{}", "{}"]) == 5
    captured = capsys.readouterr()
    assert captured.err == "internal error: sigma^a must be the identity\n"
    assert "Traceback" not in captured.out + captured.err


def test_no_assert_in_src():
    # python -O strips assert statements, so every check in the package
    # raises instead
    found = [(path.name, node.lineno)
             for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_failed_internal_check_exit_code(capsys, monkeypatch):
    # a broken duality reader breaks the Euler product of the Koszul
    # complex: exit 5, not 1 ("identity failed") and no traceback
    monkeypatch.setattr(crystal, "_finite_kernel",
                        lambda mat, src, tgt, p: FinGenAbGroup(0, (7,)))
    assert main(["verify-local", "--random", "1", "--case", "k-finite",
                 "--prime", "3"]) == 5
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: the Euler product")
    assert "Traceback" not in captured.out + captured.err


# `zeta --json` on P^n (n <= 3) over eight fields, curves over F_5 .. F_13,
# E x P^1, E x E (isogenous and not), P^1 x P^2 and E x E x E, each at
# several twists r
ZETA_TABLE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "zeta_table.json").read_text())


def test_zeta_json_table(capsys):
    for row in ZETA_TABLE:
        code = main(row["argv"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == \
            (row["code"], row["stdout"], row["stderr"]), row["argv"]


def test_deterministic_json_output(capsys):
    argv = ["zeta", json.dumps({"kind": "elliptic_curve", "q": 5,
                                "coefficients": [1, 1], "r": 0}), "--json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "frobext.cli", "zeta",
         '{"kind": "projective_space", "q": 2, "dimension": 2, "r": 1}',
         "--json"], capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout)["equal"] is True


def _src_env() -> dict:
    # a fresh interpreter that imports this checkout's frobext
    return dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_as_sigpipe(unbuffered):
    # `frobext zeta ... | head -0`: the reader is gone before the first
    # write.  That is exit 141 (128 + SIGPIPE) with nothing on stderr, not an
    # input error, whether the write fails in print or in the final flush
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "frobext.cli", "zeta",
             '{"kind": "projective_space", "q": 3, "dimension": 2, "r": 1}'],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, b"")


def test_cli_imports_only_the_standard_library():
    # the runtime is stdlib-only, and its records are __slots__ classes, so
    # a fresh `import frobext.cli` loads nothing outside the standard library
    # and neither dataclasses nor the inspect it brings (about 14 ms of
    # start-up); -S keeps site's own imports out of the comparison
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import frobext.cli\n"
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "frobext" in loaded
    assert not loaded - {"frobext"} - sys.stdlib_module_names
    assert not loaded & {"dataclasses", "inspect"}
