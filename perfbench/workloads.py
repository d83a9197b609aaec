"""The three benchmark workloads: input generators and reference checks.

Every workload is a closed loop of rounds.  A round is the smallest block
of operations that holds the workload's whole class mix in its stated
proportions; its operations are spread through the round by class (each
class at evenly spaced phases with a random offset), so any stretch of the
loop sees close to the full mix.  Round ``k`` of a seed is drawn from
``random.Random(f"{seed}:{k}")`` and, for ``local-l``, from streams kept in
the loop's ``state``; rounds are made in order.

An operation is a dict with
  ``input``  a JSON-able description (what the digest and the repeat share
             are computed from),
  ``tags``   the classes it belongs to (for per-class medians),
  ``a``      the residue degree for ``ext-pairs`` operations,
  ``probe``  True for an input the seed is known to fail on (see below),
and whatever the call and the check need.

The reference values never come from the Ext machinery: closed forms of
Z(X, t), the benchmark's own Euler-criterion point count, and the orders
of Ext^1(1, L^r) and Ext^1(1, h^1 E).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import frobext.cli
import frobext.galois

# ---------------------------------------------------------------------------
# shared helpers


def _round_rng(seed: int, index: int) -> random.Random:
    return random.Random("%d:%d" % (seed, index))


def _spread(rng: random.Random, classes: list) -> list:
    """Interleave lists of ops: op k of a class of size c sits at phase
    (k + u) / c, with one random offset u per class."""
    placed = []
    for ci, ops in enumerate(classes):
        u = rng.random()
        for k, op in enumerate(ops):
            placed.append(((k + u) / len(ops), ci, k, op))
    placed.sort(key=lambda t: t[:3])
    return [t[3] for t in placed]


def call_cli(argv: list) -> dict:
    """Run ``frobext.cli.main`` in process, capturing its output.  An
    argparse exit is reported as a tuple in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = frobext.cli.main(argv)
        except SystemExit as exc:
            rc = ("SystemExit", exc.code)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _check_exit2(res: dict) -> str | None:
    if res["rc"] != 2:
        return "exit %r, expected 2" % (res["rc"],)
    if "Traceback" in res["err"] or "Traceback" in res["out"]:
        return "traceback printed"
    return None


def _check_json(res: dict) -> tuple[dict | None, str | None]:
    if res["rc"] != 0:
        return None, "exit %r: %s" % (res["rc"], res["err"].strip()[:120])
    if "Traceback" in res["err"]:
        return None, "traceback printed"
    try:
        return json.loads(res["out"]), None
    except ValueError:
        return None, "output is not JSON"


# ---------------------------------------------------------------------------
# ext-pairs

Q_BY_DEGREE = {1: (2, 3, 5, 7, 11, 13), 2: (4, 9, 25), 3: (27, 8)}
EXT_TYPES = ("1-L^r", "1-h1E", "h1E-L^r", "L-h1E", "h1E-h1E'")
# In-scope ops of one round per residue degree and pair type (order as in
# EXT_TYPES): 60 / 30 / 5 ops.  The a = 3 share is trimmed from 10 % to 5 %:
# one E x E op over F_27 or F_8 alone costs about 3 s at the seed.  At a = 2,
# E x E gets 12 of the 30 ops so that the ten slowest ops of a round are the
# four a = 3 ops other than (1, L^r) and six of those twelve: p90 then falls
# inside one class instead of at the gap between two, where it would jump
# with the drawn inputs.
EXT_SLOTS = {1: (12, 12, 12, 12, 12), 2: (6, 6, 3, 3, 12), 3: (1, 1, 1, 1, 1)}
EXT_OUT_OF_SCOPE = 3     # per round: mixed fields, repeated eigenvalues
EXT_PROBES = 2           # per round: (1, L^r) with a*r >= 20
ALL_Q = tuple(q for qs in Q_BY_DEGREE.values() for q in qs)


def _motive(q: int, charpoly: list) -> str:
    return json.dumps({"q": q, "charpoly": charpoly})


def _trace(rng: random.Random, q: int) -> int:
    """A Frobenius trace strictly inside the Weil bound t^2 < 4q."""
    bound = math.isqrt(4 * q - 1)
    return rng.randint(-bound, bound)


def _ext_op(rng, a: int, q: int, kind: str, r: int) -> dict:
    one, lef = [-1, 1], [-q, 1]
    expect = {}
    if kind == "1-L^r":
        x, y = one, [-q ** r, 1]
        expect = {"ext1_order": q ** r - 1, "ext2_cotors_order": 1}
    elif kind == "1-h1E":
        t = _trace(rng, q)
        x, y = one, [q, -t, 1]
        expect = {"ext1_order": q + 1 - t, "ext2_cotors_order": 1}
    elif kind == "h1E-L^r":
        x, y = [q, -_trace(rng, q), 1], [-q ** r, 1]
    elif kind == "L-h1E":
        x, y = lef, [q, -_trace(rng, q), 1]
    else:
        x, y = [q, -_trace(rng, q), 1], [q, -_trace(rng, q), 1]
    tags = ["a%d/%s" % (a, kind)]
    if kind == "h1E-h1E'":
        tags.append("ExE/q%d" % q)
    return {"input": ["ext", _motive(q, x), _motive(q, y)], "tags": tags,
            "a": a, "check": "in-scope", "expect": expect}


def _ext_out_of_scope(rng, i: int) -> dict:
    q = rng.choice(ALL_Q)
    if i % 3 == 0:
        other = rng.choice([c for c in ALL_Q if c != q])
        x, y = _motive(q, [-1, 1]), _motive(other, [-other, 1])
        tag = "out-of-scope/mixed-fields"
    else:
        if i % 3 == 1:
            s = rng.choice((1, q))
        else:  # a square q has the double root sqrt(q) in (t - sqrt q)^2
            q = rng.choice((4, 9, 25))
            s = math.isqrt(q)
        x, y = _motive(q, [-1, 1]), _motive(q, [s * s, -2 * s, 1])
        tag = "out-of-scope/repeated-eigenvalue"
        if rng.random() < 0.5:
            x, y = y, x
    return {"input": ["ext", x, y], "tags": [tag], "a": None,
            "check": "exit-2"}


def _ext_probe(rng) -> dict:
    """(1, L^r) with a*r >= 20: valid, with Ext^1 of order q^r - 1, but at
    the default working precision the seed exits 2 ("F is singular mod
    p^K"), e.g. q = 9, r = 10."""
    a = rng.choice((1, 2, 3))
    q = rng.choice(Q_BY_DEGREE[a])
    r = -(-20 // a) + rng.randint(0, 1)
    return {"input": ["ext", _motive(q, [-1, 1]), _motive(q, [-q ** r, 1])],
            "tags": ["probe/a*r>=20"], "a": a, "check": "in-scope",
            "expect": {"ext1_order": q ** r - 1, "ext2_cotors_order": 1},
            "probe": True}


def ext_round(seed: int, index: int, state: dict) -> list:
    rng = _round_rng(seed, index)
    classes = []
    for a, counts in EXT_SLOTS.items():
        qs = Q_BY_DEGREE[a]
        for i, (kind, count) in enumerate(zip(EXT_TYPES, counts)):
            # each q of the degree equally often per class (a < 3) or per
            # two rounds (a = 3, where round 0 has E x E over F_27); the
            # twist r of L^r cycles through 1, 2, 3
            classes.append([_ext_op(rng, a, qs[(k + i + index) % len(qs)],
                                    kind, 1 + (k + index) % 3)
                            for k in range(count)])
    classes.append([_ext_out_of_scope(rng, i)
                    for i in range(EXT_OUT_OF_SCOPE)])
    classes.append([_ext_probe(rng) for _ in range(EXT_PROBES)])
    return _spread(rng, classes)


def ext_call(op: dict):
    return call_cli(op["input"] + ["--json"])


# what ext_check returns for a probe that fails as the seed does; any other
# outcome of a probe is checked like an in-scope op
KNOWN_DEFECT = 'known defect: exit 2, "F is singular mod p^K"'


def ext_check(op: dict, res: dict) -> str | None:
    if op["check"] == "exit-2":
        return _check_exit2(res)
    if (op.get("probe") and _check_exit2(res) is None
            and "F is singular mod p^K" in res["err"]):
        return KNOWN_DEFECT
    out, why = _check_json(res)
    if why:
        return why
    for flag in ("global_identity", "weil_identity"):
        if out.get(flag) is not True:
            return "%s is %r" % (flag, out.get(flag))
    for key, want in op["expect"].items():
        if out.get(key) != want:
            return "%s = %r, reference %r" % (key, out.get(key), want)
    return None


# ---------------------------------------------------------------------------
# local-l

LOCAL_PRIMES = (2, 3, 5, 7)
LOCAL_MAX_RANK = 4


def _module_input(m) -> dict:
    return {"l": m.l, "q": m.q, "free_frob": m.free_frob,
            "torsion": list(m.torsion), "torsion_frob": m.torsion_frob}


def local_round(seed: int, index: int, state: dict) -> list:
    """One pair per (rank of M, rank of N) and l, so every round has the
    same rank mix.  Pairs come from the program's generator, one seeded
    stream per l; a pair whose rank slot is taken waits in `state` for a
    later round, so rounds must be made in order."""
    rng = _round_rng(seed, index)
    ops = []
    for l in LOCAL_PRIMES:
        q = 3 if l == 2 else 2  # as `frobext verify-local` chooses
        stream = state.setdefault(l, random.Random("%d:l%d" % (seed, l)))
        waiting = state.setdefault((l, "waiting"), {})
        for rm in range(LOCAL_MAX_RANK + 1):
            for rn in range(LOCAL_MAX_RANK + 1):
                while not waiting.get((rm, rn)):
                    m, n = frobext.galois.random_admissible_pair(
                        stream, l, q, max_rank=LOCAL_MAX_RANK)
                    waiting.setdefault((m.rank, n.rank), []).append((m, n))
                m, n = waiting[(rm, rn)].pop(0)
                ops.append({"input": [_module_input(m), _module_input(n)],
                            "tags": ["rank%d" % max(rm, rn), "l%d" % l],
                            "a": None, "pair": (m, n)})
    rng.shuffle(ops)
    return ops


def local_call(op: dict):
    return frobext.galois.verify_local_identity(*op["pair"])


def local_check(op: dict, res) -> str | None:
    if res.get("equal") is not True or res.get("lhs") != res.get("rhs"):
        return "local identity: lhs %s, rhs %s" % (res.get("lhs"),
                                                   res.get("rhs"))
    return None


# ---------------------------------------------------------------------------
# zeta-varieties

SMALL_Q = (2, 3, 4, 5, 7, 8, 9)
PRODUCT_P = (5, 7, 11, 13)


def _primes(lo: int, hi: int) -> list:
    return [p for p in range(max(lo, 5), hi + 1)
            if all(p % d for d in range(2, math.isqrt(p) + 1))]


# the point-count ladder: narrow bands, so that the O(p^2) count of a band
# does not swing with the prime drawn
CURVE_PRIMES = {"E/p<100": _primes(5, 99), "E/p~250": _primes(239, 263),
                "E/p~500": _primes(487, 523), "E/p~1000": _primes(953, 997)}


def count_points(p: int, a4: int, a6: int) -> int:
    """#E(F_p) for y^2 = x^3 + a4 x + a6, p >= 5, by Euler's criterion."""
    n = p + 1
    half = (p - 1) // 2
    for x in range(p):
        v = (x * x * x + a4 * x + a6) % p
        if v:
            n += 1 if pow(v, half, p) == 1 else -1
    return n


def _curve(rng, p: int) -> tuple[dict, int]:
    while True:
        a4, a6 = rng.randrange(p), rng.randrange(p)
        if (4 * a4 ** 3 + 27 * a6 ** 2) % p:
            spec = {"kind": "elliptic_curve", "q": p, "coefficients": [a4, a6]}
            return spec, count_points(p, a4, a6)


def _pn(q: int, n: int) -> dict:
    return {"kind": "projective_space", "q": q, "dimension": n}


def zeta_reference(q: int, r: int, dim_poles: int, numerator=None):
    """Order and leading coefficient at s = r of
    numerator(t) / prod_{i <= dim_poles} (1 - q^i t),  t = q^-s,
    expanded in u = 1 - q^(r - s); each factor (1 - q^r t) equals u."""
    order = -1 if r <= dim_poles else 0
    lead = Fraction(1)
    for i in range(dim_poles + 1):
        if i != r:
            lead /= 1 - Fraction(q) ** (i - r)
    if numerator is not None:
        t = Fraction(1, q ** r)
        lead *= sum(c * t ** k for k, c in enumerate(numerator))
    return order, lead


def _deck(seed: int, name: str, items: list) -> list:
    """The items in an order fixed by the seed; slot j of a class takes
    deck[j % len(deck)], so a run covers the discrete choices (field,
    dimension, twist r) evenly and only the curves vary freely."""
    items = list(items)
    random.Random("%d:%s" % (seed, name)).shuffle(items)
    return items


def zeta_round(seed: int, index: int, state: dict) -> list:
    rng = _round_rng(seed, index)

    def take(name, items, count):
        deck = _deck(seed, name, items)
        return [deck[(index * count + k) % len(deck)] for k in range(count)]

    def op(tag, spec, r, check="in-scope"):
        return {"input": ["zeta", json.dumps(spec), r], "tags": [tag],
                "a": None, "check": check, "expect": None}

    twists = range(3)
    classes = []
    pn = []
    for q, n, r in take("P^n", [(q, n, r) for q in SMALL_Q
                                for n in range(1, 5) for r in twists], 3):
        o = op("P^n", _pn(q, n), r)
        o["expect"] = zeta_reference(q, r, n)
        pn.append(o)
    classes.append(pn)
    classes.append([
        op("P^a x P^b", {"kind": "product", "q": q,
                         "factors": [_pn(q, a), _pn(q, b)]}, r)
        for q, a, b, r in take("PxP", [(q, a, b, r) for q in SMALL_Q
                                       for a, b in ((1, 1), (1, 2), (2, 2))
                                       for r in twists], 2)])
    # two curves near p = 1000 per round of 17 put p90 inside that class
    for tag, count in (("E/p<100", 2), ("E/p~250", 1), ("E/p~500", 1),
                       ("E/p~1000", 2)):
        curves = []
        for p, r in take(tag, [(p, r) for p in CURVE_PRIMES[tag]
                               for r in twists], count):
            spec, n1 = _curve(rng, p)
            o = op(tag, spec, r)
            o["expect"] = zeta_reference(p, r, 1, [1, -(p + 1 - n1), p])
            curves.append(o)
        classes.append(curves)
    for tag, count in (("E x P^1", 2), ("E x E", 2), ("E x E x E", 1)):
        prods = []
        for p, r in take(tag, [(p, r) for p in PRODUCT_P for r in twists],
                         count):
            factors = [_curve(rng, p)[0] for _ in range(tag.count("E"))]
            if tag == "E x P^1":
                factors.append(_pn(p, 1))
            prods.append(op(tag, {"kind": "product", "q": p,
                                  "factors": factors}, r))
        classes.append(prods)
    # a singular curve: 4 a4^3 + 27 a6^2 = 0 for a4 = -3c^2, a6 = 2c^3
    p = rng.choice(CURVE_PRIMES["E/p<100"])
    c = rng.randrange(p)
    singular = {"kind": "elliptic_curve", "q": p,
                "coefficients": [(-3 * c * c) % p, (2 * c ** 3) % p]}
    classes.append([op("singular-curve", singular, rng.randint(0, 2),
                       check="exit-2")])
    return _spread(rng, classes)


def zeta_call(op: dict):
    cmd, spec, r = op["input"]
    return call_cli([cmd, spec, "--r", str(r), "--json"])


def zeta_check(op: dict, res: dict) -> str | None:
    if op["check"] == "exit-2":
        return _check_exit2(res)
    out, why = _check_json(res)
    if why:
        return why
    if out.get("equal") is not True:
        return "equal is %r" % (out.get("equal"),)
    if op["expect"] is not None:
        order, lead = op["expect"]
        if out.get("order") != order:
            return "order %r, reference %r" % (out.get("order"), order)
        if Fraction(out.get("leading")) != lead:
            return "leading %s, reference %s" % (out.get("leading"), lead)
    return None


WORKLOADS = {
    "ext-pairs": (ext_round, ext_call, ext_check),
    "local-l": (local_round, local_call, local_check),
    "zeta-varieties": (zeta_round, zeta_call, zeta_check),
}
