"""Self-checks of the benchmark harness (not of frobext):

  * a corrupted reference value is counted as a failed operation, also on
    an a*r >= 20 probe; only the known-defect exit of a probe is not,
  * the same seed gives the same input digest, another seed another one,
  * per-module self time sums to no more than the traced wall time,
  * the tracer reaches aliased imports, reports bypassed layers as zero and
    restores every original function.

    python3 perfbench/selfcheck.py

Exits 0 when every check holds, 1 otherwise; takes a few seconds.
"""

from __future__ import annotations

import copy
import sys
import time

import run

sys.path.insert(0, run.SRC)

import frobext.cli  # noqa: E402
import frobext.galois  # noqa: E402
import frobext.motive  # noqa: E402
from spans import Tracer  # noqa: E402

FAILURES: list = []


def check(ok: bool, what: str):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def corrupted_reference():
    loop = run.Loop("zeta-varieties", 3)
    good = [op for op in loop.round(0)
            if op["expect"] is not None and op["check"] == "in-scope"][:2]
    bad = copy.deepcopy(good[0])
    order, lead = bad["expect"]
    bad["expect"] = (order, lead + 1)
    loop.rounds = [[good[1], bad]]
    t = run.tally(loop.run(0, rounds=1).records)
    check(t["attempted"] == 2 and len(t["failures"]) == 1
          and t["failures"][0][0] is bad,
          "a corrupted zeta reference is one failed op of two")

    ext = run.Loop("ext-pairs", 3)
    op = copy.deepcopy(next(o for o in ext.round(0)
                            if o["expect"].get("ext1_order")
                            and not o.get("probe") and o["a"] == 1))
    check(ext.check(op, ext.call(op)) is None, "the ext op passes as drawn")
    op["expect"]["ext1_order"] += 1
    check(ext.check(op, ext.call(op)) is not None,
          "a corrupted ext1_order reference fails the op")

    probe = next(o for o in ext.round(0) if o.get("probe"))
    op["probe"] = True
    records = [(o, 0.0, ext.check(o, ext.call(o))) for o in (probe, op)]
    t = run.tally(records)
    check(t["attempted"] == 2 and len(t["known_defect"]) == 1
          and [r[0] for r in t["failures"]] == [op],
          "a probe with a wrong ext1_order fails; a known-defect exit not")


def digests():
    for name in ("ext-pairs", "local-l", "zeta-varieties"):
        a, b = run.Loop(name, 11).digest(), run.Loop(name, 11).digest()
        c = run.Loop(name, 12).digest()
        check(a == b and a != c, "%s: same seed, same digest" % name)


def tracing():
    galois_verify = frobext.galois.verify_local_identity
    loop = run.Loop("local-l", 5)
    loop.round(0)
    tracer = Tracer()
    start = time.perf_counter()
    with tracer:
        check(frobext.motive._verify_galois_pair is not galois_verify
              and frobext.cli.verify_galois is not galois_verify,
              "aliases of galois.verify_local_identity are rebound")
        p = loop.run(0, tracer=tracer, rounds=1)
    traced_wall = time.perf_counter() - start
    check(frobext.motive._verify_galois_pair is galois_verify
          and frobext.cli.verify_galois is galois_verify
          and frobext.galois.verify_local_identity is galois_verify,
          "every original is restored")
    ok = [i for i, r in enumerate(p.records) if not r[2]]
    raw_self = sum(v for k, (v, _) in tracer.metrics([1.0] * len(p.records),
                                                     ok).items()
                   if k.endswith(".self_s"))
    check(0 < raw_self <= p.raw_wall <= traced_wall,
          "self time %.4f s <= traced wall %.4f s" % (raw_self, p.raw_wall))
    m = tracer.metrics(p.scales, ok)
    total_self = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    check(0 < total_self <= p.wall,
          "normalized: self time %.4f s <= traced wall %.4f s"
          % (total_self, p.wall))
    check(m["galois.verify_local_identity.calls"][0] == len(p.records),
          "one galois.verify_local_identity span per local-l op")
    bypassed = [k for k, (v, _) in m.items()
                if k.split(".")[0] in ("witt", "crystal", "motive", "zeta")]
    check(bypassed and all(m[k][0] == 0 for k in bypassed),
          "local-l reports witt/crystal/motive/zeta as zero")


if __name__ == "__main__":
    corrupted_reference()
    digests()
    tracing()
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all ok")
    sys.exit(1 if FAILURES else 0)
