"""frobext benchmark: three closed-loop query workloads.

    python3 perfbench/run.py --workload ext-pairs --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; frobext is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Load model: one client, one process, no extra threads.  The client calls
frobext in process and starts the next operation only when the previous one
has returned, as a user or script waiting on each answer does.  The loop runs
whole rounds (see workloads.py), stopping at the first round boundary after
``--seconds`` of normalized loop time (see clock.py) once at least 100
operations ran, so that ten samples lie above p90.  Input generation between
rounds is outside the loop time.

``--trace 0`` reports the end-to-end metrics, times in normalized seconds
(wall time scaled by a reference measured next to it, see clock.py):
  setup_s              time for a fresh interpreter to import frobext.cli
                       (what a CLI user pays before the first answer, less
                       the interpreter's own start), median of 21 launches,
  latency_p50_s/p90_s  per-operation time,
  throughput_ops_per_s operations / loop time,
  peak_rss_mb          ru_maxrss of this process after the loop.
Plain wall times are printed alongside.
Failures are printed with their base and carried in ``attempted`` and
``failed``; a failure is a wrong exit code, an identity flag that is false,
a mismatch against the benchmark's own reference, an uncaught exception or
a printed traceback.

``--trace 1`` runs a fixed number of rounds per workload (TRACE_ROUNDS, the
same on every commit, so that counts compare between commits; 8 to 18 s of
normalized time per pass at the seed) with the spans of spans.py installed,
then the same operations untraced, and reports the per-layer metrics: calls,
busy time and module self time, the size/ratio counters,
``cli.main.p50_s.a<degree>`` (untraced) and ``trace.overhead_s`` (traced
minus untraced loop time).  All of these times are normalized as the
end-to-end ones are; ``--seconds`` is not used.  It also prints per-class
medians (normalized, untraced), the repeat share and the environment, and
writes them with the spans to ``perfbench/out/``.

Notes on the inputs:
  * ``ext-pairs`` includes in every round two (1, L^r) twists with
    a*r >= 20.  They are valid (Ext^1 has order q^r - 1), but at the default
    working precision frobext exits 2 with "F is singular mod p^K".  They
    stay in the loop, in the latency samples and in ``attempted``.  That
    exit, and only that one, is kept out of ``failed`` (the benchmark's runs
    must have no failing operation) and reported as ``ext.twist_probe.*``;
    any other failure of these ops, a wrong order included, is a failure.
  * The input q = 100000000000000003 (a prime) is left out: ``frobext ext``
    on it does not finish in 20 s (trial-division prime_power) and would
    stall every run.  It becomes an input when that cost is bounded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from clock import REF_NOMINAL_S, Clock
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_LAUNCHES = 21
MIN_OPS = 100
DIGEST_ROUNDS = 3
# rounds of the traced run: 200, 1000 and 170 operations; two ext-pairs
# rounds hold E x E over both F_27 and F_8
TRACE_ROUNDS = {"ext-pairs": 2, "local-l": 10, "zeta-varieties": 10}


@dataclasses.dataclass
class Pass:
    """One pass of the loop.  `records` holds (op, latency, failure reason
    or None) with latencies in normalized seconds (see clock.py), and
    `scales[i]` the factor that normalized op i; `wall` is the normalized
    loop time, `raw_wall` the same in plain seconds."""

    records: list
    scales: list
    wall: float
    raw_wall: float
    rounds: int
    ref_median: float


class Loop:
    """A workload's rounds, generated on demand and kept, so that a second
    pass replays exactly the same operations."""

    def __init__(self, workload: str, seed: int):
        # workloads imports frobext, which main() first puts on the path
        from workloads import WORKLOADS
        self.make_round, self.call, self.check = WORKLOADS[workload]
        self.seed = seed
        self.rounds: list = []
        self.state: dict = {}

    def round(self, k: int) -> list:
        while len(self.rounds) <= k:
            self.rounds.append(
                self.make_round(self.seed, len(self.rounds), self.state))
        return self.rounds[k]

    def digest(self) -> str:
        inputs = [op["input"] for k in range(DIGEST_ROUNDS)
                  for op in self.round(k)]
        blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def run(self, seconds: float, tracer=None,
            rounds: int | None = None) -> Pass:
        """Closed loop over whole rounds until `seconds` of measured time
        and MIN_OPS operations have passed, or exactly `rounds` rounds.  An
        op's time covers the call; the loop time covers call and check."""
        perf = time.perf_counter
        clock = Clock()
        clock.sample(force=True)
        raw, busy_total, elapsed, k = [], 0.0, 0.0, 0
        # `elapsed` is normalized time, so that a slow spell of the machine
        # does not change the number of rounds
        while (k < rounds if rounds is not None
               else len(raw) < MIN_OPS or elapsed < seconds):
            for op in self.round(k):
                ref = clock.sample()
                if tracer is not None:
                    tracer.op = len(raw)
                t0 = perf()
                try:
                    res = self.call(op)
                except Exception as exc:  # recorded as a failed op
                    res = exc
                t1 = perf()
                if tracer is not None:
                    tracer.op = None
                if isinstance(res, Exception):
                    why = "uncaught %s: %s" % (type(res).__name__, res)
                else:
                    why = self.check(op, res)
                t2 = perf()
                raw.append((op, t1 - t0, t2 - t0, why, ref))
                busy_total += t2 - t0
                elapsed += (t2 - t0) * REF_NOMINAL_S / clock.refs[ref]
            k += 1
        clock.sample(force=True)
        records, scales, wall = [], [], 0.0
        for op, latency, busy, why, ref in raw:
            scale = clock.scale(ref)
            records.append((op, latency * scale, why))
            scales.append(scale)
            wall += busy * scale
        return Pass(records, scales, wall, busy_total, k,
                    statistics.median(clock.refs))


# the references run after the import: clock.py needs fractions, which
# frobext imports itself, and must not take that import off the clock
SETUP_CHILD = """
import sys, time
sys.path[:0] = [%r, %r]
t0 = time.perf_counter()
import frobext.cli
t1 = time.perf_counter()
from clock import Clock
clock = Clock()
clock.sample(force=True)
clock.sample(force=True)
print(repr((t1 - t0) * clock.scale(0)))
""" % (HERE, SRC)


def measure_setup() -> float:
    """Median over fresh interpreters of the normalized time to import
    frobext.cli, each timed inside the child and scaled by two references
    taken right after it."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD], check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out))
    return statistics.median(times)


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1]


def tally(records: list) -> dict:
    """Failures and known-defect exits, kept apart and kept for printing."""
    from workloads import KNOWN_DEFECT  # imports frobext, as in Loop
    return {
        "attempted": len(records),
        "failures": [r for r in records if r[2] and r[2] != KNOWN_DEFECT],
        "probe_attempted": sum(1 for r in records if r[0].get("probe")),
        "known_defect": [r for r in records if r[2] == KNOWN_DEFECT],
    }


def by_tag(records: list) -> dict:
    groups: dict = {}
    for op, latency, _ in records:
        for tag in op["tags"]:
            groups.setdefault(tag, []).append(latency)
    return dict(sorted(groups.items()))


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit}


def print_outcome(name: str, t: dict, p: Pass):
    failed = len(t["failures"])
    print("%s: %d ops in %.2f s (%.2f s normalized, reference unit %.2f ms);"
          " failed_ratio %d/%d = %.4f"
          % (name, len(p.records), p.raw_wall, p.wall, 1e3 * p.ref_median,
             failed, t["attempted"], failed / t["attempted"]))
    for op, _, why in t["failures"][:10]:
        print("  FAILED %s %s: %s" % (op["tags"][0], op["input"][:3], why))
    if t["probe_attempted"]:
        print("(1, L^r) with a*r >= 20: %d/%d exit 2 with the known defect"
              ' "F is singular mod p^K"'
              % (len(t["known_defect"]), t["probe_attempted"]))


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    p = loop.run(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = [r[1] for r in p.records]
    t = tally(p.records)
    p50, p90_v = statistics.median(lat), p90(lat)
    print_outcome("untraced", t, p)
    print("latency samples %d, %d above p90" % (len(lat),
                                               sum(x > p90_v for x in lat)))
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90_v, "s"),
        "throughput_ops_per_s": (len(lat) / p.wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print("%-24s %.6g %s" % (name, value, unit))
    return metrics, t


def per_layer(loop: Loop, workload: str, seed: int) -> tuple[dict, dict]:
    tracer = Tracer()
    with tracer:
        traced_pass = loop.run(0, tracer=tracer,
                               rounds=TRACE_ROUNDS[workload])
    plain_pass = loop.run(0, rounds=traced_pass.rounds)
    traced, plain = traced_pass.records, plain_pass.records

    metrics = tracer.metrics(traced_pass.scales,
                             [i for i, r in enumerate(traced) if not r[2]])
    for a in (1, 2, 3):
        lat = [r[1] for r in plain if r[0]["a"] == a and not r[0].get("probe")]
        metrics["cli.main.p50_s.a%d" % a] = (
            statistics.median(lat) if lat else 0.0, "s")
    metrics["trace.overhead_s"] = (traced_pass.wall - plain_pass.wall, "s")
    traced_t = tally(traced)
    metrics["ext.twist_probe.attempted"] = (traced_t["probe_attempted"],
                                            "count")
    metrics["ext.twist_probe.failed"] = (len(traced_t["known_defect"]),
                                         "count")
    t = tally(traced + plain)

    print_outcome("traced", traced_t, traced_pass)
    print_outcome("untraced", tally(plain), plain_pass)
    classes = {tag: {"n": len(v), "p50_s": statistics.median(v)}
               for tag, v in by_tag(plain).items()}
    repeated, base = tracer.repeat_share(range(len(traced)))
    env = environment()
    report = {
        "workload": workload, "seed": seed, "environment": env,
        "inputs_sha256": loop.digest(), "ops": len(plain),
        "rounds": plain_pass.rounds, "traced_wall_s": traced_pass.wall,
        "untraced_wall_s": plain_pass.wall,
        "repeat_share": {"repeated": repeated, "base": base,
                         "share": repeated / base if base else 0.0},
        "class_medians": classes,
        "per_layer": {k: v[0] for k, v in metrics.items()},
    }
    print("environment: %s" % json.dumps(env, sort_keys=True))
    print("repeat share: %d/%d ops whose pairs all occurred earlier"
          % (repeated, base))
    print("%-34s %6s %12s" % ("class", "n", "p50_s"))
    for tag, c in classes.items():
        print("%-34s %6d %12.6f" % (tag, c["n"], c["p50_s"]))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (workload, seed))
    with open(stem + "-trace.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    tracer.write_spans(stem + "-spans.jsonl")
    print("wrote %s-trace.json and %s-spans.jsonl" % (stem, stem))
    return metrics, t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("ext-pairs", "local-l", "zeta-varieties"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frobext", "__init__.py")):
        print("error: no frobext sources under %s; run from the root of a"
              " frobext checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    loop = Loop(args.workload, args.seed)
    print("workload %s, seed %d, inputs sha256 %s"
          % (args.workload, args.seed, loop.digest()))
    if args.trace:
        metrics, t = per_layer(loop, args.workload, args.seed)
    else:
        metrics, t = end_to_end(loop, args.seconds)
    result = {
        "correct": not t["failures"],
        "attempted": t["attempted"],
        "failed": len(t["failures"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
