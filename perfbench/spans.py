"""Outside-in tracing of frobext's public functions.

The tracer wraps the functions listed in TRACED from outside the program:
it rebinds each function object wherever a ``frobext.*`` module namespace
holds it (so aliases such as ``motive._verify_galois_pair`` or
``cli.verify_crystal`` are caught too) and patches methods on their class.
``uninstall`` puts every original back.

A span is recorded only while an operation is current (``Tracer.op`` set by
the benchmark loop), so input generation between operations is not traced.
For a function that re-enters itself (``exact.resultant`` recurses) only the
outermost call is counted and timed.  Spans are kept in memory and written
out once, at the end of the run.  A span holds plain perf_counter times; the
busy and self times of ``Tracer.metrics`` scale each span by the clock scale
of its operation (see clock.py), as the end-to-end times are scaled.
"""

from __future__ import annotations

import json
import sys
import time

MODULES = ("cli", "motive", "zeta", "crystal", "witt", "galois", "zgamma",
           "linalg", "exact")

TRACED = (
    "exact.ratio_charpoly", "exact.composed_product", "exact.resultant",
    "linalg.smith_normal_form", "linalg.kernel_basis", "linalg.bareiss_det",
    "zgamma.GroupHom.kernel", "zgamma.GroupHom.cokernel",
    "galois.verify_local_identity", "galois.hom_module", "galois.f_map_and_z",
    "witt.padic_smith", "witt.padic_det_valuation", "witt.WittRing.sigma",
    "witt.WittRing.mul_matrix",
    "crystal.verify_local_identity", "crystal.ext_presentation",
    "crystal.crystal_charpoly", "crystal.ext_koszul_k",
    "motive.global_ext_orders", "motive.verify_global_identity",
    "motive.verify_weil_identity", "motive.weil_ext", "motive.hom_motives",
    "zeta.verify_variety_identity", "zeta.zeta_special_value",
    "zeta.elliptic_point_count", "zeta.point_count",
    "cli.main",
)

# the four reports `frobext ext` builds from one motive pair
MOTIVE_REPORTS = ("motive.global_ext_orders", "motive.verify_global_identity",
                  "motive.verify_weil_identity", "motive.weil_ext")


def _bits(x) -> int:
    """Bit length of an integer, or of the larger part of a fraction."""
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _matrix_bits(m) -> int:
    return max((_bits(x) for row in m for x in row), default=0)


def _motive_key(x) -> tuple:
    return (x.q, tuple(x.charpoly), x.twist,
            tuple(sorted((l, g.torsion) for l, g in x.exceptional.items())))


def _galois_key(m) -> tuple:
    return (m.l, m.q, tuple(map(tuple, m.free_frob)), m.torsion,
            tuple(map(tuple, m.torsion_frob)))


class Tracer:
    """Spans, call counts and busy time for the TRACED functions."""

    def __init__(self):
        self.names = list(TRACED)
        self.module_of = [name.split(".")[0] for name in self.names]
        self.active = [False] * len(self.names)
        # (function index, start, end, parent, op, self time)
        self.spans: list = []
        self.stack: list = []   # [span index, time covered by children]
        self.op = None
        self.origin = time.perf_counter()
        self._restore: list = []
        # observations that the wrappers record alongside the spans
        self.ratio_max_degree = 0
        self.ratio_max_bits = 0
        self.ratio_pairs: dict = {}      # op -> set of argument pairs
        self.snf_max_dim = 0
        self.snf_max_bits = 0
        self.padic_max_dim = 0
        self.pair_keys: dict = {}        # op -> {"motive"|"galois": pairs}
        self.reports: dict = {}          # op -> calls to MOTIVE_REPORTS
        self._observe = {
            "exact.ratio_charpoly": self._on_ratio,
            "linalg.smith_normal_form": self._on_snf,
            "witt.padic_smith": self._on_padic,
            "galois.verify_local_identity": self._on_galois_pair,
        }
        for name in MOTIVE_REPORTS:
            self._observe[name] = self._on_motive_pair

    # -- installation

    def install(self) -> "Tracer":
        mods = {name: sys.modules["frobext." + name] for name in MODULES}
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "frobext" or key.startswith("frobext.")]
        for fid, name in enumerate(self.names):
            mod, _, attr = name.partition(".")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, orig, self._wrap(fid, orig))
                continue
            orig = getattr(mods[mod], attr)
            wrapper = self._wrap(fid, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._rebind(ns, key, orig, wrapper)
        return self

    def _rebind(self, owner, key, orig, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fid: int, fn):
        tracer = self
        observe = self._observe.get(self.names[fid])
        perf = time.perf_counter

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None or tracer.active[fid]:
                return fn(*args, **kwargs)
            stack, spans = tracer.stack, tracer.spans
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.active[fid] = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.active[fid] = False
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[idx] = (fid, t0 - tracer.origin, t1 - tracer.origin,
                              parent, op, t1 - t0 - frame[1])
            if observe is not None:
                observe(op, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- observers

    def _on_ratio(self, op, args, result):
        self.ratio_max_degree = max(self.ratio_max_degree, len(result) - 1)
        self.ratio_max_bits = max(self.ratio_max_bits,
                                  max((_bits(c) for c in result), default=0))
        key = (tuple(args[0]), tuple(args[1]))
        self.ratio_pairs.setdefault(op, set()).add(key)

    def _on_snf(self, op, args, result):
        mat = args[0]
        self.snf_max_dim = max(self.snf_max_dim, len(mat),
                               len(mat[0]) if mat else 0)
        self.snf_max_bits = max(self.snf_max_bits, _matrix_bits(result.left),
                                _matrix_bits(result.right))

    def _on_padic(self, op, args, result):
        mat = args[0]
        self.padic_max_dim = max(self.padic_max_dim, len(mat),
                                 len(mat[0]) if mat else 0)

    def _on_motive_pair(self, op, args, result):
        self.reports[op] = self.reports.get(op, 0) + 1
        self._pairs(op, "motive").add((_motive_key(args[0]),
                                       _motive_key(args[1])))

    def _on_galois_pair(self, op, args, result):
        self._pairs(op, "galois").add((_galois_key(args[0]),
                                       _galois_key(args[1])))

    def _pairs(self, op, kind: str) -> set:
        return self.pair_keys.setdefault(op, {}).setdefault(kind, set())

    def _op_pairs(self, op) -> set:
        """The motive pairs of an op, or its l-adic module pairs if it
        reached no motive report."""
        kinds = self.pair_keys.get(op, {})
        return kinds.get("motive") or kinds.get("galois") or set()

    # -- results

    def repeat_share(self, ops: list) -> tuple[int, int]:
        """(ops whose pairs all occurred in earlier ops, ops with any pair)."""
        seen: set = set()
        repeated = based = 0
        for op in ops:
            keys = self._op_pairs(op)
            if not keys:
                continue
            based += 1
            repeated += keys <= seen
            seen |= keys
        return repeated, based

    def metrics(self, scales: list, ok_ops: list) -> dict:
        """The per-layer metrics, named as in BENCHMARK.json (without the
        ones the benchmark loop adds).  `scales[op]` turns the plain seconds
        of op `op` into normalized seconds; `ok_ops` are the ops that passed
        their check, and motive.reports_per_op is averaged over those of
        them that made a motive report."""
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        self_s = dict.fromkeys(MODULES, 0.0)
        for fid, t0, t1, _, op, own in self.spans:
            calls[fid] += 1
            busy[fid] += (t1 - t0) * scales[op]
            self_s[self.module_of[fid]] += own * scales[op]
        out = {}
        for fid, name in enumerate(self.names):
            out[name + ".calls"] = (calls[fid], "count")
            out[name + ".busy_s"] = (busy[fid], "s")
        for mod in MODULES:
            out[mod + ".self_s"] = (self_s[mod], "s")

        def count(name):
            return calls[self.names.index(name)]

        ratio_calls = count("exact.ratio_charpoly")
        distinct = sum(len(v) for v in self.ratio_pairs.values())
        out["exact.ratio_charpoly.max_degree"] = (self.ratio_max_degree,
                                                  "count")
        out["exact.ratio_charpoly.max_coeff_bits"] = (self.ratio_max_bits,
                                                      "bits")
        out["exact.ratio_charpoly.distinct_share"] = (
            distinct / ratio_calls if ratio_calls else 0.0, "ratio")
        out["linalg.smith_normal_form.max_dim"] = (self.snf_max_dim, "count")
        out["linalg.smith_normal_form.max_transform_bits"] = (
            self.snf_max_bits, "bits")
        out["witt.padic_smith.max_dim"] = (self.padic_max_dim, "count")
        pres = count("crystal.ext_presentation")
        out["witt.padic_smith.per_presentation"] = (
            count("witt.padic_smith") / pres if pres else 0.0, "ratio")
        reports = [self.reports[op] for op in ok_ops if op in self.reports]
        out["motive.reports_per_op"] = (
            sum(reports) / len(reports) if reports else 0.0, "ratio")
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is None:
                    continue
                fid, t0, t1, parent, op, _ = span
                fh.write(json.dumps([self.names[fid], round(t0, 7),
                                     round(t1, 7), parent, op]) + "\n")
