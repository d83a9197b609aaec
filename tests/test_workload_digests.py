"""The benchmark workloads' answers, pinned.

Rounds 0-9 of seed 1 of each workload in `perfbench/workloads.py` run in
process, as the benchmark loop runs them.  Each op's input, result and the
workload's own check verdict are hashed per round and compared with
`tests/data/workload_digests.json`.  The golden tables pin a few hundred
answers; these rounds reach about 2170 ops, among them the residue degree
2 and 3 pairs and the refusals, so a wrong answer that the workloads' own
references miss still fails here.

`workloads.py` is loaded from its file and not changed.  If a change to the
workloads moves their draws, regenerate the table with

    PYTHONPATH=src python3 tests/test_workload_digests.py

and record why in CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys
import types

import pytest

from frobext import cli, crystal, exact, linalg, motive, witt

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "workload_digests.json"
SEED, ROUNDS = 1, 10


def _workloads():
    # executed from its source, so that no bytecode cache is written there
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module.WORKLOADS


def digests(name: str) -> list[str]:
    """One sha256 per round: of each op's (input, result, verdict) in turn."""
    make_round, call, check = _workloads()[name]
    state: dict = {}  # rounds share state, so they are made in order
    out = []
    for k in range(ROUNDS):
        h = hashlib.sha256()
        for op in make_round(SEED, k, state):
            res = call(op)
            row = [op["input"], cli._jsonable(res), check(op, res)]
            h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
        out.append(h.hexdigest())
    return out


@pytest.mark.parametrize("name", ["ext-pairs", "local-l", "zeta-varieties"])
def test_workload_digests(name):
    assert digests(name) == json.loads(TABLE.read_text())[name]


def _calls(monkeypatch, name: str, functions) -> int:
    """The calls that rounds 0-2 of seed 1 of a workload make to any of
    `functions`, counted wherever a frobext module holds one."""
    wanted = {id(fn) for fn in functions}
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("frobext"):
            for key, value in list(vars(module).items()):
                if id(value) in wanted:
                    monkeypatch.setattr(module, key, counted(value))
    make_round, call, _ = _workloads()[name]
    state: dict = {}
    for k in range(3):
        for op in make_round(SEED, k, state):
            call(op)
    return len(calls)


def test_local_l_smith_form_count(monkeypatch):
    # counted work on a fixed input: the integer Smith forms of rounds 0-2
    # of seed 1 of local-l.  A kernel takes two forms; at three a kernel,
    # these rounds took 3007
    assert _calls(monkeypatch, "local-l", [linalg.smith_normal_form]) == 2444


@pytest.mark.parametrize("name", ["ext-pairs", "zeta-varieties"])
def test_motive_pairs_take_no_smith_form(monkeypatch, name):
    # counted work on a fixed input: a motive pair's Hom system is one gcd
    # split and two resultants, so rounds 0-2 of seed 1 of the workloads
    # that assemble pairs take no integer Smith form.  With one Smith form
    # of the Kronecker operator per pair they took 291 (ext-pairs) and 242
    # (zeta-varieties)
    assert _calls(monkeypatch, name, [linalg.smith_normal_form]) == 0


@pytest.mark.parametrize("name", ["ext-pairs", "zeta-varieties"])
def test_motive_pairs_take_no_valuation(monkeypatch, name):
    # counted work on a fixed input: away from the exceptional primes a
    # pair's local identities are one rational equality on its gcd split,
    # and these workloads carry no exceptional torsion, so rounds 0-2 of
    # seed 1 read no Fraction valuation.  Read prime by prime they took
    # 2085 (ext-pairs) and 1986 (zeta-varieties)
    assert _calls(monkeypatch, name, [exact.valuation]) == 0


def test_zeta_factors_nothing_and_builds_no_motive(monkeypatch):
    # counted work on a fixed input: each Kunneth piece (L^r, P) is one
    # rational equality off its gcd split, so rounds 0-2 of seed 1 of
    # zeta-varieties factor nothing and build no `Motive`.  Assembled as
    # motive pairs, with the support factored, they made 726 calls to
    # `prime_factors` (three for each of 242 pairs) and built 290 motives
    built = []
    init = motive.Motive.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(motive.Motive, "__init__", counted)
    factored = _calls(monkeypatch, "zeta-varieties", [exact.prime_factors])
    assert (factored, len(built)) == (0, 0)


@pytest.mark.parametrize("name", ["ext-pairs", "zeta-varieties"])
def test_motive_pairs_build_no_crystal(monkeypatch, name):
    # counted work on a fixed input: p is read off a pair's gcd split as
    # every other prime is, so rounds 0-2 of seed 1 of the workloads that
    # assemble pairs build no Witt ring and call no function of `crystal`.
    # Read on the special modules of the charpolys over W(F_p), every pair
    # of positive ranks called `special_module` and `local_lhs`
    rings = []
    init = witt.WittRing.__init__

    def counted(self, *args, **kwargs):
        rings.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(witt.WittRing, "__init__", counted)
    own = [fn for fn in vars(crystal).values()
           if isinstance(fn, types.FunctionType)
           and fn.__module__ == crystal.__name__]
    assert _calls(monkeypatch, name, own) == 0
    assert rings == []


if __name__ == "__main__":
    table = {name: digests(name) for name in sorted(_workloads())}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
