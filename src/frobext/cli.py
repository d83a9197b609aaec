"""Command line front end.

Three subcommands:

  ext           Ext groups and both global identity checks for a pair of
                motives given as JSON (inline or a file path).
  verify-local  The local identity, either on random instances (l-adic
                pairs, or one of the p-adic generator cases) or replayed
                from a serialized failing case.
  zeta          Special value and motivic comparison for a catalogue
                variety described in JSON.

Exit codes: 0 verified, 1 a verification failed, 2 bad input (a JSON field
of the wrong type, named in the message, and an input above a size cap
included: see `motive.MAX_HOM_DIM`, `motive.MAX_TORSION_GENS`,
`MAX_THETA_DIM`, `MAX_CRYSTAL_RANK`, `MAX_CRYSTAL_TORSION`,
`zeta.MAX_DIMENSION`, `zeta.MAX_BETTI`, `zeta.MAX_WEIL_BITS`,
`zeta.MAX_CURVE_PRIME` and `exact.RHO_STEPS`), 3 the hypothesis of the local
theorem is violated, 4 no p-adic precision up to `PRECISION_CEILING`
certifies a crystal pair (or the pair names none), 5 an internal consistency
check failed, 141 stdout was closed before the output was written (128 +
SIGPIPE, with nothing on stderr).  No subcommand takes a working precision:
`verify-local` works out its own, so only it can exit 4; a motive pair is
read at p, as at every other prime, off the gcd split of its charpolys,
exactly.  JSON output is deterministic (sorted keys); a failing random case
is written to a replay file so the exact instance can be re-run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .crystal import (
    LOCAL_CASES,
    Crystal,
    random_local_pair,
    special_module,
)
from .crystal import verify_local_identity as verify_crystal
from .exact import PrecisionError, is_prime
from .galois import GaloisModule, random_admissible_pair
from .galois import verify_local_identity as verify_galois
from .motive import (
    MAX_HOM_DIM,
    MAX_TORSION_GENS,
    check_cap,
    global_ext_orders,
    json_document,
    json_int,
    json_ints,
    json_matrix,
    json_object,
    motive_from_json,
)
from .witt import WittRing
from .zeta import variety_from_spec, verify_variety_identity
from .zgamma import HypothesisError

REPLAY_FILE = "frobext-failing-case.json"
# `verify-local` reads a crystal pair at WittRing's default precision and
# again at each larger precision a PrecisionError names, up to this
PRECISION_CEILING = 320
# a replayed crystal of r generators over W(F_{p^a}) has Z_p-rank a·r, at
# most MAX_CRYSTAL_RANK when free (so θ is at most 144 square) and
# MAX_CRYSTAL_TORSION when finite: a finite target's θ is read mod p^(E+1),
# which against a free crystal of Z_p-rank 12 at exponent 320 (a = 1) took
# 0.27 s at Z_p-rank 4 and 4.6 s at 12
MAX_CRYSTAL_RANK = 12
MAX_CRYSTAL_TORSION = 4
# a replay's residue degree a, a^3 at most this: building W(F_{p^a}) alone
# grows fast in a.  `ext` and `zeta` build no Witt ring and take any a
MAX_THETA_DIM = 1024


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(obj: dict, as_json: bool):
    # an exact answer may have more digits than Python's int -> str limit
    # (4300 by default; none before 3.10.7), which guards the parsing of
    # input; the output is printed in full
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if as_json:
            print(json.dumps(_jsonable(obj), sort_keys=True,
                             separators=(",", ":")))
        else:
            for k in sorted(obj):
                print("%s: %s" % (k, _jsonable(obj[k])))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _read_source(text: str) -> str:
    """Inline JSON or a path to a JSON file; '-' reads stdin."""
    if text == "-":
        return sys.stdin.read()
    t = text.strip()
    if t.startswith(("{", "[")):
        return t
    with open(text) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# serialization of local instances for the replay loop


def _module_obj(m: GaloisModule) -> dict:
    return {"l": m.l, "q": m.q, "free_frob": m.free_frob,
            "torsion": list(m.torsion), "torsion_frob": m.torsion_frob}


def _module_from_obj(o, field: str) -> GaloisModule:
    o = json_object(o, field)
    torsion = json_ints(o.get("torsion") or [], field + ".torsion")
    check_cap(field + ".torsion has a torsion generator count of",
              len(torsion), MAX_TORSION_GENS)
    l, q = json_int(o.get("l"), field + ".l"), json_int(o.get("q"), field + ".q")
    free, tfrob = o.get("free_frob"), o.get("torsion_frob")
    if free is not None:  # --bound's cap: a pair's Hom system is up to rank²
        free = json_matrix(free, field + ".free_frob")
        check_cap("%s.free_frob of rank %d gives a Hom system of dimension"
                  " up to" % (field, len(free)), len(free) ** 2, MAX_HOM_DIM)
    return GaloisModule(l, q, free, tuple(torsion), None if tfrob is None
                        else json_matrix(tfrob, field + ".torsion_frob",
                                         len(torsion)))


def _crystal_obj(c: Crystal) -> dict:
    return {"coords": c.coords, "exponents": c.exponents,
            "special_poly": c.special_poly}


def _crystal_from_obj(o, ring: WittRing, field: str = "crystal") -> Crystal:
    o = json_object(o, field)
    poly, exps = o.get("special_poly"), o.get("exponents")
    if poly is not None and json_ints(poly, field + ".special_poly"):
        check_cap(field + ".special_poly gives a free crystal of Z_p-rank",
                  ring.a ** 2 * (len(poly) - 1), MAX_CRYSTAL_RANK)
        return special_module(ring, poly)
    # an entry is an integer or its coordinates in the x-power basis
    coords = json_matrix(o.get("coords"), field + ".coords", entry=lambda v, f:
                         (json_ints if isinstance(v, list) else json_int)(v, f))
    if exps is not None:
        exps = json_ints(exps, field + ".exponents")
    kind, cap = ("free", MAX_CRYSTAL_RANK) if exps is None \
        else ("finite", MAX_CRYSTAL_TORSION)
    check_cap("%s.coords gives a %s crystal of Z_p-rank" % (field, kind),
              ring.a * len(coords), cap)
    return Crystal(ring, coords, exps)


def _verify_crystals(pair, ring: WittRing) -> dict:
    """verify_crystal on pair(ring), built again at the precision that each
    PrecisionError names, up to PRECISION_CEILING."""
    while True:
        try:
            return verify_crystal(*pair(ring))
        except PrecisionError as exc:
            if exc.required is None or exc.required <= ring.K:
                raise
            if ring.K >= PRECISION_CEILING:
                raise PrecisionError("%s (read up to the ceiling p^%d)"
                                     % (exc, ring.K)) from None
            ring = ring.at_precision(min(exc.required, PRECISION_CEILING))


def _write_replay(case: dict):
    with open(REPLAY_FILE, "w") as fh:
        json.dump(_jsonable(case), fh, sort_keys=True, indent=1)
    print("failing case written to %s; replay with:" % REPLAY_FILE,
          file=sys.stderr)
    print("  frobext verify-local --replay %s" % REPLAY_FILE, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ext(args) -> int:
    x = motive_from_json(_read_source(args.x))
    y = motive_from_json(_read_source(args.y))
    rep = global_ext_orders(x, y)
    out = {
        "q": rep.q, "rho": rep.rho,
        "hom_tors_order": rep.hom_tors_order,
        "ext1_order": rep.ext1_order,
        "ext2_cotors_order": rep.ext2_cotors_order,
        "discriminant": rep.discriminant,
        "nstar": rep.nstar,
        "support": list(rep.support),
        "global_identity": rep.global_identity()["equal"],
        "weil_identity": rep.weil_identity()["equal"],
    }
    try:
        w = rep.weil_ext()
        out["weil"] = {"ext0_rank": w.ext0_rank, "ext0_torsion": w.ext0_torsion,
                       "ext1_rank": w.ext1_rank, "ext1_torsion": w.ext1_torsion,
                       "ext2_order": w.ext2_order, "z_f": w.z_f}
    except HypothesisError as exc:
        out["weil"] = "indeterminate: %s" % exc
    _emit(out, args.json)
    return 0 if out["global_identity"] and out["weil_identity"] else 1


def _cmd_verify_local(args) -> int:
    if args.replay:
        with open(args.replay) as fh:
            case = json_document(fh.read(), "the replay file")
        if "case" in case:
            # older replay files carry a "precision" field; it is not read
            p = json_int(case.get("p"), "p")
            a = json_int(case.get("degree", 1), "degree")
            if a < 1:
                raise ValueError("degree must be at least 1, not %d" % a)
            check_cap("degree %d gives a p-adic system of dimension at least"
                      " a^3 =" % a, a ** 3, MAX_THETA_DIM)
            ring = WittRing(p, a)
            out = _verify_crystals(lambda r: (
                _crystal_from_obj(case.get("m"), r, "m"),
                _crystal_from_obj(case.get("n"), r, "n")), ring)
        else:
            out = verify_galois(_module_from_obj(case.get("m"), "m"),
                                _module_from_obj(case.get("n"), "n"))
        _emit(out, args.json)
        return 0 if out["equal"] else 1

    if args.random < 0:
        raise ValueError("--random %d: the number of instances must not be"
                         " negative" % args.random)
    if not args.random:
        raise ValueError("need --random N or --replay FILE")
    if args.bound < 0:
        raise ValueError("--bound %d: a rank bound must not be negative"
                         % args.bound)
    # random modules of rank up to B have a Hom system of dimension up to B²,
    # capped as `ext` caps a motive pair's
    check_cap("--bound %d gives a Hom system of dimension up to" % args.bound,
              args.bound ** 2, MAX_HOM_DIM)
    prime = args.prime or 3
    if not is_prime(prime):
        raise ValueError("--prime must be a prime number")
    rng = random.Random(args.seed)
    # one loop over the chosen mode's pair generator, verifier and replay case
    if args.case:
        ring = WittRing(prime, 1)
        summary = {"case": args.case, "p": prime}
        draw, verify, replay = (
            lambda: random_local_pair(rng, ring, args.case),
            lambda m, n: _verify_crystals(
                lambda r: (m.with_ring(r), n.with_ring(r)), ring),
            lambda m, n: {"case": args.case, "p": prime, "degree": 1,
                          "m": _crystal_obj(m), "n": _crystal_obj(n)})
    else:
        q = 3 if prime == 2 else 2
        summary = {"l": prime, "q": q}
        draw, verify, replay = (
            lambda: random_admissible_pair(rng, prime, q, max_rank=args.bound),
            verify_galois,
            lambda m, n: {"m": _module_obj(m), "n": _module_obj(n)})
    failures = 0
    for _ in range(args.random):
        m, n = draw()
        if not verify(m, n)["equal"]:
            failures += 1
            _write_replay(replay(m, n))
    summary.update(instances=args.random, failures=failures)
    _emit(summary, args.json)
    return 0 if failures == 0 else 1


def _cmd_zeta(args) -> int:
    spec = json_document(_read_source(args.variety), "variety")
    r = json_int(spec.pop("r", args.r), "r")
    out = verify_variety_identity(variety_from_spec(spec), r)
    _emit(out, args.json)
    return 0 if out["equal"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="frobext",
        description="Ext groups of Frobenius modules and zeta special values")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("ext", help="Ext data for a pair of motives")
    pe.add_argument("x", help="motive JSON (inline, file path, or -)")
    pe.add_argument("y", help="motive JSON (inline, file path, or -)")

    pv = sub.add_parser("verify-local", help="check the local identity")
    pv.add_argument("--random", type=int, default=0, metavar="N",
                    help="number of random instances")
    pv.add_argument("--prime", type=int, default=0,
                    help="l for l-adic runs, p with --case")
    pv.add_argument("--case", choices=LOCAL_CASES, default=None,
                    help="p-adic generator case (default: l-adic pairs)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--bound", type=int, default=3,
                    help="max free rank of random modules")
    pv.add_argument("--replay", metavar="FILE",
                    help="re-run a serialized failing case")

    pz = sub.add_parser("zeta", help="special value of a catalogue variety")
    pz.add_argument("variety", help="variety JSON (inline, file path, or -)")
    pz.add_argument("--r", type=int, default=0,
                    help="twist if the JSON has no r field")

    for p in (pe, pv, pz):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ext":
            code = _cmd_ext(args)
        elif args.command == "verify-local":
            code = _cmd_verify_local(args)
        else:
            code = _cmd_zeta(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed (`frobext ... | head -0`): exit quietly as SIGPIPE
        # would, with stdout on devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except HypothesisError as exc:
        print("hypothesis violated: %s" % exc, file=sys.stderr)
        return 3
    except PrecisionError as exc:
        print("precision not certified: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
