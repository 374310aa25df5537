"""Command-line surface: census runs, placement counts, predefined
verification suites, and quasipolynomial fitting.

JSON goes to stdout, human-readable progress to stderr.  Exit codes:
0 pass, 1 mismatch/failed check, 2 usage or parse error, 3 engine error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .boards import lattice_points, parse_board
from .census import (
    cache_key,
    cache_load,
    cache_store,
    census_fields,
    census_from_dict,
    census_to_dict,
    count_nonattacking,  # unused here; bench/run.py traces cli.count_nonattacking
    count_sweep,
    fours_witness,
    geometric_census,
    grid_census,
    random_census,
    report_text,
    stabilized_census,
    witness_checks,
)
from .finitefield import (
    MAX_PRIME,
    EngineError,
    ff_type_count,
    torus_count,
    valid_prime,
    valid_primes_from,  # unused here; bench/run.py traces cli.valid_primes_from
    valid_torus_count,
)
from .formulas import (
    eval_quasipoly,
    find_period,
    fit_quasipoly,
    golden_types,
    parse_bfile,
    t3_closed_form,
    types_at_minus_one,
    types_from_counts,  # unused here; bench/run.py traces cli.types_from_counts
)
from .geometry import GeometryError, MoveSet, parse_moves
from .signature import LabelledType

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_text(path: str) -> str | None:
    """The file's text, or None after logging why it cannot be read."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _log(f"cannot read {path}: {exc}")
        return None


def _emit(report: dict, output: str | None,
          types: Sequence[LabelledType] | None = None) -> None:
    """Write the report as `json.dumps(report, sort_keys=True, indent=2)`;
    a census report's types go in at its "types" key (`report_text`)."""
    text = (json.dumps(report, sort_keys=True, indent=2) if types is None
            else report_text(report, types))
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


# Named pieces used by the verify suites and handy on the command line.
PIECES = {
    "rook": "1,0;0,1",
    "bishop": "1,1;1,-1",
    "queen": "1,0;0,1;1,1;1,-1",
    "semiqueen": "1,0;0,1;1,1",
    "trident": "0,1;1,1;1,-1",
    "nightrider": "1,2;2,1;1,-2;2,-1",
}

# Move-set families for cross-checking r-dependent claims: prefixes of each
# list give pencils of any size up to 6, all slopes pairwise distinct.
_FAMILIES = [
    ["1,0", "0,1", "1,1", "1,-1", "1,2", "2,1"],
    ["1,2", "2,1", "1,-2", "2,-1", "1,4", "4,1"],
    ["3,1", "5,-2", "2,7", "7,-3", "1,9", "9,4"],
    ["1,0", "1,3", "3,1", "1,-3", "3,-1", "0,1"],
    ["2,3", "3,-2", "1,5", "5,1", "1,-5", "5,-1"],
]


def family_movesets(r: int, count: int = 5) -> list[MoveSet]:
    return [parse_moves(";".join(fam[:r])) for fam in _FAMILIES[:count]]


def _resolve_moves(text: str) -> MoveSet:
    return parse_moves(PIECES.get(text, text))


def _cached_counts(ms: MoveSet, q: int, value: object) -> dict[int, int]:
    """The counts of a "prime-counts" value, a JSON object, by prime.  Every
    key must be the decimal of a valid prime for `ms` up to MAX_PRIME,
    written as `str` writes it, and every count a JSON integer that meets
    the torus invariant."""
    counts = {}
    for text, count in value.items():
        p = int(text)
        if str(p) != text or p > MAX_PRIME or not valid_prime(ms, p):
            raise ValueError(f"{text!r} is not a valid prime for {ms}")
        if type(count) is not int or not valid_torus_count(q, p, count):
            raise ValueError(f"count {count!r} breaks the torus invariant at p = {p}")
        counts[p] = count
    return counts


# Per-prime counts go to a process pool from this q on, and are counted in
# this process below it.  Measured on a 2-vCPU host, fresh cache: starting
# a pool costs 8-16 ms, so at q = 4 (7 primes) `run_ff` takes 12-17 ms on
# two workers against 1.2-1.8 ms serially (medians of 11 and 41 runs,
# semiqueen, one cache write).  At q = 5 (9 primes, 11..41) the three
# 3-move riders and queens take 0.28-0.38 s on two workers against
# 0.37-0.62 s serially (medians of 3 to 5 runs).
POOL_MIN_Q = 5


def _usable_cpus() -> int:
    """The CPUs this process may run on, so that `taskset` caps the pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _torus_counts(ms: MoveSet, q: int, primes: list[int],
                  cache_dir: str | None) -> dict[int, int]:
    """Each prime's torus count, from the cache or counted; from q =
    POOL_MIN_Q on, missing primes are spread over one worker per prime and
    per usable CPU.

    The cache holds one entry per move set and q, from each prime counted
    so far to its count, and every window that counts a new prime rewrites
    it with the union.  Two processes that rewrite it at once can drop
    each other's new counts, never serve a wrong one."""
    query = {"moves": str(ms), "q": q}
    held = cache_load(cache_dir, cache_key("prime-counts", query),
                      functools.partial(_cached_counts, ms, q)) or {}
    missing = [p for p in primes if p not in held]
    if cache_dir is not None:
        _log(f"prime counts: {len(primes) - len(missing)} of {len(primes)} from the cache")
    counts = {p: held[p] for p in primes if p in held}
    workers = min(len(missing), _usable_cpus()) if q >= POOL_MIN_Q else 1
    if workers > 1:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # largest first: a count's time grows with p, and a large
                # prime left for last would keep one worker busy alone
                todo = sorted(missing, reverse=True)
                results = pool.map(functools.partial(torus_count, ms, q), todo)
                counts.update(zip(todo, results))
        except BrokenExecutor as exc:
            raise EngineError(f"a per-prime count worker died: {exc}") from exc
    else:
        for p in missing:
            counts[p] = torus_count(ms, q, p)
    if missing:
        union = {**held, **counts}
        cache_store(cache_dir, "prime-counts", query, {str(p): c for p, c in union.items()})
    return counts


def run_ff(ms: MoveSet, q: int, prime_floor: int, _threads: object = None,
           cache_dir: str | None = None) -> dict:
    """The ff report.  `_threads` is ignored: bench/run.py passes a worker
    count positionally, and `_torus_counts` picks the pool size itself."""
    count = functools.partial(_torus_counts, ms, q, cache_dir=cache_dir)
    result = ff_type_count(ms, q, prime_floor=prime_floor, count=count)
    return {
        "engine": "ff",
        "moves": str(ms),
        "q": q,
        "r": ms.r,
        "exact": True,
        "labelled": result.labelled,
        "unlabelled": result.unlabelled,
        "charpoly": list(result.poly.coefficients),
        "primes": list(result.counts),
        "prime_counts": {str(p): c for p, c in result.counts.items()},
    }


def cmd_types(args) -> int:
    ms = _resolve_moves(args.moves)
    board = parse_board(args.board)
    cache_dir = args.cache_dir

    if args.engine == "ff":
        report = run_ff(ms, args.q, args.prime_floor, cache_dir=cache_dir)
        types = None
    else:
        # each engine's census, and the options it reads: its cache query
        if args.engine == "geometric":
            read = {"refinement": args.refinement}
            run = lambda: geometric_census(ms, args.q, args.refinement)
        elif args.engine == "random":
            read = {"samples": args.samples, "seed": args.seed}
            run = lambda: random_census(ms, args.q, args.samples, args.seed)
        elif args.n is not None:
            read = {"board": args.board, "n": args.n}
            run = lambda: grid_census(ms, board, args.n, args.q)
        else:
            read = {"board": args.board, "n_start": args.n_start,
                    "n_max": args.n_max, "window": args.window}
            run = lambda: stabilized_census(ms, board, args.q, args.n_start,
                                            args.n_max, args.window)[0]
        query = {"moves": str(ms), "q": args.q, "engine": args.engine, **read}
        cached = cache_load(cache_dir, cache_key("census", query),
                            functools.partial(census_from_dict, query))
        if cached is not None:
            _log(f"cache hit for {args.engine} census")
        census = run() if cached is None else cached
        if cached is None:
            cache_store(cache_dir, "census", query, census_to_dict(census))
        report, types = census_fields(census)

    golden = golden_types(ms, args.q)
    report["golden"] = None if golden is None else {
        "value": golden[0], "annotation": golden[1],
        "verdict": "match" if report["unlabelled"] == golden[0] else "mismatch"}
    _log(f"golden table for {ms} at q={args.q}: " + ("no entry" if golden is None else
         f"{golden[0]} [{golden[1]}], {report['golden']['verdict']}"))
    _log(f"{args.engine} census: {report['unlabelled']} unlabelled "
         f"({report['labelled']} labelled), exact={report['exact']}")
    _emit(report, args.output, types)
    if args.check and golden is not None and report["golden"]["verdict"] != "match":
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_count(args) -> int:
    ms = _resolve_moves(args.moves)
    board = parse_board(args.board)
    if args.n is not None:
        orders = [args.n]
    else:
        lo, hi = args.n_range
        orders = range(lo, hi + 1)
    lattice_points(board, orders[-1])  # a board past MAX_CELLS exits 2 before any count
    bfile_text = _read_text(args.bfile) if args.bfile else None
    if args.bfile and bfile_text is None:
        return EXIT_USAGE
    rows = []
    for n, labelled in count_sweep(ms, board, args.q, orders):
        unlabelled = labelled // math.factorial(args.q)
        rows.append({"n": n, "labelled": labelled, "unlabelled": unlabelled})
        _log(f"n={n}: {labelled} labelled / {unlabelled} unlabelled")
    report = {
        "command": "count", "moves": str(ms), "board": args.board,
        "q": args.q, "rows": rows,
    }
    exit_code = EXIT_OK
    if args.bfile:
        data = parse_bfile(bfile_text)
        reference = dict(data)
        comparisons = []
        for row in rows:
            if row["n"] in reference:
                ours = row["unlabelled"] if args.bfile_kind == "unlabelled" else row["labelled"]
                ok = ours == reference[row["n"]]
                comparisons.append({"n": row["n"], "ours": ours,
                                    "bfile": reference[row["n"]],
                                    "match": ok})
                if not ok:
                    exit_code = EXIT_MISMATCH
        report["bfile"] = {"path": args.bfile, "kind": args.bfile_kind,
                           "comparisons": comparisons}
        matched = sum(1 for c in comparisons if c["match"])
        _log(f"b-file: {matched}/{len(comparisons)} indices match")
    _emit(report, args.output)
    return exit_code


def _subcheck(name: str, ok: bool, detail: str) -> dict:
    _log(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
    return {"name": name, "pass": ok, "detail": detail}


def verify_table1(cache_dir: str | None) -> list[dict]:
    checks = []
    for r in range(1, 7):
        for ms in family_movesets(r, 3):
            c = geometric_census(ms, 1)
            checks.append(_subcheck(
                f"t({ms})(q=1)=1", c.size == 1, f"geometric gives {c.size}"))
            c2 = geometric_census(ms, 2)
            ff = run_ff(ms, 2, 11, cache_dir=cache_dir)
            ok = c2.size == r and ff["unlabelled"] == r
            checks.append(_subcheck(
                f"t({ms})(q=2)={r}", ok,
                f"geometric {c2.size}, ff {ff['unlabelled']}"))
    return checks


def verify_thm_q3(cache_dir: str | None) -> list[dict]:
    checks = []
    for r in range(1, 6):
        expected = t3_closed_form(r)
        for ms in family_movesets(r, 5):
            geo = geometric_census(ms, 3)
            ff = run_ff(ms, 3, 11, cache_dir=cache_dir)
            ok = geo.size == expected and ff["unlabelled"] == expected
            checks.append(_subcheck(
                f"t({ms})(q=3)={expected}", ok,
                f"geometric {geo.size}, ff {ff['unlabelled']}, closed {expected}"))
    return checks


def verify_thm_3move(cache_dir: str | None) -> list[dict]:
    checks = []
    movesets = [parse_moves(PIECES["semiqueen"]), parse_moves(PIECES["trident"]),
                parse_moves("1,0;1,2;1,-2")]
    values = []
    for ms in movesets:
        ff = run_ff(ms, 4, 11, cache_dir=cache_dir)
        values.append(ff["unlabelled"])
        checks.append(_subcheck(
            f"t({ms})(q=4)=151", ff["unlabelled"] == 151,
            f"ff gives {ff['unlabelled']}"))
    checks.append(_subcheck(
        "3-move q=4 counts agree", len(set(values)) == 1, f"counts {values}"))
    return checks


def verify_fours() -> list[dict]:
    checks = []
    for name in ("queen", "semiqueen", "trident", "1,0;1,2;1,-2"):
        ms = _resolve_moves(name)
        w = fours_witness(ms)
        failed = [check for check, ok in witness_checks(ms, w).items() if not ok]
        detail = f"P2={w.p2} P3a={w.p3_a} P3b={w.p3_b}"
        if ms.r == 3:
            detail = f"refutes 'no four-piece witness for 3-move riders': {detail}"
        if failed:
            detail += f"; failed: {', '.join(failed)}"
        checks.append(_subcheck(f"{name} witness genuine", not failed, detail))
    return checks


def cmd_verify(args) -> int:
    if args.name == "table1":
        checks = verify_table1(args.cache_dir)
    elif args.name == "thm-q3":
        checks = verify_thm_q3(args.cache_dir)
    elif args.name == "thm-3move":
        checks = verify_thm_3move(args.cache_dir)
    else:
        checks = verify_fours()
    passed = sum(1 for c in checks if c["pass"])
    report = {"command": "verify", "name": args.name, "checks": checks,
              "passed": passed, "total": len(checks)}
    _log(f"{passed}/{len(checks)} checks passed")
    _emit(report, args.output)
    return EXIT_OK if passed == len(checks) else EXIT_MISMATCH


def cmd_fit(args) -> int:
    text = _read_text(args.data)
    if text is None:
        return EXIT_USAGE
    data = parse_bfile(text)
    degree = 2 * args.q  # of every q-piece counting quasipolynomial
    period = args.period
    if period is None:
        period = find_period(data, degree)
        _log(f"period search selected period {period}")
    qp = fit_quasipoly(data, period, degree)
    at_minus_one = eval_quasipoly(qp, -1)
    report = {
        "command": "fit", "data": args.data, "period": period,
        "degree": qp.degree,
        "constituents": [[str(c) for c in poly] for poly in qp.constituents],
        "value_at_-1": str(at_minus_one),
    }
    try:
        labelled, unlabelled = types_at_minus_one(at_minus_one, args.q, args.kind)
    except GeometryError as exc:
        if args.kind == "labelled":
            raise
        _log(str(exc))  # unlabelled counts below 1 or off the integers are a mismatch
        return EXIT_MISMATCH
    report["labelled"] = labelled
    report["unlabelled"] = unlabelled
    _log(f"types at n=-1: {labelled} labelled / {unlabelled} unlabelled")
    _emit(report, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridertypes",
        description="Census of combinatorial types of nonattacking chess riders",
    )
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory "
                             "(default: $RIDERTYPES_CACHE)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_types = sub.add_parser("types", help="run a census engine")
    p_types.add_argument("--moves", required=True,
                         help="move set `c,d;...` or a named piece")
    p_types.add_argument("--q", type=_positive_int, required=True)
    p_types.add_argument("--engine", choices=("grid", "geometric", "random", "ff"),
                         default="ff")
    p_types.add_argument("--board", default="square")
    p_types.add_argument("--n", type=int, default=None,
                         help="fixed board order for the grid engine")
    p_types.add_argument("--n-start", type=int, default=1)
    p_types.add_argument("--n-max", type=int, default=16)
    p_types.add_argument("--window", type=int, default=2)
    p_types.add_argument("--samples", type=int, default=5000)
    p_types.add_argument("--seed", type=int, default=0)
    p_types.add_argument("--refinement", type=int, default=1)
    p_types.add_argument("--prime-floor", type=int, default=11)
    p_types.add_argument("--check", action="store_true",
                         help="exit 1 when the golden table disagrees")
    p_types.set_defaults(func=cmd_types)

    p_count = sub.add_parser("count", help="count nonattacking placements")
    p_count.add_argument("--moves", required=True)
    p_count.add_argument("--q", type=_positive_int, default=1)
    p_count.add_argument("--board", default="square")
    p_count.add_argument("--n", type=int, default=None)
    p_count.add_argument("--n-range", type=_parse_range, default=None,
                         metavar="LO:HI")
    p_count.add_argument("--bfile", default=None,
                         help="compare against a local OEIS b-file")
    p_count.add_argument("--bfile-kind", choices=("labelled", "unlabelled"),
                         default="unlabelled")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run a predefined cross-check suite")
    p_verify.add_argument("name", choices=("table1", "thm-q3", "thm-3move", "fours"))
    p_verify.set_defaults(func=cmd_verify)

    p_fit = sub.add_parser("fit", help="fit a counting quasipolynomial")
    p_fit.add_argument("--data", required=True, help="b-file of (n, count) rows")
    p_fit.add_argument("--q", type=_positive_int, required=True)
    p_fit.add_argument("--period", type=int, default=None,
                       help="constituent period (searched over small values if omitted)")
    p_fit.add_argument("--kind", choices=("labelled", "unlabelled"),
                       default="unlabelled")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a value >= 1, got {value}")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, want LO:HI") from exc
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return (lo_i, hi_i)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first `main` call, not at import, and kept: parsing
    # leaves the parser as it was
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # the environment is read per call, as it may change; an empty value is unset
    args.cache_dir = args.cache_dir or os.environ.get("RIDERTYPES_CACHE") or None
    if args.command == "count" and args.n is None and args.n_range is None:
        _log("count needs --n or --n-range")
        return EXIT_USAGE
    try:
        return args.func(args)
    except (GeometryError, OSError) as exc:  # OSError: an unwritable -o or cache path
        _log(f"error: {exc}")
        return EXIT_USAGE
    except EngineError as exc:
        _log(f"engine error: {exc}")
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
