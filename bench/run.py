"""Census benchmark: times each engine's answer end to end, checks every
answer, and (with --trace 1) times the package's layers from outside.

Run from the root of a source checkout:

    python3 bench/run.py --workload ff_q4 --seed 1 --seconds 60 --trace 0

`--workload all` runs every workload one after another in one process
and ends with one result object whose metrics are keyed `<workload>.<metric>`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name every metric
with its unit.  A run with a wrong answer reports no metrics and exits 1.
See bench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ff_q4", "cli_mix")
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import ridertypes.cli as c; c.build_parser()"
)


def _import_package() -> None:
    """Import ridertypes from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import ridertypes

    where = Path(ridertypes.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"ridertypes imported from {where}, not from {SRC}")


class Gate:
    """Counts operations and wrong answers; every timed call goes through it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def timed(self, label: str, fn, ok) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            dt = time.perf_counter() - t0
            self.failed += 1
            print(f"FAIL {label}: raised", file=sys.stderr)
            traceback.print_exc()
            return dt
        dt = time.perf_counter() - t0
        if not ok(result):
            self.failed += 1
            print(f"FAIL {label}: wrong answer {result!r:.300}", file=sys.stderr)
        return dt


# -- workloads -----------------------------------------------------------------
# Each workload builds its inputs from the seed and returns a pass function;
# one call of it is one pass and returns its samples by name.

def ff_q4(rng: random.Random, gate: Gate, tmp: Path):
    import inputs
    from ridertypes import cli, finitefield
    from ridertypes.geometry import parse_moves

    moves = inputs.rider_q4(rng.choice(inputs.BASE_3MOVE), rng)
    ms = parse_moves(moves)
    print(f"rider {moves}")

    def one_pass():
        serial = gate.timed(
            f"ff serial {moves}",
            lambda: finitefield.ff_type_count(ms, 4),
            lambda res: res.unlabelled == 151)
        cache = tempfile.mkdtemp(dir=tmp)
        two = gate.timed(
            f"ff 2 workers {moves}",
            lambda: cli.run_ff(ms, 4, 11, 2, cache),
            lambda rep: rep["unlabelled"] == 151)
        shutil.rmtree(cache)
        return {"census_s": serial, "census_2w_s": two}

    return one_pass


def cli_mix(rng: random.Random, gate: Gate, tmp: Path):
    import inputs
    from ridertypes import cli
    from ridertypes.formulas import t3_closed_form

    queries = inputs.cli_queries(rng)
    again = list(queries)
    rng.shuffle(again)
    at = rng.randrange(len(queries) + 1)  # where count and fit join the first phase
    queen = inputs.d4_image(cli.PIECES["queen"], rng)
    expected = t3_closed_form(4)
    print(f"{len(queries)} distinct types queries; count and fit of queen image {queen}")

    def query(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def types_op(argv, cache):
        def ok(res):
            code, text = res
            return code == 0 and json.loads(text)["golden"]["verdict"] == "match"
        return " ".join(argv), lambda: query(["--cache-dir", cache] + argv), ok

    def count_fit_ops(bfile: Path):
        def count():
            # `--moves=` form: a move set may start with "-", which argparse
            # would take for an option
            code, text = query(["count", f"--moves={queen}", "--q", "3", "--n-range", "1:24"])
            rows = json.loads(text)["rows"] if code == 0 else []
            bfile.write_text("".join(f"{r['n']} {r['labelled']}\n" for r in rows))
            return code, len(rows)

        def fit_ok(res):
            code, text = res
            report = json.loads(text) if code == 0 else {}
            return report.get("unlabelled") == expected and report.get("labelled") == expected * 6

        return [
            (f"count {queen} q=3 n=1..24", count, lambda res: res == (0, 24)),
            (f"fit {bfile.name}",
             lambda: query(["fit", "--data", str(bfile), "--q", "3", "--kind", "labelled"]),
             fit_ok),
        ]

    def one_pass():
        cache = Path(tempfile.mkdtemp(dir=tmp))
        first = [types_op(q, str(cache)) for q in queries]
        first[at:at] = count_fit_ops(cache / "queen-q3.txt")
        samples = {
            "miss": [gate.timed(*op) for op in first],
            "hit": [gate.timed(*types_op(q, str(cache))) for q in again],
        }
        shutil.rmtree(cache)
        return samples

    return one_pass


# -- tracing -------------------------------------------------------------------

# (metric, unit, better); the layer is the name's first component.
PER_LAYER = [
    ("finitefield.torus_count.calls", "count", "lower"),
    ("finitefield.torus_count.busy_s", "s", "lower"),
    ("finitefield.torus_count.max_s", "s", "lower"),
    ("finitefield.last_level_count.calls", "count", "lower"),
    ("finitefield.last_level_count.busy_s", "s", "lower"),
    ("finitefield.char_poly.busy_s", "s", "lower"),
    ("finitefield.retries", "count", "lower"),
    ("finitefield.self_s", "s", "lower"),
    ("signature.labelled_type.calls", "count", "lower"),
    ("signature.labelled_type.busy_s", "s", "lower"),
    ("signature.canonical_unlabelled.calls", "count", "lower"),
    ("signature.canonical_unlabelled.busy_s", "s", "lower"),
    ("signature.new_type_ratio", "ratio", "higher"),
    ("signature.self_s", "s", "lower"),
    ("geometry.region_sample_points.calls", "count", "lower"),
    ("geometry.region_sample_points.busy_s", "s", "lower"),
    ("geometry.regions_found", "count", "lower"),
    ("geometry.configuration_arrangement.busy_s", "s", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("census.grid_census.calls", "count", "lower"),
    ("census.grid_census.busy_s", "s", "lower"),
    ("census.count_nonattacking.calls", "count", "lower"),
    ("census.count_nonattacking.busy_s", "s", "lower"),
    ("census.orders_tried", "count", "lower"),
    ("census.placements", "count", "lower"),
    ("census.cache_load.calls", "count", "lower"),
    ("census.cache_load.busy_s", "s", "lower"),
    ("census.cache_hit_ratio", "ratio", "higher"),
    ("census.cache_store.calls", "count", "lower"),
    ("census.cache_store.busy_s", "s", "lower"),
    ("census.census_from_dict.busy_s", "s", "lower"),
    ("census.self_s", "s", "lower"),
    ("boards.lattice_points.busy_s", "s", "lower"),
    ("boards.self_s", "s", "lower"),
    ("formulas.find_period.busy_s", "s", "lower"),
    ("formulas.types_from_counts.busy_s", "s", "lower"),
    ("formulas.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def install_tracing(rec) -> None:
    """Wrap each layer boundary where its caller looks the function up."""
    from ridertypes import census, cli, finitefield

    orders = lambda res, args: rec.count("census.orders_tried", len(res[1].sizes))
    placed = lambda res, args: rec.count("census.placements", res.metadata["placements"])
    sets = lambda res, args: rec.count("census.placements", res // math.factorial(args[3]))
    hits = lambda res, args: rec.count("census.cache_hits", res is not None)
    regions = lambda res, args: rec.count("geometry.regions_found", len(res))
    targets = [
        (cli, "main", "cli.main", {}),
        (cli, "run_ff", "cli.run_ff", {}),
        (cli, "torus_count", "finitefield.torus_count", {}),
        (cli, "valid_primes_from", "finitefield.valid_primes_from", {}),
        (cli, "ff_type_count", "finitefield.ff_type_count", {}),
        (cli, "cache_key", "census.cache_key", {}),
        (cli, "cache_load", "census.cache_load", {"observe": hits}),
        (cli, "cache_store", "census.cache_store", {}),
        (cli, "census_from_dict", "census.census_from_dict", {}),
        (cli, "census_to_dict", "census.census_to_dict", {}),
        (cli, "geometric_census", "census.geometric_census", {"observe": placed}),
        (cli, "grid_census", "census.grid_census", {}),
        (cli, "stabilized_census", "census.stabilized_census", {"observe": orders}),
        (cli, "count_nonattacking", "census.count_nonattacking", {"observe": sets}),
        (cli, "find_period", "formulas.find_period", {}),
        (cli, "fit_quasipoly", "formulas.fit_quasipoly", {}),
        (cli, "types_from_counts", "formulas.types_from_counts", {}),
        (census, "grid_census", "census.grid_census", {}),
        (census, "labelled_type", "signature.labelled_type", {}),
        (census, "canonical_unlabelled", "signature.canonical_unlabelled", {}),
        (census, "region_sample_points", "geometry.region_sample_points", {"observe": regions}),
        (census, "configuration_arrangement", "geometry.configuration_arrangement", {}),
        (census, "lattice_points", "boards.lattice_points", {}),
        (finitefield, "ff_type_count", "finitefield.ff_type_count", {}),
        (finitefield, "valid_primes_from", "finitefield.valid_primes_from", {}),
        (finitefield, "torus_count", "finitefield.torus_count", {}),
        (finitefield, "char_poly", "finitefield.char_poly", {}),
        (finitefield, "last_level_count", "finitefield.last_level_count", {"leaf": True}),
    ]
    for module, attr, name, kwargs in targets:
        rec.install(module, attr, name, **kwargs)


def layer_metrics(rec, overhead_s: float) -> dict[str, float]:
    from recorder import Stat

    layer_self = rec.layer_self_s()
    stat = lambda name: rec.stats.get(name, Stat())
    ratio = lambda num, den: num / den if den else 0.0
    special = {
        "finitefield.retries": stat("finitefield.char_poly").errors,
        "signature.new_type_ratio": ratio(stat("signature.canonical_unlabelled").calls,
                                          stat("signature.labelled_type").calls),
        "census.cache_hit_ratio": ratio(rec.counters.get("census.cache_hits", 0),
                                        stat("census.cache_load").calls),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in ("geometry.regions_found", "census.orders_tried", "census.placements"):
            out[name] = rec.counters.get(name, 0)
        elif field == "self_s" and "." not in base:
            out[name] = layer_self.get(base, 0.0)
        else:
            out[name] = getattr(stat(base), field)
    return out


# -- measurement ---------------------------------------------------------------

def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package and
    building the CLI parser; one untimed start first fills the bytecode cache."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_record() -> dict:
    """Host noise and identity, reported beside the metrics, never used to
    scale them."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    loop_s = time.perf_counter() - t0
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"loop_s": loop_s, "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": _commit(), "src_sha256": digest.hexdigest()}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def run_passes(one_pass, seconds: float) -> tuple[list[float], dict[str, list]]:
    """Whole passes until the next one would overrun `seconds` (at least one)."""
    walls, samples = [], {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        part = one_pass()
        walls.append(time.perf_counter() - t0)
        for key, value in part.items():
            samples.setdefault(key, []).append(value)
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls, samples


def traced_passes(one_pass, seconds: float):
    """Untraced and traced passes in turn until the next pair would overrun
    `seconds` (at least one pair).  The layer numbers come from the first
    traced pass, so they describe exactly one pass."""
    from recorder import Recorder

    plain, traced, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        plain.append(time.perf_counter() - t0)
        rec = Recorder()
        install_tracing(rec)
        try:
            t0 = time.perf_counter()
            one_pass()
            traced.append(time.perf_counter() - t0)
        finally:
            rec.uninstall()
        first = first or rec
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            return plain, traced, first


def _pct(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, walls, samples, setup_s: float) -> tuple[dict, dict]:
    """(metrics every workload reports, workload-specific extras)."""
    med = statistics.median
    extras = {}
    if workload == "ff_q4":
        census_s, second_s = med(samples["census_s"]), med(samples["census_2w_s"])
        extras["census_2w_s"] = (second_s, "s")
    else:
        census_s = med([statistics.fmean(p) for p in samples["miss"]])
        second_s = med([statistics.fmean(p) for p in samples["hit"]])
        for phase in ("miss", "hit"):
            lat = [x * 1000 for p in samples[phase] for x in p]
            extras[f"query_{phase}_p50_ms"] = (med(lat), "ms")
            extras[f"query_{phase}_p95_ms"] = (_pct(lat, 95), "ms")
            extras[f"query_{phase}_samples"] = (len(lat), "count")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(walls), "s"),
        "census_s": (census_s, "s"),
        "second_s": (second_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return metrics, extras


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metric lines and write its record; return
    the result object of the contract."""
    print(f"== {workload} seed {seed} trace {trace}")
    gate = Gate()
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    try:
        one_pass = globals()[workload](random.Random(f"{workload}:{seed}"), gate, tmp)
        host = host_record()
        if trace:
            walls, traced, rec = traced_passes(one_pass, seconds)
            values = layer_metrics(rec, statistics.median(traced) - statistics.median(walls))
            metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
            extras = {}
        else:
            setup_s = setup_seconds()
            walls, samples = run_passes(one_pass, seconds)
            metrics, extras = end_to_end(workload, walls, samples, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = gate.failed == 0
    print(f"host loop_s={host['loop_s']:.4f} nproc={host['nproc']} "
          f"python={host['python']} commit={host['commit']} src_sha256={host['src_sha256'][:16]}")
    print(f"passes {len(walls)}; fail_ratio {gate.failed / gate.attempted:.4f} "
          f"({gate.failed} of {gate.attempted} operations)")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    record = {"workload": workload, "seed": seed, "trace": trace,
              "host": host, "passes": walls, "correct": correct,
              "metrics": {k: v for k, (v, _) in {**metrics, **extras}.items()}}
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        rec.dump(str(stem) + ".spans.json")
    return {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()} if correct else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as exc:
        print(f"cannot import ridertypes from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        # metrics keyed `<workload>.<metric>`; peak_rss_mb is then the peak so far
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
