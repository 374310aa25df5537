from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from ridertypes import cli, finitefield
from ridertypes.boards import SQUARE, TRIANGLE
from ridertypes.census import (
    census_fields,
    geometric_census,
    grid_census,
    random_census,
    stabilized_census,
)
from ridertypes.cli import PIECES, family_movesets, main
from ridertypes.finitefield import valid_primes_from
from ridertypes.geometry import parse_moves
from ridertypes.signature import key_pairs, least_relabelling, type_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def brute_queen_pairs_unlabelled(n: int) -> int:
    cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    sets = 0
    for a, b in itertools.combinations(cells, 2):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx != 0 and dy != 0 and dx != dy and dx != -dy:
            sets += 1
    return sets


def test_types_engine_ff_queen_q3(capsys):
    code, out, err = run_cli(capsys, "types", "--moves", "queen", "--q", "3",
                             "--engine", "ff", "--check")
    assert code == 0
    report = json.loads(out)
    assert report["unlabelled"] == 36
    assert report["golden"]["verdict"] == "match"
    assert "match" in err


def test_types_geometric_r1_q5(capsys):
    code, out, _ = run_cli(capsys, "types", "--moves", "1,0", "--q", "5",
                           "--engine", "geometric")
    assert code == 0
    assert json.loads(out)["unlabelled"] == 1


def test_types_check_mismatch_exit_code(capsys):
    # an undersampled random census cannot reach the golden value 36
    code, out, _ = run_cli(capsys, "types", "--moves", "queen", "--q", "3",
                           "--engine", "random", "--samples", "10",
                           "--seed", "1", "--check")
    assert code == 1
    assert json.loads(out)["golden"]["verdict"] == "mismatch"


def test_types_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "types", "--moves", "trident", "--q", "3",
                             "--engine", "geometric")
    code2, out2, _ = run_cli(capsys, "types", "--moves", "trident", "--q", "3",
                             "--engine", "geometric")
    assert code1 == code2 == 0
    assert out1 == out2


def test_types_cache_round_trip(tmp_path, capsys):
    # a hit prints the miss's report byte for byte
    for n, engine in enumerate((("grid", "--n", "6"), ("grid", "--n-max", "8"),
                                ("geometric",), ("random", "--samples", "300", "--seed", "3"),
                                ("ff",))):
        args = ("--cache-dir", str(tmp_path / str(n)), "types", "--moves",
                "semiqueen", "--q", "3", "--engine", *engine)
        code1, out1, err1 = run_cli(capsys, *args)
        assert code1 == 0 and "cache hit" not in err1
        assert list((tmp_path / str(n)).glob("*.json"))
        code2, out2, err2 = run_cli(capsys, *args)
        assert code2 == 0
        assert out2 == out1, engine
        assert json.loads(out2)["unlabelled"] > 1
        # the ff engine caches its prime counts and logs no census hit
        assert ("cache hit" in err2) == (engine[0] != "ff")
        assert ("prime counts: 5 of 5 from the cache" in err2) == (engine[0] == "ff")


def assert_same_text(text: str, expected: str, what: object = "") -> None:
    # pytest's diff of two megabyte-long strings takes minutes: name the
    # first line that differs instead
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        n = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"{what}: line {n + 1} differs: {got[n:n + 1]} != {want[n:n + 1]}")


def indented_json(census, golden) -> str:
    """A `types` report as json's indented encoder writes it: the census's
    fields, the golden entry, and each type in its report form."""
    report, types = census_fields(census)
    return json.dumps({**report, "golden": golden,
                       "types": [type_dict(t.q, t.r, t.key) for t in types]},
                      sort_keys=True, indent=2) + "\n"


def test_census_reports_are_json_indented_text(capsys):
    # types are written from per-(q, r) templates; the text is json's own
    golden = {"annotation": "exact", "value": 1, "verdict": "match"}
    cases = [(ms, q) for r in range(1, 7) for ms in family_movesets(r) for q in (1, 2, 3)]
    # at q = 4 one move set per r: a 6-move census takes about 2 s
    cases += [(family_movesets(r, 1)[0], 4) for r in range(1, 7)]
    censuses = [geometric_census(ms, q) for ms, q in cases]
    assert [t.key for t in censuses[0].types] == [()]  # q = 1: no entries
    queen = parse_moves(PIECES["queen"])
    censuses += [grid_census(queen, SQUARE, 1, 2), random_census(queen, 3, 300, seed=5),
                 stabilized_census(queen, TRIANGLE, 3, 1, 12, 2)[0]]
    assert censuses[-3].size == 0
    for census in censuses:
        report, types = census_fields(census)
        cli._emit({**report, "golden": golden}, None, types)
        assert_same_text(capsys.readouterr().out, indented_json(census, golden), census.ms)


def test_cli_reports_are_json_indented_text(tmp_path, capsys):
    queen = parse_moves(PIECES["queen"])
    for argv, census in (
            (("--moves", "queen", "--q", "4", "--engine", "geometric"),
             geometric_census(queen, 4)),
            (("--moves", "queen", "--q", "2", "--engine", "grid", "--n", "1"),
             grid_census(queen, SQUARE, 1, 2))):
        code, out, _ = run_cli(capsys, "types", *argv)
        assert code == 0
        assert_same_text(out, indented_json(census, json.loads(out)["golden"]), argv)
    assert json.loads(out)["types"] == []
    bfile = tmp_path / "queens.txt"
    code, out, _ = run_cli(capsys, "count", "--moves", "queen", "--q", "2", "--n-range", "1:12")
    rows = json.loads(out)["rows"]
    bfile.write_text("".join(f"{r['n']} {r['unlabelled']}\n" for r in rows))
    outs = [out]
    for argv in (("fit", "--data", str(bfile), "--q", "2"), ("verify", "table1"),
                 ("verify", "fours"), ("types", "--moves", "queen", "--q", "3")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outs.append(out)
    for out in outs:
        assert_same_text(out, json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n")


def test_corrupt_cache_entries_are_recomputed(tmp_path, capsys):
    ff = ("--cache-dir", str(tmp_path), "types", "--moves", "trident",
          "--q", "3", "--engine", "ff")
    geometric = ff[:-1] + ("geometric",)
    code1, out1, _ = run_cli(capsys, *ff)
    assert code1 == 0
    # one entry for all the primes of the window
    (entry,) = tmp_path.iterdir()
    assert entry.suffix == ".json"
    fresh = json.loads(entry.read_text())
    assert len(fresh["value"]) == finitefield.window_size(3) == 5
    code_g, out_g, _ = run_cli(capsys, *geometric)
    assert code_g == 0
    (census_entry,) = set(tmp_path.iterdir()) - {entry}
    with_value = lambda good, value: json.dumps(dict(good, value=value)).encode()
    p = min(fresh["value"])  # a prime of the window, as its key
    with_count = lambda good, count: with_value(good, dict(good["value"], **{p: count}))
    spoilers = [
        lambda good: b'{"value": 12',  # cut short
        lambda good: b"\xff\xfe",  # not UTF-8
        lambda good: b"[1, 2]",  # not an object
        lambda good: b"[" * 100_000,  # nested past the recursion limit
        lambda good: b"{}",  # parses, but is no entry
        lambda good: json.dumps({k: good[k] for k in ("kind", "query")}).encode(),  # no counts
        lambda good: with_value(good, "x"),  # counts not an object
        lambda good: with_value(good, None),
        lambda good: with_value(good, 12.5),
        lambda good: with_value(good, list(good["value"].items())),  # pairs, not an object
        # one count of the window spoiled, the others good
        lambda good: with_count(good, "x"),  # count not an integer
        lambda good: with_count(good, None),
        lambda good: with_count(good, 12.5),  # int() would truncate it
        # well formed, but off by one: breaks the torus invariant
        lambda good: with_count(good, good["value"][p] - 1),
    ]
    good_census = json.loads(census_entry.read_text())
    census_entry.write_text(json.dumps(dict(good_census, value={})))  # no types
    code3, out3, err3 = run_cli(capsys, *geometric)
    assert (code3, out3) == (0, out_g)
    assert err3.count("does not parse") == 1
    for spoil in spoilers:
        entry.write_bytes(spoil(fresh))
        code2, out2, err2 = run_cli(capsys, *ff)
        assert (code2, out2) == (0, out1), spoil(fresh)[:80]
        # the whole entry is a miss: noted once, every prime recounted
        assert err2.count("does not parse") == 1
        assert "prime counts: 0 of 5 from the cache" in err2
        assert "Traceback" not in err2 + err3
        # no temporary files left
        assert sorted(tmp_path.iterdir()) == sorted([entry, census_entry])
        assert json.loads(entry.read_text()) == fresh
    code4, out4, err4 = run_cli(capsys, *geometric)
    assert (code4, out4) == (0, out_g)
    assert "cache hit" in err4 and "does not parse" not in err4


def test_cache_entry_answers_only_its_own_query(tmp_path, capsys):
    # entries filed under another query's key (other moves or options), an
    # entry whose value is another query's census, values with a q or exact
    # of the wrong type, and an exact or metadata that the query does not
    # give are misses: recomputed, noted once and replaced
    def run(cache, *argv):
        return run_cli(capsys, "--cache-dir", str(cache), "types", *argv)

    census = ("--q", "3", "--engine", "geometric", "--check")
    code, fresh, _ = run(tmp_path / "queen", "--moves", "queen", *census)
    assert code == 0
    (entry,) = (tmp_path / "queen").iterdir()
    good = json.loads(entry.read_text())
    run(tmp_path / "semiqueen", "--moves", "semiqueen", *census)
    (other,) = (tmp_path / "semiqueen").iterdir()
    run(tmp_path / "refined", "--moves", "queen", *census, "--refinement", "2")
    (refined,) = (tmp_path / "refined").iterdir()
    assert json.loads(refined.read_text())["query"]["refinement"] == 2
    value = lambda **kw: dict(good, value=dict(good["value"], **kw))
    other_value = json.loads(other.read_text())["value"]
    metadata = good["value"]["metadata"]
    assert (good["value"]["exact"], metadata["refinement"]) == (True, 1)
    for bad in (json.loads(other.read_text()), json.loads(refined.read_text()),
                dict(good, value=other_value), value(exact="false"), value(q="3"),
                value(q=3.0),
                # an exact census read as inexact, and metadata of another
                # refinement, or of the right one as a bool
                value(exact=False), value(metadata={"placements": 1, "refinement": 99}),
                value(metadata=dict(metadata, refinement=True)), value(metadata=[])):
        entry.write_text(json.dumps(bad))
        code, out, err = run(tmp_path / "queen", "--moves", "queen", *census)
        assert (code, out) == (0, fresh), bad
        assert err.count("does not parse") == 1 and "cache hit" not in err
        assert json.loads(entry.read_text()) == good

    ff = ("--q", "3", "--engine", "ff")
    code, fresh, _ = run(tmp_path / "ff-semiqueen", "--moves", "semiqueen", *ff)
    assert code == 0
    run(tmp_path / "ff-queen", "--moves", "queen", *ff)
    (semiqueen,) = (tmp_path / "ff-semiqueen").iterdir()
    (queen,) = (tmp_path / "ff-queen").iterdir()
    good = semiqueen.read_text()
    # the queen's counts, filed under the semiqueen's key
    semiqueen.write_text(queen.read_text())
    code, out, err = run(tmp_path / "ff-semiqueen", "--moves", "semiqueen", *ff)
    assert (code, out) == (0, fresh)
    assert err.count("does not parse") == 1
    assert semiqueen.read_text() == good


def assert_other_entry_is_a_miss(tmp_path, capsys, argv, other):
    """Files the census entry of `argv + other` under the key of `argv`: a
    miss, recomputed, noted once and replaced."""
    def run(cache, *extra):
        return run_cli(capsys, "--cache-dir", str(cache), "types", *argv, *extra)

    code, fresh, _ = run(tmp_path / "request")
    assert code == 0
    (entry,) = (tmp_path / "request").iterdir()
    good = entry.read_text()
    code, out_other, _ = run(tmp_path / "other", *other)
    assert code == 0 and out_other != fresh
    (filed,) = (tmp_path / "other").iterdir()
    entry.write_text(filed.read_text())
    code, out, err = run(tmp_path / "request")
    assert (code, out) == (0, fresh)
    assert err.count("does not parse") == 1 and "cache hit" not in err
    assert entry.read_text() == good


def test_census_entry_of_another_board_is_a_miss(tmp_path, capsys):
    # 17 types on the square, 2 on the triangle at this order
    assert_other_entry_is_a_miss(
        tmp_path, capsys, ("--moves", "semiqueen", "--q", "3", "--engine", "grid",
                           "--n", "5"), ("--board", "triangle"))


def test_census_entry_of_another_n_start_is_a_miss(tmp_path, capsys):
    # stabilizes at n = 3 from n = 1, at n = 4 from n = 4
    assert_other_entry_is_a_miss(
        tmp_path, capsys, ("--moves", "queen", "--q", "2", "--engine", "grid"),
        ("--n-start", "4"))


def test_census_entry_of_another_n_max_is_a_miss(tmp_path, capsys):
    # stops unstabilized at n = 3
    assert_other_entry_is_a_miss(
        tmp_path, capsys, ("--moves", "queen", "--q", "2", "--engine", "grid"),
        ("--n-max", "3"))


def test_census_entry_with_a_broken_type_is_a_miss(tmp_path, capsys):
    argv = ("--cache-dir", str(tmp_path), "types", "--moves", "trident",
            "--q", "3", "--engine", "geometric")
    code, fresh, _ = run_cli(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.iterdir()
    good = json.loads(entry.read_text())
    census = good["value"]
    q, r, keys = census["q"], census["r"], census["types"]
    # each type is stored as its least key: q(q - 1) JSON integers, sorted
    assert keys == sorted(keys) and len(keys) == census["unlabelled"] == 17
    for key in keys:
        assert type(key) is list and len(key) == q * (q - 1)
        assert all(type(g) is int for g in key)
        assert least_relabelling(q, tuple(key)) == tuple(key)
    first = keys[0]
    assert first[0] == 1  # the least key starts in cone 1

    def in_cone_1(q, r):  # a well-formed key of q pieces of an r-move rider
        return [1 if i < k else r + 1 for i, k in itertools.permutations(range(1, q + 1), 2)]

    for broken in (first[:-1],                                  # one region short
                   first + [1],                                 # one region long
                   [0] + first[1:],                             # region 0
                   [2 * r + 1] + first[1:],                     # region 2r + 1
                   [2] + first[1:],                             # an antipode broken
                   [float(first[0])] + first[1:],               # a float, == the int
                   [str(first[0])] + first[1:],                 # a string
                   [True] + first[1:],                          # a bool, == 1
                   [float("inf")] + first[1:],                  # Infinity: int() overflows
                   [[first[0]]] + first[1:],                    # a nested list
                   first[0],                                    # an int, not a list
                   "".join(map(str, first)),                    # a string of q(q - 1) digits
                   type_dict(q, r, first),                      # the old {q, r, entries} form
                   in_cone_1(q - 1, r),                         # q - 1 pieces
                   in_cone_1(q, r + 1)):                        # an (r + 1)-move rider
        types = [broken] + keys[1:]
        entry.write_text(json.dumps(dict(good, value=dict(census, types=types))))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (0, fresh), broken
        assert "does not parse" in err and "cache hit" not in err
        assert json.loads(entry.read_text()) == good


def test_census_entry_that_does_not_write_back_is_a_miss(tmp_path, capsys):
    # well-formed keys, counts and fields that the census they decode to
    # does not write back exactly: served, two keys of one orbit would give
    # 16 trident types where r(r^2 + 3r - 1)/3 = 17, and exit 1 under --check
    argv = ("--cache-dir", str(tmp_path), "types", "--moves", "trident",
            "--q", "3", "--engine", "geometric", "--check")
    code, fresh, _ = run_cli(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.iterdir()
    good = json.loads(entry.read_text())
    census = good["value"]
    q, keys = census["q"], census["types"]
    position = {pair: n for n, pair in enumerate(key_pairs(q))}

    def other_labelling(key):  # the key of the same type with pieces 1 and 2 swapped
        swap = {1: 2, 2: 1}
        other = [key[position[swap.get(i, i), swap.get(k, k)]] for i, k in key_pairs(q)]
        assert other != key and least_relabelling(q, tuple(other)) == tuple(key)
        return other

    for spoiled in (dict(census, types=sorted([other_labelling(keys[1])] + keys[1:])),
                    dict(census, types=sorted([other_labelling(keys[0])] + keys[1:])),
                    dict(census, types=[keys[1], keys[0]] + keys[2:]),
                    dict(census, unlabelled=census["unlabelled"] + 1),
                    dict(census, labelled=census["labelled"] + 1),
                    dict(census, r=census["r"] + 1),
                    dict(census, stable=True)):
        entry.write_text(json.dumps(dict(good, value=spoiled)))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (0, fresh), spoiled
        assert err.count("does not parse") == 1 and "cache hit" not in err
        assert json.loads(entry.read_text()) == good


def test_census_cache_key_holds_only_what_the_engine_reads(tmp_path, capsys):
    base = ("--cache-dir", str(tmp_path), "types", "--moves", "queen", "--q", "2")
    geometric = base + ("--engine", "geometric")
    code1, out1, _ = run_cli(capsys, *geometric)
    code2, out2, err2 = run_cli(capsys, *geometric, "--seed", "5", "--n-max", "9",
                                "--samples", "7")
    assert (code1, code2, out2) == (0, 0, out1)
    assert "cache hit" in err2
    assert len(list(tmp_path.iterdir())) == 1

    fixed = base + ("--engine", "grid", "--n", "5")
    run_cli(capsys, *fixed)
    code, out, err = run_cli(capsys, *fixed, "--window", "3")
    assert code == 0 and "cache hit" in err
    stabilized = base + ("--engine", "grid")
    run_cli(capsys, *stabilized)
    code, out, err = run_cli(capsys, *stabilized, "--window", "3")
    assert code == 0 and "cache hit" not in err
    assert json.loads(out)["metadata"]["window"] == 3
    assert len(list(tmp_path.iterdir())) == 4


def recording_pool(sizes: list, broken: bool = False):
    """A stand-in for ProcessPoolExecutor that records its size and maps in
    this process, or whose map fails as if a worker had died."""

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            if broken:
                raise BrokenProcessPool("a worker died")
            RecordingPool.mapped = list(items)
            return [fn(item) for item in RecordingPool.mapped]

    return RecordingPool


def test_worker_pool_is_capped(tmp_path, monkeypatch):
    # serial below POOL_MIN_Q for any CPU count; from it on, one worker per
    # missing prime and per usable CPU
    sizes = []
    pool = recording_pool(sizes)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    fake = lambda ms, q, p: p * p * (p - 1) * math.factorial(q)  # meets the invariant
    monkeypatch.setattr(cli, "torus_count", fake)
    ms = parse_moves(PIECES["trident"])
    primes = valid_primes_from(ms, 11, 5)
    assert cli.POOL_MIN_Q == 5
    for q, cpus, expected in ((2, 64, []), (4, 64, []), (4, 3, []),
                              (5, 3, [3]), (5, 64, [5]), (5, 1, [])):
        sizes.clear()
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        assert cli._torus_counts(ms, q, primes, None) == \
            {p: fake(ms, q, p) for p in primes}
        assert sizes == expected, (q, cpus)
    assert pool.mapped == sorted(primes, reverse=True)  # largest count first
    # primes already cached need no worker
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    cache = str(tmp_path)
    cli._torus_counts(ms, 5, primes[:3], cache)
    sizes.clear()
    assert cli._torus_counts(ms, 5, primes, cache) == \
        {p: fake(ms, 5, p) for p in primes}
    assert sizes == [2] and pool.mapped == sorted(primes[3:], reverse=True)


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_dead_pool_worker_is_an_engine_error(tmp_path, capsys, monkeypatch):
    # a broken pool is reported once with exit 3, not retried as an
    # exceptional prime, and caches nothing
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording_pool(sizes, broken=True))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), "types",
                             "--moves", "semiqueen", "--q", "5")
    assert (code, out) == (3, "")
    assert sizes == [2]
    assert err.count("engine error:") == 1 and "worker died" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_importing_the_cli_loads_no_multiprocessing():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ridertypes.cli; "
            "print('multiprocessing' in sys.modules)")
    result = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                            capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout == "False\n"


def test_ff_retry_primes_go_through_the_cache(tmp_path, monkeypatch):
    # the first interpolation fails, so ff_type_count retries with larger
    # primes; both attempts' primes are counted by _torus_counts and cached
    ms = parse_moves(PIECES["trident"])
    asked = []
    real_counts = cli._torus_counts
    real_char_poly = finitefield.char_poly

    def recording_counts(ms_, q, primes, **kwargs):
        asked.append(list(primes))
        return real_counts(ms_, q, primes, **kwargs)

    def fail_once(*args):
        if len(asked) == 1:
            raise finitefield.ExceptionalPrimeError("forced")
        return real_char_poly(*args)

    monkeypatch.setattr(cli, "_torus_counts", recording_counts)
    monkeypatch.setattr(finitefield, "char_poly", fail_once)
    report = cli.run_ff(ms, 2, 11, 1, str(tmp_path))
    size = finitefield.window_size(2)
    first = valid_primes_from(ms, 11, size)
    assert asked == [first, valid_primes_from(ms, first[-1] + 1, size)]
    assert report["primes"] == asked[1]
    assert report["unlabelled"] == 3
    key = cli.cache_key("prime-counts", {"moves": str(ms), "q": 2})
    assert cli.cache_load(str(tmp_path), key, lambda counts: counts) == \
        {str(p): finitefield.torus_count(ms, 2, p) for p in asked[0] + asked[1]}
    assert len(list(tmp_path.iterdir())) == 1


def test_every_attempt_exceptional_exits_3(tmp_path, capsys, monkeypatch):
    # each of the ATTEMPTS windows fails; the last error reaches main, and
    # every window's primes were counted and cached on the way
    def always(*args):
        raise finitefield.ExceptionalPrimeError("forced")

    monkeypatch.setattr(finitefield, "char_poly", always)
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), "types",
                             "--moves", "trident", "--q", "2")
    assert (code, out) == (3, "")
    assert "engine error: forced" in err and "Traceback" not in err
    ms = parse_moves(PIECES["trident"])
    windows, floor = [], 11
    for _ in range(finitefield.ATTEMPTS):
        windows.append(valid_primes_from(ms, floor, finitefield.window_size(2)))
        floor = windows[-1][-1] + 1
    assert len(windows) == 3
    (entry,) = tmp_path.iterdir()
    cached = sorted(map(int, json.loads(entry.read_text())["value"]))
    assert cached == [p for window in windows for p in window]


def test_prime_windows_add_to_one_entry(tmp_path, capsys, monkeypatch):
    # a second --prime-floor counts only the primes that the entry lacks,
    # and the entry then holds both windows' counts
    counted = []
    real = cli.torus_count

    def recording(ms, q, p):
        counted.append(p)
        return real(ms, q, p)

    monkeypatch.setattr(cli, "torus_count", recording)
    ms = parse_moves(PIECES["trident"])
    argv = ("--cache-dir", str(tmp_path), "types", "--moves", "trident", "--q", "3")
    first, second = (valid_primes_from(ms, floor, 5) for floor in (11, 13))
    assert first[-1] < second[-1]
    code, out11, err = run_cli(capsys, *argv, "--prime-floor", "11")
    assert code == 0 and counted == first
    assert "prime counts: 0 of 5 from the cache" in err
    counted.clear()
    code, out13, err = run_cli(capsys, *argv, "--prime-floor", "13")
    assert code == 0 and counted == [p for p in second if p not in first]
    assert "prime counts: 4 of 5 from the cache" in err
    (entry,) = tmp_path.iterdir()
    good = json.loads(entry.read_text())
    union = sorted(set(first) | set(second))
    assert good["value"] == {str(p): real(ms, 3, p) for p in union}
    # a window the entry holds writes nothing
    inode = entry.stat().st_ino
    counted.clear()
    code, out, err = run_cli(capsys, *argv, "--prime-floor", "13")
    assert (code, out, counted) == (0, out13, [])
    assert "prime counts: 5 of 5 from the cache" in err
    assert entry.stat().st_ino == inode and json.loads(entry.read_text()) == good
    assert json.loads(out11)["unlabelled"] == json.loads(out13)["unlabelled"] == 17

    # each spoiled key comes with a count that meets the torus invariant at
    # its own number, so only the key check rejects it
    assert first[0] == 11 and finitefield.MAX_PRIME < 263
    count11 = good["value"]["11"]
    meets = lambda n: n * n * (n - 1) * math.factorial(3)
    keys = {"12": meets(12),     # not a prime
            "011": count11,      # the prime 11, not as str writes it
            " 11": count11,
            "2": meets(2),       # divides a cross product of the trident
            "263": meets(263)}   # a prime above MAX_PRIME
    assert not finitefield.valid_prime(ms, 2)
    values = [dict(good["value"], **{key: count}) for key, count in keys.items()]
    # False and float(count11) would meet the invariant: only the type check rejects them
    counts = (True, False, 12.5, float(count11), "x", count11 - 1)
    values += [dict(good["value"], **{"11": count}) for count in counts]
    for value in values:
        entry.write_text(json.dumps(dict(good, value=value)))
        counted.clear()
        code, out, err = run_cli(capsys, *argv, "--prime-floor", "13")
        assert (code, out) == (0, out13), value
        assert err.count("does not parse") == 1 and counted == second
        # replaced by the recounted window alone
        assert json.loads(entry.read_text())["value"] == \
            {str(p): real(ms, 3, p) for p in second}


def test_concurrent_windows_never_spoil_the_entry(tmp_path, capfd):
    # more writers than CPUs rewrite one entry at once: a writer may drop
    # another's new counts, but every read parses and every count is right
    ms = parse_moves(PIECES["trident"])
    windows = [valid_primes_from(ms, floor, 3) for floor in range(11, 100, 2)]
    count = functools.partial(cli._torus_counts, ms, 2, cache_dir=str(tmp_path))
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(4, mp_context=context) as pool:
        results = list(pool.map(count, windows, timeout=120))
    truth = {p: finitefield.torus_count(ms, 2, p) for window in windows for p in window}
    assert results == [{p: truth[p] for p in window} for window in windows]
    (entry,) = tmp_path.iterdir()
    held = cli._cached_counts(ms, 2, json.loads(entry.read_text())["value"])
    assert held and held == {p: truth[p] for p in held}
    assert "does not parse" not in capfd.readouterr().err


def test_census_entry_exact_and_metadata_follow_the_query(tmp_path, capsys):
    # grid and random censuses are never exact, and their metadata must
    # hold the query's options, each one the engine records: otherwise an
    # entry is a miss, replaced
    for argv, spoil in (
            (("--engine", "geometric"), {"metadata": {"placements": 8}}),
            (("--engine", "random", "--samples", "40", "--seed", "2"),
             {"metadata": {"samples": 40, "nonattacking": 40}}),
            (("--engine", "grid", "--n", "4"), {"metadata": {"cells": 16}}),
            (("--engine", "grid", "--n-max", "6"),
             {"metadata": {"n": 5, "stabilized_at": 3, "stable": True}}),
            (("--engine", "random", "--samples", "40", "--seed", "2"), {"exact": True}),
            (("--engine", "random", "--samples", "40", "--seed", "2"),
             {"metadata": {"samples": 40, "seed": 3, "nonattacking": 40}}),
            (("--engine", "random", "--samples", "40", "--seed", "2"),
             {"metadata": {"samples": 41, "seed": 2, "nonattacking": 40}}),
            (("--engine", "grid", "--n", "4"), {"exact": True}),
            (("--engine", "grid", "--n", "4"), {"metadata": {"n": 5, "cells": 16}}),
            (("--engine", "grid", "--n-max", "6"),
             {"metadata": {"n": 5, "stabilized_at": 3, "window": 3, "stable": True}}),
            (("--engine", "geometric", "--q", "4"), {"exact": True})):
        cache = tmp_path / str(len(list(tmp_path.iterdir())))
        full = ("--cache-dir", str(cache), "types", "--moves", "queen", "--q", "2", *argv)
        code, fresh, _ = run_cli(capsys, *full)
        assert code == 0
        (entry,) = cache.iterdir()
        good = json.loads(entry.read_text())
        entry.write_text(json.dumps(dict(good, value=dict(good["value"], **spoil))))
        code, out, err = run_cli(capsys, *full)
        assert (code, out) == (0, fresh), (argv, spoil)
        assert err.count("does not parse") == 1 and "cache hit" not in err
        assert json.loads(entry.read_text()) == good


def test_prime_floor_above_ceiling(capsys, monkeypatch):
    def no_search(ms, p):
        raise AssertionError("prime search ran")

    monkeypatch.setattr(finitefield, "valid_prime", no_search)
    code, out, err = run_cli(capsys, "types", "--moves", "queen", "--q", "3",
                             "--prime-floor", "100000000000")
    assert code == 2
    assert out == ""
    assert "MAX_PRIME" in err
    assert "Traceback" not in err


def test_board_above_max_cells_exits_2_at_once(capsys):
    # the grid census of a huge board, and a count sweep whose top order is
    # past the cap (refused before it counts the orders below, even where
    # the range is too long to list)
    for argv in (("types", "--engine", "grid", "--moves", "queen", "--q", "2", "--n", "3000"),
                 ("count", "--moves", "queen", "--q", "2", "--n-range", f"1:{10**20}")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2
        assert out == ""
        assert "MAX_CELLS" in err
        assert "Traceback" not in err


def test_board_order_below_one_has_one_message(capsys):
    for argv in (("types", "--engine", "grid", "--n", "0"),
                 ("types", "--engine", "grid", "--n-start", "0"),
                 ("count", "--n-range", "0:3"),
                 ("count", "--n", "0")):
        code, out, err = run_cli(capsys, argv[0], "--moves", "queen", "--q", "2", *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err == "error: board order n must be >= 1\n", argv


def test_count_single_queen(capsys):
    code, out, _ = run_cli(capsys, "count", "--moves", "queen", "--q", "1",
                           "--board", "square", "--n", "5")
    assert code == 0
    assert json.loads(out)["rows"] == [{"n": 5, "labelled": 25, "unlabelled": 25}]


def test_count_two_queens_n3(capsys):
    code, out, _ = run_cli(capsys, "count", "--moves", "queen", "--q", "2",
                           "--n", "3")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["unlabelled"] == 8
    assert row["unlabelled"] == brute_queen_pairs_unlabelled(3)


def test_count_range_rows_are_the_single_order_counts(capsys):
    # one sweep over the range against a fresh count at each order, on a
    # nested board and on one that restarts at every order
    for board, moves, q, lo, hi in (("triangle", "queen", 3, 2, 9),
                                    ("poly:1,1;3,1;2,3", "nightrider", 3, 1, 5),
                                    ("square", "semiqueen", 4, 3, 6)):
        common = ("count", f"--moves={moves}", "--q", str(q), "--board", board)
        code, out, _ = run_cli(capsys, *common, "--n-range", f"{lo}:{hi}")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["n"] for row in rows] == list(range(lo, hi + 1))
        for row in rows:
            code, out, _ = run_cli(capsys, *common, "--n", str(row["n"]))
            assert code == 0
            assert json.loads(out)["rows"] == [row], (board, row)


def test_count_requires_order(capsys):
    code, _, err = run_cli(capsys, "count", "--moves", "queen", "--q", "1")
    assert code == 2
    assert "--n" in err


def test_count_bfile_match(tmp_path, capsys):
    rows = [(n, brute_queen_pairs_unlabelled(n)) for n in range(1, 7)]
    bfile = tmp_path / "b.txt"
    bfile.write_text("# two queens\n" + "\n".join(f"{n} {v}" for n, v in rows) + "\n")
    code, out, _ = run_cli(capsys, "count", "--moves", "queen", "--q", "2",
                           "--n-range", "1:6", "--bfile", str(bfile))
    assert code == 0
    report = json.loads(out)
    assert all(c["match"] for c in report["bfile"]["comparisons"])


def test_count_bfile_mismatch_exit(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 0\n2 0\n3 9\n")
    code, out, _ = run_cli(capsys, "count", "--moves", "queen", "--q", "2",
                           "--n-range", "1:3", "--bfile", str(bfile))
    assert code == 1
    comparisons = json.loads(out)["bfile"]["comparisons"]
    assert [c["match"] for c in comparisons] == [True, True, False]


def test_count_missing_bfile_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, out, err = run_cli(capsys, "count", "--moves", "queen", "--q", "2",
                             "--n", "3", "--bfile", str(missing))
    assert code == 2
    assert out == ""
    assert "cannot read" in err and "Traceback" not in err


def test_fit_two_queens(tmp_path, capsys):
    rows = [(n, brute_queen_pairs_unlabelled(n)) for n in range(1, 9)]
    data = tmp_path / "queens2.txt"
    data.write_text("\n".join(f"{n} {v}" for n, v in rows) + "\n")
    code, out, _ = run_cli(capsys, "fit", "--data", str(data), "--q", "2",
                           "--period", "1")
    assert code == 0
    report = json.loads(out)
    assert report["unlabelled"] == 4
    assert report["labelled"] == 8


def test_fit_searches_period(tmp_path, capsys):
    rows = [(n, brute_queen_pairs_unlabelled(n)) for n in range(1, 9)]
    data = tmp_path / "queens2.txt"
    data.write_text("\n".join(f"{n} {v}" for n, v in rows) + "\n")
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--q", "2")
    assert code == 0
    assert json.loads(out)["period"] == 1
    assert "period" in err


def test_fit_degree_option_is_gone(tmp_path, capsys):
    # a q-piece counting quasipolynomial has degree 2q; there is no other
    data = tmp_path / "queens2.txt"
    data.write_text("".join(f"{n} {brute_queen_pairs_unlabelled(n)}\n" for n in range(1, 9)))
    code, out, err = run_cli(capsys, "fit", "--data", str(data), "--q", "2",
                             "--degree", "4")
    assert (code, out) == (2, "")
    assert "--degree" in err


def test_fit_off_integer_value_exit_codes(tmp_path, capsys):
    # through n = 1, 2, 5 the fit is (n - 1)(n - 2)/12, which is 1/2 at n = -1:
    # a mismatch for unlabelled counts, a parse error for labelled ones
    data = tmp_path / "rows.txt"
    data.write_text("1 0\n2 0\n5 1\n")
    for kind, expected in (("unlabelled", 1), ("labelled", 2)):
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--q", "1",
                                 "--period", "1", "--kind", kind)
        assert (code, out) == (expected, ""), kind
        assert "1/2, not an integer" in err and "Traceback" not in err


def test_fit_type_count_below_one_exit_codes(tmp_path, capsys):
    # n, -n^2 fits -n^2, which is -1 at n = -1; every rider has a type, so
    # that is a mismatch for unlabelled counts, a parse error for labelled ones
    data = tmp_path / "rows.txt"
    data.write_text("".join(f"{n} {-n * n}\n" for n in range(1, 6)))
    for kind, expected in (("unlabelled", 1), ("labelled", 2)):
        code, out, err = run_cli(capsys, "fit", "--data", str(data), "--q", "1",
                                 "--period", "1", "--kind", kind)
        assert (code, out) == (expected, ""), kind
        assert "-1, not an integer >= 1" in err and "Traceback" not in err


def test_fit_malformed_file(tmp_path, capsys):
    data = tmp_path / "bad.txt"
    data.write_text("1 1\n2 oops\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(data), "--q", "1")
    assert code == 2
    assert "line 2" in err


def test_fit_inconsistent_data(tmp_path, capsys):
    rows = [(n, brute_queen_pairs_unlabelled(n)) for n in range(1, 8)]
    rows.append((8, 9999))
    data = tmp_path / "corrupt.txt"
    data.write_text("\n".join(f"{n} {v}" for n, v in rows) + "\n")
    code, _, err = run_cli(capsys, "fit", "--data", str(data), "--q", "2",
                           "--period", "1")
    assert code == 2
    assert "residual" in err


def test_verify_fours_reports_reality(capsys):
    # the built witnesses are genuine for queens and the three 3-move riders,
    # which refutes the old claim that 3-move riders have none
    code, out, _ = run_cli(capsys, "verify", "fours")
    report = json.loads(out)
    assert code == 0
    assert report["passed"] == report["total"] == 4
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert "refutes" in details["trident witness genuine"]
    assert "refutes" not in details["queen witness genuine"]


def test_verify_fours_fails_on_a_broken_witness(capsys, monkeypatch):
    built = cli.fours_witness

    def p3_b_equals_p3_a(ms):
        w = built(ms)
        return dataclasses.replace(w, p3_b=w.p3_a)

    monkeypatch.setattr(cli, "fours_witness", p3_b_equals_p3_a)
    code, out, err = run_cli(capsys, "verify", "fours")
    assert code == 1
    assert json.loads(out)["passed"] == 0
    assert "failed: reachable sets differ, one locus crossed" in err


def test_unwritable_paths_are_usage_errors(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (("-o", str(blocker / "x.json")),
                 ("--cache-dir", str(blocker / "cache"))):
        code, out, err = run_cli(capsys, *argv, "types", "--moves", "rook",
                                 "--q", "2", "--engine", "geometric")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert [ln for ln in err.splitlines() if str(blocker) in ln] \
            == [err.splitlines()[-1]], err


def test_duplicate_slope_names_the_moves_by_position(capsys):
    # 2,0 is 1,0 in lowest terms: the message names what the user typed
    code, out, err = run_cli(capsys, "types", "--moves", "1,0;2,0", "--q", "2")
    assert (code, out) == (2, "")
    assert "moves 1 and 2 share slope 0" in err


def test_q_below_one_rejected(tmp_path, capsys):
    data = tmp_path / "rows.txt"
    data.write_text("1 0\n2 0\n3 4\n4 16\n")
    for argv in (("types", "--moves", "rook", "--engine", "geometric"),
                 ("count", "--moves", "rook", "--n", "3"),
                 ("fit", "--data", str(data))):
        for value in ("0", "-1"):
            code, out, err = run_cli(capsys, *argv, "--q", value)
            assert code == 2, (argv, value)
            assert out == "" and "--q" in err


def test_output_to_file(tmp_path, capsys):
    # the file holds the text the same query prints
    target = tmp_path / "report.json"
    reports = []
    for argv in (("types", "--moves", "rook", "--q", "2", "--engine", "geometric"),
                 ("types", "--moves", "rook", "--q", "2", "--engine", "ff"),
                 ("count", "--moves", "rook", "--q", "2", "--n", "3")):
        code, out, _ = run_cli(capsys, "-o", str(target), *argv)
        assert (code, out) == (0, "")
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0
        assert target.read_text() == printed
        reports.append(json.loads(printed))
    assert reports[0]["unlabelled"] == reports[1]["unlabelled"] == 2
    assert reports[2]["rows"] == [{"n": 3, "labelled": 36, "unlabelled": 18}]


def test_usage_error_exit_code(capsys):
    # a missing --moves; the removed witness search budget and worker count
    for argv in (("types", "--q", "2"), ("verify", "fours", "--budget", "5"),
                 ("--threads", "2", "types", "--moves", "rook", "--q", "2")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


def test_verify_thm_q3(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-q3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == report["total"] == 25


def test_verify_table1(capsys):
    code, out, _ = run_cli(capsys, "verify", "table1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == report["total"]


def test_verify_thm_3move(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm-3move")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == report["total"] == 4


def test_types_without_golden_entry(capsys):
    # the table stops at r = 6
    code, out, err = run_cli(capsys, "types", "--moves=1,0;0,1;1,1;1,-1;1,2;2,1;1,3",
                             "--q", "1", "--check")
    assert code == 0
    report = json.loads(out)
    assert report["unlabelled"] == 1 and report["golden"] is None
    assert "no entry" in err


def test_queen_only_golden_entries_follow_the_queen_class(capsys):
    # the nightrider's directions have cross-ratio 16/25, not -1, 2 or 1/2:
    # the queen's 574 does not apply, and --check has nothing to fail on
    code, out, _ = run_cli(capsys, "types", "--moves", "nightrider", "--q", "4",
                           "--engine", "ff", "--check")
    assert code == 0
    report = json.loads(out)
    assert report["unlabelled"] == 576 and report["golden"] is None
    # (x, y) -> (x, x + y) carries the queen onto this rider
    code, out, _ = run_cli(capsys, "types", "--moves=1,1;0,1;1,2;1,0", "--q", "4",
                           "--engine", "ff", "--check")
    assert code == 0
    assert json.loads(out)["golden"] == {"value": 574, "annotation": "queen-only",
                                         "verdict": "match"}


def test_parser_is_built_once_and_reads_the_cache_env_per_call(tmp_path, capsys,
                                                              monkeypatch):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    argv = ("types", "--moves", "trident", "--q", "2", "--engine", "geometric")
    for name in ("a", "b"):
        monkeypatch.setenv("RIDERTYPES_CACHE", str(tmp_path / name))
        assert run_cli(capsys, *argv)[0] == 0
        assert len(list((tmp_path / name).iterdir())) == 1
    # --cache-dir still wins over the environment
    assert run_cli(capsys, "--cache-dir", str(tmp_path / "c"), *argv)[0] == 0
    assert len(list((tmp_path / "b").iterdir())) == 1
    assert len(list((tmp_path / "c").iterdir())) == 1
    monkeypatch.delenv("RIDERTYPES_CACHE")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, "types", "--q", "2")[0] == 2  # no --moves
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "c"]
    assert builds == [1]


def test_empty_cache_dir_is_unset(tmp_path, capsys, monkeypatch):
    # an empty value is unset: as a cache path, os.makedirs('') would fail
    # after the census and exit 2 with no report
    monkeypatch.chdir(tmp_path)
    argv = ("types", "--moves", "queen", "--q", "2", "--engine", "geometric")
    monkeypatch.setenv("RIDERTYPES_CACHE", "")
    code, out, err = run_cli(capsys, *argv)
    assert (code, json.loads(out)["unlabelled"], err.count("error")) == (0, 4, 0)
    code, out, err = run_cli(capsys, "--cache-dir", "", *argv)
    assert (code, json.loads(out)["unlabelled"], err.count("error")) == (0, 4, 0)
    # an empty --cache-dir leaves the environment's cache in charge
    monkeypatch.setenv("RIDERTYPES_CACHE", str(tmp_path / "env"))
    assert run_cli(capsys, "--cache-dir", "", *argv)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["env"]
    assert len(list((tmp_path / "env").iterdir())) == 1


def test_verify_thm_3move_checks_are_defined():
    # the full q=4 run lives in the acceptance suite; here only the wiring
    from ridertypes.cli import build_parser
    args = build_parser().parse_args(["verify", "thm-3move"])
    assert args.name == "thm-3move"
