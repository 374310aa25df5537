from __future__ import annotations

import dataclasses
import itertools
import json

from ridertypes import cli, finitefield
from ridertypes.cli import PIECES, main
from ridertypes.finitefield import valid_primes_from
from ridertypes.geometry import parse_moves


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
    args = ("--cache-dir", str(tmp_path), "types", "--moves", "semiqueen",
            "--q", "2", "--engine", "grid", "--n", "6")
    code1, out1, _ = run_cli(capsys, *args)
    assert code1 == 0
    assert list(tmp_path.glob("*.json"))
    code2, out2, err2 = run_cli(capsys, *args)
    assert code2 == 0
    assert json.loads(out2)["unlabelled"] == json.loads(out1)["unlabelled"]
    assert "cache hit" in err2


def test_corrupt_cache_entries_are_recomputed(tmp_path, capsys):
    ff = ("--cache-dir", str(tmp_path), "types", "--moves", "trident",
          "--q", "3", "--engine", "ff")
    geometric = ff[:-1] + ("geometric",)
    code1, out1, _ = run_cli(capsys, *ff)
    assert code1 == 0
    entries = sorted(tmp_path.iterdir())
    assert len(entries) == 9 and all(e.suffix == ".json" for e in entries)
    fresh = [json.loads(e.read_text()) for e in entries]
    code_g, out_g, _ = run_cli(capsys, *geometric)
    assert code_g == 0
    (census_entry,) = set(tmp_path.iterdir()) - set(entries)
    entries[0].write_text('{"count": 12')  # cut short
    entries[1].write_bytes(b"\xff\xfe")  # not UTF-8
    entries[2].write_text("[1, 2]")  # not an object
    entries[3].write_text("{}")  # parses, but has no count
    entries[4].write_text('{"count": "x"}')  # count not an integer
    entries[5].write_text('{"count": null}')
    entries[6].write_text('{"count": 12.5}')  # int() would truncate it
    # well formed, but off by one: breaks the torus invariant
    entries[7].write_text(json.dumps(dict(fresh[7], count=fresh[7]["count"] - 1)))
    census_entry.write_text("{}")  # parses, but has no types
    code2, out2, err2 = run_cli(capsys, *ff)
    code3, out3, err3 = run_cli(capsys, *geometric)
    assert (code2, out2, code3, out3) == (0, out1, 0, out_g)
    assert err2.count("does not parse") == 8
    assert err3.count("does not parse") == 1
    assert "Traceback" not in err2 + err3
    # no temporary files left
    assert sorted(tmp_path.iterdir()) == sorted(entries + [census_entry])
    assert [json.loads(e.read_text()) for e in entries] == fresh
    code4, out4, err4 = run_cli(capsys, *geometric)
    assert (code4, out4) == (0, out_g)
    assert "cache hit" in err4 and "does not parse" not in err4


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


def test_threads_below_one_rejected(capsys):
    for value in ("0", "-2"):
        code, out, err = run_cli(capsys, "--threads", value, "types",
                                 "--moves", "rook", "--q", "2")
        assert code == 2
        assert out == ""
        assert "--threads" in err


def test_worker_pool_is_capped(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    ms = parse_moves(PIECES["trident"])
    primes = valid_primes_from(ms, 11, 5)
    serial = cli._torus_counts(ms, 2, primes, 1, None)
    for cpus, threads, expected in ((3, 64, [3]), (64, 64, [5]), (64, 2, [2]),
                                    (1, 8, []), (None, 8, [])):
        sizes.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._torus_counts(ms, 2, primes, threads, None) == serial
        assert sizes == expected, (cpus, threads)


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
    first = valid_primes_from(ms, 11, 7)
    assert asked == [first, valid_primes_from(ms, first[-1] + 1, 7)]
    assert report["primes"] == asked[1]
    assert report["unlabelled"] == 3
    for p in asked[0] + asked[1]:
        key = cli.cache_key("prime-count", {"moves": str(ms), "q": 2, "p": p})
        assert cli.cache_load(str(tmp_path), key, lambda entry: entry["count"]) == \
            finitefield.torus_count(ms, 2, p)


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
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "-o", str(target), "types", "--moves", "rook",
                           "--q", "2", "--engine", "geometric")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["unlabelled"] == 2


def test_usage_error_exit_code(capsys):
    # a missing --moves; the removed witness search budget
    for argv in (("types", "--q", "2"), ("verify", "fours", "--budget", "5")):
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


def test_verify_thm_3move_checks_are_defined():
    # the full q=4 run lives in the acceptance suite; here only the wiring
    from ridertypes.cli import build_parser
    args = build_parser().parse_args(["verify", "thm-3move"])
    assert args.name == "thm-3move"
