"""Census engine tests.  Counting examples are checked against the shared
brute-force oracle (itertools over cells with direct collinearity checks),
which stays independent of the bitmask backtracker."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math

import pytest

from oracles import brute_force_grid_types, brute_force_labelled, labelled_geometric_types

from ridertypes.boards import SQUARE, TRIANGLE, board_sweep, lattice_points, parse_board
from ridertypes.census import (
    CACHE_SCHEMA,
    cache_key,
    cache_load,
    cache_store,
    census_from_dict,
    census_to_dict,
    count_nonattacking,
    count_sweep,
    fours_witness,
    geometric_census,
    grid_census,
    grid_sweep,
    random_census,
    stabilized_census,
    witness_checks,
    _reachable_keys,
)
from ridertypes.cli import PIECES, family_movesets
from ridertypes.formulas import t3_closed_form
from ridertypes.geometry import (
    configuration_arrangement,
    parse_moves,
    point,
    region_representatives,
    sign_vector,
    steiner_count,
)
from ridertypes.signature import LabelledType

QUEEN = parse_moves("1,0;0,1;1,1;1,-1")
ROOK = parse_moves("1,0;0,1")
SEMIQUEEN = parse_moves("1,0;0,1;1,1")
TRIDENT = parse_moves("0,1;1,1;1,-1")
NIGHTRIDER = parse_moves("1,2;2,1;1,-2;2,-1")
FIG1 = parse_moves("1,0;1,2;1,-2")


def test_count_queens_n3_q2():
    assert brute_force_labelled(QUEEN, SQUARE, 3, 2) == 16
    assert count_nonattacking(QUEEN, SQUARE, 3, 2) == 16


def test_count_rooks_n2_q2():
    # the two diagonal pairs are the only nonattacking sets: 4 labelled
    assert brute_force_labelled(ROOK, SQUARE, 2, 2) == 4
    assert count_nonattacking(ROOK, SQUARE, 2, 2) == 4


def test_count_single_piece_is_cell_count():
    for n in (1, 2, 5):
        assert count_nonattacking(NIGHTRIDER, SQUARE, n, 1) == n * n


def test_count_against_brute_force_matrix():
    for ms in (ROOK, SEMIQUEEN, QUEEN, NIGHTRIDER):
        for n in (2, 3, 4):
            for q in (2, 3, 4):
                assert count_nonattacking(ms, SQUARE, n, q) == \
                    brute_force_labelled(ms, SQUARE, n, q)
    assert count_nonattacking(SEMIQUEEN, TRIANGLE, 5, 2) == \
        brute_force_labelled(SEMIQUEEN, TRIANGLE, 5, 2)


def test_grid_census_fig1_piece():
    c = grid_census(FIG1, SQUARE, 7, 2)
    assert c.size == 3
    assert c.labelled_count == 6


def test_grid_census_queens_q2():
    assert grid_census(QUEEN, SQUARE, 6, 2).size == 4


def test_grid_census_queens_q3_n10():
    # n = 10 suffices: the census equals the stabilized one
    c10 = grid_census(QUEEN, SQUARE, 10, 3)
    stab, report = stabilized_census(QUEEN, SQUARE, 3, n_start=4, n_max=14, window=2)
    assert report.stabilized_at is not None
    assert c10.types == stab.types
    assert c10.size == 36


def test_grid_census_monotone_in_n():
    prev = frozenset()
    for n in range(3, 9):
        c = grid_census(QUEEN, SQUARE, n, 3)
        assert prev <= c.types
        prev = c.types


def test_grid_census_matches_brute_force_typing():
    # every nonattacking placement typed with `labelled_type`, against the
    # grid engine's walk over cone masks; q = 4 is the first input whose
    # walk has a middle level
    boards = (SQUARE, TRIANGLE, parse_board("poly:0,0;1,1/2;1/2,1"))
    cases = [(ms, board, n, q) for ms in (ROOK, TRIDENT, QUEEN, NIGHTRIDER)
             for board in boards for n in range(1, 7) for q in (1, 2, 3)]
    cases += [(ms, board, n, 4) for ms in (TRIDENT, QUEEN, NIGHTRIDER)
              for board, top in ((SQUARE, 5), (TRIANGLE, 7)) for n in range(1, top + 1)]
    for ms, board, n, q in cases:
        c = grid_census(ms, board, n, q)
        types, cells = brute_force_grid_types(ms, board, n, q)
        assert c.types == types, (ms, board, n, q)
        assert c.metadata == {"n": n, "cells": cells}


# Boards for the sweeps: two named and one other whose closed polygon holds
# the origin, so that every order nests in the next; one that restarts at
# every order; and one that nests from n = 1 to 3 and restarts at n = 4.
NESTED_BOARDS = (SQUARE, TRIANGLE, parse_board("poly:0,0;1,1/2;1/2,1"))
RESTARTING = parse_board("poly:1,1;3,1;2,3")
PARTLY_NESTED = parse_board("poly:1/4,-1/4;2,0;0,2")


def test_board_sweep_numbers_old_cells_first_and_restarts_off_nesting():
    for board in (*NESTED_BOARDS, RESTARTING, PARTLY_NESTED):
        prev: tuple = ()
        for n, cells, start in board_sweep(board, range(2, 9)):
            fresh = lattice_points(board, n)
            assert sorted(cells) == list(fresh) and len(set(cells)) == len(cells)
            nested = set(prev) <= set(fresh)
            assert start == (len(prev) if nested else 0), (board, n)
            # old cells keep their numbers, new ones follow in lexicographic order
            assert cells[:start] == prev[:start]
            assert list(cells[start:]) == sorted(cells[start:])
            prev = cells
    starts = [start for _n, _cells, start in board_sweep(PARTLY_NESTED, range(1, 6))]
    assert starts == [0, 6, 15, 0, 0]
    assert all(start == 0 for _n, _cells, start in board_sweep(RESTARTING, range(1, 6)))


def test_sweeps_match_the_oracles_at_every_order():
    # each order of one multi-order sweep against brute force on that
    # order's board alone: a set met at an earlier order, or missed, or a
    # cell renumbered under its kept masks, shows in the count or the types
    cases = [(board, q, orders) for board in NESTED_BOARDS
             for q, orders in ((1, range(1, 5)), (2, range(1, 6)), (3, range(2, 7)),
                               (4, range(3, 6)))]
    cases += [(board, q, orders) for board in (RESTARTING, PARTLY_NESTED)
              for q, orders in ((1, range(1, 4)), (2, range(1, 5)), (3, range(2, 4)),
                                (4, range(1, 4)))]
    for ms in (TRIDENT, QUEEN):
        for board, q, orders in cases:
            grids = list(grid_sweep(ms, board, q, orders))
            counts = list(count_sweep(ms, board, q, orders))
            assert [n for n, _, _ in grids] == [n for n, _ in counts] == list(orders)
            for (n, cells, types), (_n, labelled) in zip(grids, counts):
                want, want_cells = brute_force_grid_types(ms, board, n, q)
                assert (types, cells) == (want, want_cells), (ms, board, q, n)
                assert labelled == brute_force_labelled(ms, board, n, q), (ms, board, q, n)


# (n, census size) per order and stabilized_at of the stabilized q = 3 grid
# census at the CLI defaults (n from 1 to 16, window 2)
STABILIZATION_HISTORIES = {
    ("rook", "square"): ((0, 0, 6, 6, 6), 3),
    ("rook", "triangle"): ((0, 0, 0, 1, 4, 6, 6, 6), 6),
    ("bishop", "square"): ((0, 0, 6, 6, 6), 3),
    ("bishop", "triangle"): ((0, 0, 0, 4, 6, 6, 6), 5),
    ("queen", "square"): ((0, 0, 0, 8, 20, 36, 36, 36), 6),
    ("queen", "triangle"): ((0, 0, 0, 0, 0, 10, 18, 24, 34, 36, 36, 36), 10),
    ("semiqueen", "square"): ((0, 0, 3, 7, 17, 17, 17), 5),
    ("semiqueen", "triangle"): ((0, 0, 0, 1, 2, 7, 9, 13, 17, 17, 17), 9),
    ("trident", "square"): ((0, 0, 3, 11, 13, 17, 17, 17), 6),
    ("trident", "triangle"): ((0, 0, 0, 1, 4, 9, 13, 16, 17, 17, 17), 9),
    ("nightrider", "square"): ((0, 4, 12, 36, 36, 36), 4),
    ("nightrider", "triangle"): ((0, 0, 1, 9, 21, 30, 35, 36, 36, 36), 8),
}


def test_stabilization_histories_of_the_named_pieces():
    boards = {"square": SQUARE, "triangle": TRIANGLE}
    for (name, board), (sizes, stabilized_at) in STABILIZATION_HISTORIES.items():
        _census, report = stabilized_census(parse_moves(PIECES[name]), boards[board], 3,
                                            n_start=1, n_max=16, window=2)
        assert report.sizes == tuple(enumerate(sizes, start=1)), (name, board)
        assert report.stabilized_at == stabilized_at, (name, board)


def test_stabilized_census_queens_q2():
    census, report = stabilized_census(QUEEN, SQUARE, 2, n_start=1, n_max=12,
                                       window=2, confirm_size=4)
    assert census.size == 4
    assert census.exact
    assert report.stabilized_at is not None
    sizes = [s for _, s in report.sizes]
    assert sizes == sorted(sizes)


def test_stabilized_census_unstable_result():
    census, report = stabilized_census(QUEEN, SQUARE, 3, n_start=1, n_max=3, window=2)
    assert report.stabilized_at is None
    assert not census.exact
    assert census.metadata["stable"] is False


def test_board_independence_semiqueen_q3():
    sq, rep_sq = stabilized_census(SEMIQUEEN, SQUARE, 3, n_start=3, n_max=14, window=2)
    tr, rep_tr = stabilized_census(SEMIQUEEN, TRIANGLE, 3, n_start=3, n_max=20, window=2)
    assert rep_sq.stabilized_at is not None and rep_tr.stabilized_at is not None
    assert sq.types == tr.types


def test_geometric_census_q1():
    assert geometric_census(NIGHTRIDER, 1).size == 1


def test_geometric_census_q3_closed_form():
    assert geometric_census(NIGHTRIDER, 3).size == 36
    five = parse_moves("1,0;0,1;1,1;1,-1;1,2")
    assert geometric_census(five, 3).size == 65
    assert geometric_census(five, 3).size == t3_closed_form(5)


def test_geometric_census_exactness_flags():
    assert geometric_census(ROOK, 3).exact
    assert not geometric_census(ROOK, 4).exact


def test_geometric_census_refinement_monotone():
    c1 = geometric_census(TRIDENT, 4, refinement=1)
    c2 = geometric_census(TRIDENT, 4, refinement=2)
    assert c1.types <= c2.types


def test_geometric_census_matches_labelled_type_oracle():
    # types read off sign vectors equal direct typing of every configuration
    movesets = {str(ms): ms for r in range(1, 7) for ms in family_movesets(r)}
    cases = [(ms, q) for ms in movesets.values() for q in (1, 2, 3)]
    cases += [(TRIDENT, 4), (QUEEN, 4)]
    for ms, q in cases:
        census = geometric_census(ms, q)
        types, placements = labelled_geometric_types(ms, q)
        assert census.types == types, (str(ms), q)
        assert census.metadata["placements"] == placements


# (moves, refinement, size, placements, SHA-256 of repr(sorted keys)) of q = 4
# geometric censuses, recorded from the per-candidate sampler that tested
# every candidate against every line.  The q = 4 census is a lower bound that
# depends on where the samples sit, so equal keys and placements show that
# no sample point moved.
GEOMETRIC_Q4 = [
    ("1,0;0,1", 1, 24, 576, "597223b1cdf25185970301b65869f1172b09b76ba2158ea57ed9b8671dcd3953"),
    ("1,1;1,-1", 1, 24, 576, "597223b1cdf25185970301b65869f1172b09b76ba2158ea57ed9b8671dcd3953"),
    ("1,0;0,1;1,1;1,-1", 1, 574, 12412,
     "a534ebcaf6828481d466a8d605046f64097cb0cb957f01b265f293626a12ee01"),
    ("1,0;0,1;1,1", 1, 151, 3436,
     "7a6432b72ce9709e6dd5ae061e89d86a1e15ffa5585f58de59f0174f79f12c9e"),
    ("0,1;1,1;1,-1", 1, 151, 3440,
     "7a6432b72ce9709e6dd5ae061e89d86a1e15ffa5585f58de59f0174f79f12c9e"),
    ("1,2;2,1;1,-2;2,-1", 1, 576, 12520,
     "4e0b110803cbbdb26785fe6d1a59141949ef223301c5a01fd70507559cf86c3f"),
    ("1,0;0,1;1,1;1,3", 1, 574, 12462,
     "a534ebcaf6828481d466a8d605046f64097cb0cb957f01b265f293626a12ee01"),
    ("0,1;1,1;1,-1", 2, 151, 27664,
     "7a6432b72ce9709e6dd5ae061e89d86a1e15ffa5585f58de59f0174f79f12c9e"),
    ("1,0;0,1;1,1;1,-1", 2, 574, 99636,
     "a534ebcaf6828481d466a8d605046f64097cb0cb957f01b265f293626a12ee01"),
]


@pytest.mark.parametrize("moves, refinement, size, placements, digest", GEOMETRIC_Q4)
def test_geometric_census_q4_pinned(moves, refinement, size, placements, digest):
    census = geometric_census(parse_moves(moves), 4, refinement)
    keys = repr(sorted(t.key for t in census.types))
    assert (census.size, census.metadata["placements"]) == (size, placements)
    assert hashlib.sha256(keys.encode()).hexdigest() == digest


def test_labelled_equals_factorial_times_unlabelled():
    for ms, q in ((QUEEN, 2), (QUEEN, 3), (TRIDENT, 3)):
        c = geometric_census(ms, q)
        assert c.labelled_count == math.factorial(q) * c.size


def test_engine_agreement_grid_vs_geometric():
    for ms in (ROOK, SEMIQUEEN, TRIDENT, QUEEN):
        for q in (1, 2, 3):
            geo = geometric_census(ms, q)
            grid, report = stabilized_census(ms, SQUARE, q, n_start=2,
                                             n_max=14, window=2,
                                             confirm_size=geo.size)
            assert report.stabilized_at is not None
            assert grid.types == geo.types
            assert grid.exact


def test_random_census_queens_q2():
    c = random_census(QUEEN, 2, 2000, seed=42)
    assert c.size == 4
    assert not c.exact


def test_random_census_trident_q3():
    c = random_census(TRIDENT, 3, 4000, seed=7)
    assert c.size == 17


def test_random_census_subset_and_determinism():
    full = geometric_census(QUEEN, 3)
    a = random_census(QUEEN, 3, 800, seed=3)
    b = random_census(QUEEN, 3, 800, seed=3)
    assert a.types == b.types
    assert a.types <= full.types


def test_fours_witness_queen_found_and_valid():
    w = fours_witness(QUEEN)
    assert w is not None
    # both probes sit in the same region of the two-piece arrangement
    arr12 = configuration_arrangement(QUEEN, (w.p1, w.p2))
    assert sign_vector(arr12, w.p3_a) == sign_vector(arr12, w.p3_b) == w.region_signature
    # both reachable-set enumerations are complete, yet differ
    for p3 in (w.p3_a, w.p3_b):
        arr = configuration_arrangement(QUEEN, (w.p1, w.p2, p3))
        assert len(region_representatives(arr)) == steiner_count(arr)
    ra = _reachable_keys(QUEEN, (w.p1, w.p2, w.p3_a))
    rb = _reachable_keys(QUEEN, (w.p1, w.p2, w.p3_b))
    assert ra != rb
    assert w.differing_type.key in (ra | rb) - (ra & rb)


def test_fours_witness_r1_none():
    # no sweep locus without a third slope: r = 1 and the rook and bishop
    for moves in ("1,0", "1,0;0,1", "1,1;1,-1"):
        assert fours_witness(parse_moves(moves)) is None


def test_fours_witness_deterministic():
    a = fours_witness(QUEEN)
    b = fours_witness(QUEEN)
    assert a == b


def test_witness_checks_flag_broken_witnesses():
    for ms in (QUEEN, SEMIQUEEN, NIGHTRIDER):
        w = fours_witness(ms)
        assert all(witness_checks(ms, w).values()), str(ms)
        arr12 = configuration_arrangement(ms, (w.p1, w.p2))
        elsewhere = next(p for p in region_representatives(arr12)
                         if sign_vector(arr12, p) != w.region_signature)
        on_locus = point((w.p3_a.x + w.p3_b.x) / 2, (w.p3_a.y + w.p3_b.y) / 2)
        far = w.p3_a.translated(64 * (w.p3_b.x - w.p3_a.x), 64 * (w.p3_b.y - w.p3_a.y))
        shared = min(_reachable_keys(ms, (w.p1, w.p2, w.p3_a))
                     & _reachable_keys(ms, (w.p1, w.p2, w.p3_b)))
        for broken, failing in (
            (dataclasses.replace(w, p3_b=w.p3_a), "reachable sets differ"),
            (dataclasses.replace(w, p3_b=w.p3_a), "one locus crossed"),
            (dataclasses.replace(w, p3_b=elsewhere), "one region"),
            (dataclasses.replace(w, p3_b=on_locus), "one locus crossed"),
            (dataclasses.replace(w, p3_b=far), "one locus crossed"),
            (dataclasses.replace(w, differing_type=LabelledType(4, ms.r, shared)),
             "reachable sets differ"),
        ):
            assert not witness_checks(ms, broken)[failing], (str(ms), failing)


def test_census_serialization_round_trip():
    c = geometric_census(TRIDENT, 3)
    data = census_to_dict(c)
    assert data["unlabelled"] == 17
    assert data["labelled"] == 102
    back = census_from_dict({"moves": str(TRIDENT), "q": 3, "engine": "geometric",
                             "refinement": 1}, data)
    assert back.types == c.types
    assert back.engine == c.engine


@pytest.mark.parametrize("query, run", [
    ({"engine": "geometric", "q": 4, "refinement": 2},
     lambda ms: geometric_census(ms, 4, 2)),
    ({"engine": "random", "q": 3, "samples": 300, "seed": 7},
     lambda ms: random_census(ms, 3, 300, 7)),
    ({"engine": "grid", "q": 3, "board": "triangle", "n": 5},
     lambda ms: grid_census(ms, TRIANGLE, 5, 3)),
    ({"engine": "grid", "q": 2, "board": "square", "n_start": 1, "n_max": 9, "window": 2},
     lambda ms: stabilized_census(ms, SQUARE, 2, 1, 9, 2)[0]),
], ids=["geometric", "random", "grid-n", "grid-stabilized"])
def test_census_round_trip_of_each_engine_form(query, run):
    # a census decodes from its own cache value to itself, metadata and
    # exact included, for the query that the CLI builds for it
    c = run(SEMIQUEEN)
    back = census_from_dict({"moves": str(SEMIQUEEN), **query}, census_to_dict(c))
    assert back == c and back.metadata == c.metadata and back.exact == c.exact
    assert census_to_dict(back) == census_to_dict(c)


def test_census_cache(tmp_path):
    c = geometric_census(ROOK, 2)
    query = {"moves": str(ROOK), "q": 2, "engine": "geometric"}
    key = cache_key("census", query)
    decode = functools.partial(census_from_dict, query)
    assert cache_load(tmp_path, key, decode) is None
    cache_store(tmp_path, "census", query, census_to_dict(c))
    hit = cache_load(tmp_path, key, decode)
    assert hit is not None
    assert hit.types == c.types


def test_cache_entry_of_another_query_is_a_miss(tmp_path, capsys):
    # an entry hits only the key that its own kind and query hash to
    query = {"moves": str(ROOK), "q": 2, "engine": "geometric"}
    cache_store(tmp_path, "census", query, census_to_dict(geometric_census(ROOK, 2)))
    (entry,) = tmp_path.iterdir()
    for kind, other in (("census", dict(query, q=3)), ("prime-count", query)):
        key = cache_key(kind, other)
        entry.rename(tmp_path / f"{key}.json")
        assert cache_load(tmp_path, key, functools.partial(census_from_dict, other)) is None
        assert capsys.readouterr().err.count("does not parse") == 1
        (entry,) = tmp_path.iterdir()


def test_cache_entry_from_another_schema_is_a_miss(tmp_path, monkeypatch):
    query = {"moves": str(ROOK), "q": 2, "engine": "geometric"}
    key = cache_key("census", query)
    monkeypatch.setattr("ridertypes.census.CACHE_SCHEMA", CACHE_SCHEMA + 1)
    old_key = cache_key("census", query)
    assert old_key != key
    cache_store(tmp_path, "census", query, census_to_dict(geometric_census(ROOK, 2)))
    assert (tmp_path / f"{old_key}.json").is_file()
    monkeypatch.undo()
    decode = functools.partial(census_from_dict, query)
    assert cache_load(tmp_path, cache_key("census", query), decode) is None


def test_projective_transport_preserves_census():
    # carrying configurations through a slope-permuting linear map sends
    # nonattacking to nonattacking and distinct types to distinct types
    import random as random_mod

    from ridertypes.geometry import point, slope_correspondence_map
    from ridertypes.signature import Config, is_nonattacking, labelled_type

    src_ms = FIG1  # slopes 0, 2, -2
    lmap = slope_correspondence_map(src_ms.moves, parse_moves("1,0;1,1;0,1").moves)
    dst_ms = lmap.moveset(src_ms)
    assert geometric_census(src_ms, 3).size == geometric_census(dst_ms, 3).size == 17

    rng = random_mod.Random(2718)
    seen_src, seen_dst = set(), set()
    pairs = 0
    while pairs < 300:
        pieces = tuple(point(rng.randint(-40, 40), rng.randint(-40, 40))
                       for _ in range(3))
        if len(set(pieces)) < 3:
            continue
        cfg = Config(pieces)
        if not is_nonattacking(src_ms, cfg):
            continue
        image = Config(tuple(lmap.point(p) for p in pieces))
        assert is_nonattacking(dst_ms, image)
        seen_src.add(labelled_type(src_ms, cfg).key)
        seen_dst.add(labelled_type(dst_ms, image).key)
        pairs += 1
    assert len(seen_src) == len(seen_dst)
