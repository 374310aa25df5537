"""Census engine tests.  Counting examples are checked against the shared
brute-force oracle (itertools over cells with direct collinearity checks),
which stays independent of the bitmask backtracker."""

from __future__ import annotations

import dataclasses
import math

from oracles import brute_force_grid_types, brute_force_labelled, labelled_geometric_types

from ridertypes.boards import SQUARE, TRIANGLE, parse_board
from ridertypes.census import (
    CACHE_SCHEMA,
    cache_key,
    cache_load,
    cache_store,
    census_from_dict,
    census_to_dict,
    count_nonattacking,
    fours_witness,
    geometric_census,
    grid_census,
    random_census,
    stabilized_census,
    witness_checks,
    _reachable_keys,
)
from ridertypes.cli import family_movesets
from ridertypes.formulas import t3_closed_form
from ridertypes.geometry import (
    configuration_arrangement,
    parse_moves,
    point,
    region_representatives,
    sign_vector,
    steiner_count,
)
from ridertypes.signature import type_from_key

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
    # grid engine's set enumeration with memoized cones
    boards = (SQUARE, TRIANGLE, parse_board("poly:0,0;1,1/2;1/2,1"))
    for ms in (ROOK, TRIDENT, QUEEN, NIGHTRIDER):
        for board in boards:
            for n in range(1, 7):
                for q in (1, 2, 3):
                    c = grid_census(ms, board, n, q)
                    types, cells = brute_force_grid_types(ms, board, n, q)
                    assert c.types == types, (ms, board, n, q)
                    assert c.metadata == {"n": n, "cells": cells}


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
    assert w.differing_type.key() in (ra | rb) - (ra & rb)


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
            (dataclasses.replace(w, differing_type=type_from_key(shared, 4, ms.r)),
             "reachable sets differ"),
        ):
            assert not witness_checks(ms, broken)[failing], (str(ms), failing)


def test_census_serialization_round_trip():
    c = geometric_census(TRIDENT, 3)
    data = census_to_dict(c)
    assert data["unlabelled"] == 17
    assert data["labelled"] == 102
    back = census_from_dict(data)
    assert back.types == c.types
    assert back.engine == c.engine


def test_census_cache(tmp_path):
    c = geometric_census(ROOK, 2)
    key = cache_key("census", {"moves": str(ROOK), "q": 2, "engine": "geometric"})
    assert cache_load(tmp_path, key, census_from_dict) is None
    cache_store(tmp_path, key, census_to_dict(c))
    hit = cache_load(tmp_path, key, census_from_dict)
    assert hit is not None
    assert hit.types == c.types


def test_cache_entry_from_another_schema_is_a_miss(tmp_path, monkeypatch):
    payload = {"moves": str(ROOK), "q": 2, "engine": "geometric"}
    key = cache_key("census", payload)
    monkeypatch.setattr("ridertypes.census.CACHE_SCHEMA", CACHE_SCHEMA + 1)
    old_key = cache_key("census", payload)
    assert old_key != key
    cache_store(tmp_path, old_key, census_to_dict(geometric_census(ROOK, 2)))
    monkeypatch.undo()
    assert cache_load(tmp_path, cache_key("census", payload), census_from_dict) is None


def test_projective_transport_preserves_census():
    # carrying configurations through a slope-permuting linear map sends
    # nonattacking to nonattacking and distinct types to distinct types
    from fractions import Fraction
    import random as random_mod

    from ridertypes.geometry import (
        INFINITY,
        point,
        slope_correspondence_map,
    )
    from ridertypes.signature import Config, is_nonattacking, labelled_type

    src_ms = FIG1  # slopes 0, 2, -2
    lmap = slope_correspondence_map(
        [Fraction(0), Fraction(2), Fraction(-2)],
        [Fraction(0), Fraction(1), INFINITY],
    )
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
        seen_src.add(labelled_type(src_ms, cfg).key())
        seen_dst.add(labelled_type(dst_ms, image).key())
        pairs += 1
    assert len(seen_src) == len(seen_dst)
