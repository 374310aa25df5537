"""Exact census of combinatorial types of nonattacking chess riders."""

from .geometry import (
    BasicMove,
    GeometryError,
    MoveSet,
    Point,
    parse_moves,
    parse_point,
    point,
)
from .boards import Board, SQUARE, TRIANGLE, lattice_points, parse_board
from .signature import (
    AttackError,
    Config,
    LabelledType,
    canonical_unlabelled,
    is_nonattacking,
    labelled_type,
)
from .census import (
    Census,
    count_nonattacking,
    fours_witness,
    geometric_census,
    grid_census,
    random_census,
    stabilized_census,
)
from .finitefield import char_poly, ff_type_count, last_level_count, torus_count, valid_prime
from .formulas import (
    QuasiPoly,
    eval_quasipoly,
    fit_quasipoly,
    known_types,
    parse_bfile,
    t3_closed_form,
    types_from_counts,
)

__all__ = [
    "AttackError",
    "BasicMove",
    "Board",
    "Census",
    "Config",
    "GeometryError",
    "LabelledType",
    "MoveSet",
    "Point",
    "QuasiPoly",
    "SQUARE",
    "TRIANGLE",
    "canonical_unlabelled",
    "char_poly",
    "count_nonattacking",
    "eval_quasipoly",
    "ff_type_count",
    "fit_quasipoly",
    "fours_witness",
    "geometric_census",
    "grid_census",
    "is_nonattacking",
    "known_types",
    "labelled_type",
    "last_level_count",
    "lattice_points",
    "parse_bfile",
    "parse_board",
    "parse_moves",
    "parse_point",
    "point",
    "random_census",
    "stabilized_census",
    "t3_closed_form",
    "torus_count",
    "types_from_counts",
    "valid_prime",
]

__version__ = "0.1.0"
