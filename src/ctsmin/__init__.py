"""Conditional transition systems over finite distributive condition
lattices: parsing and validation, conditional bisimilarity and
minimisation by one partition-refinement engine, and their reports.

This package is the runtime the command line uses.  The oracles that
the tests hold it against live in ``ctsmin.oracles`` and the lattice
monad and lattice import in ``ctsmin.theory``; neither is imported
here."""

from .equivalence import (
    LatticeRelation,
    bisim_refinement,
    bisimilar,
    partition_matrix,
    refine,
)
from .fixtures import TWO_LEVEL, ex1, ex2
from .frame import BaseMismatch, Frame, FrameError
from .minimise import (
    ChainResult,
    chain_result_dot,
    chain_result_text,
    minimise_refinement,
)
from .modelfile import ParseError, convert_model, parse_model, serialise_model
from .models import (
    Cts,
    Lats,
    Lts,
    NotDownwardClosed,
    UpgradeCoalgebra,
    check_upgrade_preserving,
    coalgebra_encode,
    cts_to_lats,
    lats_to_cts,
    project,
)
from .order import (
    AntisymmetryViolation,
    Downset,
    OrderError,
    Poset,
    UnknownElement,
    validate_poset,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymmetryViolation",
    "BaseMismatch",
    "ChainResult",
    "Cts",
    "Downset",
    "Frame",
    "FrameError",
    "Lats",
    "LatticeRelation",
    "Lts",
    "NotDownwardClosed",
    "OrderError",
    "ParseError",
    "Poset",
    "TWO_LEVEL",
    "UnknownElement",
    "UpgradeCoalgebra",
    "bisim_refinement",
    "bisimilar",
    "chain_result_dot",
    "chain_result_text",
    "check_upgrade_preserving",
    "coalgebra_encode",
    "convert_model",
    "cts_to_lats",
    "ex1",
    "ex2",
    "lats_to_cts",
    "minimise_refinement",
    "parse_model",
    "partition_matrix",
    "project",
    "refine",
    "serialise_model",
    "validate_poset",
]
