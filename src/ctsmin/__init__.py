"""Conditional transition systems over finite distributive condition
lattices: parsing and validation, conditional bisimilarity and
minimisation by one partition-refinement engine, and their reports.

This package is the runtime the command line uses, and all that is
installed.  The references that the tests hold it against (the
oracles, the lattice monad, the downset frames, the lattice import and
the upgrade coalgebra table) live with the tests, in
``tests/reference``.  A lattice-labelled system is the same ``Cts``: by
Birkhoff duality its labels are the downward closed condition sets, so
one system type serves both model file kinds."""

from .equivalence import bisimilar, refine
from .minimise import ChainResult, chain_result_dot, minimise_refinement
from .modelfile import ParseError, parse_model, serialise_model
from .models import Cts, NotDownwardClosed
from .order import (
    TWO_LEVEL,
    AntisymmetryViolation,
    OrderError,
    Poset,
    UnknownElement,
    validate_poset,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymmetryViolation",
    "ChainResult",
    "Cts",
    "NotDownwardClosed",
    "OrderError",
    "ParseError",
    "Poset",
    "TWO_LEVEL",
    "UnknownElement",
    "bisimilar",
    "chain_result_dot",
    "minimise_refinement",
    "parse_model",
    "refine",
    "serialise_model",
    "validate_poset",
]
