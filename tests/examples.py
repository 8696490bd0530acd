"""The worked examples, read from their model files, and the engine's
final relation as the oracles give theirs.

EX1 is a pair of three-state gadgets over the two-level order
phi' < phi whose top states are equivalent at each single condition
but differ once upgrades are tracked.  EX2 is a two-state system in
which one state can only move at the lower condition, separating
version-aware equivalence from the per-condition view at the top.
"""

from pathlib import Path

from ctsmin import parse_model, refine
from reference.chain import partition_matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_fixture(name):
    return parse_model((FIXTURES / name).read_text(encoding="utf-8"))


def ex1():
    return read_fixture("EX1")


def ex2():
    return read_fixture("EX2")


def final_relation(m):
    """The same-condition kernel of ``refine``'s final blocks as a
    ``LatticeRelation`` (through ``partition_matrix``), with the
    engine's iteration count."""
    graph, _, block, iterations = refine(m)
    classes = {}
    for pair, b in zip(graph.pairs, block):
        classes.setdefault(b, []).append(pair)
    partition = tuple(map(tuple, classes.values()))
    return partition_matrix(m.states, m.conditions, partition), iterations
