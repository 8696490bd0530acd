"""The worked examples, read from their model files, the engine's final
relation as the oracles give theirs, the key that tells two systems
apart, and the checkout's paths with the environment in which a
subprocess runs its package.

EX1 is a pair of three-state gadgets over the two-level order
phi' < phi whose top states are equivalent at each single condition
but differ once upgrades are tracked.  EX2 is a two-state system in
which one state can only move at the lower condition, separating
version-aware equivalence from the per-condition view at the top.
"""

import os
from pathlib import Path

from ctsmin import parse_model, refine
from reference.chain import block_partition, partition_matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def src_env():
    """This process's environment with ``src`` first on the module path,
    ahead of the caller's ``PYTHONPATH``, for a subprocess to run the
    checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def read_fixture(name):
    return parse_model((FIXTURES / name).read_text(encoding="utf-8"))


def ex1():
    return read_fixture("EX1")


def ex2():
    return read_fixture("EX2")


def system_key(m):
    """What makes two systems the same: their states, actions, condition
    order and labelled edges.  ``Cts`` itself compares by identity."""
    return (m.states, m.actions, m.conditions, tuple(m.edges()))


def final_relation(m):
    """The same-condition kernel of ``refine``'s final blocks as a
    ``LatticeRelation`` (through ``partition_matrix``), with the
    engine's iteration count."""
    graph, _, block, iterations = refine(m)
    partition = block_partition(graph.pairs, block)
    return partition_matrix(m.states, m.conditions, partition), iterations
