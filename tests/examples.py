"""The worked examples, read from their model files, the engine's final
relation as the oracles give theirs, the key that tells two systems
apart, the checkout's paths with the environment in which a
subprocess runs its package, and a command's peak memory in a child.

EX1 is a pair of three-state gadgets over the two-level order
phi' < phi whose top states are equivalent at each single condition
but differ once upgrades are tracked.  EX2 is a two-state system in
which one state can only move at the lower condition, separating
version-aware equivalence from the per-condition view at the top.
"""

import os
import subprocess
import sys
from pathlib import Path

from ctsmin import parse_model, refine
from reference.chain import block_partition, partition_matrix
from reference.models import edges

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


# a child's ru_maxrss also counts the pages of the process it was forked
# from, up to its exec, so a fresh interpreter launches it: spawned from
# the test process, that process's own peak would pass for the child's
LAUNCHER = (
    "import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
    "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss, file=sys.stderr); "
    "sys.exit(os.waitstatus_to_exitcode(status))"
)


def child_peak_mb(*argv):
    """The peak RSS in MB of ``python -m ctsmin`` run on ``argv`` in a
    child of a fresh interpreter, its stdout discarded.  A child that
    fails raises with its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "ctsmin", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    if proc.returncode:
        raise RuntimeError(proc.stderr.decode())
    return int(proc.stderr) / (2**20 if sys.platform == "darwin" else 2**10)


def read_fixture(name):
    return parse_model((FIXTURES / name).read_text(encoding="utf-8"))


def ex1():
    return read_fixture("EX1")


def ex2():
    return read_fixture("EX2")


def system_key(m):
    """What makes two systems the same: their states, actions, condition
    order and labelled edges.  ``Cts`` itself compares by identity."""
    return (m.states, m.actions, m.conditions, tuple(edges(m)))


def final_relation(m):
    """The same-condition kernel of ``refine``'s final blocks as a
    ``LatticeRelation`` (through ``partition_matrix``), with the
    engine's iteration count."""
    graph, _, block, iterations = refine(m)
    partition = block_partition(graph.pairs, block)
    return partition_matrix(m.states, m.conditions, partition), iterations
