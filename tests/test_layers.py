"""The runtime package stands apart from the oracles and the theory
layer.  The command line loads no module of ``ctsmin.oracles`` or
``ctsmin.theory``, under ``python`` or ``python -O``, and
``ctsmin.__all__`` names only what the runtime modules define.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctsmin

ROOT = Path(__file__).resolve().parent.parent

RUNTIME_MODULES = (
    "ctsmin.equivalence",
    "ctsmin.fixtures",
    "ctsmin.frame",
    "ctsmin.minimise",
    "ctsmin.modelfile",
    "ctsmin.models",
    "ctsmin.order",
)

# tests/corpus.py and benchmark/workloads.py read Cts, Poset, TWO_LEVEL,
# validate_poset and serialise_model from the package
RUNTIME_API = [
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

# imports the command line, runs the commands that reach the engine, and
# prints every ctsmin module then loaded
PROBE = """
import contextlib, io, sys
from ctsmin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["bisim", sys.argv[1]], ["check", sys.argv[1], "x", "x'",
                 "--condition", "phi"], ["minimise", sys.argv[1]]):
        main(argv)
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "ctsmin")))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimised"])
def test_cli_loads_no_oracle_or_theory_module(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, str(ROOT / "fixtures" / "EX1")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "ctsmin.cli" in loaded
    assert [
        m for m in loaded if m.startswith(("ctsmin.oracles", "ctsmin.theory"))
    ] == []
    assert set(loaded) <= {"ctsmin", "ctsmin.cli", *RUNTIME_MODULES}


def test_all_is_the_runtime_api():
    assert ctsmin.__all__ == RUNTIME_API
    for name in ctsmin.__all__:
        value = getattr(ctsmin, name)
        homes = [m for m in RUNTIME_MODULES if vars(sys.modules[m]).get(name) is value]
        assert homes, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in RUNTIME_MODULES, name
