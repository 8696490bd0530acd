"""The installed package is the runtime and nothing else.  The paper's
reference constructions live in ``tests/reference`` and import the
runtime, which cannot import them: ``src/ctsmin`` holds no subpackage,
and every module in it is a runtime module, the command line or the
package itself.  No command loads any other ``ctsmin`` module, under
``python`` or ``python -O``, on a model file of either kind.
``ctsmin.__all__`` names only what the runtime modules define.
"""

import inspect
import subprocess
import sys

import pytest

import ctsmin

from examples import ROOT, src_env

RUNTIME_MODULES = (
    "ctsmin.equivalence",
    "ctsmin.minimise",
    "ctsmin.modelfile",
    "ctsmin.models",
    "ctsmin.order",
)

# tests/corpus.py and benchmark/workloads.py read Cts, Poset, TWO_LEVEL,
# validate_poset and serialise_model from the package
RUNTIME_API = [
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
    "chain_result_text",
    "minimise_refinement",
    "parse_model",
    "refine",
    "serialise_model",
    "validate_poset",
]

# imports the command line, runs all seven commands on each model file
# given, checks that each succeeded, and prints every ctsmin module then
# loaded
PROBE = """
import contextlib, io, os, sys, tempfile
from ctsmin.cli import main
dot = os.path.join(tempfile.mkdtemp(), "out.dot")
with contextlib.redirect_stdout(io.StringIO()):
    for path in sys.argv[1:]:
        for argv in (
            ["validate", path],
            ["convert", path, "--to", "cts"],
            ["convert", path, "--to", "lats"],
            ["project", path, "--condition", "phi"],
            ["bisim", path],
            ["check", path, "x", "x'", "--condition", "phi'"],
            ["minimise", path, "--dot", dot],
            ["filters-check", path],
        ):
            assert main(argv) == 0, argv
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "ctsmin")))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimised"])
def test_cli_loads_no_oracle_or_theory_module(flags):
    files = [str(ROOT / "fixtures" / name) for name in ("EX1", "EX1.lats")]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *files],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "ctsmin.cli" in loaded
    assert set(loaded) <= {"ctsmin", "ctsmin.cli", *RUNTIME_MODULES}


def test_all_is_the_runtime_api():
    assert ctsmin.__all__ == RUNTIME_API
    for name in ctsmin.__all__:
        value = getattr(ctsmin, name)
        homes = [m for m in RUNTIME_MODULES if vars(sys.modules[m]).get(name) is value]
        assert homes, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in RUNTIME_MODULES, name


def test_runtime_modules_are_the_top_level_modules():
    src = ROOT / "src"
    found = {
        ".".join(path.relative_to(src).with_suffix("").parts)
        for path in (src / "ctsmin").rglob("*.py")
    }
    expected = {"ctsmin.__init__", "ctsmin.cli", "ctsmin.__main__", *RUNTIME_MODULES}
    assert found == expected
