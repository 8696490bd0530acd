"""The installed package is the runtime and nothing else.  The paper's
reference constructions live in ``tests/reference`` and import the
runtime, which cannot import them: ``src/ctsmin`` holds no subpackage,
and every module in it is a runtime module, the command line or the
package itself.  No command loads any other ``ctsmin`` module, under
``python`` or ``python -O``, on a model file of either kind, and none
loads ``dataclasses``, ``inspect`` or ``typing``, which every cold call
would pay for.  ``ctsmin.__all__`` names only what the runtime modules
define.

One scan of the sources holds the rest.  The runtime imports nothing
but the standard library and ``ctsmin``, so it cannot reach an oracle
or a test dependency.  No module that the runtime, the walkthrough, the
benchmark or the tests' helpers and oracles run holds an ``assert`` or
reads ``__debug__`` or ``sys.flags``, so ``python -O`` cannot change
what they compute.  The ``test_*.py`` modules are left out: pytest
rewrites their asserts, which therefore check under ``-O`` too.  The
``-O`` probe here and the golden cases' ``-O`` interpreter sample the
same property end to end.  A second scan holds the runtime free of code
only the tests call: every function, method and class that
``src/ctsmin`` defines is named somewhere else in ``src/ctsmin``, but
for the console script, dunders and the exported names that
``benchmark`` or ``scripts`` name.
"""

import ast
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
    "minimise_refinement",
    "parse_model",
    "refine",
    "serialise_model",
    "validate_poset",
]

# imports the command line, runs all seven commands on each model file
# given, checks that each succeeded, and prints every module then loaded
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
print("\\n".join(sorted(sys.modules)))
"""


def modules_after_every_command(flags):
    """The modules loaded in a fresh interpreter, started with ``flags``,
    once the command line has run every command on a ``cts`` and a
    ``lats`` file."""
    files = [str(ROOT / "fixtures" / name) for name in ("EX1", "EX1.lats")]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PROBE, *files],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimised"])
def test_cli_loads_no_oracle_or_theory_module(flags):
    loaded = {m for m in modules_after_every_command(flags) if m.split(".")[0] == "ctsmin"}
    assert "ctsmin.cli" in loaded
    assert loaded <= {"ctsmin", "ctsmin.cli", *RUNTIME_MODULES}


@pytest.mark.parametrize("flags", [("-S",), ("-S", "-O")], ids=["plain", "optimised"])
def test_cli_loads_no_dataclasses_inspect_or_typing(flags):
    """A cold call pays for every module the command line imports, and
    these three are costly.  ``-S`` skips the site set-up, since a
    ``.pth`` file there may import ``typing`` before any ``ctsmin``
    code runs."""
    loaded = modules_after_every_command(flags)
    assert "ctsmin.cli" in loaded
    assert {"dataclasses", "inspect", "typing"} & loaded == set()


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


def scanned_modules():
    """Every Python file under ``src``, ``scripts``, ``benchmark`` and
    ``tests``, but the ``tests/test_*.py`` modules."""
    for top in ("src", "scripts", "benchmark", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if not (path.parent == ROOT / "tests" and path.name.startswith("test_")):
                yield path


def test_no_module_reads_the_optimise_flag_and_the_runtime_imports_only_the_stdlib():
    allowed = sys.stdlib_module_names | {"ctsmin"}
    optimised, foreign = [], []
    for path in scanned_modules():
        where = path.relative_to(ROOT).as_posix()
        runtime = path.parent == ROOT / "src" / "ctsmin"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), where)):
            at = f"{where}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Assert):
                optimised.append(f"{at} assert")
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                optimised.append(f"{at} __debug__")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "flags"
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                optimised.append(f"{at} sys.flags")
            elif isinstance(node, ast.ImportFrom) and node.module == "sys":
                if any(a.name == "flags" for a in node.names):
                    optimised.append(f"{at} from sys import flags")
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                imported = []
            if runtime:
                foreign += [f"{at} {n}" for n in imported if n.split(".")[0] not in allowed]
    assert optimised == []
    assert foreign == []


def names_in(*tops):
    """Every name, attribute and name imported from a module in the
    Python files under the given top-level directories."""
    named = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    named.update(alias.name for alias in node.names)
    return named


def test_every_runtime_definition_is_named_in_the_runtime():
    # an exported name is exempt only if the benchmark or the walkthrough
    # names it, so no twin of a runtime path can live on for the tests
    exempt = {*(set(ctsmin.__all__) & names_in("benchmark", "scripts")), "cli.py:main"}
    defined, named = [], set()
    for path in sorted((ROOT / "src" / "ctsmin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unnamed = [
        f"{where}: {name}"
        for where, name in defined
        if not {name, f"{where}:{name}"} & (named | exempt)
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unnamed == []
