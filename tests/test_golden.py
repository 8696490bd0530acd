"""Byte-for-byte CLI output on the fixtures.

The files under ``tests/golden/`` hold the stdout (and, for ``--dot``,
the written graph) of each command below, on the model files under
``fixtures/``.  Every case runs through ``cli.main`` in this one
interpreter, in several seeded shuffled orders, so no call can change
what a later call prints.  Every case also runs in a fresh interpreter,
once plainly and once under ``python -O``; each of these two
interpreters runs all cases, as this module run as a script.  The
``-O`` run is a sample: ``test_layers.py`` holds that no module the
commands run reads the optimise flag or holds an ``assert``, so ``-O``
cannot change a result.
"""

import contextlib
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctsmin.cli import main

from examples import ROOT, src_env

GOLDEN = ROOT / "tests" / "golden"
DOT = "{dot}"

# (golden name, argv with the fixture name second, exit code)
CASES = [
    ("EX1.bisim", ["bisim", "EX1"], 0),
    ("EX1.check_yes", ["check", "EX1", "x", "x'", "--condition", "phi'"], 0),
    ("EX1.check_no", ["check", "EX1", "x", "x'", "--condition", "phi"], 1),
    ("EX1.minimise", ["minimise", "EX1"], 0),
    ("EX1.minimise_dot", ["minimise", "EX1", "--dot", DOT], 0),
    ("EX2.bisim", ["bisim", "EX2"], 0),
    ("EX2.check_yes", ["check", "EX2", "x2", "x2", "--condition", "phi"], 0),
    ("EX2.check_no", ["check", "EX2", "x1", "x2", "--condition", "phi'"], 1),
    ("EX2.minimise", ["minimise", "EX2"], 0),
    ("EX2.minimise_dot", ["minimise", "EX2", "--dot", DOT], 0),
    # LINE6 is tests/corpus.py's line_cts(6): rounds one to six split
    # blocks and round seven confirms stage 6
    ("LINE6.bisim", ["bisim", "LINE6"], 0),
    ("LINE6.check_yes", ["check", "LINE6", "l0", "l1", "--condition", "phi'"], 0),
    ("LINE6.check_no", ["check", "LINE6", "l0", "l1", "--condition", "phi"], 1),
    ("LINE6.minimise", ["minimise", "LINE6"], 0),
    ("EMPTY.bisim", ["bisim", "EMPTY"], 0),
    ("EMPTY.minimise", ["minimise", "EMPTY"], 0),
    ("ONE.bisim", ["bisim", "ONE"], 0),
    ("ONE.check_yes", ["check", "ONE", "s", "s", "--condition", "phi"], 0),
    ("ONE.minimise", ["minimise", "ONE"], 0),
    # the commands that only parse, rewrite or project the system
    ("EX1.validate", ["validate", "EX1"], 0),
    ("EX1.convert_cts", ["convert", "EX1", "--to", "cts"], 0),
    ("EX1.convert_lats", ["convert", "EX1", "--to", "lats"], 0),
    ("EX1.project", ["project", "EX1", "--condition", "phi'"], 0),
    ("EX1.filters_check", ["filters-check", "EX1"], 0),
    ("EX2.validate", ["validate", "EX2"], 0),
    ("EX2.convert_cts", ["convert", "EX2", "--to", "cts"], 0),
    ("EX2.convert_lats", ["convert", "EX2", "--to", "lats"], 0),
    ("EX2.project", ["project", "EX2", "--condition", "phi'"], 0),
    ("EX2.filters_check", ["filters-check", "EX2"], 0),
    # EX1.lats is EX1 written as a lattice-labelled system
    ("EX1.lats.validate", ["validate", "EX1.lats"], 0),
    ("EX1.lats.convert_cts", ["convert", "EX1.lats", "--to", "cts"], 0),
    ("EX1.lats.bisim", ["bisim", "EX1.lats"], 0),
    ("EX1.lats.minimise", ["minimise", "EX1.lats"], 0),
    # BOWTIE's order p, q < r, s is not a chain: the pairs of u and v at
    # r and s are joins of their pairs at p and q, w's are aliases of
    # its pair at p, and top_down_order breaks the ties r, s and p, q
    ("BOWTIE.validate", ["validate", "BOWTIE"], 0),
    ("BOWTIE.convert_cts", ["convert", "BOWTIE", "--to", "cts"], 0),
    ("BOWTIE.convert_lats", ["convert", "BOWTIE", "--to", "lats"], 0),
    ("BOWTIE.project", ["project", "BOWTIE", "--condition", "p"], 0),
    ("BOWTIE.bisim", ["bisim", "BOWTIE"], 0),
    ("BOWTIE.check_yes", ["check", "BOWTIE", "u", "v", "--condition", "r"], 0),
    ("BOWTIE.check_no", ["check", "BOWTIE", "u", "w", "--condition", "s"], 1),
    ("BOWTIE.minimise", ["minimise", "BOWTIE"], 0),
    ("BOWTIE.minimise_dot", ["minimise", "BOWTIE", "--dot", DOT], 0),
]


def case_args(argv, dot_path):
    """A case's argv with the fixture and the DOT file as paths."""
    args = [str(ROOT / "fixtures" / a) if i == 1 else a for i, a in enumerate(argv)]
    return [str(dot_path) if a == DOT else a for a in args]


def run_in_process(argv, dot_path):
    """Run ``cli.main`` in this interpreter; returns (exit code, stdout
    bytes as UTF-8)."""
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(io.StringIO()):
        code = main(case_args(argv, dot_path))
    stream.flush()
    return code, buffer.getvalue()


@pytest.mark.parametrize("seed", range(5))
def test_in_process_passes_match_golden(tmp_path, seed):
    cases = list(CASES)
    random.Random(seed).shuffle(cases)
    for name, argv, code in cases:
        dot_path = tmp_path / f"{name}.dot"
        assert run_in_process(argv, dot_path) == (
            code,
            (GOLDEN / f"{name}.out").read_bytes(),
        ), name
        if DOT in argv:
            assert dot_path.read_bytes() == (GOLDEN / f"{name}.dot").read_bytes(), name


def run_all_cases(out_dir):
    """Run every case in this interpreter, in list order, writing its
    exit code, stdout and DOT file under ``out_dir``."""
    for name, argv, _ in CASES:
        code, stdout = run_in_process(argv, out_dir / f"{name}.dot")
        (out_dir / f"{name}.code").write_text(str(code))
        (out_dir / f"{name}.out").write_bytes(stdout)


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """The output directory of one fresh interpreter's run of every
    case, for each set of interpreter flags, made on first use."""
    runs = {}

    def run(flags):
        if flags not in runs:
            out_dir = tmp_path_factory.mktemp("golden")
            subprocess.run(
                [sys.executable, *flags, __file__, str(out_dir)],
                check=True,
                env=src_env(),
            )
            runs[flags] = out_dir
        return runs[flags]

    return run


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimised"])
@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(fresh_runs, name, argv, code, flags):
    out_dir = fresh_runs(flags)
    assert int((out_dir / f"{name}.code").read_text()) == code
    assert (out_dir / f"{name}.out").read_bytes() == (GOLDEN / f"{name}.out").read_bytes()
    if DOT in argv:
        assert (out_dir / f"{name}.dot").read_bytes() == (
            GOLDEN / f"{name}.dot"
        ).read_bytes()


if __name__ == "__main__":
    run_all_cases(Path(sys.argv[1]))
