import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsmin import (
    Cts,
    NotDownwardClosed,
    OrderError,
    ParseError,
    minimise_refinement,
    parse_model,
    serialise_model,
    validate_poset,
)
from ctsmin.cli import main
from ctsmin.minimise import bisim_text, chain_result_text
from reference.bisim import lattice_bisim_fixpoint
from reference.chain import chain_result_json

from corpus import boolean_cts, cts_corpus, line_cts
from examples import FIXTURES, ex1, ex2, read_fixture, src_env
from strategies import LIBRARY_NAMES, cts_models

EX1 = str(FIXTURES / "EX1")
EX2 = str(FIXTURES / "EX2")

NOT_CLOSED = (
    "kind: cts\n[conditions]\nphi\nphi'\nphi' <= phi\n[states]\nx\n"
    "[actions]\na\n[transitions]\nx a x : phi\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", EX1)
    assert code == 0
    assert out == "ok: cts with 6 states, 1 actions, 2 conditions, 6 transitions\n"
    assert err == ""


def test_validate_closes_labels_on_request(tmp_path, capsys):
    bad = tmp_path / "bad.cts"
    bad.write_text(NOT_CLOSED)
    assert run(capsys, "validate", str(bad), "--close") == (
        0, "ok: cts with 1 states, 1 actions, 2 conditions, 1 transitions\n", ""
    )


def test_convert_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", EX2, "--to", "lats")
    assert code == 0
    assert out.startswith("kind: lats\n")
    staged = tmp_path / "ex2.lats"
    staged.write_text(out)
    code, back, _ = run(capsys, "convert", str(staged), "--to", "cts")
    assert code == 0
    assert back == (FIXTURES / "EX2").read_text()


def test_project_lists_plain_edges(capsys):
    code, out, _ = run(capsys, "project", EX1, "--condition", "phi")
    assert code == 0
    assert out.splitlines() == ["x a y", "x a z", "x' a z'"]
    code, out, _ = run(capsys, "project", EX1, "--condition", "phi'")
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out, err = run(capsys, "project", EX1, "--condition", "psi")
    assert (code, out, err) == (2, "", "error: unknown element: 'psi'\n")


def test_check_rejects_unknown_names(capsys):
    for x, y, phi, name in (
        ("nope", "x", "phi", "nope"),
        ("x", "nope", "phi", "nope"),
        ("x", "x'", "bogus", "bogus"),
    ):
        outcome = run(capsys, "check", EX1, x, y, "--condition", phi)
        assert outcome == (2, "", f"error: unknown element: {name!r}\n")


def test_names_that_start_with_a_dash_reach_check_and_project(tmp_path, capsys):
    # argparse reads a bare '-y' or '-h' as an option: a condition goes
    # in --condition=NAME, and states come after '--'
    model = tmp_path / "dash.cts"
    model.write_text(
        "kind: cts\n[conditions]\n-h\nphi\n-h <= phi\n[states]\nx -y\n[actions]\na\n"
        "[transitions]\nx a -y : -h\n-y a -y : -h phi\n"
    )
    path = str(model)
    assert run(capsys, "check", path, "--condition=-h", "--", "x", "-y") == (
        0, "x and -y are bisimilar under -h\n", ""
    )
    assert run(capsys, "check", path, "--condition=phi", "--", "x", "-y") == (
        1, "x and -y are not bisimilar under phi\n", ""
    )
    assert run(capsys, "project", path, "--condition=-h") == (0, "-y a -y\nx a -y\n", "")


def test_minimise_dot_escapes_backslash_in_names(tmp_path, capsys):
    model = tmp_path / "backslash.cts"
    model.write_text(
        "kind: cts\n[conditions]\nc\\\n[states]\nx\n[actions]\na\n"
        "[transitions]\nx a x : c\\\n"
    )
    target = tmp_path / "quotient.dot"
    code, _, _ = run(capsys, "minimise", str(model), "--dot", str(target))
    assert code == 0
    assert target.read_text() == (
        "digraph minimised {\n"
        "  rankdir=LR;\n"
        '  "x@c\\\\";\n'
        '  "x@c\\\\" -> "x@c\\\\" [label="c\\\\"];\n'
        "}\n"
    )


def bisim_payload(relation, iterations):
    """The ``bisim`` report as a plain dict."""
    return {
        "algorithm": "fixpoint",
        "iterations": iterations,
        "pairs": {f"{x},{y}": sorted(v) for ((x, y), v) in relation.entries},
    }


def named_system(names):
    """A one-action ring over the given state names, each edge present
    at one condition of a discrete order on the same names.  Without
    names the system has no states and its relation is empty."""
    names = sorted(set(names))
    conditions = validate_poset(names or ["phi"], [])
    labels = {
        (x, "a", names[(i + 1) % len(names)]): {names[(i * 7) % len(names)]}
        for i, x in enumerate(names)
        if i % 3
    }
    return Cts(names, ["a"], conditions, labels)


def test_json_writer_matches_indented_dumps_on_reports():
    systems = [ex1(), ex2()] + list(cts_corpus(500))
    systems += [boolean_cts(3, 0), boolean_cts(4, 0)]
    # "\u00e9" sorts before "z" once quoted, but after it raw
    systems.append(named_system(["\u00e9", "z", "\u00e9z"]))
    for m in systems:
        assert bisim_text(m) == json.dumps(
            bisim_payload(*lattice_bisim_fixpoint(m)), indent=2, sort_keys=True
        )
        result = minimise_refinement(m)
        assert chain_result_text(result) == json.dumps(
            chain_result_json(result), indent=2, sort_keys=True
        )


# names that sort differently from name + ',': '!' and '+' lie below
# ',', '-' and '.' above it
TOKENS = st.text("ab!+-.", min_size=1, max_size=3)


@given(cts_models(st.one_of(LIBRARY_NAMES, TOKENS)))
def test_bisim_text_is_the_dumped_payload(m):
    """The ``bisim`` text is the indented dump of its payload, and on
    token names it reads back as the relation, keys split at ','.  A
    state name holding ',' is rejected."""
    if any("," in x for x in m.states):
        with pytest.raises(ValueError, match="contains ','"):
            bisim_text(m)
        return
    relation, iterations = lattice_bisim_fixpoint(m)
    text = bisim_text(m)
    assert text == json.dumps(bisim_payload(relation, iterations), indent=2, sort_keys=True)
    if all(set(x) <= set("ab!+-.") for x in m.states):
        pairs = json.loads(text)["pairs"]
        read = {tuple(key.split(",")): frozenset(conds) for key, conds in pairs.items()}
        assert read == dict(relation.entries)


# the ids name the JSON payloads whose strings these lists once were
@pytest.mark.parametrize(
    "names",
    [
        pytest.param([], id="payload0"),
        pytest.param(["a", "b"], id="payload2"),
        pytest.param(["z", "a", "m"], id="payload4"),
        pytest.param(
            ["caf\u00e9", "\u2203x", "back\\slash", 'quo"te', "tab\t", "\ud83d\ude00"],
            id="payload5",
        ),
        pytest.param(["\u00fcber", "k\\y", ""], id="payload6"),
        pytest.param(["t", "f", "n", "i"], id="payload8"),
        pytest.param(["tu", "ple"], id="payload9"),
        pytest.param(["plain"], id="plain"),
    ],
)
def test_json_writer_matches_indented_dumps_on_edge_cases(names):
    """The names (non-ASCII, surrogates, backslash, quote, tab, the
    empty string) name the states and conditions of a ``bisim`` report;
    no names give the empty relation."""
    m = named_system(names)
    assert bisim_text(m) == json.dumps(
        bisim_payload(*lattice_bisim_fixpoint(m)), indent=2, sort_keys=True
    )


# each command with the arguments after the file that it needs to run
EVERY_COMMAND = {
    "validate": [],
    "convert": ["--to", "cts"],
    "project": ["--condition", "phi"],
    "bisim": [],
    "check": ["x", "x", "--condition", "phi"],
    "minimise": [],
    "filters-check": [],
}
# each input's bytes and its reason.  A path that cannot be read has no
# reason and, in place of bytes, None for a missing file or "directory"
# (IsADirectoryError, or PermissionError on Windows)
BAD_INPUTS = {
    "missing": (None, None),
    "directory": ("directory", None),
    "lone-byte": (b"\xff", "line 1: not UTF-8: invalid start byte"),
    "undecodable": (
        b"kind: cts\n[conditions]\nphi\n# caf\xe9\n",
        "line 4: not UTF-8: invalid continuation byte",
    ),
    # CRLF line ends count as one line each
    "crlf-undecodable": (
        b"kind: cts\r\n\n# caf\xe9\n",
        "line 3: not UTF-8: invalid continuation byte",
    ),
    "open-label": (
        NOT_CLOSED.encode(),
        "label set not downward closed (line 11): x a x : phi",
    ),
    "cycle": (
        b"kind: cts\n[conditions]\np\nq\np <= q\nq <= p\n[states]\nx\n"
        b"[actions]\na\n[transitions]\n",
        "antisymmetry violated on cycle: p <= q",
    ),
    "long-cycle": (
        b"kind: cts\n[conditions]\nr\nq\np\no\no <= p\nr <= p\nq <= r\np <= q\n"
        b"[states]\nx\n[actions]\na\n[transitions]\n",
        "antisymmetry violated on cycle: p <= q <= r",
    ),
    # an undeclared name is reported before the cycle above it
    "cycle-then-undeclared": (
        b"kind: cts\n[conditions]\np\nq\np <= q\nq <= p\np <= r\n[states]\nx\n"
        b"[actions]\na\n[transitions]\n",
        "line 7: undeclared condition 'r'",
    ),
}


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_every_command_keeps_the_error_contract(tmp_path, capsys, command, name):
    data, reason = BAD_INPUTS[name]
    path = tmp_path / name
    if data == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    outcome = run(capsys, command, str(path), *EVERY_COMMAND[command])
    if reason is None:
        assert outcome == (2, "", f"cannot read {path}\n")
    elif command == "validate":
        assert outcome == (1, f"invalid: {reason}\n", "")
    else:
        assert outcome == (3, "", f"invalid model: {reason}\n")


@pytest.mark.parametrize("fixture", ["EX1", "BOWTIE"])
def test_reflexive_and_repeated_order_lines_change_nothing(tmp_path, capsys, fixture):
    text = (FIXTURES / fixture).read_text()
    conditions = parse_model(text).conditions
    extra = [f"{c} <= {c}" for c in conditions.elements]
    extra += [f"{p} <= {q}" for p, q in conditions.covers]
    path = tmp_path / fixture
    path.write_text(text.replace("\n\n[states]", "\n" + "\n".join(extra) + "\n\n[states]", 1))
    for command in (["validate"], ["convert", "--to", "cts"], ["bisim"], ["minimise"]):
        want = run(capsys, command[0], str(FIXTURES / fixture), *command[1:])
        assert run(capsys, command[0], str(path), *command[1:]) == want
        assert want[0] == 0


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    marked = tmp_path / "EX1"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(EX1).read_bytes())
    assert run(capsys, "validate", str(marked)) == run(capsys, "validate", EX1)
    golden = (FIXTURES.parent / "tests" / "golden" / "EX1.bisim.out").read_text()
    assert run(capsys, "bisim", str(marked)) == (0, golden, "")
    # a non-UTF-8 byte after the mark is still reported on its own line
    marked.write_bytes(b"\xef\xbb\xbfkind: cts\n\n# caf\xe9\n")
    code, _, err = run(capsys, "bisim", str(marked))
    assert code == 3
    assert err.startswith("invalid model: line 3: not UTF-8")


def test_walkthrough_ignores_byte_order_mark(tmp_path):
    def walkthrough(path):
        return subprocess.run(
            [sys.executable, str(FIXTURES.parent / "scripts" / "chain_walkthrough.py"), path],
            capture_output=True,
            # src alone, as CI runs it: the script must put tests/ on its path itself
            env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")},
        )

    marked = tmp_path / "EX1"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(EX1).read_bytes())
    plain, got = walkthrough(EX1), walkthrough(str(marked))
    assert (got.returncode, got.stdout) == (0, plain.stdout)
    assert plain.returncode == 0


def test_undeclared_condition_is_named_in_line_order(tmp_path):
    # the label is a set, whose order varies with the hash seed
    path = tmp_path / "model.cts"
    path.write_text(
        "kind: cts\n[conditions]\nphi\n[states]\nx\n[actions]\na\n"
        "[transitions]\nx a x : zz yy ww vv\n"
    )
    for seed in ("1", "4", "5"):
        proc = subprocess.run(
            [sys.executable, "-m", "ctsmin", "validate", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 1
        assert proc.stdout == "invalid: line 9: undeclared condition 'zz'\n"


def test_unwritable_dot_file_is_a_usage_error(tmp_path, capsys):
    # the whole report is written before the DOT file fails
    target = tmp_path / "no" / "such" / "dir.dot"
    code, out, err = run(capsys, "minimise", EX1, "--dot", str(target))
    assert code == 2
    assert out == chain_result_text(minimise_refinement(ex1())) + "\n"
    assert err == f"cannot write {target}\n"


@pytest.mark.parametrize("argv", [[], ["bogus", EX1], ["check", EX1, "x", "y"],
                                  ["convert", EX1], ["convert", EX1, "--to", "dot"]])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    out, err = capsys.readouterr()
    assert (raised.value.code, out) == (2, "")
    assert err.startswith("usage: ctsmin")


@pytest.mark.parametrize("command", ["bisim", "check", "help", "minimise", "validate"])
def test_closed_output_pipe_is_a_usage_error(tmp_path, command):
    """Each output, ``validate``'s verdict on an invalid model and the
    help text included, fits in the buffer of a buffered stdout; with
    the pipe's read end closed before the run, the write fails at the
    flush, and what is still buffered must not fail again at exit.
    line_cts(80)'s minimise and bisim reports, 1.2 MB and 240 KB,
    outgrow a 64 KiB pipe buffer, so a write fails mid-report once the
    reader stops after 100 bytes."""
    invalid = tmp_path / "invalid.cts"
    invalid.write_text("kind: cts\nnonsense\n")
    argv = {
        "bisim": ["bisim", EX1],
        "check": ["check", EX1, "x", "x'", "--condition", "phi"],
        "help": ["--help"],
        "minimise": ["minimise", EX1],
        "validate": ["validate", str(invalid)],
    }[command]
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    ctsmin = [sys.executable, "-m", "ctsmin"]
    read, write = os.pipe()
    os.close(read)
    proc = subprocess.run(ctsmin + argv, stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"")
    if command not in ("bisim", "minimise"):
        return
    path = tmp_path / "line80.cts"
    path.write_text(serialise_model(line_cts(80), "cts"), encoding="utf-8")
    proc = subprocess.Popen(
        ctsmin + [command, str(path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, b"")


STREAMED = {"line40": lambda: line_cts(40), "boolean5": lambda: boolean_cts(5, 0)}


# EMPTY's and ONE's quotient order and transitions are [], so those
# streamed lists close with no item written
@pytest.mark.parametrize("name", [*STREAMED, "EMPTY", "ONE"])
def test_minimise_streams_the_report_text(name, tmp_path, capsys):
    if name in STREAMED:
        model = STREAMED[name]()
        path = tmp_path / f"{name}.cts"
        path.write_text(serialise_model(model, "cts"), encoding="utf-8")
    else:
        model, path = read_fixture(name), FIXTURES / name
    code, out, err = run(capsys, "minimise", str(path))
    assert (code, err) == (0, "")
    assert out == chain_result_text(minimise_refinement(model)) + "\n"


FIXTURE_TEXTS = [path.read_text() for path in sorted(FIXTURES.iterdir())]
FIXTURE_LINES = sorted({line for text in FIXTURE_TEXTS for line in text.splitlines()})
# fixture tokens, and ones that break the format: reserved characters, a
# section header, a stray order or label separator
FIXTURE_TOKENS = sorted(
    {token for text in FIXTURE_TEXTS for token in text.split()}
    | {"@", ",", '"', "[x", "[states]", "<=", ":", "kind:", "lats", "q@r"}
)


@st.composite
def mutated_fixtures(draw):
    """A fixture's text after one to four edits, each deleting,
    inserting or duplicating a line or a token of a line, and two states
    and a condition for the queries: the model's own names when the text
    still parses, or any of its tokens."""
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("delete", "insert", "duplicate")))
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            units, pool = lines, FIXTURE_LINES
        else:
            units, pool = lines[at].split() if at < len(lines) else [], FIXTURE_TOKENS
        where = draw(st.integers(0, len(units)))
        if edit == "insert":
            units.insert(where, draw(st.sampled_from(pool)))
        elif where < len(units):
            if edit == "delete":
                del units[where]
            else:
                units.insert(where, units[where])
        if units is not lines:
            lines[at:at + 1] = [" ".join(units)]
    text = "\n".join(lines) + "\n"
    # a token starting with '-' would be read as an option; the forms
    # that pass such names are test_names_that_start_with_a_dash_*
    tokens = st.sampled_from([t for t in text.split() + ["x"] if not t.startswith("-")])
    states = conditions = tokens
    try:
        model = parse_model(text)
    except (ParseError, NotDownwardClosed, OrderError):
        pass
    else:
        if model.states:
            states = st.one_of(st.sampled_from(model.states), tokens)
        conditions = st.one_of(st.sampled_from(model.conditions.elements), tokens)
    return text, draw(states), draw(states), draw(conditions)


@settings(max_examples=200, deadline=None)
@given(mutated_fixtures())
def test_every_command_is_total_on_mutated_fixtures(drawn):
    """Every command ends in a documented exit code, and all of them
    agree on whether the text is a model: ``validate`` prints
    ``invalid: E`` exactly when every other command prints ``invalid
    model: E`` on stderr and exits 3, with the same E, and no command
    exits 3 on a text that validates."""
    text, x, y, phi = drawn
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work) / "model")
        Path(path).write_text(text, encoding="utf-8")
        outcomes = {}
        for argv in (
            ["validate", path],
            ["convert", path, "--to", "lats"],
            ["bisim", path],
            ["check", path, x, y, "--condition", phi],
            ["minimise", path, "--dot", str(Path(work) / "out.dot")],
            ["project", path, "--condition", phi],
            ["filters-check", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), argv
            outcomes[argv[0]] = (code, out.getvalue(), err.getvalue())
    code, out, err = outcomes.pop("validate")
    assert err == ""
    if code == 1:
        assert out.startswith("invalid: ")
        fault = (3, "", f"invalid model: {out[len('invalid: '):]}")
        assert outcomes == dict.fromkeys(outcomes, fault)
    else:
        assert (code, out[:4]) == (0, "ok: ")
        assert all(c != 3 for c, _, _ in outcomes.values()), outcomes


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ctsmin", "validate", EX1],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: cts")


def test_console_script_is_cli_main():
    """The ``ctsmin`` script that ``pyproject.toml`` declares runs
    ``cli.main``; CI runs the installed script itself."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(FIXTURES.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, name = scripts["ctsmin"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
