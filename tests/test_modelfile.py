import re

import pytest
from hypothesis import given, strategies as st

from ctsmin import (
    TWO_LEVEL,
    AntisymmetryViolation,
    Cts,
    NotDownwardClosed,
    ParseError,
    Poset,
    parse_model,
    serialise_model,
    validate_poset,
)
from ctsmin.modelfile import RESERVED, parse_with_kind
from reference.models import outgoing

from corpus import cts_corpus
from examples import FIXTURES, ex1, ex2, system_key
from strategies import cts_models

BOTH = frozenset({"phi", "phi'"})
LOW = frozenset({"phi'"})


def test_ex1_fixture_matches_builtin():
    # two three-state gadgets over phi' < phi: x' moves to y' only at
    # phi', and y and y' move back only at phi'
    m = ex1()
    assert m.states == ("x", "x'", "y", "y'", "z", "z'")
    assert m.actions == ("a",)
    assert m.conditions == TWO_LEVEL
    assert m.edges() == [
        ("x", "a", "y", BOTH),
        ("x", "a", "z", BOTH),
        ("x'", "a", "y'", LOW),
        ("x'", "a", "z'", BOTH),
        ("y", "a", "x", LOW),
        ("y'", "a", "x'", LOW),
    ]


def test_ex2_fixture_matches_builtin():
    # x2 loops only at phi', x1 never moves
    m = ex2()
    assert (m.states, m.actions, m.conditions) == (("x1", "x2"), ("a",), TWO_LEVEL)
    assert m.edges() == [("x2", "a", "x2", LOW)]


def test_fixture_files_are_canonical():
    for name in ("EX1", "EX2", "BOWTIE"):
        text = (FIXTURES / name).read_text()
        assert serialise_model(parse_model(text)) == text


def test_serialise_is_canonical_on_corpus():
    for m in cts_corpus(40):
        text = serialise_model(m)
        again = parse_model(text)
        assert set(again.edges()) == set(m.edges())
        assert serialise_model(again) == text


@pytest.mark.parametrize("name", ["", "b c", "a#b", "a\nb"])
@pytest.mark.parametrize("kind", ["state", "action", "condition"])
def test_serialise_rejects_names_that_read_back_as_another_system(kind, name):
    """An empty name, or one holding whitespace or '#', would be split
    or cut short on read-back, so ``serialise_model`` names it."""
    names = {"state": ["a"], "action": ["x"], "condition": ["phi"]}
    names[kind].append(name)
    m = Cts(names["state"], names["action"], validate_poset(names["condition"], []), {})
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        serialise_model(m)


def test_serialise_writes_names_the_parser_rejects_loudly():
    models = [
        Cts([name], ["a"], TWO_LEVEL, {}) for name in ("x@phi", "a,b", 'q"', "[s")
    ]
    models.append(Cts(["x"], ["a"], validate_poset(["a<=b"], []), {}))
    for m in models:
        with pytest.raises(ParseError):
            parse_model(serialise_model(m))


# The parser's token alphabet: printable, no whitespace, no reserved
# character and no '#', which starts a comment; a name may not start
# with '[', and a condition may not hold '<=', which makes an order line.
# The characters the format gives a meaning to are drawn more often.
TOKEN_CHARS = st.one_of(
    st.sampled_from("[]<=:"),
    st.characters().filter(
        lambda ch: ch.isprintable() and not ch.isspace() and ch not in RESERVED + "#"
    ),
)
TOKENS = st.text(TOKEN_CHARS, min_size=1, max_size=4).filter(
    lambda name: not name.startswith("[")
)


@given(
    cts_models(TOKENS, TOKENS.filter(lambda name: "<=" not in name)),
    st.sampled_from(["cts", "lats"]),
)
def test_parse_inverts_serialise_on_token_names(model, kind):
    text = serialise_model(model, kind)
    got_kind, again = parse_with_kind(text)
    assert got_kind == kind
    assert system_key(again) == system_key(model) == system_key(parse_model(text))
    assert serialise_model(again, kind) == text


SCRAMBLED = """
# comment first
kind: cts   # trailing comment

[actions]
a
[states]
y x
[conditions]
phi
phi'
phi' <= phi
[transitions]
x a y : phi' phi
"""


def test_parse_tolerates_comments_and_section_order():
    m = parse_model(SCRAMBLED)
    assert isinstance(m, Cts)
    assert outgoing(m, "x", "a") == [("y", BOTH)]
    canonical = serialise_model(m)
    assert "x a y : phi phi'" in canonical


def test_lats_kind_round_trip():
    text = serialise_model(ex1(), "lats")
    assert text.startswith("kind: lats\n")
    assert text[len("kind: lats") :] == serialise_model(ex1())[len("kind: cts") :]
    for again in (text, (FIXTURES / "EX1.lats").read_text()):
        kind, m = parse_with_kind(again)
        assert (kind, system_key(m)) == ("lats", system_key(ex1()))


def test_convert_is_identity_on_matching_kind():
    for kind in ("cts", "lats"):
        text = serialise_model(ex1(), kind)
        assert serialise_model(parse_model(text), kind) == text
    with pytest.raises(ValueError):
        serialise_model(ex1(), "graph")


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "empty model"),
        ("kind: petri\n", 1, "unknown kind"),
        ("[states]\n", 1, "expected 'kind:"),
        ("kind: cts\n[bogus]\n", 2, "unknown section"),
        ("kind: cts\n[states]\n[states]\n", 3, "duplicate section"),
        ("kind: cts\nloose\n", 2, "outside any section"),
        ("kind: cts\n[conditions]\np q\n", 3, "one condition name"),
        ("kind: cts\n[conditions]\np\np\n", 4, "declared twice"),
        ("kind: cts\n[conditions]\np\np <= q\n", 4, "undeclared condition 'q'"),
        ("kind: cts\n[conditions]\np\np <= p <= p\n", 4, "order lines read"),
        ("kind: cts\n[conditions]\nphi\nphi'\nphi'<=phi\n", 5, "order lines read"),
        (
            "kind: cts\n[conditions]\np\n[states]\nx\n[actions]\na\n"
            "[transitions]\nx a : p\n",
            9,
            "transitions read",
        ),
        (
            "kind: cts\n[conditions]\np\n[states]\nx\n[actions]\na\n"
            "[transitions]\nx a z : p\n",
            9,
            "undeclared state 'z'",
        ),
        (
            "kind: cts\n[conditions]\np\n[states]\nx\n[actions]\na\n"
            "[transitions]\nx b x : p\n",
            9,
            "undeclared action 'b'",
        ),
        (
            "kind: cts\n[conditions]\np\n[states]\nx\n[actions]\na\n"
            "[transitions]\nx a x : q\n",
            9,
            "undeclared condition 'q'",
        ),
        ("kind: cts\n[states]\nx\n[actions]\n[transitions]\n", 1, "missing section"),
        (
            "kind: cts\n[conditions]\n[states]\nx\n[actions]\na\n[transitions]\n",
            2,
            "at least one condition",
        ),
        # Were '@' allowed, s@p at q and s at p@q would both print as
        # "s@p@q" and minimise would give a kernel of 2 classes but a
        # quotient of 1 state.  With ',' the bisim key "a,b,a" would
        # stand for both (a, b,a) and (a,b, a).  A '"' would go into the
        # DOT output unescaped.  A name starting with '[' could be
        # written first on a line that ends in ']': states "a]" and
        # "[x]" serialise as "[x] a]", a section header.
        ("kind: cts\n[conditions]\np@q\n", 3, "reserved '@'"),
        ("kind: cts\n[conditions]\np\n[states]\nx y,z\n", 5, "reserved ','"),
        (
            'kind: cts\n[conditions]\np\n[states]\nx\n[actions]\na"\n',
            7,
            "reserved '\"'",
        ),
        ("kind: cts\n[conditions]\np\n[states]\na] [x]\n", 5, "starts with '['"),
        ("kind: cts\n[conditions]\n[p\n", 3, "starts with '['"),
        ("kind: cts\n[conditions]\np\n[states]\na a b\n", 5, "state 'a' declared twice"),
        ("kind: cts\n[conditions]\np\n[states]\na\nb\na\n", 7, "state 'a' declared twice"),
        (
            "kind: cts\n[conditions]\np\n[states]\nx\n[actions]\na b a\n",
            7,
            "action 'a' declared twice",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == line
    assert fragment in str(err.value)


NOT_CLOSED = (
    "kind: cts\n[conditions]\nphi\nphi'\nphi' <= phi\n[states]\nx\n"
    "[actions]\na\n[transitions]\nx a x : phi\n"
)


def test_labels_must_be_downward_closed_unless_closing():
    with pytest.raises(NotDownwardClosed) as err:
        parse_model(NOT_CLOSED)
    assert err.value.line == 11
    closed = parse_model(NOT_CLOSED, close=True)
    assert outgoing(closed, "x", "a") == [("x", BOTH)]


def test_open_line_is_rejected_though_another_line_closes_the_union():
    # "x a x : phi'" and "x a x : phi" merge into a closed label, but the
    # second line alone is open
    text = NOT_CLOSED.replace("x a x : phi\n", "x a x : phi'\nx a x : phi\n")
    with pytest.raises(NotDownwardClosed) as err:
        parse_model(text)
    assert err.value.line == 12


def test_lines_for_one_edge_merge_into_their_union():
    text = NOT_CLOSED.replace("[states]\nx\n", "[states]\nx y\n").replace(
        "x a x : phi\n", "x a y : phi'\nx a y : phi phi'\n"
    )
    m = parse_model(text)
    assert outgoing(m, "x", "a") == [("y", BOTH)]
    assert [line for line in serialise_model(m).splitlines() if " : " in line] == [
        "x a y : phi phi'"
    ]


@pytest.mark.parametrize("conds", ["phi zz", "phi zz aa", "zz phi"])
def test_first_undeclared_condition_of_a_line_is_named(conds):
    text = NOT_CLOSED.replace("x a x : phi\n", f"x a x : phi'\nx a x : {conds}\n")
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line == 12
    assert "undeclared condition 'zz'" in str(err.value)


def transition_lines(text):
    """The number of lines in a model file's transitions section."""
    section, count = None, 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
        elif line and section == "transitions":
            count += 1
    return count


def test_each_line_is_closure_tested_once_and_rows_match_the_api(monkeypatch):
    """Every closure test reads a set of names through ``Poset.masks``:
    the parse makes one per transition line, and ``Cts`` tests none of
    the masks the parser hands it again.  The parsed rows are those of a
    system built through the API from the same names."""
    calls = []
    masks = Poset.masks

    def counted(self, members):
        calls.append(members)
        return masks(self, members)

    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.iterdir())]
    built = list(cts_corpus(500))
    texts += [serialise_model(m) for m in built]
    monkeypatch.setattr(Poset, "masks", counted)
    parsed = []
    for text in texts:
        calls.clear()
        parsed.append(parse_model(text))
        assert len(calls) == transition_lines(text)
    monkeypatch.undo()
    for m in parsed[: -len(built)]:
        again = Cts(m.states, m.actions, m.conditions, {e[:3]: e[3] for e in m.edges()})
        assert again.rows == m.rows
    for m, original in zip(parsed[-len(built):], built):
        assert m.rows == original.rows


def test_order_cycle_is_rejected():
    text = (
        "kind: cts\n[conditions]\np\nq\np <= q\nq <= p\n[states]\nx\n"
        "[actions]\na\n[transitions]\nx a x : p q\n"
    )
    with pytest.raises(AntisymmetryViolation):
        parse_model(text)
