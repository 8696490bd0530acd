"""The engine's pair graph against the tabulated upgrade coalgebra.

The engine reads the graph of (state, condition) pairs straight from a
``Cts``.  ``alpha_graph`` reads it instead off ``coalgebra_encode(m)``,
one ``alpha`` entry at a time, so the two share no code beyond the
system.  Both number pairs breadth-first from the roots and take each
pair's successors in (action, state, condition) order, so they must
give the same pairs in the same order, and the same successor set per
pair once the engine's labels are decoded into (action, version).

The other tests here hold that ``check`` visits only what its roots
reach and that ``bisim``, ``check`` and ``minimise`` never tabulate the
coalgebra, even when its module is loaded; ``filters-check`` answers
without it.
"""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctsmin import Cts, TWO_LEVEL, serialise_model
from ctsmin.cli import main
from ctsmin.equivalence import _all_pairs, _pair_graph
from reference.coalgebra import coalgebra_encode

from corpus import boolean_cts, cts_corpus, line_cts
from examples import FIXTURES, ex1, read_fixture
from strategies import cts_models


def alpha_graph(c, roots):
    """The pairs reachable over ``c.alpha`` from the roots, numbered
    breadth-first with the roots first and successors in sorted
    (action, state, condition) order, and each pair's moves as the set
    of (action, successor state, version)."""
    number = {}
    for pair in roots:
        number.setdefault(pair, len(number))
    pairs = list(number)
    moves = []
    for x, cond in pairs:  # grows while it is walked
        succs = set()
        for a in c.actions:
            for succ in sorted(c.alpha(x, cond, a)):
                if succ not in number:
                    number[succ] = len(pairs)
                    pairs.append(succ)
                succs.add((a, *succ))
        moves.append(succs)
    return pairs, moves


def assert_graph_matches_alpha(m, roots):
    graph = _pair_graph(m, roots)
    pairs, moves = alpha_graph(coalgebra_encode(m), roots)
    conditions = m.conditions.elements
    height = len(conditions)
    assert graph.width == len(m.actions) * height
    assert graph.pairs == pairs
    for succs, want in zip(graph.moves, moves):
        decoded = set()
        for j, label in succs:
            assert 0 <= label < graph.width
            y, chi = graph.pairs[j]
            # the label's condition is the version the successor is entered at
            assert conditions[label % height] == chi
            decoded.add((m.actions[label // height], y, chi))
        assert len(decoded) == len(succs)
        assert decoded == want


def all_roots(m):
    return [(x, cond) for x in m.states for cond in m.conditions.elements]


def assert_graphs_match_alpha(m, rng, queries=3):
    """All-pair roots, as ``bisim`` and ``minimise`` use, and the roots
    of some random queries, as ``check`` uses."""
    assert_graph_matches_alpha(m, all_roots(m))
    for _ in range(queries if m.states else 0):
        x, y = rng.choice(m.states), rng.choice(m.states)
        phi = rng.choice(m.conditions.elements)
        assert_graph_matches_alpha(m, [(x, phi), (y, phi)])


def test_all_pairs_are_numbered_state_by_state():
    m = ex1()
    height = len(m.conditions.elements)
    pairs = _all_pairs(m).pairs
    assert pairs == all_roots(m)
    for i, (x, cond) in enumerate(pairs):
        assert i == m.states.index(x) * height + m.conditions.elements.index(cond)


def test_pair_graph_matches_alpha_on_corpus():
    rng = random.Random(7)
    for m in cts_corpus(500):
        assert_graphs_match_alpha(m, rng)


@pytest.mark.parametrize("name", ["EMPTY", "EX1", "EX2", "LINE6", "ONE"])
def test_pair_graph_matches_alpha_on_fixtures(name):
    m = read_fixture(name)
    assert_graphs_match_alpha(m, random.Random(name), queries=10)


@pytest.mark.parametrize("n", [1, 2, 20])
def test_pair_graph_matches_alpha_on_line(n):
    assert_graphs_match_alpha(line_cts(n), random.Random(n))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_pair_graph_matches_alpha_on_boolean(k):
    assert_graphs_match_alpha(boolean_cts(k, 0), random.Random(k))


@given(cts_models(st.text("xyz'", min_size=1, max_size=2)), st.randoms(use_true_random=False))
def test_pair_graph_matches_alpha_on_drawn_systems(m, rng):
    assert_graphs_match_alpha(m, rng)


def island_and_continent(size):
    """A two-state island p, q and a chain of ``size`` states that the
    island cannot reach."""
    both = {"phi", "phi'"}
    continent = [f"u{i}" for i in range(size)]
    labels = {("p", "a", "q"): both, ("q", "a", "p"): {"phi'"}}
    for src, dst in zip(continent, continent[1:] + continent[:1]):
        labels[(src, "a", dst)] = both
    return Cts(["p", "q"] + continent, ["a"], TWO_LEVEL, labels), set(continent)


def test_check_reads_only_the_reachable_states(tmp_path, monkeypatch, capsys):
    m, continent = island_and_continent(200)
    path = tmp_path / "model"
    path.write_text(serialise_model(m))
    read = []
    outgoing = Cts.outgoing

    def counted(self, src, act):
        read.append(src)
        return outgoing(self, src, act)

    monkeypatch.setattr(Cts, "outgoing", counted)
    assert main(["check", str(path), "p", "q", "--condition", "phi"]) == 1
    assert read and set(read) <= {"p", "q"}
    assert main(["check", str(path), "p", "p", "--condition", "phi"]) == 0
    # bisim reads every state, the continent included
    read.clear()
    assert main(["bisim", str(path)]) == 0
    assert continent <= set(read)
    capsys.readouterr()


def bindings(original):
    """Every (module, attribute) in the loaded ctsmin modules bound to
    the function ``original``."""
    return [
        (module, key)
        for mod_name, module in sorted(sys.modules.items())
        if mod_name == "ctsmin" or mod_name.startswith("ctsmin.")
        for key, value in list(vars(module).items())
        if value is original
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["bisim", "EX1"],
        ["check", "EX1", "x", "x'", "--condition", "phi'"],
        ["check", "EX1", "x", "x'", "--condition", "phi"],
        ["minimise", "EX1"],
        ["minimise", "LINE6"],
    ],
    ids=["bisim", "check-yes", "check-no", "minimise", "minimise-line"],
)
def test_engine_commands_never_encode(argv, monkeypatch, capsys):
    argv = [str(FIXTURES / a) if i == 1 else a for i, a in enumerate(argv)]
    rc = main(argv)
    want = capsys.readouterr()

    def refuse(m):
        raise AssertionError("coalgebra_encode called")

    for module, key in bindings(coalgebra_encode):
        monkeypatch.setattr(module, key, refuse)
    assert main(argv) == rc
    assert capsys.readouterr() == want


def test_filters_check_never_encodes(monkeypatch, capsys):
    def refuse(m):
        raise AssertionError("coalgebra_encode called")

    for module, key in bindings(coalgebra_encode):
        monkeypatch.setattr(module, key, refuse)
    for name in ["EX1", "EX1.lats", "EX2"]:
        assert main(["filters-check", str(FIXTURES / name)]) == 0
        assert capsys.readouterr().out == "upgrade preserving\n"
