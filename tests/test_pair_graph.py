"""The engine's pair graph against the tabulated upgrade coalgebra.

The engine reads a compressed graph of (state, condition) pairs
straight from a ``Cts``; the tests read the coalgebra's moves off
``coalgebra_encode(m)``, one ``alpha`` entry at a time, so the two
share no code beyond the system.  The engine's graph must expand, pair
by pair, to the successor set that ``alpha`` gives: a pair's
own-version moves together with the expansions of its lower pairs.  It
must also be closed under moves and hold a quarter of the entries of
the uncompressed graph, ``alpha_graph``, or fewer on the Boolean
lattice 2^7.

The last test here holds that ``check`` visits only what its roots
reach.  No command can call ``coalgebra_encode``: ``test_layers.py``
holds that the runtime imports nothing but the standard library and
``ctsmin``.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctsmin import Cts, TWO_LEVEL, serialise_model
from ctsmin.cli import main
from ctsmin.equivalence import _all_pairs, _pair_graph
from reference.coalgebra import alpha_graph, coalgebra_encode
from reference.order import lt

from corpus import boolean_cts, cts_corpus, line_cts
from examples import ex1, read_fixture
from strategies import cts_models


def decoded(m, graph, succs):
    """A pair's moves as the set of (action, successor state, version);
    each label's condition must be the version its successor is entered
    at."""
    conditions = m.conditions.elements
    height = len(conditions)
    out = set()
    for j, label in succs:
        assert 0 <= label < graph.width
        y, chi = graph.pairs[j]
        assert conditions[label % height] == chi
        out.add((m.actions[label // height], y, chi))
    assert len(out) == len(succs)
    return out


def assert_compressed_graph_expands_to_alpha(m, c, roots):
    """The engine's graph numbers the roots first and reaches every pair
    that they reach.  Each pair's own moves come first and enter at its
    own condition; its lower links, labelled ``width`` plus their
    condition's index, point at pairs of its state strictly below it.
    An own pair's lower pairs are its covers; the own pairs of each
    condition fill one level of their own, the joins the last, and a
    signed pair's lower pairs lie on earlier levels.  Expanded, each
    pair's moves are those of ``alpha``, so the pairs are closed under
    moves."""
    graph = _pair_graph(m, roots)
    poset = m.conditions
    conditions = poset.elements
    width = graph.width
    assert width == len(m.actions) * len(conditions)
    assert graph.pairs[: len(set(roots))] == list(dict.fromkeys(roots))
    number = {pair: i for i, pair in enumerate(graph.pairs)}
    assert len(number) == len(graph.pairs)
    level = {i: r for r, signed in enumerate(graph.levels) for i in signed}
    own_level = {}
    rank = {cond: r for r, cond in enumerate(reversed(poset.top_down_order))}
    # a lower pair lies strictly below, so a condition-ordered walk
    # expands it first
    order = sorted(range(len(graph.pairs)), key=lambda i: rank[graph.pairs[i][1]])
    expanded = [None] * len(graph.pairs)
    for i in order:
        x, cond = graph.pairs[i]
        links = graph.links[i]
        moves = [(j, label) for j, label in links if label < width]
        lower = [j for j, label in links if label >= width]
        assert links == moves + [(j, width + conditions.index(graph.pairs[j][1])) for j in lower]
        got = decoded(m, graph, moves)
        assert {chi for _, _, chi in got} <= {cond}
        assert [graph.pairs[j][0] for j in lower] == [x] * len(lower)
        below = [graph.pairs[j][1] for j in lower]
        assert all(lt(poset, mu, cond) for mu in below)
        if moves:
            assert below == sorted(p for p, q in poset.covers if q == cond)
            assert own_level.setdefault(cond, level[i]) == level[i] < len(graph.levels) - 1
        elif len(lower) > 1:
            assert level[i] == len(graph.levels) - 1
        else:
            assert i not in level
        for j in lower:
            assert any(label < width for _, label in graph.links[j])
            if i in level:
                assert level[j] < level[i]
            got |= expanded[j]
        expanded[i] = got
        assert got == {(a, *succ) for a in c.actions for succ in c.alpha(x, cond, a)}
        assert all((y, chi) in number for _, y, chi in got)
    assert len(set(own_level.values())) == len(own_level)


def all_roots(m):
    return [(x, cond) for x in m.states for cond in m.conditions.elements]


def assert_graphs_match_alpha(m, rng, queries=3):
    """All-pair roots, as ``bisim`` and ``minimise`` use, and the roots
    of some random queries, as ``check`` uses."""
    c = coalgebra_encode(m)
    assert_compressed_graph_expands_to_alpha(m, c, all_roots(m))
    for _ in range(queries if m.states else 0):
        x, y = rng.choice(m.states), rng.choice(m.states)
        phi = rng.choice(m.conditions.elements)
        assert_compressed_graph_expands_to_alpha(m, c, [(x, phi), (y, phi)])


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


@pytest.mark.parametrize("name", ["BOWTIE", "EMPTY", "EX1", "EX2", "LINE6", "ONE"])
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


def test_compressed_graph_holds_a_quarter_of_the_moves():
    """On the Boolean lattice 2^7 the engine's graph, its own moves and
    lower links counted, holds at most a quarter of the entries of the
    uncompressed graph, which lists each move once per condition above
    its version."""
    m = boolean_cts(7, 0)
    graph = _all_pairs(m)
    entries = sum(map(len, graph.links))
    moves = sum(map(len, alpha_graph(coalgebra_encode(m), all_roots(m))[1]))
    assert moves == 9654
    assert 4 * entries <= moves


def island_and_continent(size):
    """A two-state island p, q and a chain of ``size`` states that the
    island cannot reach."""
    both = {"phi", "phi'"}
    continent = [f"u{i}" for i in range(size)]
    labels = {("p", "a", "q"): both, ("q", "a", "p"): {"phi'"}}
    for src, dst in zip(continent, continent[1:] + continent[:1]):
        labels[(src, "a", dst)] = both
    return Cts(["p", "q"] + continent, ["a"], TWO_LEVEL, labels), set(continent)


@pytest.fixture
def reads(monkeypatch):
    """The indices of the states whose ``Cts.rows`` entry is read, in
    order."""
    read = []

    class Recorded(list):
        def __getitem__(self, i):
            read.append(i)
            return super().__getitem__(i)

    init = Cts.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.rows = Recorded(self.rows)

    monkeypatch.setattr(Cts, "__init__", recorded)
    return read


def test_check_reads_only_the_reachable_states(tmp_path, reads, capsys):
    m, continent = island_and_continent(200)
    path = tmp_path / "model"
    path.write_text(serialise_model(m))
    assert main(["check", str(path), "p", "q", "--condition", "phi"]) == 1
    assert reads and {m.states[s] for s in reads} <= {"p", "q"}
    assert main(["check", str(path), "p", "p", "--condition", "phi"]) == 0
    # bisim reads every state, the continent included
    reads.clear()
    assert main(["bisim", str(path)]) == 0
    assert continent <= {m.states[s] for s in reads}
    capsys.readouterr()
