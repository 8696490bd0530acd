"""The incremental refinement engine against full re-signing.

``full_rounds`` signs every pair in every round by every move of its
one-step behaviour, read off ``coalgebra_encode(m)`` through
``alpha_graph``, the uncompressed pair graph, and numbers blocks by
first occurrence.  It is the engine as it stood before rounds became
incremental and keys compressed, and every round of
``equivalence._rounds`` must give the same partition: the rounds are
observable output, since round k is the kernel of chain stage k.  The
last tests pin the cases that make the compressed keys canonical across
conditions: an alias, a join over a poset that is no lattice, and an
own pair sharing its block with another state's alias above it.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctsmin import TWO_LEVEL, Cts, refine, validate_poset
from ctsmin.equivalence import _all_pairs, _pair_graph, _rounds, bisimilar
from reference.chain import block_partition, matrix_stage
from reference.coalgebra import alpha_graph, coalgebra_encode

from corpus import boolean_cts, cts_corpus, line_cts, principal_cts
from examples import FIXTURES, read_fixture
from strategies import cts_models


def full_rounds(moves):
    """Yield the block of every pair, round by round.  Round zero has a
    single block; in the next round a pair's signature is its block
    together with the set of (tag, successor block) over its moves,
    and blocks are numbered by first occurrence.  Stops after the first
    round that repeats its predecessor."""
    block = [0] * len(moves)
    count = 1 if moves else 0
    yield block
    while True:
        ids = {}
        nxt = []
        for i, succs in enumerate(moves):
            sig = (block[i], frozenset([(tag, block[j]) for j, tag in succs]))
            nxt.append(ids.setdefault(sig, len(ids)))
        yield nxt
        if len(ids) == count:
            return
        count = len(ids)
        block = nxt


def assert_rounds_exact(c, graph):
    """Every round of the engine on a compressed graph equals full
    re-signing of the uncompressed graph of the same pairs, which
    ``alpha_graph`` reads off the coalgebra ``c``.  They are closed
    under moves, so that graph, rooted at them, numbers them alike and
    reaches no other pair.  Returns the rounds' partitions."""
    pairs, moves = alpha_graph(c, graph.pairs)
    assert pairs == graph.pairs
    want = [block_partition(pairs, block) for block in full_rounds(moves)]
    got = []
    for rnd in _rounds(graph):
        assert len(set(rnd.block)) == rnd.blocks
        got.append(block_partition(pairs, rnd.block))
    assert got == want
    return want


def assert_engine_matches_oracle(m, queries=None, local=None):
    """Every round of the engine on the whole pair graph, whose pairs
    must be every pair in state-major order, and on the part reachable
    from the roots of each query in ``local`` (by default every query),
    equals full re-signing; ``refine``'s iterations and final blocks and
    ``bisimilar``'s verdicts on ``queries`` (by default every
    (x, y, phi)) are the ones the oracle's rounds give."""
    c = coalgebra_encode(m)
    roots = [(x, cond) for x in m.states for cond in m.conditions.elements]
    graph = _all_pairs(m)
    assert graph.pairs == roots
    partitions = assert_rounds_exact(c, graph)
    final = {pair: i for i, cls in enumerate(partitions[-1]) for pair in cls}
    _, _, block, iterations = refine(m)
    assert iterations == matrix_stage(partitions)
    assert block_partition(roots, block) == partitions[-1]
    if queries is None:
        queries = [
            (x, y, phi)
            for x in m.states
            for y in m.states
            for phi in m.conditions.elements
        ]
    for x, y, phi in queries:
        want = final[(x, phi)] == final[(y, phi)]
        assert bisimilar(m, x, y, phi) == want, (x, y, phi)
    for x, y, phi in queries if local is None else local:
        if x != y:
            assert_rounds_exact(c, _pair_graph(m, [(x, phi), (y, phi)]))


def condition_partitions(block, height):
    """A round's kernel matrix as its per-condition state partitions:
    (condition index, states sharing a block there) entries."""
    groups = {}
    for i, b in enumerate(block):
        groups.setdefault((i % height, b), []).append(i // height)
    return frozenset((k, tuple(xs)) for (k, _), xs in groups.items())


def assert_round_one_rule(m):
    """From round one on, the per-condition state partitions repeat
    exactly when the pair partition does; and when round one splits no
    condition's states, round two moves nothing.  This is the argument
    by which ``refine`` reads the kernel matrix's stage off round one.
    Each moved pair is logged with its block id after the round."""
    height = len(m.conditions.elements)
    graph = _all_pairs(m)
    matrices, partitions, moved = [], [], []
    for rnd in _rounds(graph):
        matrices.append(condition_partitions(rnd.block, height))
        partitions.append(block_partition(graph.pairs, rnd.block))
        moved.append(rnd.moved)
        assert all(rnd.block[i] == b for i, b in rnd.moved)
    for k in range(1, len(matrices) - 1):
        assert (matrices[k] == matrices[k + 1]) == (partitions[k] == partitions[k + 1]), k
    if matrices[1] == matrices[0] and len(moved) > 2:
        assert moved[2] == []


def test_round_one_rule_on_corpus():
    for m in cts_corpus(500):
        assert_round_one_rule(m)


@given(cts_models(st.text("xyz'", min_size=1, max_size=2)))
def test_round_one_rule_on_drawn_systems(m):
    assert_round_one_rule(m)


def test_rounds_match_full_resigning_on_corpus():
    for m in cts_corpus(500):
        assert_engine_matches_oracle(m)


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.iterdir()))
def test_rounds_match_full_resigning_on_examples(name):
    assert_engine_matches_oracle(read_fixture(name))


@pytest.mark.parametrize("n", [1, 2, 5, 20, 80])
def test_rounds_match_full_resigning_on_line(n):
    m = line_cts(n)
    heads = ["l0", "r0", f"l{n - 1}", f"r{n - 1}"]
    queries = [(x, y, phi) for x in heads for y in m.states for phi in TWO_LEVEL.elements]
    local = [(x, y, phi) for x in heads for y in heads for phi in TWO_LEVEL.elements]
    assert_engine_matches_oracle(m, queries, local)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_rounds_match_full_resigning_on_boolean(k, seed):
    m = boolean_cts(k, seed)
    if k <= 5:
        assert_engine_matches_oracle(m)
        return
    # every pair of states at eight conditions, bottom and top included,
    # and the reachable parts of the distinct pairs at the bottom and top
    conditions = m.conditions.elements
    spread = [conditions[(len(conditions) - 1) * i // 7] for i in range(8)]
    queries = [(x, y, phi) for x in m.states for y in m.states for phi in spread]
    local = [
        (x, y, phi)
        for x in m.states
        for y in m.states
        for phi in (conditions[0], conditions[-1])
        if x < y
    ]
    assert_engine_matches_oracle(m, queries, local)


@given(cts_models(st.text("xyz'", min_size=1, max_size=2)))
def test_rounds_match_full_resigning_on_drawn_systems(m):
    assert_engine_matches_oracle(m)


def test_rounds_match_full_resigning_over_wide_posets():
    # joins, pairs whose moves enter at several maximal versions, need
    # incomparable conditions; these systems hold about one join in three
    joins = 0
    for seed in range(300):
        m = principal_cts(random.Random(seed))
        joins += len(_all_pairs(m).levels[-1])
        conditions = m.conditions.elements
        queries = [(x, y, phi) for x in m.states[:2] for y in m.states for phi in conditions]
        assert_engine_matches_oracle(m, queries)
    assert joins > 50


def test_rounds_on_zero_pairs():
    m = Cts([], [], TWO_LEVEL, {})
    rounds = [(list(r.block), r.moved, r.signed, r.blocks) for r in _rounds(_all_pairs(m))]
    assert rounds == [([], [], 0, 0), ([], [], 0, 0)]


def test_rounds_without_moves_sign_nothing():
    # one state, no actions, two conditions: no pair has a predecessor,
    # so round one touches no block and stops
    m = Cts(["s"], [], TWO_LEVEL, {})
    rounds = [(list(r.block), r.moved, r.signed, r.blocks) for r in _rounds(_all_pairs(m))]
    assert rounds == [([0, 0], [], 0, 1), ([0, 0], [], 0, 1)]


def test_largest_part_keeps_the_block_id():
    # p moves to q, and q, u and v have no moves.  Round one signs the two
    # p pairs, whose entry versions differ, and one representative of the
    # six untouched pairs, which keep block 0; the p pairs move.
    both = {"phi", "phi'"}
    m = Cts(["p", "q", "u", "v"], ["a"], TWO_LEVEL, {("p", "a", "q"): both})
    graph = _all_pairs(m)
    pairs = graph.pairs
    rounds = _rounds(graph)
    next(rounds)
    first = next(rounds)
    assert first.blocks == 3
    moved = sorted(pairs[i] for i, _ in first.moved)
    assert moved == [("p", "phi"), ("p", "phi'")]
    assert all(new == first.block[i] != 0 for i, new in first.moved)
    assert first.signed == 3


def test_block_of_one_pair_is_not_signed():
    # x loops under a at both levels.  Round one splits its two pairs,
    # as their own moves enter at different versions, and leaves each
    # alone in its block; each is then dirty in round two, as its own
    # successor moved, but a block of one pair cannot split.
    m = Cts(["x"], ["a"], TWO_LEVEL, {("x", "a", "x"): {"phi", "phi'"}})
    rounds = [(list(r.block), r.moved, r.signed, r.blocks) for r in _rounds(_all_pairs(m))]
    assert [blocks for *_, blocks in rounds] == [1, 2, 2]
    assert rounds[2] == (rounds[1][0], [], 0, 2)


def test_resigning_work_is_bounded_on_a_long_line():
    """Full re-signing would sign 5,120 pairs in each of 1,281 rounds;
    each pair moves at most log2(pairs) times, so the engine signs at
    most 4 P log2 P pairs in all."""
    graph = _all_pairs(line_cts(1280))
    size = len(graph.pairs)
    assert size == 5120
    signed = rounds = 0
    for rnd in _rounds(graph):
        signed += rnd.signed
        rounds += 1
    assert rounds - 1 == 1281
    assert signed <= 4 * size * math.log2(size)


def test_refine_hands_over_bounded_moves_on_a_long_line():
    """``refine`` hands ``minimise`` each round's moved pairs, not every
    pair's block id in each of 1,282 rounds; each pair moves at most
    log2(pairs) times, so at most 4 P log2 P entries in all."""
    graph, rounds, _, _ = refine(line_cts(1280))
    size = len(graph.pairs)
    assert len(rounds) == 1282
    assert rounds[0] == [] and rounds[-1] == []
    assert sum(map(len, rounds)) <= 4 * size * math.log2(size)


def rounds_of(m):
    """The engine's block of every pair, round by round, keyed by pair."""
    graph = _all_pairs(m)
    return [dict(zip(graph.pairs, rnd.block)) for rnd in _rounds(graph)]


def test_alias_shares_its_maximums_block():
    # x moves only at phi', so every move of (x, phi) enters at phi': it
    # is an alias of (x, phi') and is never signed, yet shares its block
    # in every round, and leaves (y, phi') with it in round three
    both = {"phi", "phi'"}
    m = Cts(
        ["u", "x", "y", "z"],
        ["a"],
        TWO_LEVEL,
        {("x", "a", "y"): {"phi'"}, ("y", "a", "z"): both, ("z", "a", "u"): both},
    )
    graph = _all_pairs(m)
    alias, target = graph.pairs.index(("x", "phi")), graph.pairs.index(("x", "phi'"))
    assert graph.links[alias] == [(target, graph.width + TWO_LEVEL.elements.index("phi'"))]
    assert alias not in [i for level in graph.levels for i in level]
    rounds = rounds_of(m)
    for block in rounds:
        assert block[("x", "phi")] == block[("x", "phi'")]
    assert rounds[2][("x", "phi")] == rounds[2][("y", "phi'")]
    assert rounds[3][("x", "phi")] != rounds[3][("y", "phi'")]
    assert_engine_matches_oracle(m)


# the non-lattice "bowtie": p and q both lie below r and s, which have no
# meet, and r and s have no join
BOWTIE = validate_poset(["p", "q", "r", "s"], [("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")])


def test_join_over_two_maximal_versions():
    # x and x2 enter at p and at q, so (x, r) sees the two maximal versions
    # p and q: a join of (x, p) and (x, q).  x and x2 agree in round one;
    # at q, z moves on and w does not, so the joins at r and s split in
    # round two, once the level of q has split
    m = Cts(
        ["w", "x", "x2", "y", "z"],
        ["a"],
        BOWTIE,
        {
            ("x", "a", "y"): {"p"},
            ("x", "a", "z"): {"q"},
            ("x2", "a", "y"): {"p"},
            ("x2", "a", "w"): {"q"},
            ("z", "a", "z"): {"q"},
        },
    )
    graph = _all_pairs(m)
    at = {pair: i for i, pair in enumerate(graph.pairs)}
    for x in ("x", "x2"):
        for top in ("r", "s"):
            join = at[(x, top)]
            # p and q have condition indices 0 and 1
            lower = [(at[(x, "p")], graph.width), (at[(x, "q")], graph.width + 1)]
            assert graph.links[join] == lower
            assert join in graph.levels[-1]
    rounds = rounds_of(m)
    assert rounds[1][("x", "r")] == rounds[1][("x2", "r")] == rounds[1][("x", "s")]
    assert rounds[2][("x", "r")] != rounds[2][("x2", "r")]
    assert rounds[-1][("x", "r")] == rounds[-1][("x", "s")]
    assert_engine_matches_oracle(m)


def test_own_pair_shares_a_block_with_another_states_alias():
    # (x, phi) is an alias of (x, phi'), which moves like the own pairs
    # (y, phi') and (z, phi'): in round one the alias shares a block with
    # own pairs of other states at the condition below; y's successor w
    # has no moves, so (y, phi') leaves in round two, and the alias ends
    # in the block of (z, phi')
    m = Cts(
        ["w", "x", "y", "z"],
        ["a"],
        TWO_LEVEL,
        {
            ("x", "a", "z"): {"phi'"},
            ("y", "a", "w"): {"phi'"},
            ("z", "a", "z"): {"phi", "phi'"},
        },
    )
    rounds = rounds_of(m)
    first, final = rounds[1], rounds[-1]
    assert first[("x", "phi")] == first[("y", "phi'")] == first[("z", "phi'")]
    assert final[("x", "phi")] == final[("z", "phi'")] != final[("y", "phi'")]
    assert final[("x", "phi")] != final[("z", "phi")]
    assert_engine_matches_oracle(m)
