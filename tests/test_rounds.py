"""The incremental refinement engine against full re-signing.

``full_rounds`` signs every pair in every round and numbers blocks by
first occurrence.  It is the engine as it stood before rounds became
incremental, and every round of ``equivalence._rounds`` must give the
same partition: the rounds are observable output, since round k is the
kernel of chain stage k.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctsmin import TWO_LEVEL, Cts, refine
from ctsmin.equivalence import _all_pairs, _pair_graph, _rounds, bisimilar
from reference.chain import canonical_partition, matrix_stage

from corpus import boolean_cts, cts_corpus, line_cts
from examples import ex1, ex2
from strategies import cts_models


def full_rounds(moves, width):
    """Yield the block of every pair, round by round.  Round zero has a
    single block; in the next round a pair's signature is its block
    together with the set of (label, successor block) over its moves,
    and blocks are numbered by first occurrence.  Stops after the first
    round that repeats its predecessor."""
    block = [0] * len(moves)
    count = 1 if moves else 0
    yield block
    while True:
        ids = {}
        nxt = []
        for i, succs in enumerate(moves):
            sig = (block[i], frozenset([block[j] * width + label for j, label in succs]))
            nxt.append(ids.setdefault(sig, len(ids)))
        yield nxt
        if len(ids) == count:
            return
        count = len(ids)
        block = nxt


def index_partition(block):
    """The partition of pair numbers that a block list induces."""
    groups = {}
    for i, b in enumerate(block):
        groups.setdefault(b, []).append(i)
    return canonical_partition(groups.values())


def oracle_partitions(pairs, moves, width):
    """Every full re-signing round as a canonical partition of pairs."""
    out = []
    for block in full_rounds(moves, width):
        groups = {}
        for pair, b in zip(pairs, block):
            groups.setdefault(b, []).append(pair)
        out.append(canonical_partition(groups.values()))
    return out


def assert_rounds_exact(moves, width):
    want = [index_partition(block) for block in full_rounds(moves, width)]
    got = []
    for rnd in _rounds(moves, width):
        assert len(set(rnd.block)) == rnd.blocks
        got.append(index_partition(rnd.block))
    assert got == want


def assert_engine_matches_oracle(m, queries=None, local=None):
    """Every round of the engine on the whole pair graph, and on the part
    reachable from the roots of each query in ``local`` (by default every
    query), equals full re-signing; ``refine``'s iterations and final
    blocks and ``bisimilar``'s verdicts on ``queries`` (by default
    every (x, y, phi)) are the ones the oracle's rounds give."""
    pairs, moves, width = _all_pairs(m)
    assert_rounds_exact(moves, width)
    partitions = oracle_partitions(pairs, moves, width)
    final = {pair: i for i, cls in enumerate(partitions[-1]) for pair in cls}
    _, _, block, iterations = refine(m)
    assert iterations == matrix_stage(partitions)
    groups = {}
    for pair, b in zip(pairs, block):
        groups.setdefault(b, []).append(pair)
    assert canonical_partition(groups.values()) == partitions[-1]
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
            _, part, part_width = _pair_graph(m, [(x, phi), (y, phi)])
            assert_rounds_exact(part, part_width)


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
    by which ``refine`` reads the kernel matrix's stage off round one."""
    _, moves, width = _all_pairs(m)
    height = len(m.conditions.elements)
    matrices, partitions, moved = [], [], []
    for rnd in _rounds(moves, width):
        matrices.append(condition_partitions(rnd.block, height))
        partitions.append(index_partition(rnd.block))
        moved.append(rnd.moved)
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


@pytest.mark.parametrize("make", [ex1, ex2], ids=["EX1", "EX2"])
def test_rounds_match_full_resigning_on_examples(make):
    assert_engine_matches_oracle(make())


@pytest.mark.parametrize("n", [1, 2, 5, 20, 80])
def test_rounds_match_full_resigning_on_line(n):
    m = line_cts(n)
    heads = ["l0", "r0", f"l{n - 1}", f"r{n - 1}"]
    queries = [(x, y, phi) for x in heads for y in m.states for phi in TWO_LEVEL.elements]
    local = [(x, y, phi) for x in heads for y in heads for phi in TWO_LEVEL.elements]
    assert_engine_matches_oracle(m, queries, local)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_rounds_match_full_resigning_on_boolean(k, seed):
    assert_engine_matches_oracle(boolean_cts(k, seed))


@given(cts_models(st.text("xyz'", min_size=1, max_size=2)))
def test_rounds_match_full_resigning_on_drawn_systems(m):
    assert_engine_matches_oracle(m)


def test_rounds_on_zero_pairs():
    rounds = [(list(r.block), r.moved, r.signed, r.blocks) for r in _rounds([], 1)]
    assert rounds == [([], [], 0, 0), ([], [], 0, 0)]


def test_rounds_without_moves_sign_nothing():
    # one state, no actions, two conditions: no pair has a predecessor,
    # so round one touches no block and stops
    m = Cts(["s"], [], TWO_LEVEL, {})
    _, moves, width = _all_pairs(m)
    rounds = [(list(r.block), r.moved, r.signed, r.blocks) for r in _rounds(moves, width)]
    assert rounds == [([0, 0], [], 0, 1), ([0, 0], [], 0, 1)]


def test_largest_part_keeps_the_block_id():
    # p moves to q, and q, u and v have no moves.  Round one signs the two
    # p pairs, whose entry versions differ, and one representative of the
    # six untouched pairs, which keep block 0; the p pairs move.
    both = {"phi", "phi'"}
    m = Cts(["p", "q", "u", "v"], ["a"], TWO_LEVEL, {("p", "a", "q"): both})
    pairs, moves, width = _all_pairs(m)
    first = list(_rounds(moves, width))[1]
    assert first.blocks == 3
    moved = sorted(pairs[i] for i, old in first.moved)
    assert moved == [("p", "phi"), ("p", "phi'")]
    assert all(old == 0 for _, old in first.moved)
    assert first.signed == 3


def test_resigning_work_is_bounded_on_a_long_line():
    """Full re-signing would sign 5,120 pairs in each of 1,281 rounds;
    each pair moves at most log2(pairs) times, so the engine signs at
    most 4 P log2 P pairs in all."""
    pairs, moves, width = _all_pairs(line_cts(1280))
    size = len(pairs)
    assert size == 5120
    signed = rounds = 0
    for rnd in _rounds(moves, width):
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
