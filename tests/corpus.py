"""Deterministic random model generation shared by the test modules."""

import random

from ctsmin import TWO_LEVEL, Cts, Poset, validate_poset


def random_poset(rng: random.Random, max_elements: int = 3, prefix: str = "c") -> Poset:
    n = rng.randint(1, max_elements)
    elements = [f"{prefix}{i}" for i in range(n)]
    order = elements[:]
    rng.shuffle(order)
    # forward edges along a shuffled linear order, so antisymmetry holds
    # by construction and every partial order shape can occur
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs.append((order[i], order[j]))
    return validate_poset(elements, pairs)


def random_cts(
    rng: random.Random,
    max_states: int = 5,
    max_conditions: int = 3,
    max_actions: int = 2,
) -> Cts:
    conditions = random_poset(rng, max_conditions)
    states = [f"s{i}" for i in range(rng.randint(1, max_states))]
    actions = [f"a{i}" for i in range(rng.randint(1, max_actions))]
    density = rng.uniform(0.15, 0.5)
    labels = {}
    for src in states:
        for act in actions:
            for dst in states:
                if rng.random() < density:
                    seed = rng.sample(
                        list(conditions.elements),
                        rng.randint(1, len(conditions.elements)),
                    )
                    labels[(src, act, dst)] = conditions.down_close(seed)
    return Cts(states, actions, conditions, labels)


def cts_corpus(count: int, seed: int = 20260822):
    for index in range(count):
        yield random_cts(random.Random(seed + index))


def boolean_cts(k: int, seed: int) -> Cts:
    """Five states and actions a, b over the Boolean lattice of subsets
    of k atoms, conditions named by their bit strings."""
    names = [f"{m:0{k}b}" for m in range(2**k)]
    covers = [
        (names[m], names[m | 1 << i])
        for m in range(2**k)
        for i in range(k)
        if not m & 1 << i
    ]
    conditions = validate_poset(names, covers)
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(5)]
    labels = {
        (src, a, dst): conditions.down_close(rng.sample(names, rng.randint(1, 3)))
        for src in states
        for a in ("a", "b")
        for dst in states
        if rng.random() < 0.3
    }
    return Cts(states, ["a", "b"], conditions, labels)


def line_cts(n: int) -> Cts:
    """Two n-state a-chains l0..l(n-1) and r0..r(n-1) over the two-level
    order; the last l state loops at phi' only.  Refinement separates
    one more chain position per round, so it runs n + 1 rounds."""
    left = [f"l{i}" for i in range(n)]
    right = [f"r{i}" for i in range(n)]
    labels = {}
    for chain in (left, right):
        for src, dst in zip(chain, chain[1:]):
            labels[(src, "a", dst)] = {"phi", "phi'"}
    labels[(left[-1], "a", left[-1])] = {"phi'"}
    return Cts(left + right, ["a"], TWO_LEVEL, labels)


def principal_cts(rng):
    """A system over a random poset of up to seven conditions whose every
    label is the downset of one condition, so that the labels of a
    state's edges often have incomparable tops."""
    conditions = random_poset(rng, 7)
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    labels = {}
    for src in states:
        for act in ("a", "b"):
            for dst in states:
                if rng.random() < 0.5:
                    top = rng.choice(conditions.elements)
                    labels[(src, act, dst)] = conditions.down_close([top])
    return Cts(states, ["a", "b"], conditions, labels)


def wide_cts(n: int, seed: int) -> Cts:
    """States s0..s(n-1) over the two-level order with actions a and b,
    each state with two successors per action drawn uniformly; a label
    is {phi, phi'} with probability 0.8 and {phi'} otherwise.  Every
    state moves under a and b at phi', so at phi' all states are
    bisimilar and the ``bisim`` report is quadratic in n."""
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n)]
    labels = {}
    for x in states:
        for a in ("a", "b"):
            for y in rng.sample(states, 2):
                labels[(x, a, y)] = {"phi", "phi'"} if rng.random() < 0.8 else {"phi'"}
    return Cts(states, ["a", "b"], TWO_LEVEL, labels)
