"""Results do not depend on how states, conditions and actions are named.

Renaming changes the sort order of every name, so it changes how the
engine numbers pairs, which pairs it signs first and which block ids it
hands out.  None of that may reach a result: under a bijection of the
names, the ``bisim`` relation is the image of the original, the
``minimise`` quotient is isomorphic to the original through its class
names, every stage partition is the image of the original's, and the
stage and iteration counts are equal.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from ctsmin import (
    Cts,
    minimise_refinement,
    validate_poset,
)
from ctsmin.equivalence import bisimilar
from reference.chain import _class_names
from reference.models import edges
from reference.order import leq

from corpus import boolean_cts, random_cts
from examples import final_relation

NAMES = st.text("abxy'01", min_size=1, max_size=3)


def renamings(names):
    """A bijection from the given names onto drawn ones."""
    return st.lists(NAMES, min_size=len(names), max_size=len(names), unique=True).map(
        lambda drawn: dict(zip(names, drawn))
    )


@st.composite
def renamed_systems(draw):
    """A corpus-style or Boolean system, with a bijection for each kind
    of name and a query on the original names."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        m = random_cts(random.Random(seed))
    else:
        m = boolean_cts(draw(st.integers(2, 3)), seed)
    states = draw(renamings(m.states))
    conditions = draw(renamings(m.conditions.elements))
    actions = draw(renamings(m.actions))
    query = (
        draw(st.sampled_from(m.states)),
        draw(st.sampled_from(m.states)),
        draw(st.sampled_from(m.conditions.elements)),
    )
    return m, states, conditions, actions, query


def rename(m, states, conditions, actions):
    poset = validate_poset(
        [conditions[c] for c in m.conditions.elements],
        [(conditions[p], conditions[q]) for p, q in m.conditions.covers],
    )
    labels = {
        (states[s], actions[a], states[d]): {conditions[c] for c in conds}
        for s, a, d, conds in edges(m)
    }
    return Cts(states.values(), actions.values(), poset, labels)


@given(renamed_systems())
def test_results_do_not_depend_on_names(drawn):
    m, states, conditions, actions, (x, y, phi) = drawn
    m2 = rename(m, states, conditions, actions)

    def pair(p):
        return (states[p[0]], conditions[p[1]])

    relation, iterations = final_relation(m)
    relation2, iterations2 = final_relation(m2)
    assert iterations2 == iterations
    assert relation2.table() == {
        (states[a], states[b]): frozenset(conditions[v] for v in value)
        for (a, b), value in relation.entries
    }
    assert bisimilar(m2, states[x], states[y], conditions[phi]) == bisimilar(m, x, y, phi)

    result, result2 = minimise_refinement(m), minimise_refinement(m2)
    assert (result2.stage, result2.confirmed_at, result2.matrix_stage) == (
        result.stage,
        result.confirmed_at,
        result.matrix_stage,
    )
    assert len(result2.stages) == len(result.stages)
    for partition, partition2 in zip(result.stages, result2.stages):
        image = {frozenset(map(pair, cls)) for cls in partition}
        assert image == {frozenset(cls) for cls in partition2}

    # the class names of the two quotients correspond one to one
    iso = {}
    names2 = _class_names(result2.stages[-1])
    for p, name in _class_names(result.stages[-1]).items():
        image = names2[pair(p)]
        assert iso.setdefault(name, image) == image
    assert sorted(iso.values()) == sorted(result2.z_poset.elements)
    order, order2 = result.z_poset, result2.z_poset
    for a in order.elements:
        for b in order.elements:
            assert leq(order2, iso[a], iso[b]) == leq(order, a, b)
    assert {
        (iso[name], actions[a], frozenset((iso[t], conditions[v]) for t, v in targets))
        for name, a, targets in result.transitions
    } == {(name, a, frozenset(targets)) for name, a, targets in result2.transitions}
