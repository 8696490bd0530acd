"""Hypothesis strategies for systems whose names are drawn by the caller."""

from hypothesis import strategies as st

from ctsmin import Cts, validate_poset

# Names a system built through the library may carry, most of which no
# model file can hold: quotes, backslashes, non-ASCII and control
# characters.  '@' stays out, since the report names a pair
# state@condition.
LIBRARY_NAMES = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u00e9", "\u2203", "a", ","]),
        st.characters(blacklist_characters="@"),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def cts_models(draw, names, condition_names=None):
    """A small Cts: up to four states, three conditions in a random
    order and two actions, each name unique within its kind."""
    if condition_names is None:
        condition_names = names
    conditions = draw(st.lists(condition_names, min_size=1, max_size=3, unique=True))
    order = draw(st.permutations(conditions))
    pairs = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if draw(st.booleans())
    ]
    poset = validate_poset(conditions, pairs)
    states = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    actions = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    edges = [(src, a, dst) for src in states for a in actions for dst in states]
    labels = {}
    for edge in draw(st.lists(st.sampled_from(edges), max_size=8, unique=True)):
        seed = draw(st.lists(st.sampled_from(conditions), min_size=1, max_size=2))
        labels[edge] = poset.down_close(seed)
    return Cts(states, actions, poset, labels)
