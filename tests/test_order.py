import gc
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from ctsmin import (
    TWO_LEVEL,
    AntisymmetryViolation,
    OrderError,
    Poset,
    UnknownElement,
    validate_poset,
)
from reference.chain import coequalise
from reference.order import closure_relation, leq, lt, relation
from reference.lattice import Downset, down_closure, principal_downset
from reference.maps import MonotoneMap, is_monotone

from corpus import boolean_cts, cts_corpus, random_poset
from examples import read_fixture

NAMES = ["a", "b", "c", "d", "e"]


@st.composite
def posets(draw, max_elements=5):
    n = draw(st.integers(1, max_elements))
    elements = NAMES[:n]
    order = draw(st.permutations(elements))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((order[i], order[j]))
    return validate_poset(elements, pairs)


def chain(*elements):
    """The chain ordered by the given sequence, first element at the
    bottom."""
    return validate_poset(elements, zip(elements, elements[1:]))


@st.composite
def poset_and_subset(draw):
    p = draw(posets())
    members = draw(st.frozensets(st.sampled_from(p.elements)))
    return p, members


def test_validate_poset_closes_transitively():
    p = validate_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert leq(p, "a", "c")


def test_antisymmetry_violation_reports_cycle():
    with pytest.raises(AntisymmetryViolation) as err:
        validate_poset(["a", "b"], [("a", "b"), ("b", "a")])
    assert err.value.cycle == ("a", "b")


def test_unknown_element_rejected():
    p = chain("p", "q")
    with pytest.raises(UnknownElement):
        p.check_element("r")
    with pytest.raises(OrderError):
        validate_poset(["p"], [("p", "q")])
    for pair in (("q", "p"), ("q", "r")):
        with pytest.raises(UnknownElement) as err:
            validate_poset(["p"], [pair])
        assert err.value.element == "q"


def test_top_down_order_starts_at_maximal():
    # diamond: bot below l, r below top
    p = validate_poset(
        ["bot", "l", "r", "top"],
        [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")],
    )
    assert p.top_down_order == ("top", "l", "r", "bot")


def scanned_top_down_order(p):
    """The order ``top_down_order`` gives, by its definition: repeatedly
    take the least name among the maximal elements not yet listed."""
    remaining = set(p.elements)
    out = []
    while remaining:
        maximal = sorted(q for q in remaining if not any(lt(p, q, r) for r in remaining))
        out.append(maximal[0])
        remaining.remove(maximal[0])
    return tuple(out)


def test_top_down_order_matches_the_maximal_element_scan():
    rng = random.Random(0)
    posets = [random_poset(rng, 9) for _ in range(3000)]
    posets += [boolean_cts(k, 0).conditions for k in range(2, 8)]
    for p in posets:
        assert p.top_down_order == scanned_top_down_order(p), p


@given(poset_and_subset())
def test_down_close_is_a_closure(pair):
    p, members = pair
    closed = p.down_close(members)
    assert members <= closed
    assert p.is_downward_closed(closed)
    assert p.down_close(closed) == closed


@given(poset_and_subset())
def test_downset_construction_matches_predicate(pair):
    p, members = pair
    if p.is_downward_closed(members):
        assert down_closure(p, members).members == frozenset(members)
    else:
        with pytest.raises(OrderError):
            Downset(p, frozenset(members))


def test_principal_downset():
    p = chain("p", "q", "r")
    assert principal_downset(p, "q").members == {"p", "q"}


def test_monotone_map_validation():
    two = chain("p", "q")
    # totality is a construction invariant, monotonicity a checked property
    with pytest.raises(OrderError):
        MonotoneMap.of(two, two, {"p": "p"})
    assert not is_monotone(MonotoneMap.of(two, two, {"p": "q", "q": "p"}))
    ok = MonotoneMap.of(two, two, {"p": "p", "q": "q"})
    assert is_monotone(ok)
    assert ok("p") == "p"


def test_coequalise_glues_chain():
    p = chain("p", "q", "r")
    glued, mapping = coequalise(p, [("p", "q")])
    assert mapping["p"] == mapping["q"] != mapping["r"]
    assert leq(glued, mapping["p"], mapping["r"])
    assert len(glued.elements) == 2


def test_coequalise_collapses_induced_cycles():
    # gluing the endpoints of a 3-chain forces the middle in as well
    p = chain("p", "q", "r")
    glued, mapping = coequalise(p, [("p", "r")])
    assert len(set(mapping.values())) == 1
    assert len(glued.elements) == 1


@given(posets(), st.data())
def test_coequalise_mapping_is_monotone(p, data):
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(p.elements), st.sampled_from(p.elements)),
            max_size=3,
        )
    )
    glued, mapping = coequalise(p, pairs)
    for a, b in relation(p):
        assert leq(glued, mapping[a], mapping[b])
    for x, y in pairs:
        assert mapping[x] == mapping[y]


def _brute_force_covers(p: Poset) -> tuple[tuple[str, str], ...]:
    return tuple(
        sorted(
            (a, b)
            for a in p.elements
            for b in p.elements
            if lt(p, a, b) and not any(lt(p, a, r) and lt(p, r, b) for r in p.elements)
        )
    )


def _boolean_lattice(k: int) -> Poset:
    names = {m: f"{m:0{k}b}" for m in range(2**k)}
    return validate_poset(
        tuple(names.values()),
        frozenset((names[m], names[n]) for m in names for n in names if m & n == m),
    )


def test_covers_match_the_definition():
    posets = {m.conditions for m in cts_corpus(500)}
    posets.update(_boolean_lattice(k) for k in range(1, 7))
    # the corpus posets have at most three elements
    rng = random.Random(11)
    posets.update(random_poset(rng, max_elements=10) for _ in range(300))
    for p in posets:
        assert p.covers == _brute_force_covers(p)
    assert len(_boolean_lattice(6).covers) == 6 * 2**5


def test_mask_queries_match_their_definitions_over_the_relation():
    rng = random.Random(21)
    posets = [random_poset(rng, max_elements=9) for _ in range(300)]
    posets += [_boolean_lattice(k) for k in range(1, 7)]
    posets += [boolean_cts(k, 0).conditions for k in range(2, 7)]
    for p in posets:
        pairs = relation(p)
        below = {q: {r for r in p.elements if (r, q) in pairs} for q in p.elements}
        for q in p.elements:
            assert p.down_close([q]) == below[q]
        assert p.covers == _brute_force_covers(p)
        n = len(p.elements)
        subsets = [frozenset(), frozenset(p.elements)]
        subsets += [frozenset(rng.sample(p.elements, rng.randint(1, n))) for _ in range(20)]
        # each downset less one of its members, closed only if that was q
        subsets += [frozenset(below[q]) - {rng.choice(sorted(below[q]))} for q in p.elements]
        for members in subsets:
            closure = set().union(*(below[q] for q in members))
            assert p.down_close(members) == closure
            assert p.is_downward_closed(members) == (closure == members), (p, members)


def test_reflexive_and_repeated_pairs_change_nothing():
    rng = random.Random(5)
    for _ in range(300):
        p = random_poset(rng, max_elements=7)
        pairs = list(p.covers)
        again = validate_poset(p.elements, pairs + [(e, e) for e in p.elements] + pairs)
        assert again == p
        assert again.covers == p.covers
    # a pair given both directly and through a chain is no cover
    q = validate_poset("abc", [("a", "c"), ("a", "b"), ("b", "c"), ("a", "c")])
    assert q.covers == (("a", "b"), ("b", "c"))


def test_closure_matches_the_fixpoint_oracle_on_random_relations():
    """On relations that may hold cycles, the one-pass closure gives the
    fixpoint closure's relation, or the same violation: its cycle and its
    message."""
    rng = random.Random(8)
    cycles = 0
    for _ in range(2000):
        elements = NAMES[: rng.randint(1, 5)] + ["f", "g"][: rng.randint(0, 2)]
        pairs = [
            (rng.choice(elements), rng.choice(elements)) for _ in range(rng.randint(0, 8))
        ]
        try:
            expected = closure_relation(elements, pairs)
        except AntisymmetryViolation as err:
            cycles += 1
            with pytest.raises(AntisymmetryViolation) as got:
                validate_poset(elements, pairs)
            assert (got.value.cycle, str(got.value)) == (err.cycle, str(err)), pairs
        else:
            assert relation(validate_poset(elements, pairs)) == expected
    assert cycles > 500


def test_unknown_element_is_named_before_any_cycle():
    pairs = [("a", "b"), ("b", "a"), ("b", "z"), ("y", "a")]
    for check in (validate_poset, closure_relation):
        with pytest.raises(UnknownElement) as err:
            check(["a", "b"], pairs)
        assert err.value.element == "z"


def test_repr_lists_the_strict_pairs():
    assert repr(TWO_LEVEL) == "Poset(['phi', \"phi'\"], phi'<=phi)"
    assert repr(read_fixture("BOWTIE").conditions) == (
        "Poset(['p', 'q', 'r', 's'], p<=r, p<=s, q<=r, q<=s)"
    )
    assert repr(validate_poset(["a"], [])) == "Poset(['a'])"
    assert repr(boolean_cts(2, 0).conditions) == (
        "Poset(['00', '01', '10', '11'], 00<=01, 00<=10, 00<=11, 01<=11, 10<=11)"
    )


def test_posets_are_values_of_their_elements_and_downsets():
    # the same order with and without its lower covers
    covered = Poset(("a", "b"), (1, 3), (0, 1))
    bare = Poset(elements=("a", "b"), down=(1, 3), lower=(0, 0))
    assert covered == bare and hash(covered) == hash(bare)
    assert covered == validate_poset(["a", "b"], [("a", "b")])
    assert covered != Poset(("a", "b"), (1, 2), (0, 0))
    assert covered != Poset(("a", "c"), (1, 3), (0, 1))
    assert covered != (("a", "b"), (1, 3))
    assert covered.__eq__((("a", "b"), (1, 3))) is NotImplemented
    assert len({covered, bare, TWO_LEVEL}) == 2


def test_posets_are_read_only_and_weakly_referenced():
    poset = validate_poset(["a", "b"], [("a", "b")])
    for name in ("elements", "down", "lower"):
        with pytest.raises(AttributeError):
            setattr(poset, name, ())
    assert poset.elements == ("a", "b")
    assert poset.index == {"a": 0, "b": 1}  # cached_property still caches
    assert poset.index is poset.index
    keyed = weakref.WeakKeyDictionary({poset: "kept"})
    assert keyed[validate_poset(["b", "a"], [("a", "b")])] == "kept"
    del poset
    gc.collect()
    assert len(keyed) == 0
