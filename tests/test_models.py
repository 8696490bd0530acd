import random

import pytest

from ctsmin import (
    TWO_LEVEL,
    Cts,
    NotDownwardClosed,
    UnknownElement,
    parse_model,
    serialise_model,
    validate_poset,
)
from reference.bisim import project
from reference.coalgebra import (
    UpgradeCoalgebra,
    check_upgrade_preserving,
    coalgebra_encode,
    version_filter,
)
from reference.maps import v_hat_apply
from reference.models import edges, outgoing
from reference.order import relation

from corpus import boolean_cts, cts_corpus, line_cts, random_cts
from examples import ex1, ex2, system_key


def test_labels_must_be_downward_closed():
    # {phi} lacks phi' < phi, whether it is given by names or as its mask
    raised = []
    for label in ({"phi"}, 0b01):
        with pytest.raises(NotDownwardClosed) as err:
            Cts(["s"], ["a"], TWO_LEVEL, {("s", "a", "s"): label})
        raised.append(str(err.value))
    assert raised == ["label set not downward closed: s a s : ['phi']"] * 2


def test_unknown_names_are_rejected():
    for edge, label, unknown in (
        (("ghost", "a", "s"), {"phi'"}, "ghost"),
        (("s", "a", "ghost"), {"phi'"}, "ghost"),
        (("s", "b", "s"), {"phi'"}, "b"),
        # an edge's names are read source, destination, then action
        (("s", "b", "ghost"), {"phi'"}, "ghost"),
        (("ghost", "b", "phantom"), {"phi'"}, "ghost"),
        # the least unknown condition of a label is named
        (("s", "a", "s"), {"phi'", "zeta", "psi", "omega"}, "omega"),
    ):
        with pytest.raises(UnknownElement) as err:
            Cts(["s"], ["a"], TWO_LEVEL, {edge: label})
        assert err.value.element == unknown
    # a mask bit beyond the two conditions names none of them
    for mask in (0b100, 0b111, -1):
        with pytest.raises(ValueError, match=f"^s a s : mask {mask:#b} exceeds the conditions$"):
            Cts(["s"], ["a"], TWO_LEVEL, {("s", "a", "s"): mask})


def test_least_bad_edge_is_named_whatever_the_insertion_order():
    # ("s", "a", "s") sorts before ("s", "b", "s"), so its open label is
    # reported, not the undeclared action of the other edge, whether it
    # comes by names or as a mask among good masks
    for label in ({"phi"}, 0b01):
        bad = [
            (("t", "a", "s"), 0b11),
            (("s", "b", "s"), {"phi'"}),
            (("s", "a", "s"), label),
            (("s", "a", "t"), 0b10),
        ]
        raised = []
        for labels in (dict(bad), dict(reversed(bad))):
            with pytest.raises(Exception) as err:
                Cts(["s", "t"], ["a"], TWO_LEVEL, labels)
            raised.append((err.type, str(err.value)))
        assert raised[0] == raised[1]
        assert raised[0] == (NotDownwardClosed, "label set not downward closed: s a s : ['phi']")


def test_empty_condition_poset_is_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        Cts(["s"], ["a"], validate_poset([], []), {})


def test_empty_labels_dropped_not_stored():
    m = Cts(["s", "t"], ["a"], TWO_LEVEL, {("s", "a", "t"): {"phi'"}})
    assert outgoing(m, "s", "a") == [("t", frozenset({"phi'"}))]
    assert len(edges(m)) == 1


def test_ex1_projections():
    m = ex1()
    low = project(m, "phi'")
    assert low.edges == {
        ("x", "a", "y"),
        ("x", "a", "z"),
        ("x'", "a", "y'"),
        ("x'", "a", "z'"),
        ("y", "a", "x"),
        ("y'", "a", "x'"),
    }
    high = project(m, "phi")
    assert high.edges == {("x", "a", "y"), ("x", "a", "z"), ("x'", "a", "z'")}


def test_lats_round_trip_on_corpus():
    # a lats file is the same system under Birkhoff duality
    for m in cts_corpus(40):
        kind, again = parse_model(serialise_model(m, "lats"))
        assert (kind, system_key(again)) == ("lats", system_key(m))


def test_ex2_counterexample_shape():
    m = ex2()
    assert project(m, "phi").edges == set()
    assert project(m, "phi'").edges == {("x2", "a", "x2")}


def test_coalgebra_alpha_on_ex1():
    c = coalgebra_encode(ex1())
    assert c.alpha("x'", "phi", "a") == {
        ("y'", "phi'"),
        ("z'", "phi"),
        ("z'", "phi'"),
    }
    assert c.alpha("x'", "phi'", "a") == {("y'", "phi'"), ("z'", "phi'")}
    assert c.alpha("z", "phi", "a") == frozenset()


def test_version_filter():
    pairs = frozenset({("s", "phi"), ("t", "phi'"), ("u", "phi")})
    assert version_filter(pairs, "phi") == {("s", "phi"), ("u", "phi")}
    assert version_filter(pairs, "other") == frozenset()


def test_v_hat_apply_reproduces_first_chain_column():
    c = coalgebra_encode(ex1())
    # the constant map to a single point collapses successors to their
    # versions, giving the first chain column
    image = v_hat_apply(lambda y, psi: "*", {"a": c.alpha("x", "phi", "a")})
    assert image == {"a": frozenset({("*", "phi"), ("*", "phi'")})}


def test_coalgebra_validation_rejects_bad_tables():
    c = coalgebra_encode(ex1())
    # version above the bound breaks the table invariant
    with pytest.raises(ValueError):
        c.mutated(("z", "phi'", "a"), frozenset({("x", "phi")})).validate()
    with pytest.raises(ValueError):
        # dropping a low-version pair at the upper condition only breaks
        # monotonicity in the condition
        trimmed = c.alpha("x", "phi", "a") - {("z", "phi'")}
        c.mutated(("x", "phi", "a"), trimmed).validate()
    # keys naming an unknown state, action or condition are rejected
    # rather than ignored by the engine
    with pytest.raises(UnknownElement) as err:
        UpgradeCoalgebra(["x"], ["a"], TWO_LEVEL, {("ghost", "phi", "a"): {("x", "phi'")}})
    assert err.value.element == "ghost"
    with pytest.raises(UnknownElement) as err:
        UpgradeCoalgebra(["x"], ["a"], TWO_LEVEL, {("x", "phi", "b"): {("x", "phi")}})
    assert err.value.element == "b"
    with pytest.raises(UnknownElement) as err:
        UpgradeCoalgebra(["x"], ["a"], TWO_LEVEL, {("x", "psi", "a"): {("x", "phi")}})
    assert err.value.element == "psi"
    # with several faults the least one is reported
    with pytest.raises(UnknownElement) as err:
        UpgradeCoalgebra(
            ["x"],
            ["a"],
            TWO_LEVEL,
            {("x", "phi", "b"): {("x", "phi")}, ("ghost", "phi", "a"): {("x", "phi'")}},
        )
    assert err.value.element == "ghost"


def test_encoding_passes_validation():
    # coalgebra_encode skips validate, on the grounds that the encoding
    # cannot break it; this holds that claim on every system at hand
    systems = [ex1(), ex2(), line_cts(6), Cts([], [], TWO_LEVEL, {})]
    systems += [boolean_cts(k, seed) for k in (3, 4, 5, 6) for seed in (0, 1)]
    systems += list(cts_corpus(500))
    for m in systems:
        coalgebra_encode(m).validate()


def test_validation_along_covers_matches_every_comparable_pair():
    # dropping one successor pair breaks monotonicity exactly when some
    # comparable psi <= phi sees a larger successor set at psi; posets of
    # up to six conditions have pairs joined by chains of several covers
    rng = random.Random(7)
    checked = 0
    for seed in range(300):
        m = random_cts(random.Random(seed), max_conditions=6)
        c = coalgebra_encode(m)
        keys = [
            (x, phi, a)
            for x in m.states
            for phi in m.conditions.elements
            for a in m.actions
            if c.alpha(x, phi, a)
        ]
        if not keys:
            continue
        key = rng.choice(keys)
        mutated = c.mutated(key, c.alpha(*key) - {rng.choice(sorted(c.alpha(*key)))})
        broken = any(
            not mutated.alpha(x, psi, a) <= mutated.alpha(x, phi, a)
            for x in m.states
            for a in m.actions
            for (psi, phi) in relation(m.conditions)
        )
        if broken:
            checked += 1
            with pytest.raises(ValueError, match="not monotone"):
                mutated.validate()
        else:
            mutated.validate()
    assert 20 < checked < 250


def test_upgrade_preservation_on_fixtures():
    for m in (ex1(), ex2()):
        ok, witness = check_upgrade_preserving(coalgebra_encode(m))
        assert ok and witness is None


def test_upgrade_preservation_detects_dropped_version():
    c = coalgebra_encode(ex1())
    # drop the phi'-successor pair from the phi slot only
    key = ("x'", "phi", "a")
    trimmed = c.alpha(*key) - {("y'", "phi'")}
    mutated = c.mutated(key, trimmed)
    ok, witness = check_upgrade_preserving(mutated)
    assert not ok
    assert witness == ("x'", "a", "phi", "phi'")


def test_upgrade_preservation_detects_version_leak():
    c = coalgebra_encode(ex2())
    key = ("x2", "phi'", "a")
    leaked = c.alpha(*key) | {("x1", "phi")}
    mutated = c.mutated(key, leaked)
    ok, witness = check_upgrade_preserving(mutated)
    assert not ok
    assert witness == ("x2", "a", "phi'", "phi")
