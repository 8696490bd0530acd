import pytest
from hypothesis import given, strategies as st

from ctsmin import TWO_LEVEL, validate_poset
from reference.order import leq
from reference.lattice import (
    ExplicitLattice,
    HeytingFrame,
    NotALattice,
    NotDistributive,
    TooLarge,
    import_lattice,
)

from test_order import poset_and_subset, posets


def frame2():
    return HeytingFrame(TWO_LEVEL)


def test_two_chain_frame_constants():
    f = frame2()
    assert f.bottom.members == frozenset()
    assert f.top.members == {"phi", "phi'"}
    assert f.principal("phi'").members == {"phi'"}
    assert f.principal("phi").members == {"phi", "phi'"}


def test_two_chain_heyting_table():
    f = frame2()
    low, top, bot = f.principal("phi'"), f.top, f.bottom
    assert f.implies(low, bot).members == frozenset()
    assert f.implies(top, low).members == {"phi'"}
    assert f.implies(bot, bot).members == {"phi", "phi'"}
    assert f.implies(low, top).members == {"phi", "phi'"}


@given(poset_and_subset(), st.data())
def test_implies_is_relative_pseudocomplement(pair, data):
    p, first = pair
    second = data.draw(st.frozensets(st.sampled_from(p.elements)))
    f = HeytingFrame(p)
    a = f.element(p.down_close(first))
    b = f.element(p.down_close(second))
    r = f.implies(a, b)
    # the defining adjunction: c meet a below b iff c below (a implies b)
    for candidate in f.enumerate_elements(limit=32):
        meets = f.meet(candidate, a).members <= b.members
        assert meets == (candidate.members <= r.members)


def test_join_irreducibles_mirror_base():
    f = frame2()
    j, names = f.join_irreducibles()
    assert set(names) == {"phi", "phi'"}
    assert leq(j, "phi'", "phi") and not leq(j, "phi", "phi'")


def test_enumerate_elements_two_chain():
    f = frame2()
    got = [d.members for d in f.enumerate_elements()]
    assert got == [frozenset(), {"phi'"}, {"phi", "phi'"}]


def test_enumerate_elements_size_guard():
    # the guard is on the base size, not the downset count
    f = HeytingFrame(validate_poset([f"c{i}" for i in range(21)], []))
    with pytest.raises(TooLarge):
        f.enumerate_elements()
    small = HeytingFrame(validate_poset(["c0", "c1"], []))
    assert len(small.enumerate_elements(limit=2)) == 4


def diamond():
    return validate_poset(
        ["0", "l", "r", "1"],
        [("0", "l"), ("0", "r"), ("l", "1"), ("r", "1")],
    )


def m3():
    return validate_poset(
        ["0", "a", "b", "c", "1"],
        [("0", x) for x in "abc"] + [(x, "1") for x in "abc"],
    )


def n5():
    return validate_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


def test_explicit_lattice_tables():
    lat = ExplicitLattice(diamond())
    assert lat.join("l", "r") == "1"
    assert lat.meet("l", "r") == "0"
    assert lat.bottom == "0" and lat.top == "1"
    lat.check_distributive()
    assert lat.join_irreducible_elements() == ["l", "r"]


def test_not_a_lattice_detected():
    # two maximal elements have no join
    crown = validate_poset(["p", "q", "x", "y"], [("p", "x"), ("p", "y"), ("q", "x"), ("q", "y")])
    with pytest.raises(NotALattice):
        ExplicitLattice(crown)


def test_m3_and_n5_rejected():
    for shape in (m3(), n5()):
        lat = ExplicitLattice(shape)
        with pytest.raises(NotDistributive) as err:
            lat.check_distributive()
        assert len(err.value.triple) == 3
        with pytest.raises(NotDistributive):
            import_lattice(lat)


def check_import_round_trips(frame):
    """The downset lattice of the frame's base, given as an explicit
    lattice named by its members, imports, and encode and decode are
    inverse on it."""
    downsets = frame.enumerate_elements()
    names = {d.members: "".join(sorted(d.members)) or "0" for d in downsets}
    order = validate_poset(
        sorted(names.values()),
        [
            (names[a.members], names[b.members])
            for a in downsets
            for b in downsets
            if a.members <= b.members
        ],
    )
    imported = import_lattice(ExplicitLattice(order))
    for d in downsets:
        name = names[d.members]
        assert imported.decode(imported.encode(name)) == name
    for e in imported.frame.enumerate_elements():
        assert imported.encode(imported.decode(e)) == e


@given(posets(max_elements=4))
def test_import_lattice_round_trips(p):
    check_import_round_trips(HeytingFrame(p))
