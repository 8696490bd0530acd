import pytest

from ctsmin import (
    TWO_LEVEL,
    Cts,
    NotDownwardClosed,
    UnknownElement,
    validate_poset,
)
from ctsmin.equivalence import _pair_graph, bisimilar, kernel_cells
from reference.bisim import (
    ConditionFamily,
    LatticeRelation,
    Lts,
    greatest_conditional_bisimilarity_naive,
    is_conditional_bisimulation,
    is_conditional_congruence,
    is_lattice_bisimulation,
    lattice_bisim_fixpoint,
    lattice_fixpoint_stages,
    lts_bisimilarity,
    per_condition_partition,
)

from corpus import cts_corpus
from examples import ex1, ex2, final_relation


def family_of(m, relations):
    return ConditionFamily.of(m.conditions, relations)


def test_lts_bisimilarity_classic():
    # u, v, w all loop on a, but only w also answers b
    m = Lts(
        ["u", "v", "w"],
        ["a", "b"],
        [("u", "a", "u"), ("v", "a", "v"), ("w", "a", "w"), ("w", "b", "w")],
    )
    assert lts_bisimilarity(m) == (("u", "v"), ("w",))
    n = Lts(["u", "v", "w"], ["a"], [("u", "a", "v"), ("v", "a", "u")])
    assert lts_bisimilarity(n) == (("u", "v"), ("w",))


def test_identity_family_is_a_bisimulation():
    m = ex1()
    diag = frozenset((x, x) for x in m.states)
    ok, witness = is_conditional_bisimulation(
        m, family_of(m, {"phi": diag, "phi'": diag})
    )
    assert ok and witness is None


def test_full_family_fails_with_transfer_witness():
    m = ex1()
    full = frozenset((x, y) for x in m.states for y in m.states)
    ok, witness = is_conditional_bisimulation(
        m, family_of(m, {"phi": full, "phi'": full})
    )
    assert not ok
    assert witness == ("transfer", "phi", "x", "y", "a", "y")


def test_antitone_violation_detected():
    m = ex1()
    diag = frozenset((x, x) for x in m.states)
    bigger = diag | {("y", "y'"), ("y'", "y")}
    ok, witness = is_conditional_bisimulation(
        m, family_of(m, {"phi": bigger, "phi'": diag})
    )
    assert not ok
    assert witness[0] == "antitone"
    assert witness[1:3] == ("phi", "phi'")


def test_greatest_bisimilarity_is_a_congruence():
    m = ex1()
    family, _ = greatest_conditional_bisimilarity_naive(m)
    ok, witness = is_conditional_congruence(m, family)
    assert ok and witness is None


def test_congruence_requires_equivalence_relations():
    m = ex2()
    lopsided = frozenset((x, x) for x in m.states) | {("x1", "x2")}
    with pytest.raises(ValueError):
        is_conditional_congruence(
            m, family_of(m, {"phi": lopsided, "phi'": lopsided})
        )


def test_naive_rounds_and_values_on_ex1():
    m = ex1()
    family, rounds = greatest_conditional_bisimilarity_naive(m)
    assert rounds == 3
    low = family.relation("phi'")
    high = family.relation("phi")
    assert ("x", "x'") in low and ("x", "x'") not in high
    assert ("y", "y'") in low and ("y", "y'") in high
    assert ("x", "y") not in low and ("x", "y") not in high


def test_fixpoint_stages_shape_on_ex1():
    m = ex1()
    stages = lattice_fixpoint_stages(m)
    assert len(stages) == 4
    assert stages[-1] == stages[-2]
    full = frozenset({"phi", "phi'"})
    assert all(v == full for v in stages[0].values())


def test_lattice_relation_values_are_downsets():
    m = ex1()
    with pytest.raises(Exception):
        LatticeRelation.of(
            m.states, m.conditions, {("x", "x"): frozenset({"phi"})}
        )


def kernel_relation(states, conditions, blocks):
    """The kernel cells of (pair, block id) entries, one per pair, read
    as a map from each (x, y) to the conditions relating them."""
    ids = dict(blocks)
    states = sorted(states)
    block = [ids[(x, cond)] for x in states for cond in conditions.elements]
    height = len(conditions.elements)
    cells = kernel_cells(Cts(states, [], conditions, {}), block)
    values = {}
    for i, cell in enumerate(cells):
        for y in cell:
            key = (states[i // height], states[y])
            values.setdefault(key, set()).add(conditions.elements[i % height])
    return values


def test_kernel_relation_rejects_corrupted_blocks():
    # (x, phi) and (y, phi) share a block but (x, phi') and (y, phi') do
    # not, so x and y would be related at phi yet not at phi' < phi
    blocks = [(("x", "phi"), 0), (("y", "phi"), 0), (("x", "phi'"), 1), (("y", "phi'"), 2)]
    with pytest.raises(NotDownwardClosed, match=r"\(x,y\)"):
        kernel_relation(["x", "y"], TWO_LEVEL, blocks)
    # the same blocks with (y, phi') joined to (x, phi') are a valid kernel
    fixed = kernel_relation(["x", "y"], TWO_LEVEL, blocks[:3] + [(("y", "phi'"), 1)])
    assert fixed[("x", "y")] == {"phi", "phi'"}


def test_kernel_rejects_a_break_two_covers_down_a_chain():
    # c0 < c1 < c2: x and y share a block at c2 and at c1 but not at c0,
    # so the break sits on the cover c0 < c1, two covers below the top
    chain = validate_poset(["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")])
    blocks = [
        (("x", "c2"), 0), (("y", "c2"), 0),
        (("x", "c1"), 1), (("y", "c1"), 1),
        (("x", "c0"), 2), (("y", "c0"), 3),
    ]
    with pytest.raises(NotDownwardClosed, match=r"\(x,y\)"):
        kernel_relation(["x", "y"], chain, blocks)
    fixed = kernel_relation(["x", "y"], chain, blocks[:5] + [(("y", "c0"), 2)])
    assert fixed[("x", "y")] == {"c0", "c1", "c2"}
    assert fixed[("x", "x")] == {"c0", "c1", "c2"}


def test_kernel_rejects_a_break_on_one_lower_cover_of_a_diamond():
    # bot < a, b < top: x and y share a block at a only, so the lower
    # cover bot < a breaks while bot < b and both upper covers hold
    diamond = validate_poset(
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    )
    blocks = [
        (("x", "a"), 0), (("y", "a"), 0),
        (("x", "bot"), 1), (("y", "bot"), 2),
        (("x", "b"), 3), (("y", "b"), 4),
        (("x", "top"), 5), (("y", "top"), 6),
    ]
    with pytest.raises(NotDownwardClosed, match=r"\(x,y\)"):
        kernel_relation(["x", "y"], diamond, blocks)
    fixed = kernel_relation(["x", "y"], diamond, blocks[:3] + [(("y", "bot"), 1)] + blocks[4:])
    assert fixed[("x", "y")] == {"bot", "a"}
    assert fixed[("y", "x")] == {"bot", "a"}


def test_top_relation_is_not_a_bisimulation_on_ex1():
    m = ex1()
    full = frozenset({"phi", "phi'"})
    top = LatticeRelation.of(
        m.states,
        m.conditions,
        {(x, y): full for x in m.states for y in m.states},
    )
    ok, witness = is_lattice_bisimulation(m, top)
    assert not ok
    assert witness == ("x", "y", "forth", "a", "y", "phi")


def test_fixpoint_result_is_a_lattice_bisimulation():
    for m in list(cts_corpus(60)) + [ex1(), ex2()]:
        rel, _ = lattice_bisim_fixpoint(m)
        ok, witness = is_lattice_bisimulation(m, rel)
        assert ok, witness


def test_per_condition_partition_on_ex1():
    m = ex1()
    assert per_condition_partition(m, "phi") == (
        ("x", "x'"),
        ("y", "y'", "z", "z'"),
    )
    assert per_condition_partition(m, "phi'") == (
        ("x", "x'"),
        ("y", "y'"),
        ("z", "z'"),
    )


def assert_bisimilar_matches_relation(m):
    """``bisimilar`` against the relation of ``refine``'s final blocks
    over the whole pair space, on every (x, y, phi)."""
    relation, _ = final_relation(m)
    for x in m.states:
        for y in m.states:
            for phi in m.conditions.elements:
                want = phi in relation.value(x, y)
                assert bisimilar(m, x, y, phi) == want, (x, y, phi)


def test_bisimilar_on_one_state_twice():
    m = ex1()
    for x in m.states:
        for phi in m.conditions.elements:
            assert bisimilar(m, x, x, phi)


def test_bisimilar_on_states_without_transitions():
    # dead and idle have no transitions; busy moves once phi' is entered
    m = Cts(["busy", "dead", "idle"], ["a"], TWO_LEVEL, {("busy", "a", "busy"): {"phi'"}})
    for phi in TWO_LEVEL.elements:
        assert bisimilar(m, "dead", "idle", phi)
        assert not bisimilar(m, "dead", "busy", phi)
        assert not bisimilar(m, "busy", "idle", phi)
    assert_bisimilar_matches_relation(m)


def test_bisimilar_on_disjoint_reachable_parts():
    both = {"phi", "phi'"}
    # a two-cycle, a self-loop, and a chain that stops after one step
    m = Cts(
        ["p", "q", "r", "s", "t"],
        ["a"],
        TWO_LEVEL,
        {
            ("p", "a", "q"): both,
            ("q", "a", "p"): both,
            ("r", "a", "r"): both,
            ("s", "a", "t"): both,
        },
    )
    reached = set(_pair_graph(m, [("p", "phi")]).pairs)
    assert not reached & set(_pair_graph(m, [("r", "phi")]).pairs)
    assert bisimilar(m, "p", "r", "phi")
    assert not bisimilar(m, "p", "s", "phi")
    assert not bisimilar(m, "s", "t", "phi'")
    assert_bisimilar_matches_relation(m)


def test_bisimilar_at_a_minimal_condition():
    m = ex1()
    # no pair above phi' is reached from a root at phi'
    pairs = _pair_graph(m, [("x", "phi'"), ("x'", "phi'")]).pairs
    assert {cond for _, cond in pairs} == {"phi'"}
    assert bisimilar(m, "x", "x'", "phi'")
    assert not bisimilar(m, "x", "x'", "phi")


def test_bisimilar_rejects_unknown_names():
    m = ex1()
    with pytest.raises(UnknownElement):
        bisimilar(m, "x", "nowhere", "phi")
    with pytest.raises(UnknownElement):
        bisimilar(m, "x", "x'", "psi")
