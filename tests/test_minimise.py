import pytest

from ctsmin import (
    Cts,
    Frame,
    Poset,
    StarMap,
    bullet,
    chain_init,
    chain_result_dot,
    chain_result_json,
    chain_step,
    coalgebra_encode,
    ex1,
    ex2,
    greatest_conditional_bisimilarity_naive,
    kernel_matrix,
    klT_factorise,
    lattice_bisim_fixpoint,
    lattice_fixpoint_stages,
    minimise_chain,
    minimise_refinement,
    node,
    partition_matrix,
    pseudo_factorise,
    quotient_to_cts,
    refine,
    t_unit,
    validate_poset,
)

from corpus import cts_corpus

TWO = Poset.chain(["phi'", "phi"])


def test_terms_are_hash_consed():
    dot = bullet()
    assert dot is bullet()
    first = node({"a": [(dot, "phi"), (dot, "phi'")]})
    second = node({"a": [(dot, "phi'"), (dot, "phi")]})
    assert first is second
    assert first.level == 1
    assert node({"a": []}) is not first


def test_stage_zero_term_has_no_successors():
    assert node({"a": [(bullet(), "phi")]}).successors("a") == ((bullet(), "phi"),)
    with pytest.raises(ValueError):
        bullet().successors("a")


def test_chain_columns_on_ex1():
    c = coalgebra_encode(ex1())
    d0 = chain_init(c)
    assert d0.value("x", "phi") is bullet()
    d1 = chain_step(c, d0)
    assert d1.value("x", "phi").pretty() == "{(•,phi),(•,phi')}"
    assert d1.value("x'", "phi'").pretty() == "{(•,phi')}"
    assert d1.value("z", "phi").pretty() == "∅"
    values = {d1.value(x, p).pretty() for x in c.states for p in c.conditions.elements}
    assert values == {"∅", "{(•,phi')}", "{(•,phi),(•,phi')}"}


def test_second_stage_values_on_ex1():
    c = coalgebra_encode(ex1())
    d2 = chain_step(c, chain_step(c, chain_init(c)))
    expect = {
        ("x", "phi"): "{({(•,phi')},phi),(∅,phi),({(•,phi')},phi'),(∅,phi')}",
        ("x'", "phi"): "{(∅,phi),({(•,phi')},phi'),(∅,phi')}",
        ("x", "phi'"): "{({(•,phi')},phi'),(∅,phi')}",
        ("y", "phi"): "{({(•,phi')},phi')}",
        ("z", "phi"): "∅",
    }
    for key, text in expect.items():
        assert d2.value(*key).pretty() == text
    assert d2.value("x'", "phi'") is d2.value("x", "phi'")
    assert d2.value("y'", "phi'") is d2.value("y", "phi")


def test_pseudo_factorise_names_and_order():
    c = coalgebra_encode(ex1())
    d1 = chain_step(c, chain_init(c))
    partition, z_poset, values = pseudo_factorise(d1)
    assert len(partition) == 3
    assert set(z_poset.elements) == {"x@phi", "x@phi'", "z@phi"}
    # the empty-set class sits below every class it shares a state with;
    # only comparable table values order the quotient
    assert z_poset.leq("x@phi'", "x@phi")
    assert values["x@phi"].pretty() == "{(•,phi),(•,phi')}"


def test_kernel_matrix_values_on_ex1():
    c = coalgebra_encode(ex1())
    d2 = chain_step(c, chain_step(c, chain_init(c)))
    m = kernel_matrix(d2)
    assert m.value("x", "x'") == {"phi'"}
    assert m.value("y", "y'") == {"phi", "phi'"}
    assert m.value("x", "x") == {"phi", "phi'"}


def test_minimise_chain_on_ex1():
    r = minimise_chain(coalgebra_encode(ex1()))
    assert (r.stage, r.confirmed_at, r.matrix_stage) == (2, 3, 2)
    assert r.state_partition(1) == (("x", "x'"), ("y", "y'"), ("z", "z'"))
    assert r.state_partition(2) == (("x",), ("x'",), ("y", "y'"), ("z", "z'"))
    assert r.state_partition(3) == r.state_partition(2)
    assert r.quotient_states() == ("x'@phi", "x@phi", "x@phi'", "y@phi", "z@phi")
    assert r.class_name("x'", "phi'") == "x@phi'"
    assert r.class_name("y'", "phi") == "y@phi"


def test_minimise_chain_on_ex2():
    r = minimise_chain(coalgebra_encode(ex2()))
    assert (r.stage, r.matrix_stage) == (1, 1)
    assert r.quotient_states() == ("x1@phi", "x2@phi")


def test_single_state_without_transitions_collapses():
    m = Cts(["s"], ["a"], TWO, {})
    r = minimise_chain(coalgebra_encode(m))
    assert r.stage == 0
    assert r.quotient_states() == ("s@phi",)


def test_partition_stage_can_trail_matrix_stage_by_one():
    # one state, top-labelled self loop: no pair of states ever separates
    # so the kernel matrix is constant, yet the first table is already
    # non-constant across conditions
    m = Cts(["s"], ["a"], TWO, {("s", "a", "s"): {"phi", "phi'"}})
    r = minimise_chain(coalgebra_encode(m))
    assert r.matrix_stage == 0
    assert r.stage == 1
    assert r.quotient_states() == ("s@phi", "s@phi'")


def test_stage_matches_matrix_stage_otherwise_on_corpus():
    for m in cts_corpus(120):
        r = minimise_chain(coalgebra_encode(m))
        if r.stage != r.matrix_stage:
            assert r.matrix_stage == 0 and r.stage == 1
            first = r.stages[1]
            assert len(first.partition) > 1


def test_kernel_partitions_refine_monotonically():
    for m in cts_corpus(80):
        r = minimise_chain(coalgebra_encode(m))
        for earlier, later in zip(r.stages, r.stages[1:]):
            coarse = {pair: i for i, cls in enumerate(earlier.partition) for pair in cls}
            for cls in later.partition:
                assert len({coarse[pair] for pair in cls}) == 1


def test_kernel_matrix_equals_fixpoint_matrix_per_stage():
    for m in cts_corpus(80):
        c = coalgebra_encode(m)
        r = minimise_chain(c)
        stages = lattice_fixpoint_stages(m)
        # the chain can run one stage past the matrix fixpoint when tables
        # keep splitting inside a single kernel class
        assert len(stages) <= len(r.stages)
        for i, info in enumerate(r.stages):
            mat = stages[min(i, len(stages) - 1)]
            got = partition_matrix(c.states, c.conditions, info.partition)
            assert got.table() == {p: v for p, v in mat.items() if v}


def test_kernel_classes_match_naive_bisimilarity():
    for m in cts_corpus(80):
        r = minimise_chain(coalgebra_encode(m))
        family, _ = greatest_conditional_bisimilarity_naive(m)
        for phi in m.conditions.elements:
            for x in m.states:
                for y in m.states:
                    shared = r.class_name(x, phi) == r.class_name(y, phi)
                    assert shared == ((x, y) in family.relation(phi))


def test_refinement_engine_matches_chain():
    for m in [ex1(), ex2()] + list(cts_corpus(60)):
        c = coalgebra_encode(m)
        assert minimise_refinement(c) == minimise_chain(c)


def test_colliding_pair_names_are_rejected():
    # (s, p@q) and (s@p, q) are told apart by the engine but would share
    # the quotient name s@p@q
    m = Cts(
        ["s", "s@p"], ["a"], Poset.discrete(["q", "p@q"]), {("s@p", "a", "s@p"): {"q"}}
    )
    c = coalgebra_encode(m)
    assert len(refine(c)[-1]) == 2
    for route in (minimise_refinement, minimise_chain):
        with pytest.raises(ValueError, match="share the name 's@p@q'"):
            route(c)
    # '@' alone is fine: quotients are re-read with states named x@phi
    q = quotient_to_cts(minimise_refinement(coalgebra_encode(ex1())), TWO)
    assert all("@" in x for x in q.states)
    assert minimise_refinement(coalgebra_encode(q)).stage >= 0


def test_quotient_is_minimal_and_behaviour_preserving():
    for m in list(cts_corpus(50)) + [ex1(), ex2()]:
        r = minimise_chain(coalgebra_encode(m))
        q = quotient_to_cts(r, m.conditions)
        # each original state is bisimilar to its class at that condition,
        # witnessed inside the disjoint union of input and quotient
        union = Cts(
            [f"o_{s}" for s in m.states] + [f"q_{s}" for s in q.states],
            sorted(set(m.actions) | set(q.actions)),
            m.conditions,
            {
                **{
                    (f"o_{s}", a, f"o_{d}"): conds
                    for (s, a, d, conds) in m.edges()
                },
                **{
                    (f"q_{s}", a, f"q_{d}"): conds
                    for (s, a, d, conds) in q.edges()
                },
            },
        )
        rel, _ = lattice_bisim_fixpoint(union)
        for x in m.states:
            for phi in m.conditions.elements:
                partner = f"q_{r.class_name(x, phi)}"
                assert phi in rel.value(f"o_{x}", partner)


EX2_JSON = {
    "stage": 1,
    "confirmed_at": 2,
    "matrix_stage": 1,
    "stages": [
        {
            "stage": 0,
            "kernel": [["x1@phi", "x1@phi'", "x2@phi", "x2@phi'"]],
            "states": [["x1", "x2"]],
        },
        {
            "stage": 1,
            "kernel": [["x1@phi", "x1@phi'"], ["x2@phi", "x2@phi'"]],
            "states": [["x1"], ["x2"]],
        },
        {
            "stage": 2,
            "kernel": [["x1@phi", "x1@phi'"], ["x2@phi", "x2@phi'"]],
            "states": [["x1"], ["x2"]],
        },
    ],
    "quotient": {
        "states": ["x1@phi", "x2@phi"],
        "order": [],
        "transitions": [
            {
                "src": "x2@phi",
                "action": "a",
                "dst": "x2@phi",
                "conditions": ["phi'"],
            }
        ],
    },
}


def test_json_serialisation_golden_ex2():
    got = chain_result_json(minimise_chain(coalgebra_encode(ex2())))
    assert got.pop("algorithm") == "chain"
    assert got == EX2_JSON


EX1_DOT = """digraph minimised {
  rankdir=LR;
  "x'@phi";
  "x@phi";
  "x@phi'";
  "y@phi";
  "z@phi";
  "x'@phi" -> "y@phi" [label="phi'"];
  "x'@phi" -> "z@phi" [label="phi,phi'"];
  "x@phi" -> "y@phi" [label="phi,phi'"];
  "x@phi" -> "z@phi" [label="phi,phi'"];
  "x@phi'" -> "y@phi" [label="phi'"];
  "x@phi'" -> "z@phi" [label="phi'"];
  "y@phi" -> "x@phi'" [label="phi'"];
}
"""


def test_dot_serialisation_golden_ex1():
    m = ex1()
    r = minimise_chain(coalgebra_encode(m))
    assert chain_result_dot(r, m.conditions) == EX1_DOT


def test_klT_factorise_unit_case():
    dom = Poset.chain(["x0", "x1"])
    cod = Poset.chain(["y0", "y1"])
    frame = Frame(Poset.chain(["c0", "c1"]))
    eta = t_unit(cod, frame)
    f = {x: eta["y0"] for x in dom.elements}
    kept, restricted = klT_factorise(f, dom)
    assert kept.elements == ("y0",)
    assert restricted["x0"].value("y0") == frame.top


def test_klT_factorise_discrete_case():
    dom = Poset.discrete(["x0"])
    cod = Poset.discrete(["y0", "y1", "y2"])
    frame = Frame(Poset.discrete(["c0", "c1"]))
    from ctsmin import tau

    f = {
        "x0": StarMap.of(
            cod, frame, {"y0": ["c0"], "y1": ["c1"], "y2": []}
        )
    }
    kept, restricted = klT_factorise(f, dom)
    assert kept.elements == ("y0", "y1")
    # restriction must preserve the reader translation
    assert tau(restricted["x0"]).table() == tau(f["x0"]).table()


def test_klT_factorise_empty_domain():
    kept, restricted = klT_factorise({}, Poset.discrete([]))
    assert kept.elements == ()
    assert restricted == {}
