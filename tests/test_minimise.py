import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctsmin import (
    TWO_LEVEL,
    AntisymmetryViolation,
    ChainResult,
    Cts,
    chain_result_dot,
    minimise_refinement,
    refine,
    validate_poset,
)
from ctsmin.equivalence import PairGraph, Round, _all_pairs, _rounds
from reference.order import leq, relation
from ctsmin.minimise import (
    _bisim_chunks,
    _class_ranks,
    _quotient_poset,
    _quotient_transitions,
    chain_result_text,
)
from reference.bisim import lattice_bisim_fixpoint
from reference.chain import (
    _class_names,
    alpha_transitions,
    bullet,
    canonical_partition,
    chain_init,
    chain_result_json,
    chain_step,
    coequalised_product,
    kernel_matrix,
    minimise_chain,
    node,
    pseudo_factorise,
    quotient_to_cts,
)
from reference.coalgebra import coalgebra_encode
from reference.models import edges

from corpus import boolean_cts, cts_corpus, line_cts
from examples import ex1, ex2
from strategies import LIBRARY_NAMES, cts_models
from test_modelfile import TOKENS


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
    assert leq(z_poset, "x@phi'", "x@phi")
    assert values["x@phi"].pretty() == "{(•,phi),(•,phi')}"


def test_kernel_matrix_values_on_ex1():
    c = coalgebra_encode(ex1())
    d2 = chain_step(c, chain_step(c, chain_init(c)))
    m = kernel_matrix(d2)
    assert m.value("x", "x'") == {"phi'"}
    assert m.value("y", "y'") == {"phi", "phi'"}
    assert m.value("x", "x") == {"phi", "phi'"}


def test_minimise_chain_on_ex2():
    r = minimise_chain(coalgebra_encode(ex2()))
    assert (r.stage, r.matrix_stage) == (1, 1)
    assert r.z_poset.elements == ("x1@phi", "x2@phi")


def test_single_state_without_transitions_collapses():
    m = Cts(["s"], ["a"], TWO_LEVEL, {})
    r = minimise_chain(coalgebra_encode(m))
    assert r.stage == 0
    assert r.z_poset.elements == ("s@phi",)


def test_partition_stage_can_trail_matrix_stage_by_one():
    # one state, top-labelled self loop: no pair of states ever separates
    # so the kernel matrix is constant, yet the first table is already
    # non-constant across conditions
    m = Cts(["s"], ["a"], TWO_LEVEL, {("s", "a", "s"): {"phi", "phi'"}})
    for r in (minimise_chain(coalgebra_encode(m)), minimise_refinement(m)):
        assert r.matrix_stage == 0
        assert r.stage == 1
        assert r.z_poset.elements == ("s@phi", "s@phi'")
    assert json.loads("".join(_bisim_chunks(m)))["iterations"] == 0


def test_kernel_partitions_refine_monotonically():
    for m in cts_corpus(80):
        r = minimise_chain(coalgebra_encode(m))
        for earlier, later in zip(r.stages, r.stages[1:]):
            coarse = {pair: i for i, cls in enumerate(earlier) for pair in cls}
            for cls in later:
                assert len({coarse[pair] for pair in cls}) == 1


def test_unchanged_classes_are_shared_across_stages():
    """A class or state group that no pair leaves or enters in a round is
    the same tuple in the next stage: that keeps long histories small
    in memory and lets the report write each distinct tuple once."""
    result = minimise_refinement(line_cts(40))
    shared = total = 0
    for history in (result.stages, result.state_partitions):
        for earlier, later in zip(history, history[1:]):
            kept = {group: group for group in earlier}
            for group in later:
                total += 1
                if group in kept:
                    assert group is kept[group]
                    shared += 1
    # a round of a long chain splits a few classes and keeps the rest
    assert shared > total / 2


@given(cts_models(LIBRARY_NAMES))
def test_refinement_engine_matches_chain_on_library_names(model):
    result = minimise_refinement(model)
    chain = minimise_chain(coalgebra_encode(model))
    assert result == chain
    assert chain_result_text(result) == chain_result_text(chain)


def test_colliding_pair_names_are_rejected():
    # (s, p@q) and (s@p, q) are told apart by the engine but would share
    # the quotient name s@p@q
    m = Cts(
        ["s", "s@p"], ["a"], validate_poset(["q", "p@q"], []), {("s@p", "a", "s@p"): {"q"}}
    )
    _, _, block, _ = refine(m)
    assert len(set(block)) == 2
    with pytest.raises(ValueError, match="share the name 's@p@q'"):
        minimise_refinement(m)
    with pytest.raises(ValueError, match="share the name 's@p@q'"):
        minimise_chain(coalgebra_encode(m))
    # '@' alone is fine: quotients are re-read with states named x@phi
    q = quotient_to_cts(minimise_refinement(ex1()), TWO_LEVEL)
    assert all("@" in x for x in q.states)
    assert minimise_refinement(q).stage >= 0


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
                    for (s, a, d, conds) in edges(m)
                },
                **{
                    (f"q_{s}", a, f"q_{d}"): conds
                    for (s, a, d, conds) in edges(q)
                },
            },
        )
        rel, _ = lattice_bisim_fixpoint(union)
        names = _class_names(r.stages[-1])
        for x in m.states:
            for phi in m.conditions.elements:
                partner = f"q_{names[(x, phi)]}"
                assert phi in rel.value(f"o_{x}", partner)


def test_quotient_order_matches_coequalised_product():
    systems = list(cts_corpus(500)) + [
        boolean_cts(k, seed) for k in (3, 4) for seed in range(3)
    ]
    for m in systems:
        result = minimise_refinement(m)
        pairs = [(x, phi) for x in m.states for phi in m.conditions.elements]
        for partition in result.stages:
            expected = coequalised_product(m.states, m.conditions, partition)
            assert len(expected.elements) == len(partition)
            index = {pair: k for k, cls in enumerate(partition) for pair in cls}
            got = _quotient_poset(m, *_class_ranks(pairs, [index[pair] for pair in pairs]))
            assert got == expected
        assert result.z_poset == expected


def test_cyclic_partition_is_rejected():
    # (x, c1) <= (x, c2) and (y, c1) <= (y, c2) order the two classes
    # both ways, which no round of the engine can do
    m = Cts(["x", "y"], ["a"], validate_poset(["c1", "c2"], [("c1", "c2")]), {})
    crossed = canonical_partition(
        [[("x", "c1"), ("y", "c2")], [("x", "c2"), ("y", "c1")]]
    )
    with pytest.raises(AntisymmetryViolation):
        engine_quotient(m, crossed)


def engine_quotient(m, partition):
    """The runtime's quotient order and moves for a given final
    partition, the moves read off the engine's pair graph."""
    graph = _all_pairs(m)
    index = {pair: k for k, cls in enumerate(partition) for pair in cls}
    ranked, names = _class_ranks(graph.pairs, [index[pair] for pair in graph.pairs])
    return _quotient_poset(m, ranked, names), _quotient_transitions(m, graph, ranked, names)


def test_partition_that_is_no_congruence_is_a_value_error():
    m = ex1()
    whole = canonical_partition(
        [[(x, phi) for x in m.states for phi in m.conditions.elements]]
    )
    with pytest.raises(ValueError, match="quotient not well defined at x@phi, action a"):
        engine_quotient(m, whole)
    with pytest.raises(ValueError, match="quotient not well defined at x@phi, action a"):
        alpha_transitions(coalgebra_encode(m), _class_names(whole))


def test_congruence_is_checked_on_ranked_blocks():
    # q and r move alike under a but only q moves under b, and their
    # class is named after p's, so it is not the first by rank
    m = Cts(
        ["p", "q", "r"],
        ["a", "b"],
        TWO_LEVEL,
        {("q", "a", "p"): {"phi'"}, ("r", "a", "p"): {"phi'"}, ("q", "b", "p"): {"phi", "phi'"}},
    )
    merged = canonical_partition(
        [
            [("p", "phi"), ("p", "phi'")],
            [("q", "phi"), ("q", "phi'"), ("r", "phi"), ("r", "phi'")],
        ]
    )
    with pytest.raises(ValueError, match="quotient not well defined at q@phi, action b"):
        engine_quotient(m, merged)
    with pytest.raises(ValueError, match="quotient not well defined at q@phi, action b"):
        alpha_transitions(coalgebra_encode(m), _class_names(merged))


@given(cts_models(LIBRARY_NAMES), st.data())
def test_quotient_moves_do_not_depend_on_block_ids(m, data):
    graph, _, block, _ = refine(m)
    ids = sorted(set(block))
    renamed = dict(zip(ids, data.draw(st.permutations(ids))))
    ranked, names = _class_ranks(graph.pairs, block)
    assert _class_ranks(graph.pairs, [renamed[b] for b in block]) == (ranked, names)
    # one rank per class, in name order, and the moves read them
    assert names == sorted(set(names)) and set(ranked) == set(range(len(names)))
    assert _quotient_transitions(m, graph, ranked, names) == minimise_refinement(m).transitions


def test_dot_escapes_quote_in_library_names():
    # the parser rejects '"', but a Cts built through the library keeps it
    m = Cts(['y"'], ["a"], TWO_LEVEL, {('y"', "a", 'y"'): {"phi'"}})
    assert chain_result_dot(minimise_refinement(m), TWO_LEVEL) == (
        "digraph minimised {\n"
        "  rankdir=LR;\n"
        '  "y\\"@phi";\n'
        '  "y\\"@phi" -> "y\\"@phi" [label="phi\'"];\n'
        "}\n"
    )


@given(cts_models(LIBRARY_NAMES))
def test_report_text_is_the_dumped_report_dict(model):
    result = minimise_refinement(model)
    text = chain_result_text(result)
    assert text == json.dumps(chain_result_json(result), indent=2, sort_keys=True)
    assert len(result.z_poset.elements) == len(result.stages[result.stage])
    assert chain_result_text(result) == text
    assert chain_result_text(minimise_refinement(model)) == text



def read_chain_result(text, m):
    """Rebuild a ``ChainResult`` from its ``minimise`` report and the
    system.  Each pair name splits at its one '@', each class is named
    by its least pair, the quotient order is closed again from its
    strict pairs, and the (class, action) rows the report leaves out,
    those without moves, come back from the system's actions."""
    report = json.loads(text)

    def pair(name):
        state, cond = name.split("@")
        return (state, cond)

    stages = tuple(
        tuple(tuple(map(pair, cls)) for cls in stage["kernel"]) for stage in report["stages"]
    )
    state_partitions = tuple(
        tuple(map(tuple, stage["states"])) for stage in report["stages"]
    )
    assert [stage["stage"] for stage in report["stages"]] == list(range(len(stages)))
    quotient = report["quotient"]
    rows = {(name, a): [] for name in quotient["states"] for a in m.actions}
    for row in quotient["transitions"]:
        rows[(row["src"], row["action"])] += [(row["dst"], c) for c in row["conditions"]]
    result = ChainResult(
        report["matrix_stage"],
        stages,
        state_partitions,
        validate_poset(quotient["states"], map(tuple, quotient["order"])),
        tuple(sorted((src, a, tuple(sorted(moves))) for (src, a), moves in rows.items())),
    )
    assert report["algorithm"] == "chain"
    assert report["stage"] == result.stage
    assert report["confirmed_at"] == result.confirmed_at
    return result


def assert_report_reads_back(m):
    result = minimise_refinement(m)
    text = chain_result_text(result)
    assert read_chain_result(text, m) == result
    strict = sorted((p, q) for p, q in relation(result.z_poset) if p != q)
    assert json.loads(text)["quotient"]["order"] == [list(pair) for pair in strict]


@pytest.mark.parametrize(
    "make",
    [ex1, ex2, lambda: boolean_cts(3, 0), lambda: boolean_cts(4, 0), lambda: line_cts(12)],
    ids=["EX1", "EX2", "boolean3", "boolean4", "line12"],
)
def test_report_reads_back_on_examples(make):
    assert_report_reads_back(make())


def test_report_reads_back_on_corpus():
    for m in cts_corpus(500):
        assert_report_reads_back(m)


@given(cts_models(TOKENS, TOKENS.filter(lambda name: name != "<=")))
def test_report_reads_back_on_token_names(m):
    """Pair names are state@condition and no token holds '@', so two
    different results for one system give two different reports."""
    assert_report_reads_back(m)


def test_chain_results_are_values_of_their_five_fields():
    result = minimise_refinement(ex1())
    fields = [
        result.matrix_stage,
        result.stages,
        result.state_partitions,
        result.z_poset,
        result.transitions,
    ]
    again = ChainResult(*fields)
    assert again == result and hash(again) == hash(result)
    assert again == minimise_refinement(ex1())
    others = [result.matrix_stage + 1, result.stages[:-1], (), TWO_LEVEL, ()]
    for at, other in enumerate(others):
        changed = ChainResult(*fields[:at], other, *fields[at + 1:])
        assert changed != result and result != changed, at
    assert result != tuple(fields)
    assert repr(result) == (
        f"ChainResult(matrix_stage={result.matrix_stage!r}, stages={result.stages!r},"
        f" state_partitions={result.state_partitions!r}, z_poset={result.z_poset!r},"
        f" transitions={result.transitions!r})"
    )
    with pytest.raises(AttributeError):
        result.stages = ()
    assert result.stages == fields[1]


def test_pair_graph_and_round_unpack_to_their_four_fields():
    graph = _all_pairs(ex1())
    pairs, links, levels, width = graph
    assert PairGraph._fields == ("pairs", "links", "levels", "width")
    assert (pairs, links, levels, width) == (graph.pairs, graph.links, graph.levels, graph.width)
    assert repr(graph) == (
        f"PairGraph(pairs={pairs!r}, links={links!r}, levels={levels!r}, width={width!r})"
    )
    first = next(_rounds(graph))
    block, moved, signed, blocks = first
    assert Round._fields == ("block", "moved", "signed", "blocks")
    assert (block, moved, signed, blocks) == (first.block, first.moved, first.signed, first.blocks)
    assert repr(first) == (
        f"Round(block={block!r}, moved={moved!r}, signed={signed!r}, blocks={blocks!r})"
    )
