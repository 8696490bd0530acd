"""Acceptance gate: one test per headline claim, each exact and
within its stated time budget."""

import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

from ctsmin import (
    minimise_refinement,
    validate_poset,
)
from ctsmin.equivalence import _all_pairs
from reference.order import leq
from reference.bisim import (
    greatest_conditional_bisimilarity_naive,
    lattice_bisim_fixpoint,
    lattice_fixpoint_stages,
    per_condition_partition,
)
from reference.chain import (
    _class_names,
    minimise_chain,
    partition_matrix,
    quotient_to_cts,
)
from reference.coalgebra import (
    check_upgrade_preserving,
    coalgebra_encode,
    version_filter,
)
from reference.lattice import (
    ExplicitLattice,
    HeytingFrame,
    NotDistributive,
    import_lattice,
)
from reference.maps import MonotoneMap
from reference.monad import (
    ReaderMap,
    TxSpace,
    kleisli_compose,
    reader_kleisli_compose,
    reader_to_star,
    star_leq,
    star_to_reader,
    t_map,
    t_mult,
    t_unit,
    tau,
    tau_inv,
    tx_space,
)

from corpus import cts_corpus, principal_cts, random_poset
from examples import FIXTURES, ROOT, ex1, ex2, final_relation, read_fixture
from test_frame import check_import_round_trips, m3, n5
from test_monad import (
    COMBOS,
    all_kleisli_arrows,
    check_residuation,
    check_tau_bijection,
    check_unit_laws,
    monotone_readers,
)


def test_criterion_1_worked_example_minimisation():
    start = perf_counter()
    r = minimise_chain(coalgebra_encode(ex1()))
    assert r.state_partitions[1] == (("x", "x'"), ("y", "y'"), ("z", "z'"))
    assert r.state_partitions[2] == (("x",), ("x'",), ("y", "y'"), ("z", "z'"))
    assert r.state_partitions[3] == r.state_partitions[2]
    assert (r.stage, r.confirmed_at, r.matrix_stage) == (2, 3, 2)
    assert len(r.stages[-1]) == 5
    assert r.z_poset.elements == ("x'@phi", "x@phi", "x@phi'", "y@phi", "z@phi")
    names = _class_names(r.stages[-1])
    assert names[("x'", "phi'")] == "x@phi'"
    assert names[("y'", "phi")] == "y@phi"
    assert len(quotient_to_cts(r, ex1().conditions).states) == 5
    assert perf_counter() - start < 1.0


def test_criterion_2_worked_example_bisimilarity():
    rel, rounds = lattice_bisim_fixpoint(ex1())
    assert rounds == 2
    assert rel.value("x", "x'") == {"phi'"}
    assert rel.value("y", "y'") == {"phi", "phi'"}
    assert rel.value("z", "z'") == {"phi", "phi'"}
    assert rel.value("x", "y") == frozenset()


def test_criterion_3_counterexample_pair_unrelated():
    rel, _ = lattice_bisim_fixpoint(ex2())
    assert rel.value("x1", "x2") == frozenset()
    assert rel.value("x2", "x1") == frozenset()
    assert "phi" not in rel.value("x1", "x2")


def gate_systems():
    """Every model under ``fixtures/``, the 500-system corpus, then
    ``principal_cts`` over seeds 0-299.  The corpus's posets of at most
    three conditions almost never give a join, a pair whose moves enter
    at several maximal versions; the principal systems hold about one
    join in three."""
    for path in sorted(FIXTURES.iterdir()):
        yield read_fixture(path.name)
    yield from cts_corpus(500)
    for seed in range(300):
        yield principal_cts(random.Random(seed))


def test_criterion_4_chain_and_fixpoint_stabilise_together():
    start = perf_counter()
    checked = joins = 0
    for m in gate_systems():
        joins += len(_all_pairs(m).levels[-1])
        c = coalgebra_encode(m)
        r = minimise_chain(c)
        stages = lattice_fixpoint_stages(m)
        assert len(stages) - 2 == r.matrix_stage
        # the chain runs one stage past the matrix fixpoint only when the
        # first tables split conditions inside a single kernel class
        assert r.matrix_stage == r.stage or (
            r.matrix_stage == 0 and r.stage == 1 and len(r.stages[1]) > 1
        )
        for i, partition in enumerate(r.stages):
            want = stages[min(i, len(stages) - 1)]
            got = partition_matrix(c.states, c.conditions, partition).table()
            assert got == {p: v for p, v in want.items() if v}
        # the refinement engine's rounds are the chain's stages
        assert minimise_refinement(m) == r
        checked += 1
    assert checked >= 807
    assert joins >= 100
    assert perf_counter() - start < 30.0


def test_criterion_5_fixpoint_agrees_with_naive_oracle():
    checked = joins = 0
    for m in gate_systems():
        joins += len(_all_pairs(m).levels[-1])
        rel, rounds = lattice_bisim_fixpoint(m)
        family, _ = greatest_conditional_bisimilarity_naive(m)
        engine, iterations = final_relation(m)
        assert engine.table() == rel.table()
        assert iterations == rounds
        for x in m.states:
            for y in m.states:
                assert rel.value(x, y) == frozenset(
                    phi
                    for phi in m.conditions.elements
                    if (x, y) in family.relation(phi)
                )
        checked += 1
    assert checked >= 807
    assert joins >= 100


CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_chain_and_fixpoint_stabilise_together"

# Faults planted in a copy of the runtime, each as (file under
# src/ctsmin, the exact text it replaces, which occurs once in that file,
# the replacement, the tests that must fail on it).  The tests run in a
# child pytest whose module path holds the copy alone, so none of them
# may start a subprocess through examples.src_env(), which puts the
# checkout's unmutated src first.
MUTANTS = {
    # the chain oracle orders its quotient by coequalising the product
    # order, not through _quotient_poset
    "quotient-order-skips-first-state": (
        "minimise.py",
        "for x in range(0, len(ranked), height)\n",
        "for x in range(height, len(ranked), height)\n",
        [CRITERION_4],
    ),
    "quotient-transitions-unchecked": (
        "minimise.py",
        "elif seen != image:",
        "elif False:",
        [
            "tests/test_minimise.py::test_congruence_is_checked_on_ranked_blocks",
            "tests/test_minimise.py::test_partition_that_is_no_congruence_is_a_value_error",
        ],
    ),
    "first-part-keeps-block-id": (
        "equivalence.py",
        "largest = parts[sizes.index(max(sizes))]",
        "largest = parts[0]",
        ["tests/test_rounds.py::test_largest_part_keeps_the_block_id"],
    ),
    "kernel-cells-unchecked": (
        "equivalence.py",
        "if block[y * height + kp] != b:",
        "if False:",
        ["tests/test_equivalence.py::test_kernel_relation_rejects_corrupted_blocks"],
    ),
    # a label given as a mask is taken unwalked, as the parser's masks
    # were before, so an open mask gets through
    "int-mask-unchecked": (
        "models.py",
        "rest = label  #",
        "rest = 0  #",
        [
            "tests/test_models.py::test_labels_must_be_downward_closed",
            "tests/test_models.py::test_least_bad_edge_is_named_whatever_the_insertion_order",
        ],
    ),
    "least-undeclared-condition-named": (
        "modelfile.py",
        "mask, closed = poset.masks(conds)",
        "mask, closed = poset.masks(sorted(conds))",
        ["tests/test_modelfile.py::test_first_undeclared_condition_of_a_line_is_named"],
    ),
    # a block of two pairs can split, so skipping it keeps a pair in a
    # block that full re-signing splits
    "two-pair-block-skipped": (
        "equivalence.py",
        "if len(members[b]) == 1:",
        "if len(members[b]) <= 2:",
        ["tests/test_rounds.py::test_rounds_match_full_resigning_on_corpus"],
    ),
    # a pair without own moves expands only its first maximal version, so
    # only joins go wrong
    "join-expands-first-maximum": (
        "equivalence.py",
        "if label >= width])",
        "if label >= width][: None if i in own else 1])",
        [CRITERION_4],
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_killed(tmp_path, mutant):
    module, old, new, killers = MUTANTS[mutant]
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "ctsmin" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *killers],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    # pytest exits 1 when a test fails, and otherwise on errors
    assert proc.returncode == 1, proc.stdout + proc.stderr


def test_criterion_6_birkhoff_duality():
    start = perf_counter()
    rng = random.Random(61)
    for _ in range(200):
        base = random_poset(rng, max_elements=5)
        frame = HeytingFrame(base)
        # irreducibles of the downset lattice mirror the base poset
        jp, principals = frame.join_irreducibles()
        assert set(jp.elements) == set(base.elements)
        for p in base.elements:
            assert principals[p].members == base.down_close([p])
            for q in base.elements:
                assert leq(jp, p, q) == leq(base, p, q)
        check_import_round_trips(frame)
    for shape in (m3(), n5()):
        with pytest.raises(NotDistributive):
            import_lattice(ExplicitLattice(shape))
    assert perf_counter() - start < 10.0


def _all_ttx(space, frame, conditions):
    elements = []
    for table in monotone_readers(conditions, space.poset):
        r = ReaderMap.of(conditions, space.poset, table)
        elements.append(tau_inv(r, frame))
    names = [f"h{i}" for i in range(len(elements))]
    relation = frozenset(
        (names[i], names[j])
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
        if star_leq(a, b)
    )
    poset = validate_poset(tuple(names), relation)
    return TxSpace(poset, tuple(zip(names, elements)))


def test_criterion_7_lattice_monad_laws():
    start = perf_counter()
    for _, _, dom, conditions in COMBOS:
        frame = HeytingFrame(conditions)
        space = tx_space(dom, frame)
        check_tau_bijection(dom, conditions, frame, space)
        check_residuation(dom, conditions, frame, space)
        check_unit_laws(dom, conditions, frame, space)
        unit_tx = t_unit(space.poset, frame)
        # multiplication agrees with the reader diagonal on all of T(T(X))
        ttx = _all_ttx(space, frame, conditions)
        for _, h in ttx.maps:
            flattened = tau(t_mult(h, space))
            nested = tau(h)
            for phi in conditions.elements:
                inner = tau(space.star_map(nested.value(phi)))
                assert flattened.value(phi) == inner.value(phi)
        # associativity: all of T^3(X) when the reader grid is small,
        # otherwise the unit-generated family
        unit_ttx = t_unit(ttx.poset, frame)
        collapse = MonotoneMap.of(
            ttx.poset,
            space.poset,
            {name: space.name_of(t_mult(h, space)) for name, h in ttx.maps},
        )
        if len(ttx.maps) ** len(conditions.elements) <= 4096:
            third = [
                tau_inv(ReaderMap.of(conditions, ttx.poset, table), frame)
                for table in monotone_readers(conditions, ttx.poset)
            ]
        else:
            lift = MonotoneMap.of(
                space.poset,
                ttx.poset,
                {
                    name: ttx.name_of(unit_tx[name])
                    for name, _ in space.maps
                },
            )
            third = [unit_ttx[name] for name, _ in ttx.maps]
            third += [t_map(lift, h) for _, h in ttx.maps]
        for xi in third:
            via_outer = t_mult(t_mult(xi, ttx), space)
            via_inner = t_mult(t_map(collapse, xi), space)
            assert via_outer == via_inner
        # Kleisli composition agrees between the two presentations
        arrows = all_kleisli_arrows(dom, dom, frame)
        for f_flat in arrows:
            f = reader_to_star(f_flat, dom, dom, frame)
            for g_flat in arrows:
                g = reader_to_star(g_flat, dom, dom, frame)
                composed = kleisli_compose(f, g, dom, dom, dom, frame)
                assert star_to_reader(composed, dom) == reader_kleisli_compose(
                    f_flat, g_flat, dom, conditions
                )
    assert perf_counter() - start < 30.0


def _break_upgrade(c, rng):
    slice_flips = []
    version_leaks = []
    for x in c.states:
        for act in c.actions:
            for phi in c.conditions.elements:
                for psi in c.conditions.elements:
                    if psi == phi:
                        continue
                    if leq(c.conditions, psi, phi):
                        slice_flips.append((x, phi, act, psi))
                    elif not leq(c.conditions, phi, psi):
                        version_leaks.append((x, phi, act, psi))
    pool = slice_flips + version_leaks
    if not pool:
        return None
    x, phi, act, psi = pool[rng.randrange(len(pool))]
    target = rng.choice(list(c.states))
    pairs = set(c.alpha(x, phi, act))
    if leq(c.conditions, psi, phi):
        # flip one low-version successor so the psi slices disagree
        pairs ^= {(target, psi)}
    else:
        # smuggle in a version the bound forbids
        pairs.add((target, psi))
    return c.mutated((x, phi, act), frozenset(pairs))


def test_criterion_8_upgrade_preservation_and_mutations():
    rng = random.Random(81)
    mutations = 0
    for m in cts_corpus(500):
        c = coalgebra_encode(m)
        ok, witness = check_upgrade_preserving(c)
        assert ok and witness is None
        if mutations >= 100:
            continue
        broken = _break_upgrade(c, rng)
        if broken is None:
            continue
        ok, witness = check_upgrade_preserving(broken)
        assert not ok
        wx, wa, wphi, wpsi = witness
        here = broken.alpha(wx, wphi, wa)
        if leq(broken.conditions, wpsi, wphi):
            low = broken.alpha(wx, wpsi, wa)
            assert version_filter(here, wpsi) != version_filter(low, wpsi)
        else:
            assert version_filter(here, wpsi)
        mutations += 1
    assert mutations >= 100


def test_criterion_9_per_condition_weaker_than_conditional():
    m = ex1()
    blocks = per_condition_partition(m, "phi")
    block_of = {s: b for b in blocks for s in b}
    assert block_of["x"] == block_of["x'"]
    rel, _ = lattice_bisim_fixpoint(m)
    assert "phi" not in rel.value("x", "x'")
