"""Behavioural equivalences: per-condition, conditional, and lattice
valued.

Production runs use one engine: signature refinement of (state,
condition) pairs over the upgrade coalgebra (``_rounds``).  Its rounds
are the kernels of the final chain, so they are output, and the engine
keeps every round exact while signing only what can change: block ids
are stable, a round re-signs the predecessors of the pairs whose id
changed in the round before plus one representative of each touched
block's untouched members, and a block that splits keeps its id for
its largest part.  ``bisim_refinement`` builds the bisimilarity
relation once, from the final blocks, and reads its iteration count
from the number of occupied (condition, block) cells per round.
``refine`` turns every round into a canonical partition for
``minimise.minimise_refinement``, which reports them all.
``bisimilar`` answers one query by running the same rounds on the
pairs reachable from the two queried pairs, and stops at the first
round that separates them.  Two independent routes to the same
relation are kept as oracles for the tests: the naive route, a
greatest fixed point over families of plain relations, one per
condition, with an antitone closure step; and the lattice route, which
iterates one matrix of downsets using Heyting implication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

from .order import Poset, UnknownElement
from .models import (
    Cts,
    Lats,
    Lts,
    NotDownwardClosed,
    UpgradeCoalgebra,
    cts_to_lats,
    project,
)

Pair = tuple[str, str]
PairKey = tuple[str, str]
Partition = tuple[tuple[PairKey, ...], ...]


@dataclass(frozen=True)
class LatticeRelation:
    """A lattice-valued relation on a state set: each pair of states is
    assigned a downward closed set of conditions.  Empty values are not
    stored."""

    carrier: tuple[str, ...]
    base: Poset
    entries: tuple[tuple[Pair, frozenset[str]], ...]

    @classmethod
    def of(
        cls,
        carrier: Iterable[str],
        base: Poset,
        table: Mapping[Pair, Iterable[str]],
    ) -> "LatticeRelation":
        states = tuple(sorted(set(carrier)))
        known = set(states)
        cleaned: dict[Pair, frozenset[str]] = {}
        for (x, y), conds in table.items():
            if x not in known or y not in known:
                raise ValueError(f"pair ({x},{y}) outside the carrier")
            members = frozenset(conds)
            if not base.is_downward_closed(members):
                raise ValueError(f"value at ({x},{y}) not downward closed")
            if members:
                cleaned[(x, y)] = members
        return cls(states, base, tuple(sorted(cleaned.items())))

    @cached_property
    def _table(self) -> Mapping[Pair, frozenset[str]]:
        return dict(self.entries)

    def value(self, x: str, y: str) -> frozenset[str]:
        return self._table.get((x, y), frozenset())

    def table(self) -> dict[Pair, frozenset[str]]:
        return dict(self.entries)

    def slice_at(self, phi: str) -> frozenset[Pair]:
        """All pairs whose value contains the given condition."""
        self.base.check_element(phi)
        return frozenset(p for p, conds in self.entries if phi in conds)


@dataclass(frozen=True)
class ConditionFamily:
    """A condition-indexed family of plain relations.  Producers keep the
    family antitone; the checking functions treat that as a proof
    obligation, not a construction invariant."""

    conditions: Poset
    relations: tuple[tuple[str, frozenset[Pair]], ...]

    @classmethod
    def of(
        cls, conditions: Poset, table: Mapping[str, Iterable[Pair]]
    ) -> "ConditionFamily":
        rels = []
        for phi in conditions.elements:
            pairs = frozenset(table.get(phi, frozenset()))
            rels.append((phi, pairs))
        return cls(conditions, tuple(rels))

    @cached_property
    def _table(self) -> Mapping[str, frozenset[Pair]]:
        return dict(self.relations)

    def relation(self, phi: str) -> frozenset[Pair]:
        self.conditions.check_element(phi)
        return self._table[phi]

    def table(self) -> dict[str, frozenset[Pair]]:
        return dict(self.relations)


def lts_bisimilarity(m: Lts) -> tuple[tuple[str, ...], ...]:
    """Greatest bisimulation on a plain system, as a partition with the
    classes ordered by least member."""
    block: dict[str, int] = {x: 0 for x in m.states}
    while True:
        signature = {
            x: (
                block[x],
                frozenset(
                    (a, block[y]) for a in m.actions for y in m.successors(x, a)
                ),
            )
            for x in m.states
        }
        fresh: dict[tuple, int] = {}
        new_block: dict[str, int] = {}
        for x in m.states:  # states are sorted, so numbering is canonical
            sig = signature[x]
            if sig not in fresh:
                fresh[sig] = len(fresh)
            new_block[x] = fresh[sig]
        if new_block == block:
            break
        block = new_block
    classes: dict[int, list[str]] = {}
    for x in m.states:
        classes.setdefault(block[x], []).append(x)
    return tuple(
        tuple(members) for members in sorted(classes.values(), key=lambda c: c[0])
    )


def _transfer_failure(
    m: Cts, phi: str, rel: frozenset[Pair]
) -> tuple[str, str, str, str] | None:
    """First (x, y, a, x') where x can move at phi but y has no matching
    successor under rel, scanning both clause directions."""
    for (x, y) in sorted(rel):
        for a in m.actions:
            xs = sorted(m.successors(x, a, phi))
            ys = m.successors(y, a, phi)
            for x1 in xs:
                if not any((x1, y1) in rel for y1 in ys):
                    return (x, y, a, x1)
            for y1 in sorted(ys):
                if not any((x1, y1) in rel for x1 in xs):
                    return (y, x, a, y1)
    return None


def is_conditional_bisimulation(
    m: Cts, family: ConditionFamily
) -> tuple[bool, tuple | None]:
    """A valid family is antitone in the condition and each member
    relation transfers steps of the projected system at its condition."""
    if family.conditions != m.conditions:
        raise ValueError("family indexed by a different condition poset")
    for phi in m.conditions.elements:
        for psi in m.conditions.elements:
            if m.conditions.lt(psi, phi):
                extra = family.relation(phi) - family.relation(psi)
                if extra:
                    return False, ("antitone", phi, psi, min(extra))
    for phi in m.conditions.elements:
        failure = _transfer_failure(m, phi, family.relation(phi))
        if failure is not None:
            return False, ("transfer", phi) + failure
    return True, None


def is_conditional_congruence(
    m: Cts, family: ConditionFamily
) -> tuple[bool, tuple | None]:
    """Each relation must be an equivalence whose classes have equal
    class-wise successor images at its own condition, and the family
    must again be antitone."""
    for phi, rel in family.relations:
        _require_equivalence(m.states, phi, rel)
    for phi in m.conditions.elements:
        for psi in m.conditions.elements:
            if m.conditions.lt(psi, phi):
                extra = family.relation(phi) - family.relation(psi)
                if extra:
                    return False, ("antitone", phi, psi, min(extra))
    for phi in m.conditions.elements:
        rel = family.relation(phi)
        cls: dict[str, str] = {}
        for x in m.states:
            cls[x] = min(y for y in m.states if (x, y) in rel)
        for (x, y) in sorted(rel):
            for a in m.actions:
                image_x = frozenset(cls[x1] for x1 in m.successors(x, a, phi))
                image_y = frozenset(cls[y1] for y1 in m.successors(y, a, phi))
                if image_x != image_y:
                    return False, ("congruence", phi, x, y, a)
    return True, None


def _require_equivalence(states: tuple[str, ...], phi: str, rel: frozenset[Pair]) -> None:
    for x in states:
        if (x, x) not in rel:
            raise ValueError(f"relation at {phi} is not reflexive at {x}")
    for (x, y) in rel:
        if (y, x) not in rel:
            raise ValueError(f"relation at {phi} is not symmetric at ({x},{y})")
    for (x, y) in rel:
        for (y2, z) in rel:
            if y2 == y and (x, z) not in rel:
                raise ValueError(f"relation at {phi} is not transitive at ({x},{z})")


def greatest_conditional_bisimilarity_naive(m: Cts) -> tuple[ConditionFamily, int]:
    """Greatest fixed point of one-step expansion per condition combined
    with antitone closure, starting from the all relation.  Returns the
    family and the number of changing rounds."""
    states = m.states
    full = frozenset((x, y) for x in states for y in states)
    current: dict[str, frozenset[Pair]] = {
        phi: full for phi in m.conditions.elements
    }
    rounds = 0
    while True:
        expanded: dict[str, frozenset[Pair]] = {}
        for phi in m.conditions.elements:
            rel = current[phi]
            keep = set()
            for (x, y) in rel:
                ok = True
                for a in m.actions:
                    xs = m.successors(x, a, phi)
                    ys = m.successors(y, a, phi)
                    if not all(any((x1, y1) in rel for y1 in ys) for x1 in xs):
                        ok = False
                        break
                    if not all(any((x1, y1) in rel for x1 in xs) for y1 in ys):
                        ok = False
                        break
                if ok:
                    keep.add((x, y))
            expanded[phi] = frozenset(keep)
        refined = {}
        for phi in m.conditions.elements:
            value = expanded[phi]
            for psi in m.conditions.below(phi):
                value &= current[psi]
            refined[phi] = value
        if refined == current:
            return ConditionFamily.of(m.conditions, current), rounds
        current = refined
        rounds += 1


def lattice_fixpoint_stages(m: Lats | Cts) -> list[dict[Pair, frozenset[str]]]:
    """All rounds of the lattice-valued refinement, starting from the
    all relation and ending with the first repeated matrix, which is
    kept so callers can see the confirmation stage."""
    if isinstance(m, Cts):
        m = cts_to_lats(m)
    base = m.frame.base
    states = m.states
    below = {phi: base.below(phi) for phi in base.elements}
    all_conds = frozenset(base.elements)

    def implies(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return frozenset(phi for phi in all_conds if below[phi] & a <= b)

    out: dict[tuple[str, str], list[tuple[str, frozenset[str]]]] = {}
    for (s, a, d, label) in m.edges():
        out.setdefault((s, a), []).append((d, label.members))

    current: dict[Pair, frozenset[str]] = {
        (x, y): all_conds for x in states for y in states
    }
    stages = [current]
    while True:
        refined: dict[Pair, frozenset[str]] = {}
        for x in states:
            for y in states:
                value = current[(x, y)]
                for a in m.actions:
                    for (x1, gx) in out.get((x, a), []):
                        matched: frozenset[str] = frozenset()
                        for (y1, gy) in out.get((y, a), []):
                            matched |= gy & current[(x1, y1)]
                        value &= implies(gx, matched)
                        if not value:
                            break
                    for (y1, gy) in out.get((y, a), []):
                        matched = frozenset()
                        for (x1, gx) in out.get((x, a), []):
                            matched |= gx & current[(x1, y1)]
                        value &= implies(gy, matched)
                        if not value:
                            break
                refined[(x, y)] = value
        stages.append(refined)
        if refined == current:
            return stages
        current = refined


def lattice_bisim_fixpoint(m: Lats | Cts) -> tuple[LatticeRelation, int]:
    """Iterate the lattice-valued refinement operator to its greatest
    fixed point.  The whole matrix is recomputed from the previous one
    each round; the returned count is the first index whose matrix
    equals its successor."""
    if isinstance(m, Cts):
        m = cts_to_lats(m)
    stages = lattice_fixpoint_stages(m)
    final = stages[-1]
    return (
        LatticeRelation.of(m.states, m.frame.base, final),
        len(stages) - 2,
    )


def is_lattice_bisimulation(
    m: Lats | Cts, rel: LatticeRelation
) -> tuple[bool, tuple | None]:
    """Check the transfer clauses of a lattice-valued bisimulation at
    every join-irreducible, here the principal downsets of single
    conditions.  The witness is the lexicographically least tuple
    (x, y, side, a, x', phi) that fails."""
    if isinstance(m, Cts):
        m = cts_to_lats(m)
    base = m.frame.base
    out: dict[tuple[str, str], list[tuple[str, frozenset[str]]]] = {}
    for (s, a, d, label) in m.edges():
        out.setdefault((s, a), []).append((d, label.members))

    for x in rel.carrier:
        for y in rel.carrier:
            related = rel.value(x, y)
            for side in ("forth", "back"):
                mover = x if side == "forth" else y
                for a in m.actions:
                    for (t, g_mv) in out.get((mover, a), []):
                        for phi in base.elements:
                            if phi not in g_mv or phi not in related:
                                continue
                            if side == "forth":
                                ok = any(
                                    phi in gy and phi in rel.value(t, y1)
                                    for (y1, gy) in out.get((y, a), [])
                                )
                            else:
                                ok = any(
                                    phi in gx and phi in rel.value(x1, t)
                                    for (x1, gx) in out.get((x, a), [])
                                )
                            if not ok:
                                return False, (x, y, side, a, t, phi)
    return True, None


def per_condition_partition(m: Cts, phi: str) -> tuple[tuple[str, ...], ...]:
    """Bisimilarity classes of the projection at one condition."""
    return lts_bisimilarity(project(m, phi))


def canonical_partition(groups: Iterable[Iterable[PairKey]]) -> Partition:
    """Classes sorted internally and ordered by their least member."""
    classes = [tuple(sorted(g)) for g in groups]
    return tuple(sorted(classes, key=lambda cls: cls[0]))


def _pair_graph(
    c: UpgradeCoalgebra, roots: Iterable[PairKey]
) -> tuple[list[PairKey], list[list[tuple[int, int]]], int]:
    """The (state, condition) pairs reachable over ``alpha`` from the
    roots, numbered breadth-first with the roots first in their given
    order, and each pair's moves as (successor number, label).  A label
    numbers one (action, entry version); the third result is how many
    there are.  Every successor's version is at most its source's, so no
    pair reached from a root is above that root's condition."""
    number: dict[PairKey, int] = {}
    for pair in roots:
        number.setdefault(pair, len(number))
    pairs = list(number)
    labels: dict[tuple[str, str], int] = {}
    moves = []
    for (x, cond) in pairs:  # grows while it is walked
        succs = []
        for a in c.actions:
            for succ in c.alpha(x, cond, a):
                j = number.get(succ)
                if j is None:
                    j = number[succ] = len(pairs)
                    pairs.append(succ)
                succs.append((j, labels.setdefault((a, succ[1]), len(labels))))
        moves.append(succs)
    return pairs, moves, len(labels)


class Round(NamedTuple):
    """One round of ``_rounds``.  ``block`` gives every pair's block id
    after the round; the engine updates that list in place, so it is
    valid only until the generator resumes.  ``moved`` lists (pair,
    previous block id) for the pairs whose id changed in this round,
    ``signed`` counts the signatures computed in it and ``blocks`` is
    the number of blocks."""

    block: list[int]
    moved: list[tuple[int, int]]
    signed: int
    blocks: int


def _rounds(moves: list[list[tuple[int, int]]], width: int) -> Iterator[Round]:
    """The rounds of signature refinement over the pair graph
    ``moves``.  Round zero has a single block.  In each later round a
    pair's signature is its block together with the set of (label,
    successor block) over its moves, and the new blocks are the classes
    of equal signature.  Each round refines the last, so the generator
    stops after the first round in which no block splits.

    Block ids are stable and only pairs that can split are signed: a
    pair whose successors all kept their ids in the previous round has
    the signature of every such pair of its block, because it shared
    their signature in the previous round.  So a round signs the
    predecessors of the pairs that moved in the previous round (in
    round one, every pair with a move) and one representative of each
    touched block's untouched members, all against the previous round's
    ids.  A block that splits keeps its id for its largest part,
    untouched members counted, and the other parts take fresh ids.  A
    moved pair's new block is at most half its old one, so no pair
    moves more than log2(pairs) times (Hopcroft's rule, here applied
    round by round)."""
    preds: list[list[int]] = [[] for _ in moves]
    for i, succs in enumerate(moves):
        for j, _ in succs:
            preds[j].append(i)

    block = [0] * len(moves)
    members = [set(range(len(moves)))] if moves else []
    yield Round(block, [], 0, len(members))
    # every pair entered its block in round zero, so round one signs
    # every pair with a move
    dirty = {i for i, succs in enumerate(moves) if succs}
    while True:
        touched: dict[int, int] = {}
        for i in dirty:
            touched[block[i]] = touched.get(block[i], 0) + 1
        # the pairs to sign, each weighted by the pairs it signs for
        weight = dict.fromkeys(dirty, 1)
        for b, count in touched.items():
            if count < len(members[b]):
                for i in members[b]:
                    if i not in dirty:
                        weight[i] = len(members[b]) - count
                        break
        parts: dict[tuple[int, frozenset[int]], list[int]] = {}
        for i in weight:
            # a move to a successor in block b with label l signs as the
            # single int b * width + l, since every label is below width
            key = (block[i], frozenset([block[j] * width + label for j, label in moves[i]]))
            parts.setdefault(key, []).append(i)
        split: dict[int, list[list[int]]] = {}
        for (b, _), part in parts.items():
            split.setdefault(b, []).append(part)
        moved: list[tuple[int, int]] = []
        for b, group in split.items():
            if len(group) == 1:
                continue
            largest = max(group, key=lambda part: sum(map(weight.__getitem__, part)))
            for part in group:
                if part is largest:
                    continue
                # a representative is signed last, so it ends its part
                if part[-1] in dirty:
                    part = set(part)
                else:
                    part = members[b].difference(dirty).union(part)
                members[b] -= part
                new = len(members)
                members.append(part)
                for i in part:
                    block[i] = new
                    moved.append((i, b))
        yield Round(block, moved, len(weight), len(members))
        if not moved:
            return
        dirty = set()
        for i, _ in moved:
            dirty.update(preds[i])


def _all_pairs(c: UpgradeCoalgebra) -> tuple[list[PairKey], list[list[tuple[int, int]]], int]:
    """The pair graph of every (state, condition) pair, numbered state
    by state."""
    return _pair_graph(c, [(x, cond) for x in c.states for cond in c.conditions.elements])


def refine(c: UpgradeCoalgebra) -> list[Partition]:
    """Signature refinement of all (state, condition) pairs: every round
    of ``_rounds`` up to and including the first that repeats its
    predecessor, as canonical partitions.  Only ``minimise``, which
    reports every round, needs them; ``bisim_refinement`` and
    ``bisimilar`` read the engine's rounds directly."""
    pairs, moves, width = _all_pairs(c)
    partitions = []
    for rnd in _rounds(moves, width):
        groups: dict[int, list[PairKey]] = {}
        for pair, b in zip(pairs, rnd.block):
            groups.setdefault(b, []).append(pair)
        partitions.append(canonical_partition(groups.values()))
    return partitions


def bisimilar(c: UpgradeCoalgebra, x: str, y: str, phi: str) -> bool:
    """Whether x and y are conditionally bisimilar under phi.  The pairs
    reachable from (x, phi) and (y, phi) form a subcoalgebra, and the
    inclusion is a homomorphism, so ``refine``'s rounds restricted to
    them are the rounds of that part alone.  Only those pairs are signed,
    and the answer is no at the first round that separates the two roots,
    since later rounds only refine."""
    for state in (x, y):
        if state not in c.states:
            raise UnknownElement(state)
    c.conditions.check_element(phi)
    if x == y:
        return True
    pairs, moves, width = _pair_graph(c, [(x, phi), (y, phi)])
    return all(rnd.block[0] == rnd.block[1] for rnd in _rounds(moves, width))


def _condition_columns(partition: Partition) -> frozenset[tuple[str, tuple[str, ...]]]:
    """The per-condition state partitions of a pair partition, as
    (condition, states sharing a class there) entries."""
    groups: dict[tuple[str, int], list[str]] = {}
    for i, cls in enumerate(partition):
        for (x, cond) in cls:
            groups.setdefault((cond, i), []).append(x)
    return frozenset((cond, tuple(xs)) for (cond, _), xs in groups.items())


def matrix_stage(partitions: list[Partition]) -> int:
    """First round whose per-condition state partitions, and so whose
    kernel matrix, equal those of the next round."""
    columns = [_condition_columns(p) for p in partitions]
    return next(i for i in range(len(columns) - 1) if columns[i] == columns[i + 1])


def _kernel_relation(
    states: Iterable[str],
    conditions: Poset,
    columns: Iterable[tuple[str, Iterable[str]]],
) -> LatticeRelation:
    """The relation that relates x and y at phi when both lie in one
    (phi, states) column.  The values are downward closed for every
    partition the chain or the engine produces; a violation indicates a
    corrupted partition and is rejected.  The entries are checked here
    once, so the relation is built directly rather than through
    ``LatticeRelation.of``."""
    table: dict[Pair, set[str]] = {}
    for cond, xs in columns:
        for x in xs:
            for y in xs:
                table.setdefault((x, y), set()).add(cond)
    carrier = tuple(sorted(set(states)))
    known = set(carrier)
    entries = []
    for (x, y), conds in sorted(table.items()):
        if not conditions.is_downward_closed(conds):
            raise NotDownwardClosed(f"kernel value at ({x},{y}): {sorted(conds)}")
        if x not in known or y not in known:
            raise ValueError(f"pair ({x},{y}) outside the carrier")
        entries.append(((x, y), frozenset(conds)))
    return LatticeRelation(carrier, conditions, tuple(entries))


def partition_matrix(
    states: Iterable[str], conditions: Poset, partition: Partition
) -> LatticeRelation:
    """Same-condition kernel of a pair partition: x and y are related at
    phi when (x, phi) and (y, phi) share a class."""
    return _kernel_relation(states, conditions, _condition_columns(partition))


def bisim_refinement(c: UpgradeCoalgebra) -> tuple[LatticeRelation, int]:
    """Greatest conditional bisimilarity read off the engine's final
    blocks, with the index of the first repeated kernel matrix, which
    is also the number of rounds ``lattice_bisim_fixpoint`` reports.

    No round is materialised.  The kernel matrix of a round is its set
    of per-condition state partitions, one class per (condition, block)
    that some pair occupies.  Those partitions only refine from one
    round to the next, so the matrix repeats exactly when the number of
    occupied (condition, block) cells does; the count is kept up to date
    from each round's moved pairs."""
    pairs, moves, width = _all_pairs(c)
    column = {cond: k for k, cond in enumerate(c.conditions.elements)}
    height = len(column)
    cells: dict[int, int] = {}  # block * height + condition -> pairs there
    for _, cond in pairs:
        cells[column[cond]] = cells.get(column[cond], 0) + 1
    counts = []
    for rnd in _rounds(moves, width):
        for i, old in rnd.moved:
            k = column[pairs[i][1]]
            cell = old * height + k
            cells[cell] -= 1
            if not cells[cell]:
                del cells[cell]
            cell = rnd.block[i] * height + k
            cells[cell] = cells.get(cell, 0) + 1
        counts.append(len(cells))
    iterations = next(i for i in range(len(counts) - 1) if counts[i] == counts[i + 1])
    groups: dict[tuple[str, int], list[str]] = {}
    for (x, cond), b in zip(pairs, rnd.block):
        groups.setdefault((cond, b), []).append(x)
    columns = ((cond, xs) for (cond, _), xs in groups.items())
    return _kernel_relation(c.states, c.conditions, columns), iterations
