"""Oracles for conditional bisimilarity, kept for the tests.

Each one computes the relation that the refinement engine's final
blocks give (``equivalence.refine``, read by the ``bisim`` report), by
a route that shares no code with the engine:

- ``lts_bisimilarity`` and ``per_condition_partition``: plain
  bisimilarity of the projection at one condition (``project``, an
  ``Lts``);
- ``greatest_conditional_bisimilarity_naive``: a greatest fixed point
  over families of plain relations, one per condition, with an
  antitone closure step;
- ``lattice_fixpoint_stages`` and ``lattice_bisim_fixpoint``: one
  matrix of downsets iterated with Heyting implication, returned as a
  ``LatticeRelation``;
- ``is_conditional_bisimulation``, ``is_conditional_congruence`` and
  ``is_lattice_bisimulation``: the transfer and congruence clauses,
  checked on a given relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ctsmin.models import Cts
from ctsmin.order import Poset, UnknownElement
from .models import edges, outgoing
from .order import check_element, is_downward_closed, lt

Pair = tuple[str, str]
Edge = tuple[str, str, str]


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
            if not is_downward_closed(base, members):
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


class Lts:
    """A plain labelled transition system."""

    def __init__(self, states: Iterable[str], actions: Iterable[str], edges: Iterable[Edge]):
        self.states = tuple(sorted(set(states)))
        self.actions = tuple(sorted(set(actions)))
        self.edges = frozenset(edges)
        for (s, a, d) in self.edges:
            if s not in self.states or d not in self.states:
                raise UnknownElement(s if s not in self.states else d)
            if a not in self.actions:
                raise UnknownElement(a)

    def successors(self, src: str, act: str) -> frozenset[str]:
        return frozenset(d for (s, a, d) in self.edges if s == src and a == act)

    def _key(self):
        return (self.states, self.actions, self.edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lts) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def project(m: Cts, phi: str) -> Lts:
    """The plain transition system seen at one fixed condition."""
    check_element(m.conditions, phi)
    present = [(s, a, d) for (s, a, d, conds) in edges(m) if phi in conds]
    return Lts(m.states, m.actions, present)


def successors(m: Cts, src: str, act: str, phi: str) -> frozenset[str]:
    """The a-successors of a state that are present at condition phi."""
    check_element(m.conditions, phi)
    return frozenset(dst for dst, conds in outgoing(m, src, act) if phi in conds)


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
        check_element(self.conditions, phi)
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
            xs = sorted(successors(m, x, a, phi))
            ys = successors(m, y, a, phi)
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
            if lt(m.conditions, psi, phi):
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
            if lt(m.conditions, psi, phi):
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
                image_x = frozenset(cls[x1] for x1 in successors(m, x, a, phi))
                image_y = frozenset(cls[y1] for y1 in successors(m, y, a, phi))
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
                    xs = successors(m, x, a, phi)
                    ys = successors(m, y, a, phi)
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
            for psi in m.conditions.down_close([phi]):
                value &= current[psi]
            refined[phi] = value
        if refined == current:
            return ConditionFamily.of(m.conditions, current), rounds
        current = refined
        rounds += 1


def lattice_fixpoint_stages(m: Cts) -> list[dict[Pair, frozenset[str]]]:
    """All rounds of the lattice-valued refinement, starting from the
    all relation and ending with the first repeated matrix, which is
    kept so callers can see the confirmation stage.  Each label set is
    read as its element of the downset lattice of the conditions."""
    base = m.conditions
    states = m.states
    below = {phi: base.down_close([phi]) for phi in base.elements}
    all_conds = frozenset(base.elements)

    def implies(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
        return frozenset(phi for phi in all_conds if below[phi] & a <= b)

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
                    for (x1, gx) in outgoing(m, x, a):
                        matched: frozenset[str] = frozenset()
                        for (y1, gy) in outgoing(m, y, a):
                            matched |= gy & current[(x1, y1)]
                        value &= implies(gx, matched)
                        if not value:
                            break
                    for (y1, gy) in outgoing(m, y, a):
                        matched = frozenset()
                        for (x1, gx) in outgoing(m, x, a):
                            matched |= gx & current[(x1, y1)]
                        value &= implies(gy, matched)
                        if not value:
                            break
                refined[(x, y)] = value
        stages.append(refined)
        if refined == current:
            return stages
        current = refined


def lattice_bisim_fixpoint(m: Cts) -> tuple[LatticeRelation, int]:
    """Iterate the lattice-valued refinement operator to its greatest
    fixed point.  The whole matrix is recomputed from the previous one
    each round; the returned count is the first index whose matrix
    equals its successor."""
    stages = lattice_fixpoint_stages(m)
    final = stages[-1]
    return (
        LatticeRelation.of(m.states, m.conditions, final),
        len(stages) - 2,
    )


def is_lattice_bisimulation(
    m: Cts, rel: LatticeRelation
) -> tuple[bool, tuple | None]:
    """Check the transfer clauses of a lattice-valued bisimulation at
    every join-irreducible, here the principal downsets of single
    conditions.  The witness is the lexicographically least tuple
    (x, y, side, a, x', phi) that fails."""
    base = m.conditions
    for x in rel.carrier:
        for y in rel.carrier:
            related = rel.value(x, y)
            for side in ("forth", "back"):
                mover = x if side == "forth" else y
                for a in m.actions:
                    for (t, g_mv) in outgoing(m, mover, a):
                        for phi in base.elements:
                            if phi not in g_mv or phi not in related:
                                continue
                            if side == "forth":
                                ok = any(
                                    phi in gy and phi in rel.value(t, y1)
                                    for (y1, gy) in outgoing(m, y, a)
                                )
                            else:
                                ok = any(
                                    phi in gx and phi in rel.value(x1, t)
                                    for (x1, gx) in outgoing(m, x, a)
                                )
                            if not ok:
                                return False, (x, y, side, a, t, phi)
    return True, None


def per_condition_partition(m: Cts, phi: str) -> tuple[tuple[str, ...], ...]:
    """Bisimilarity classes of the projection at one condition."""
    return lts_bisimilarity(project(m, phi))
