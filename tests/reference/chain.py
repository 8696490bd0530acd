"""The final-chain oracle for minimisation, kept for the tests.

``minimise_chain`` builds the stage tables of the final chain of the
lattice monad.  They assign every (state, condition) pair a behaviour
term.  Stage zero is constant; each later stage records, per action,
the set of (previous term, entry version) pairs reachable in one step.
Tables are pseudo-factorised into a kernel partition and a
least-ordered codomain, and the construction stops as soon as the
partition repeats.  ``minimise_chain`` builds its own result from the
canonical kernel partitions: each stage's state partition groups the
states by their row of class indices, pairs are named by the least pair
of their class, the quotient's moves are read off the tabulated
coalgebra (``alpha_transitions``), the quotient order is the product
of the states with the conditions coequalised by the kernel
(``coequalised_product``), and ``matrix_stage`` compares the
per-condition columns of every stage.  None of that goes through the
runtime's builder, so ``minimise_refinement`` agrees with it only when
both constructions are right; only the result type and the pair names
are shared.

``partition_matrix`` and ``kernel_matrix`` read a stage's
same-condition kernel as a lattice relation.  ``chain_result_json`` is
the report as a plain dict, the reference the tests hold
``minimise.chain_result_text`` against.  ``quotient_to_cts`` re-reads a
quotient as a conditional system, and ``coequalise`` quotients a poset
by the equivalence that a set of pairs generates.

Terms are hash-consed through a module interner keyed by sub-term
identity, so equality is pointer equality and table comparisons stay
cheap even when printed forms would be large.  The interner is a plain
dict guarded by the interpreter lock, which is atomic enough here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from ctsmin.equivalence import PairKey, Partition
from ctsmin.minimise import ChainResult, Transitions, _pair_name
from ctsmin.models import Cts
from ctsmin.order import Poset, validate_poset
from .bisim import LatticeRelation
from .coalgebra import UpgradeCoalgebra
from .order import relation


def canonical_partition(groups: Iterable[Iterable[PairKey]]) -> Partition:
    """Classes sorted internally and ordered by their least member."""
    classes = [tuple(sorted(g)) for g in groups]
    return tuple(sorted(classes, key=lambda cls: cls[0]))


def block_partition(pairs: Iterable[PairKey], block: Iterable[int]) -> Partition:
    """The canonical partition of the pairs that sharing a block id
    induces, the i-th pair having the i-th id."""
    groups: dict[int, list[PairKey]] = {}
    for pair, b in zip(pairs, block):
        groups.setdefault(b, []).append(pair)
    return canonical_partition(groups.values())


def _class_names(partition: Partition) -> dict[PairKey, str]:
    """Name every pair by the least pair of its class."""
    return {pair: _pair_name(cls[0]) for cls in partition for pair in cls}


class BehaviourTerm:
    """A node of the stage tables.  Use bullet() and node() to obtain
    instances; direct construction bypasses interning."""

    __slots__ = ("tid", "level", "branches", "_pretty")

    def __init__(self, tid: int, level: int, branches):
        self.tid = tid
        self.level = level
        # branches: None for the stage-zero constant, otherwise a tuple of
        # (action, ((sub, cond), ...)) with every action present.
        self.branches = branches
        self._pretty: str | None = None

    def successors(self, action: str) -> tuple[tuple["BehaviourTerm", str], ...]:
        if self.branches is None:
            raise ValueError("the stage-zero term has no successors")
        return dict(self.branches)[action]

    def pretty(self) -> str:
        """Deterministic print form.  Single-action terms render as bare
        pair sets matching the usual table notation."""
        if self._pretty is None:
            if self.branches is None:
                text = "•"
            else:
                parts = []
                for a, pairs in self.branches:
                    inner = sorted(
                        (cond, sub.pretty()) for (sub, cond) in pairs
                    )
                    body = (
                        "{" + ",".join(f"({s},{c})" for c, s in inner) + "}"
                        if inner
                        else "∅"
                    )
                    parts.append((a, body))
                if len(parts) == 1:
                    text = parts[0][1]
                else:
                    text = "{" + ", ".join(f"{a}:{b}" for a, b in parts) + "}"
            self._pretty = text
        return self._pretty

    def __repr__(self) -> str:
        return f"BehaviourTerm(level={self.level}, {self.pretty()})"


_INTERN: dict[tuple, BehaviourTerm] = {}
_BULLET_KEY = ("bullet",)


def bullet() -> BehaviourTerm:
    term = _INTERN.get(_BULLET_KEY)
    if term is None:
        term = _INTERN.setdefault(_BULLET_KEY, BehaviourTerm(0, 0, None))
    return term


def node(branches: Mapping[str, Iterable[tuple[BehaviourTerm, str]]]) -> BehaviourTerm:
    """Intern the term with the given per-action successor pair sets."""
    canonical = []
    level = 0
    for a in sorted(branches):
        pairs = tuple(
            sorted(set(branches[a]), key=lambda pc: (pc[1], pc[0].tid))
        )
        for sub, _ in pairs:
            level = max(level, sub.level)
        canonical.append((a, pairs))
    key = tuple(
        (a, tuple((sub.tid, cond) for (sub, cond) in pairs))
        for a, pairs in canonical
    )
    term = _INTERN.get(key)
    if term is None:
        term = _INTERN.setdefault(
            key, BehaviourTerm(len(_INTERN) + 1, level + 1, tuple(canonical))
        )
    return term


@dataclass(frozen=True)
class BehaviourTable:
    """One stage of the chain: a total map from (state, condition) pairs
    to interned terms."""

    stage: int
    states: tuple[str, ...]
    conditions: Poset
    entries: tuple[tuple[PairKey, BehaviourTerm], ...]

    @cached_property
    def _table(self) -> Mapping[PairKey, BehaviourTerm]:
        return dict(self.entries)

    def value(self, x: str, cond: str) -> BehaviourTerm:
        return self._table[(x, cond)]

    def table(self) -> dict[PairKey, BehaviourTerm]:
        return dict(self.entries)


def chain_init(c: UpgradeCoalgebra) -> BehaviourTable:
    entries = tuple(
        ((x, cond), bullet())
        for x in c.states
        for cond in c.conditions.elements
    )
    return BehaviourTable(0, c.states, c.conditions, entries)


def chain_step(c: UpgradeCoalgebra, d: BehaviourTable) -> BehaviourTable:
    """One unfolding: look up every successor pair in the previous table
    at its own entry version."""
    prev = d.table()
    entries = []
    for x in c.states:
        for cond in c.conditions.elements:
            branches = {
                a: [
                    (prev[(x1, chi)], chi)
                    for (x1, chi) in c.alpha(x, cond, a)
                ]
                for a in c.actions
            }
            entries.append(((x, cond), node(branches)))
    return BehaviourTable(d.stage + 1, c.states, c.conditions, tuple(entries))


def _kernel_partition(d: BehaviourTable) -> Partition:
    fibres: dict[BehaviourTerm, list[PairKey]] = {}
    for (pair, term) in d.entries:
        fibres.setdefault(term, []).append(pair)
    return canonical_partition(fibres.values())


def pseudo_factorise(d: BehaviourTable) -> tuple[Partition, Poset, dict[str, BehaviourTerm]]:
    """Split a stage table into its kernel partition and the codomain of
    reached terms, ordered by the least order making the quotient map
    monotone.  Codomain elements are named by least representatives."""
    partition = _kernel_partition(d)
    table = d.table()
    terms = {_pair_name(cls[0]): table[cls[0]] for cls in partition}
    z_poset = coequalised_product(d.states, d.conditions, partition)
    return partition, z_poset, terms


def partition_matrix(
    states: Iterable[str], conditions: Poset, partition: Partition
) -> LatticeRelation:
    """Same-condition kernel of a pair partition: x and y are related at
    phi when (x, phi) and (y, phi) share a class."""
    index = {pair: i for i, cls in enumerate(partition) for pair in cls}
    states = set(states)
    table = {
        (x, y): [p for p in conditions.elements if index[(x, p)] == index[(y, p)]]
        for x in states
        for y in states
    }
    return LatticeRelation.of(states, conditions, table)


def kernel_matrix(d: BehaviourTable) -> LatticeRelation:
    """Same-condition kernel of a stage table as a lattice relation."""
    return partition_matrix(d.states, d.conditions, _kernel_partition(d))


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


def alpha_transitions(c: UpgradeCoalgebra, class_of: Mapping[PairKey, str]) -> Transitions:
    """The quotient's moves read off ``alpha``, given each pair's class
    name: per class and action, the image of each member under
    ``alpha`` with successors renamed to their classes, which must be
    the same for every member."""
    moves: dict[tuple[str, str], set[frozenset[tuple[str, str]]]] = {}
    for (x, cond), name in class_of.items():
        for a in c.actions:
            moves.setdefault((name, a), set()).add(
                frozenset((class_of[(x1, chi)], chi) for (x1, chi) in c.alpha(x, cond, a))
            )
    for (name, a), values in moves.items():
        if len(values) != 1:
            raise ValueError(f"quotient not well defined at {name}, action {a}")
    return tuple((name, a, tuple(sorted(moves[(name, a)].pop()))) for (name, a) in sorted(moves))


def minimise_chain(c: UpgradeCoalgebra) -> ChainResult:
    """Iterate the chain until the kernel partition repeats.  Each stage
    refines the last, so this terminates within one stage per pair.
    Pairs are named state@condition, so two pairs sharing a name are
    rejected, as ``minimise_refinement`` rejects them."""
    pairs = [(x, cond) for x in c.states for cond in c.conditions.elements]
    named: dict[str, PairKey] = {}
    for pair in pairs:
        other = named.setdefault(_pair_name(pair), pair)
        if other != pair:
            raise ValueError(
                f"pairs {other} and {pair} share the name {_pair_name(pair)!r}"
            )
    table = chain_init(c)
    partitions = [_kernel_partition(table)]
    while len(partitions) < 2 or partitions[-1] != partitions[-2]:
        table = chain_step(c, table)
        partitions.append(_kernel_partition(table))
    state_partitions = []
    for partition in partitions:
        index = {pair: i for i, cls in enumerate(partition) for pair in cls}
        rows: dict[tuple[int, ...], list[str]] = {}
        for x in c.states:
            row = tuple(index[(x, cond)] for cond in c.conditions.elements)
            rows.setdefault(row, []).append(x)
        state_partitions.append(tuple(map(tuple, rows.values())))
    class_of = _class_names(partitions[-1])
    return ChainResult(
        matrix_stage(partitions),
        tuple(partitions),
        tuple(state_partitions),
        coequalised_product(c.states, c.conditions, partitions[-1]),
        alpha_transitions(c, class_of),
    )


def quotient_to_cts(result: ChainResult, conditions: Poset) -> Cts:
    """Re-read the quotient as a conditional system over the original
    conditions.  Successor versions become edge conditions; the label
    sets are closed downward because a quotient state fixes its own
    version context while edges must stay condition-monotone."""
    labels: dict[tuple[str, str, str], set[str]] = {}
    actions = sorted({a for (_, a, _) in result.transitions})
    for (src, a, pairs) in result.transitions:
        for (dst, chi) in pairs:
            labels.setdefault((src, a, dst), set()).add(chi)
    return Cts(
        result.z_poset.elements,
        actions,
        conditions,
        {edge: conditions.down_close(conds) for edge, conds in labels.items()},
    )


def _group_conditions(pairs: tuple[tuple[str, str], ...]) -> dict[str, set[str]]:
    grouped: dict[str, set[str]] = {}
    for (dst, chi) in pairs:
        grouped.setdefault(dst, set()).add(chi)
    return grouped


def chain_result_json(result: ChainResult) -> dict:
    """Plain serialisable form: stage history with kernel and state
    partitions, and the final quotient with its order and transitions."""
    stages = []
    for k, (partition, groups) in enumerate(zip(result.stages, result.state_partitions)):
        stages.append(
            {
                "stage": k,
                "kernel": [[_pair_name(p) for p in cls] for cls in partition],
                "states": [list(g) for g in groups],
            }
        )
    z = result.z_poset
    return {
        "algorithm": "chain",
        "stage": result.stage,
        "confirmed_at": result.confirmed_at,
        "matrix_stage": result.matrix_stage,
        "stages": stages,
        "quotient": {
            "states": list(z.elements),
            "order": [
                [p, q] for (p, q) in sorted(relation(z)) if p != q
            ],
            "transitions": [
                {
                    "src": src,
                    "action": a,
                    "dst": dst,
                    "conditions": sorted(conds),
                }
                for (src, a, pairs) in result.transitions
                for (dst, conds) in sorted(
                    _group_conditions(pairs).items()
                )
            ],
        },
    }


def coequalise(
    poset: Poset, pairs: Iterable[tuple[str, str]]
) -> tuple[Poset, dict[str, str]]:
    """Quotient ``poset`` by the equivalence generated by ``pairs``.

    Classes lying on a common cycle of the induced preorder are merged as
    well, so the result is again a poset, and its order is the least one
    making the returned (surjective) map monotone.  Class names are the
    lexicographically least members.
    """
    parent: dict[str, str] = {e: e for e in poset.elements}

    def find(e: str) -> str:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for p, q in pairs:
        poset.check_element(p)
        poset.check_element(q)
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[max(rp, rq)] = min(rp, rq)

    groups: dict[str, set[str]] = {}
    for e in poset.elements:
        groups.setdefault(find(e), set()).add(e)

    # Transitive closure of the induced relation on classes.
    roots = sorted(groups)
    reach: dict[str, set[str]] = {r: {r} for r in roots}
    for p, q in relation(poset):
        reach[find(p)].add(find(q))
    changed = True
    while changed:
        changed = False
        for r in roots:
            extra: set[str] = set()
            for s in reach[r]:
                extra |= reach[s]
            if not extra <= reach[r]:
                reach[r] |= extra
                changed = True

    # Antisymmetry: collapse mutually reachable classes.
    for r in roots:
        for s in reach[r]:
            if s != r and r in reach[s]:
                ra, rb = find(r), find(s)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    final_groups: dict[str, set[str]] = {}
    for e in poset.elements:
        final_groups.setdefault(find(e), set()).add(e)
    names = {root: min(members) for root, members in final_groups.items()}
    mapping = {e: names[find(e)] for e in poset.elements}

    class_elems = tuple(sorted(names.values()))
    order = set()
    for r in final_groups:
        for s in reach[find(r)]:
            order.add((names[find(r)], names[find(s)]))
    for c in class_elems:
        order.add((c, c))
    return validate_poset(class_elems, frozenset(order)), mapping


def coequalised_product(states: Iterable[str], conditions: Poset, partition: Partition) -> Poset:
    """The quotient order of a pair partition: the product of the
    discrete states with the conditions, coequalised by the partition,
    its classes renamed to their least (state, condition) pair."""
    product = validate_poset(
        tuple(_pair_name((x, p)) for x in states for p in conditions.elements),
        frozenset(
            (_pair_name((x, p)), _pair_name((x, q)))
            for x in states
            for (p, q) in relation(conditions)
        ),
    )
    quotient, mapping = coequalise(
        product, [(_pair_name(cls[0]), _pair_name(pair)) for cls in partition for pair in cls[1:]]
    )
    rename = {mapping[_pair_name(cls[0])]: _pair_name(cls[0]) for cls in partition}
    return validate_poset(
        tuple(rename[e] for e in quotient.elements),
        frozenset((rename[p], rename[q]) for (p, q) in relation(quotient)),
    )
