"""Minimisation: the quotient of the refinement engine, and the
final-chain construction it is held against.

``minimise_refinement`` is the production route: it takes the rounds of
``equivalence.refine`` and builds the stage history and the quotient.
``minimise_chain`` is the final-chain oracle.  Its stage tables assign
every (state, condition) pair a behaviour term.  Stage zero is
constant; each later stage records, per action, the set of (previous
term, entry version) pairs reachable in one step.  Tables are
pseudo-factorised into a kernel partition and a least-ordered codomain,
and the construction stops as soon as the partition repeats.  Both
routes feed their partitions to one builder, so they agree exactly when
their kernels do.  The builder names each class by its least (state,
condition) pair and orders the classes by closing the condition covers
under that naming; nothing beyond the final partition is needed.

A ``ChainResult`` is serialised here too.  The JSON report of the
``minimise`` command is written by ``chain_result_text`` in one pass
over the result; ``chain_result_json`` builds the same content as a
plain dict and is the reference the tests hold that text against.
``chain_result_dot`` renders the quotient for Graphviz.

Terms are hash-consed through a module interner keyed by sub-term
identity, so equality is pointer equality and table comparisons stay
cheap even when printed forms would be large.  The interner is a plain
dict guarded by the interpreter lock, which is atomic enough here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter
from typing import Iterable, Mapping

from .equivalence import (
    LatticeRelation,
    PairKey,
    Partition,
    canonical_partition,
    matrix_stage,
    partition_matrix,
    refine,
)
from .models import Cts, UpgradeCoalgebra
from .order import Poset, validate_poset


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

    def as_nested(self):
        """Structural expansion into plain hashable values, for test
        comparison against literal nested sets."""
        if self.branches is None:
            return "•"
        return tuple(
            (a, frozenset((sub.as_nested(), cond) for (sub, cond) in pairs))
            for a, pairs in self.branches
        )

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

    def rows(self) -> list[tuple[str, list[tuple[str, BehaviourTerm]]]]:
        """Per-condition rows in top-down condition order, states sorted."""
        got = self.table()
        return [
            (cond, [(x, got[(x, cond)]) for x in self.states])
            for cond in self.conditions.top_down_order
        ]


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


def _pair_name(pair: PairKey) -> str:
    return f"{pair[0]}@{pair[1]}"


def _kernel_partition(d: BehaviourTable) -> Partition:
    fibres: dict[BehaviourTerm, list[PairKey]] = {}
    for (pair, term) in d.entries:
        fibres.setdefault(term, []).append(pair)
    return canonical_partition(fibres.values())


def _class_names(partition: Partition) -> dict[PairKey, str]:
    """Name every pair by the least pair of its class."""
    return {pair: _pair_name(cls[0]) for cls in partition for pair in cls}


def _quotient_poset(
    states: tuple[str, ...], conditions: Poset, class_of: Mapping[PairKey, str]
) -> Poset:
    """The least order on the classes making the quotient map monotone:
    the closure of class(x, p) <= class(x, q) over each state x and each
    cover p < q.

    On a round of the engine, or on the equal stage kernel of the final
    chain, no cycle can arise, by induction over the rounds.  Round zero
    has one class.  In round k an edge A -> B comes from (x, p) in A and
    (x, q) in B with p < q, so the round k-1 classes of A and B are
    ordered the same way, and S_k(A) <= S_k(B) for the signature sets
    S_k, because ``alpha`` is monotone.  Along a cycle the round k-1
    classes are therefore equal, and so are the signatures, which makes
    it one class.  A partition that breaks this raises
    ``AntisymmetryViolation``."""
    return validate_poset(
        class_of.values(),
        {
            (class_of[(x, p)], class_of[(x, q)])
            for x in states
            for (p, q) in conditions.covers
        },
    )


def pseudo_factorise(d: BehaviourTable) -> tuple[Partition, Poset, dict[str, BehaviourTerm]]:
    """Split a stage table into its kernel partition and the codomain of
    reached terms, ordered by the least order making the quotient map
    monotone.  Codomain elements are named by least representatives."""
    partition = _kernel_partition(d)
    table = d.table()
    terms = {_pair_name(cls[0]): table[cls[0]] for cls in partition}
    z_poset = _quotient_poset(d.states, d.conditions, _class_names(partition))
    return partition, z_poset, terms


def kernel_matrix(d: BehaviourTable) -> LatticeRelation:
    """Same-condition kernel of a stage table as a lattice relation."""
    return partition_matrix(d.states, d.conditions, _kernel_partition(d))


@dataclass(frozen=True)
class StageInfo:
    stage: int
    partition: Partition


@dataclass(frozen=True)
class ChainResult:
    """Outcome of minimisation: the stabilised stage, its kernel
    partition and quotient, and the full stage history.  The kernel
    matrix of a stage is derived on demand with ``partition_matrix``.

    ``stage`` is the first index whose partition equals the next one and
    ``confirmed_at`` is that next index.  ``matrix_stage`` is the first
    index whose kernel matrix repeats; it can precede ``stage`` by one
    when the very first table is non-constant but no two states ever
    separate."""

    stage: int
    confirmed_at: int
    matrix_stage: int
    stages: tuple[StageInfo, ...]
    class_of: tuple[tuple[PairKey, str], ...]
    z_poset: Poset
    transitions: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]

    @cached_property
    def _class_table(self) -> Mapping[PairKey, str]:
        return dict(self.class_of)

    def class_name(self, x: str, cond: str) -> str:
        return self._class_table[(x, cond)]

    def quotient_states(self) -> tuple[str, ...]:
        return self.z_poset.elements

    def state_partition(self, stage: int) -> tuple[tuple[str, ...], ...]:
        """States identified at a stage when all their columns agree."""
        info = self.stages[stage]
        index: dict[PairKey, int] = {}
        for i, cls in enumerate(info.partition):
            for pair in cls:
                index[pair] = i
        states = sorted({x for (x, _) in index})
        conds = sorted({c for (_, c) in index})
        sig = {x: tuple(index[(x, c)] for c in conds) for x in states}
        groups: dict[tuple, list[str]] = {}
        for x in states:
            groups.setdefault(sig[x], []).append(x)
        return tuple(sorted((tuple(g) for g in groups.values()), key=lambda g: g[0]))


def _quotient_transitions(
    c: UpgradeCoalgebra, partition: Partition, class_of: Mapping[PairKey, str]
) -> tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]:
    moves: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
    for cls in partition:
        name = class_of[cls[0]]
        for a in c.actions:
            values = set()
            for (x, cond) in cls:
                image = frozenset(
                    (class_of[(x1, chi)], chi) for (x1, chi) in c.alpha(x, cond, a)
                )
                values.add(image)
            if len(values) != 1:
                raise ValueError(
                    f"quotient not well defined at {name}, action {a}"
                )
            moves[(name, a)] = tuple(sorted(values.pop()))
    return tuple((name, a, moves[(name, a)]) for (name, a) in sorted(moves))


def _chain_result(c: UpgradeCoalgebra, partitions: list[Partition]) -> ChainResult:
    """Assemble the result from every stage's kernel partition, the last
    one repeating its predecessor.  The JSON kernels and the quotient
    name pairs state@condition, so two pairs sharing a name (possible
    when names contain '@') would be told apart by the engine yet read
    as one; that is rejected."""
    named: dict[str, PairKey] = {}
    for pair in ((x, cond) for x in c.states for cond in c.conditions.elements):
        other = named.setdefault(_pair_name(pair), pair)
        if other != pair:
            raise ValueError(
                f"pairs {other} and {pair} share the name {_pair_name(pair)!r}"
            )
    stage = len(partitions) - 2
    final = partitions[stage]
    class_of = _class_names(final)
    transitions = _quotient_transitions(c, final, class_of)
    return ChainResult(
        stage,
        stage + 1,
        matrix_stage(partitions),
        tuple(StageInfo(i, p) for i, p in enumerate(partitions)),
        tuple(sorted(class_of.items())),
        _quotient_poset(c.states, c.conditions, class_of),
        transitions,
    )


def minimise_refinement(c: UpgradeCoalgebra) -> ChainResult:
    """Minimise through the refinement engine, whose rounds are the
    kernels of the final chain."""
    return _chain_result(c, refine(c))


def minimise_chain(c: UpgradeCoalgebra) -> ChainResult:
    """Iterate the chain until the kernel partition repeats.  Each stage
    refines the last, so this terminates within one stage per pair."""
    table = chain_init(c)
    partitions = [_kernel_partition(table)]
    while len(partitions) < 2 or partitions[-1] != partitions[-2]:
        table = chain_step(c, table)
        partitions.append(_kernel_partition(table))
    return _chain_result(c, partitions)


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
        result.quotient_states(),
        actions,
        conditions,
        {edge: conds for edge, conds in labels.items()},
        close=True,
    )


def chain_result_json(result: ChainResult) -> dict:
    """Plain serialisable form: stage history with kernel and state
    partitions, and the final quotient with its order and transitions."""
    stages = []
    for info in result.stages:
        stages.append(
            {
                "stage": info.stage,
                "kernel": [
                    [_pair_name(p) for p in cls] for cls in info.partition
                ],
                "states": [list(g) for g in result.state_partition(info.stage)],
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
                [p, q] for (p, q) in sorted(z.relation) if p != q
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


# newline and indent at each depth of the minimise report
_IN2, _IN4, _IN6, _IN8, _IN10 = ("\n" + " " * n for n in (2, 4, 6, 8, 10))


class _Quoted(dict):
    """Name -> JSON string literal, each name quoted once on first use."""

    def __missing__(self, name: str) -> str:
        text = self[name] = quote(name)
        return text


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of written items, laid out as ``json.dumps(indent=2)``
    lays out a list whose closing bracket sits at ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return f"[{inner}{(',' + inner).join(items)}{indent}]"


def chain_result_text(result: ChainResult) -> str:
    """``json.dumps(chain_result_json(result), indent=2, sort_keys=True)``,
    written directly: every name is quoted once and each quotient
    transition row is one string, its keys in sorted order.  The pairs
    of a transition are sorted by (class, condition), as
    ``_quotient_transitions`` leaves them, so each run of one class is a
    row and its conditions come sorted."""
    quoted = _Quoted()
    pair_text = {pair: quoted[_pair_name(pair)] for pair, _ in result.class_of}
    stages = []
    for info in result.stages:
        kernel = _json_list(
            [_json_list([pair_text[p] for p in cls], _IN8) for cls in info.partition],
            _IN6,
        )
        states = _json_list(
            [
                _json_list([quoted[x] for x in group], _IN8)
                for group in result.state_partition(info.stage)
            ],
            _IN6,
        )
        stages.append(
            f'{{{_IN6}"kernel": {kernel},{_IN6}"stage": {info.stage},'
            f'{_IN6}"states": {states}{_IN4}}}'
        )
    z = result.z_poset
    order = [
        f"[{_IN8}{quoted[p]},{_IN8}{quoted[q]}{_IN6}]"
        for (p, q) in sorted(z.relation)
        if p != q
    ]
    rows = []
    cond_sep = "," + _IN10
    for (src, a, pairs) in result.transitions:
        head = f'{{{_IN8}"action": {quoted[a]},{_IN8}"conditions": [{_IN10}'
        tail = f',{_IN8}"src": {quoted[src]}{_IN6}}}'
        for dst, run in groupby(pairs, itemgetter(0)):
            conds = cond_sep.join([quoted[chi] for _, chi in run])
            rows.append(f'{head}{conds}{_IN8}],{_IN8}"dst": {quoted[dst]}{tail}')
    return (
        f'{{{_IN2}"algorithm": "chain",'
        f'{_IN2}"confirmed_at": {result.confirmed_at},'
        f'{_IN2}"matrix_stage": {result.matrix_stage},'
        f'{_IN2}"quotient": {{'
        f'{_IN4}"order": {_json_list(order, _IN4)},'
        f'{_IN4}"states": {_json_list([quoted[x] for x in z.elements], _IN4)},'
        f'{_IN4}"transitions": {_json_list(rows, _IN4)}'
        f'{_IN2}}},'
        f'{_IN2}"stage": {result.stage},'
        f'{_IN2}"stages": {_json_list(stages, _IN2)}'
        "\n}"
    )


def _group_conditions(pairs: tuple[tuple[str, str], ...]) -> dict[str, set[str]]:
    grouped: dict[str, set[str]] = {}
    for (dst, chi) in pairs:
        grouped.setdefault(dst, set()).add(chi)
    return grouped


def _dot_quote(text: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def chain_result_dot(result: ChainResult, conditions: Poset) -> str:
    """Graphviz rendering of the quotient, nodes named by their least
    representatives and edges labelled by condition sets."""
    order = {c: i for i, c in enumerate(conditions.top_down_order)}
    actions = sorted({a for (_, a, _) in result.transitions})
    lines = ["digraph minimised {", "  rankdir=LR;"]
    for name in result.z_poset.elements:
        lines.append(f"  {_dot_quote(name)};")
    for (src, a, pairs) in result.transitions:
        for dst, conds in sorted(_group_conditions(pairs).items()):
            shown = ",".join(sorted(conds, key=lambda c: (order[c], c)))
            label = shown if len(actions) == 1 else f"{a}: {shown}"
            lines.append(
                f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"

