"""Minimisation: the quotient of the refinement engine and its reports.

``minimise_refinement`` takes the rounds of ``equivalence.refine`` and
builds the stage history and the quotient.  The builder names each
class by its least (state, condition) pair, reads the quotient's moves
off the pair graph that ``refine`` built, and orders the classes by
closing the condition covers under that naming; nothing beyond the
final partition and that graph is needed.  ``matrix_stage`` is read
from the number of occupied (condition, class) cells of each stage.

A ``ChainResult`` is serialised here too.  ``chain_result_text`` writes
the JSON report of the ``minimise`` command in one pass over the
result, and ``chain_result_dot`` renders the quotient for Graphviz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter
from typing import Callable, Mapping

from .equivalence import PairGraph, PairKey, Partition, matrix_stage_of, refine
from .models import Cts
from .order import Poset, validate_poset


def _pair_name(pair: PairKey) -> str:
    return f"{pair[0]}@{pair[1]}"


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


# per (class, action): the sorted (successor class, version) pairs
Transitions = tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...]


@dataclass(frozen=True)
class StageInfo:
    stage: int
    partition: Partition


@dataclass(frozen=True)
class ChainResult:
    """Outcome of minimisation: the stabilised stage, its kernel
    partition and quotient, and the full stage history.  The kernel
    matrix of a stage is derived on demand with
    ``ctsmin.oracles.chain.partition_matrix``.

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
    transitions: Transitions

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
    m: Cts, graph: PairGraph, partition: Partition, class_of: Mapping[PairKey, str]
) -> Transitions:
    """The quotient's moves, one entry per (class, action), each a
    sorted tuple of (successor class, version).  Every pair of a class
    must have the same moves into classes, read off the pair graph;
    otherwise the partition is no congruence and the least action where
    the members differ is reported."""
    pairs, moves, width = graph
    conditions = m.conditions.elements
    height = len(conditions)
    number = dict(zip(pairs, range(len(pairs))))
    index = [0] * len(pairs)
    for k, cls in enumerate(partition):
        for pair in cls:
            index[number[pair]] = k
    names = [class_of[cls[0]] for cls in partition]
    out = []
    for name, cls in zip(names, partition):
        # a move into class k with label l as the single int k * width + l
        images = {
            frozenset([index[j] * width + label for j, label in moves[number[pair]]])
            for pair in cls
        }
        if len(images) != 1:
            spread = frozenset().union(*images) - frozenset.intersection(*images)
            a = m.actions[min(v % width for v in spread) // height]
            raise ValueError(f"quotient not well defined at {name}, action {a}")
        rows: dict[int, list[tuple[str, str]]] = {}
        for v in images.pop():
            label = v % width
            rows.setdefault(label // height, []).append(
                (names[v // width], conditions[label % height])
            )
        for ai, a in enumerate(m.actions):
            out.append((name, a, tuple(sorted(rows.get(ai, ())))))
    out.sort()
    return tuple(out)


def _chain_result(
    system: Cts,
    partitions: list[Partition],
    quotient_moves: Callable[[Partition, Mapping[PairKey, str]], Transitions],
) -> ChainResult:
    """Assemble the result from every stage's kernel partition, the last
    one repeating its predecessor.  Only ``states`` and ``conditions``
    are read from ``system``, so the chain oracle passes its tabulated
    coalgebra there.  ``quotient_moves`` reads the moves of the final
    partition's classes, given the class names: the engine reads them
    off its pair graph, the chain oracle off the tabulated coalgebra.
    The JSON kernels and the quotient name pairs state@condition, so two
    pairs sharing a name (possible when names contain '@') would be told
    apart by the engine yet read as one; that is rejected."""
    named: dict[str, PairKey] = {}
    for pair in ((x, cond) for x in system.states for cond in system.conditions.elements):
        other = named.setdefault(_pair_name(pair), pair)
        if other != pair:
            raise ValueError(
                f"pairs {other} and {pair} share the name {_pair_name(pair)!r}"
            )
    stage = len(partitions) - 2
    final = partitions[stage]
    class_of = _class_names(final)
    transitions = quotient_moves(final, class_of)
    # the occupied (condition, class) cells of each stage
    cells = [sum(len({cond for _, cond in cls}) for cls in p) for p in partitions]
    return ChainResult(
        stage,
        stage + 1,
        matrix_stage_of(cells),
        tuple(StageInfo(i, p) for i, p in enumerate(partitions)),
        tuple(sorted(class_of.items())),
        _quotient_poset(system.states, system.conditions, class_of),
        transitions,
    )


def minimise_refinement(m: Cts) -> ChainResult:
    """Minimise through the refinement engine, whose rounds are the
    kernels of the final chain."""
    graph, partitions = refine(m)
    return _chain_result(m, partitions, partial(_quotient_transitions, m, graph))


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
    """The ``minimise`` report as ``json.dumps(payload, indent=2,
    sort_keys=True)`` prints it, where the payload is the dict that
    ``ctsmin.oracles.chain.chain_result_json`` builds, written directly
    without that dict: every name is quoted once and each quotient
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

