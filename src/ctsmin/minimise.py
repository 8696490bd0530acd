"""Minimisation by the refinement engine, and the command line's reports.

``minimise_refinement`` takes the pairs that each round of
``equivalence.refine`` moved, with their new block ids, and builds the
stage history and the quotient.  Pairs are numbered in sorted (state,
condition) order, and a stage's kernel groups them by block id, its
state partition groups the states by their row of block ids.  Each
round rebuilds only the classes and state groups that a moved pair left
or entered (``_Groups``), so an unchanged class is one tuple across
stages and the report writes it once.  Each class is named by its least
pair, and its moves are expanded from the pair graph that ``refine``
built after the blocks are renumbered to the rank of their names, so
that one integer sort per class lists the moves in report order.  The
classes are ordered by closing the condition covers under that naming.
The chain oracle in ``tests/reference/chain.py`` builds its own
``ChainResult`` from its stage tables, so the tests compare two
independent constructions.

The module owns the layout of both JSON reports.  ``bisim_text``
writes the ``bisim`` report from the cells of ``refine``'s final blocks
(``equivalence.kernel_cells``), and ``chain_result_text`` the
``minimise`` report from a ``ChainResult``.  That report is the join of
the chunks of one generator, ``_report_chunks``: one per order pair,
quotient transition row and stage, which the command line writes to
stdout as they come, so no whole report is held.  Both print what
``json.dumps(payload, indent=2, sort_keys=True)`` prints without a
payload dict, quoting through the C ``encode_basestring_ascii``: with
``indent`` set, CPython's pure-Python encoder took longer than the whole
refinement on large lattices.  ``chain_result_dot`` renders the
quotient for Graphviz.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as quote
from operator import itemgetter

from .equivalence import PairGraph, PairKey, Partition, kernel_cells, move_images, refine
from .models import Cts
from .order import Poset, _Value, validate_poset


def _pair_name(pair: PairKey) -> str:
    return f"{pair[0]}@{pair[1]}"


def _quotient_poset(
    states: tuple[str, ...], conditions: Poset, class_of: Mapping[PairKey, str]
) -> Poset:
    """The least order on the classes making the quotient map monotone:
    class(x, p) <= class(x, q) over each state x and each cover p < q,
    closed as bit masks by ``validate_poset``'s one pass.

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


class ChainResult(_Value):
    """Outcome of minimisation: every stage's kernel partition and state
    partition (the states with equal columns), up to and including the
    first repeat, and the quotient of the last.  The kernel matrix of a
    stage is derived on demand by the tests' ``reference.chain.partition_matrix``.

    ``stage`` is the first index whose partition equals the next one,
    and ``confirmed_at`` is that next index.  The quotient names each
    class of ``stages[-1]`` by its least pair.  ``matrix_stage`` is the
    first index whose kernel matrix repeats: 0 when the first stage
    splits no condition's states, else ``stage`` (see
    ``equivalence.refine``).  So it precedes ``stage`` by one exactly
    when the first stage splits pairs but no two states ever separate."""

    def __init__(self, matrix_stage: int, stages: tuple[Partition, ...],
                 state_partitions: tuple[tuple[tuple[str, ...], ...], ...], z_poset: Poset,
                 transitions: Transitions):
        vars(self).update(matrix_stage=matrix_stage, stages=stages,
                          state_partitions=state_partitions, z_poset=z_poset,
                          transitions=transitions)

    def _key(self) -> tuple:
        return tuple(vars(self).values())

    def __repr__(self) -> str:
        return f"ChainResult({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def stage(self) -> int:
        return len(self.stages) - 2

    @property
    def confirmed_at(self) -> int:
        return self.stage + 1


def _quotient_transitions(
    m: Cts, graph: PairGraph, block: list[int], names: Mapping[int, str]
) -> Transitions:
    """The quotient's moves, one entry per (class, action), each a
    sorted tuple of (successor class, version), given each pair's block
    id on the pair graph and each block's class name.  Every pair of a
    class must have the same moves into classes, expanded from the pair
    graph; otherwise the partition is no congruence, and the first such
    class by least pair is reported with the least action where its
    members differ.

    The blocks are renumbered to the rank of their names first, so a
    move's code ``rank * width + action * |conditions| + condition``
    sorts as (successor name, action, condition) does, condition
    indices following the sorted condition names: one integer sort of a
    class's image lists each action's moves in order."""
    width, actions = graph.width, m.actions
    conditions = m.conditions.elements
    height = len(conditions)
    ordered = sorted(names, key=names.__getitem__)
    rank = {b: r for r, b in enumerate(ordered)}
    ranked = [rank[b] for b in block]
    images = move_images(graph, ranked)
    first: list[frozenset[int] | None] = [None] * len(ordered)
    for image, r in zip(images, ranked):
        seen = first[r]
        if seen is None:
            first[r] = image
        elif seen != image:
            # in the order of the classes' least pairs
            found: dict[int, set[frozenset[int]]] = {}
            for other, s in zip(images, ranked):
                found.setdefault(s, set()).add(other)
            bad, spread = next(
                (s, frozenset().union(*f) - frozenset.intersection(*f))
                for s, f in found.items()
                if len(f) > 1
            )
            a = actions[min(v % width for v in spread) // height]
            raise ValueError(f"quotient not well defined at {names[ordered[bad]]}, action {a}")
    class_names = [names[b] for b in ordered]
    # each move code's action index and (successor class, version), made
    # once: the classes share few distinct moves
    moves: dict[int, tuple[int, tuple[str, str]]] = {}
    out = []
    for name, image in zip(class_names, first):
        rows: list[list[tuple[str, str]]] = [[] for _ in actions]
        for v in sorted(image):
            move = moves.get(v)
            if move is None:
                k, label = divmod(v, width)
                move = moves[v] = (label // height, (class_names[k], conditions[label % height]))
            rows[move[0]].append(move[1])
        out.extend((name, a, tuple(row)) for a, row in zip(actions, rows))
    return tuple(out)


class _Groups:
    """Numbered items grouped by a key: each group is the tuple of its
    items' names in number order, and the groups come ordered by their
    least item.  Moving items rebuilds only the groups they left or
    entered, so every other group keeps its tuple."""

    def __init__(self, names: Sequence, key: Hashable):
        self.names = names
        self.key = [key] * len(names)  # each item's key
        self._members = {key: set(range(len(names)))} if names else {}
        self.least = {key: 0} if names else {}  # each key's least item
        # each group at its least item, None at every other item
        self._head: list[tuple | None] = [None] * len(names)
        if names:
            self._head[0] = tuple(names)

    def move(self, moved: Iterable[tuple[int, Hashable]]) -> None:
        """Give each (item, key) its new key."""
        key_of, members, least, head = self.key, self._members, self.least, self._head
        touched = set()
        for i, key in moved:
            old = key_of[i]
            touched.add(old)
            touched.add(key)
            members[old].remove(i)
            members.setdefault(key, set()).add(i)
            key_of[i] = key
        for key in touched:
            if key in least:
                head[least.pop(key)] = None
        for key in touched:
            if members[key]:
                ids = sorted(members[key])
                least[key] = ids[0]
                head[ids[0]] = tuple(map(self.names.__getitem__, ids))
            else:
                del members[key]

    def partition(self) -> tuple:
        return tuple(filter(None, self._head))


def minimise_refinement(m: Cts) -> ChainResult:
    """Minimise through the refinement engine, whose rounds are the
    kernels of the final chain.  A state's row of block ids changes only
    when one of its pairs moves, so only those states are regrouped.

    The JSON kernels and the quotient name pairs state@condition, so two
    pairs sharing a name (possible when names contain '@') would be told
    apart by the engine yet read as one; that is rejected."""
    graph, rounds, _, matrix_stage = refine(m)
    states, pairs = m.states, graph.pairs
    height = len(m.conditions.elements)
    named: dict[str, PairKey] = {}
    for pair in pairs:
        other = named.setdefault(_pair_name(pair), pair)
        if other != pair:
            raise ValueError(
                f"pairs {other} and {pair} share the name {_pair_name(pair)!r}"
            )
    classes = _Groups(pairs, 0)
    groups = _Groups(states, (0,) * height)
    block = classes.key
    partition, state_partition = classes.partition(), groups.partition()
    partitions, state_partitions = [], []
    for moved in rounds:
        if moved:
            classes.move(moved)
            movers = {i // height for i, _ in moved}
            groups.move((s, tuple(block[s * height : (s + 1) * height])) for s in movers)
            partition, state_partition = classes.partition(), groups.partition()
        partitions.append(partition)
        state_partitions.append(state_partition)
    names = {b: _pair_name(pairs[i]) for b, i in classes.least.items()}
    class_of = {pair: names[b] for pair, b in zip(pairs, block)}
    return ChainResult(
        matrix_stage,
        tuple(partitions),
        tuple(state_partitions),
        _quotient_poset(states, m.conditions, class_of),
        _quotient_transitions(m, graph, block, names),
    )


# newline and indent at each depth of the reports
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


def bisim_text(m: Cts) -> str:
    """The ``bisim`` report, as ``json.dumps`` with ``indent=2`` and
    ``sort_keys=True`` prints the payload {"algorithm": "fixpoint",
    "iterations": ..., "pairs": {"x,y": [conditions]}}, written straight
    from the cells of ``refine``'s final blocks (``kernel_cells``).  The
    engine computes the lattice fixpoint, which names the report.

    ``sort_keys`` sorts the raw "x,y" keys, not their quoted form.  When
    no state name holds ',', the key of x and y sorts by x + ',' first
    and then by y: two keys whose x differ agree up to the shorter x and
    its ',' only if that x is a prefix of the other and the other's next
    character is ',', which no name holds.  So the pairs come x by
    x + ',' (not by x: "a+" sorts before "a," but after "a") and y by
    index.  A state name holding ',' is rejected, since it could sort
    otherwise and give two pairs one key.  Without it, "x,y" splits back
    at its one ',' into x and y, so the text gives back the relation:
    two relations give two texts."""
    states = m.states
    for x in states:
        if "," in x:
            raise ValueError(f"state name {x!r} contains ','")
    _, _, block, iterations = refine(m)
    cell = kernel_cells(m, block)
    height = len(m.conditions.elements)
    conditions = [quote(c) for c in m.conditions.elements]
    # quote(x + "," + y) is head[x] + tail[y], since ',' is not escaped
    head = [quote(x)[:-1] + "," for x in states]
    tail = [quote(y)[1:] for y in states]
    values: dict[tuple[int, ...], str] = {}
    items = []
    for x in sorted(range(len(states)), key=lambda s: states[s] + ","):
        related: dict[int, list[int]] = {}
        for k, members in enumerate(cell[x * height : (x + 1) * height]):
            for y in members:
                related.setdefault(y, []).append(k)
        for y in sorted(related):
            key = tuple(related[y])
            if key not in values:
                values[key] = _json_list([conditions[k] for k in key], _IN4)
            items.append(f"{head[x]}{tail[y]}: {values[key]}")
    pairs = f"{{{_IN4}{(',' + _IN4).join(items)}{_IN2}}}" if items else "{}"
    return (
        f'{{{_IN2}"algorithm": "fixpoint",{_IN2}"iterations": {iterations},'
        f'{_IN2}"pairs": {pairs}\n}}'
    )


def _closed(sep: str, indent: str) -> str:
    """The end of a JSON list whose items were each written after
    ``sep``, laid out as ``_json_list`` lays it out: ``sep`` is still
    the opening one when no item was written."""
    return "[]" if sep[0] == "[" else indent + "]"


def _report_chunks(result: ChainResult) -> Iterator[str]:
    """The ``minimise`` report in chunks, one per order pair, quotient
    transition row and stage, which ``chain_result_text`` joins and the
    command line writes as they come.  Each list item is written after
    its separator, which opens the list before the first item."""
    quoted = _Quoted()
    z = result.z_poset
    names = [quoted[x] for x in z.elements]
    n = len(names)
    yield (
        f'{{{_IN2}"algorithm": "chain",'
        f'{_IN2}"confirmed_at": {result.confirmed_at},'
        f'{_IN2}"matrix_stage": {result.matrix_stage},'
        f'{_IN2}"quotient": {{{_IN4}"order": '
    )
    sep = "[" + _IN6
    for code in z.strict_codes():
        yield f"{sep}[{_IN8}{names[code // n]},{_IN8}{names[code % n]}{_IN6}]"
        sep = "," + _IN6
    yield _closed(sep, _IN4)
    yield f',{_IN4}"states": {_json_list(names, _IN4)},{_IN4}"transitions": '
    # the moves of a transition are sorted by (class, condition), as
    # ``_quotient_transitions`` leaves them, so a row closes where the
    # successor class changes and its conditions come sorted
    sep = "[" + _IN6
    cond_sep, dst_key = "," + _IN10, f'{_IN8}],{_IN8}"dst": '
    for src, a, moves in result.transitions:
        if not moves:
            continue
        head = f'{{{_IN8}"action": {quoted[a]},{_IN8}"conditions": [{_IN10}'
        tail = f',{_IN8}"src": {quoted[src]}{_IN6}}}'
        dst, conds = moves[0][0], []
        for succ, chi in moves:
            if succ != dst:
                yield f"{sep}{head}{cond_sep.join(conds)}{dst_key}{quoted[dst]}{tail}"
                sep = "," + _IN6
                dst, conds = succ, []
            conds.append(quoted[chi])
        yield f"{sep}{head}{cond_sep.join(conds)}{dst_key}{quoted[dst]}{tail}"
        sep = "," + _IN6
    yield _closed(sep, _IN4)
    yield f'{_IN2}}},{_IN2}"stage": {result.stage},{_IN2}"stages": '
    # a class or state group that a stage leaves unchanged is the same
    # tuple in the next stage, so each distinct tuple is written once,
    # found by its id
    pair_text = {pair: quoted[_pair_name(pair)] for cls in result.stages[-1] for pair in cls}
    written: dict[int, str] = {}
    for history, text in ((result.stages, pair_text), (result.state_partitions, quoted)):
        every = list(chain.from_iterable(history))
        for key, items in dict(zip(map(id, every), every)).items():
            written[key] = _json_list([text[item] for item in items], _IN8)

    def listed(items: tuple) -> str:
        return _json_list(list(map(written.__getitem__, map(id, items))), _IN6)

    sep = "[" + _IN4
    for k, (partition, groups) in enumerate(zip(result.stages, result.state_partitions)):
        yield (
            f'{sep}{{{_IN6}"kernel": {listed(partition)},{_IN6}"stage": {k},'
            f'{_IN6}"states": {listed(groups)}{_IN4}}}'
        )
        sep = "," + _IN4
    yield _closed(sep, _IN2)
    yield "\n}"


def chain_result_text(result: ChainResult) -> str:
    """The ``minimise`` report as ``json.dumps(payload, indent=2,
    sort_keys=True)`` prints it, where the payload is the dict that
    the tests' ``reference.chain.chain_result_json`` builds, written directly
    without that dict: every name is quoted once and each quotient
    transition row is one string, its keys in sorted order.  The text is
    the join of ``_report_chunks``, which the command line writes to
    stdout chunk by chunk instead, so that no whole report is held.  The
    order's strict pairs are read off ``z_poset``'s downset masks as
    integer codes, which builds no relation.

    For a fixed system and names without '@' the text gives back the
    result: each pair name splits at its one '@', each class is named
    by its least pair, the order's strict pairs close to ``z_poset``,
    and the (class, action) rows without moves, which the text leaves
    out, are those of the system's actions.  So two results give two
    texts."""
    return "".join(_report_chunks(result))


def _dot_quote(text: str) -> str:
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def chain_result_dot(result: ChainResult, conditions: Poset) -> str:
    """Graphviz rendering of the quotient, nodes named by their least
    representatives and edges labelled by condition sets.  The pairs of
    a transition come sorted by (class, condition), so each run of one
    class is an edge."""
    order = {c: i for i, c in enumerate(conditions.top_down_order)}
    actions = sorted({a for (_, a, _) in result.transitions})
    lines = ["digraph minimised {", "  rankdir=LR;"]
    for name in result.z_poset.elements:
        lines.append(f"  {_dot_quote(name)};")
    for (src, a, pairs) in result.transitions:
        for dst, run in groupby(pairs, itemgetter(0)):
            shown = ",".join(sorted([chi for _, chi in run], key=lambda c: (order[c], c)))
            label = shown if len(actions) == 1 else f"{a}: {shown}"
            lines.append(
                f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(label)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"

