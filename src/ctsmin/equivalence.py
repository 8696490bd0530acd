"""Conditional bisimilarity by partition refinement.

One engine serves ``bisim``, ``check`` and ``minimise``: signature
refinement of (state, condition) pairs over the upgrade coalgebra
(``_rounds``).  The engine reads the integer graph of pairs that the
coalgebra induces straight from the ``Cts`` (``_pair_graph``), as far as
the query reaches; the coalgebra itself is never tabulated.  Its rounds
are the kernels of the final chain, so they are output, and the engine
keeps every round exact while signing only what can change: block ids
are stable, a round re-signs the predecessors of the pairs whose id
changed in the round before plus one representative of each touched
block's untouched members, and a block that splits keeps its id for its
largest part.  ``refine`` is the one pass over every pair: it hands
``minimise`` each round's moved pairs with their new block ids, which is
all that changes from one round to the next.  The lattice fixpoint's
iteration count, the first round whose kernel matrix repeats, follows
from round one alone: it is 0 when round one splits no condition's
states, and the partition's stage otherwise (the proof is ``refine``'s).
Its final blocks are conditional bisimilarity: ``kernel_cells`` reads
them as the cells of their kernel, the states whose pairs at one
condition share a block, and the ``bisim`` report is written from those
cells.  ``bisimilar`` answers one query by building and refining only
the pairs reachable from the two queried pairs, and stops at the first
round that separates them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .models import Cts, NotDownwardClosed
from .order import UnknownElement

PairKey = tuple[str, str]
Partition = tuple[tuple[PairKey, ...], ...]


class PairGraph(NamedTuple):
    """The (state, condition) pairs that a system's upgrade coalgebra
    reaches from some roots, and each pair's moves as (successor number,
    label).  The label of a move to a pair at version chi under action a
    is ``action index * |conditions| + condition index of chi``, so
    ``width``, the number of labels, is ``|actions| * |conditions|``."""

    pairs: list[PairKey]
    moves: list[list[tuple[int, int]]]
    width: int


def _pair_graph(m: Cts, roots: Iterable[PairKey]) -> PairGraph:
    """The pair graph of the upgrade coalgebra of ``m`` reachable from
    the roots, read off the system directly: (x, phi) moves under a to
    (y, chi) for every a-edge from x to y whose label holds chi, for
    every chi <= phi.  Pairs are numbered breadth-first with the roots
    first in their given order, and each pair's successors are taken in
    (action, state, condition) order.  Every successor's version is at
    most its source's, so no pair reached from a root is above that
    root's condition.

    The walk numbers pairs through a list indexed by ``state index *
    |conditions| + condition index``; when the roots are every pair in
    that order, as in ``_all_pairs``, a pair's number is that index."""
    conditions = m.conditions.elements
    height = len(conditions)
    column = {cond: k for k, cond in enumerate(conditions)}
    offset = {x: i * height for i, x in enumerate(m.states)}
    lower = [m.conditions.below(cond) for cond in conditions]
    number = [-1] * (len(m.states) * height)
    found: list[int] = []
    for x, cond in roots:
        g = offset[x] + column[cond]
        if number[g] < 0:
            number[g] = len(found)
            found.append(g)
    moves = []
    for g in found:  # grows while it is walked
        x, k = m.states[g // height], g % height
        succs = []
        for ai, a in enumerate(m.actions):
            base = ai * height
            for y, label in m.outgoing(x, a):
                row = offset[y]
                for chi in sorted([column[psi] for psi in label & lower[k]]):
                    j = number[row + chi]
                    if j < 0:
                        j = number[row + chi] = len(found)
                        found.append(row + chi)
                    succs.append((j, base + chi))
        moves.append(succs)
    pairs = [(m.states[g // height], conditions[g % height]) for g in found]
    return PairGraph(pairs, moves, len(m.actions) * height)


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


def _all_pairs(m: Cts) -> PairGraph:
    """The pair graph of every (state, condition) pair, numbered state
    by state: (x, phi) is ``state index * |conditions| + condition
    index``."""
    return _pair_graph(m, [(x, cond) for x in m.states for cond in m.conditions.elements])


Moves = list[list[tuple[int, int]]]


def refine(m: Cts) -> tuple[PairGraph, Moves, list[int], int]:
    """Signature refinement of all (state, condition) pairs: the pair
    graph, every round's moved pairs as (pair, new block id) up to and
    including the first round that moves none, every pair's final block
    id, and the index of the first repeated kernel matrix.  Round zero
    puts every pair in block 0 and moves none.  Pairs are numbered in
    sorted (state, condition) order, so pair i lies at condition
    i % |conditions|.  A pair moves at most log2(pairs) times, so the
    rounds hand over O(P log P) entries for P pairs rather than P ids
    per round.

    The kernel matrix of a round is its set of per-condition state
    partitions.  It first repeats at round 0 if round one leaves every
    condition's states in one block, and otherwise where the partition
    first repeats, at ``len(rounds) - 2``.  Proof:

    - Pairs sharing a block at round k share one at each condition below
      both (induction on k): upgrades only filter signatures, as the
      moves of (x, chi) are those of (x, phi) entering at versions <= chi.
    - Let the matrix repeat at round k >= 1 and (x, phi), (y, psi) share
      a block at round k.  A move of the first under a at version chi
      into round-k block B has a partner in their equal round-k
      signatures, so chi is below phi and psi.  So (x, chi) and (y, chi)
      share a block at round k, hence at k + 1; (x, chi) has the move
      (a, chi, B), so (y, chi) and (y, psi) have it.  By symmetry the
      partition repeats.
    - If round one splits no condition's states, each successor's
      round-one block depends on its condition alone, so round two
      splits nothing and the partition repeats from round one."""
    graph = _all_pairs(m)
    height = len(m.conditions.elements)
    rounds: Moves = []
    for rnd in _rounds(graph.moves, graph.width):
        block = rnd.block
        if len(rounds) == 1:
            split = any(b != block[i % height] for i, b in enumerate(block))
        rounds.append([(i, block[i]) for i, _ in rnd.moved])
    return graph, rounds, block, len(rounds) - 2 if split else 0


def bisimilar(m: Cts, x: str, y: str, phi: str) -> bool:
    """Whether x and y are conditionally bisimilar under phi.  The pairs
    reachable from (x, phi) and (y, phi) form a subcoalgebra, and the
    inclusion is a homomorphism, so ``refine``'s rounds restricted to
    them are the rounds of that part alone.  Only those pairs are
    visited and signed, and the answer is no at the first round that
    separates the two roots, since later rounds only refine."""
    for state in (x, y):
        if state not in m.states:
            raise UnknownElement(state)
    m.conditions.check_element(phi)
    if x == y:
        return True
    graph = _pair_graph(m, [(x, phi), (y, phi)])
    return all(rnd.block[0] == rnd.block[1] for rnd in _rounds(graph.moves, graph.width))




def kernel_cells(m: Cts, block: list[int]) -> list[list[int]]:
    """The same-condition kernel of a partition of every (state,
    condition) pair, as each pair's cell: the indices, in order, of the
    states whose pairs at its condition share its block, so x and y are
    related at phi when y lies in the cell of (x, phi).  ``block`` gives
    pair ``state index * |conditions| + condition index`` its block id,
    as ``refine`` numbers them.

    Every value must be downward closed.  That holds iff, for each cover
    p < q, the states of every cell at q share one block at p, since
    every p <= q is joined by a chain of covers; a partition that breaks
    it is corrupted and raises ``NotDownwardClosed``, naming the first
    two states of such a cell that part at p."""
    conditions = m.conditions
    height = len(conditions.elements)
    cells: list[dict[int, list[int]]] = [{} for _ in range(height)]
    for i, b in enumerate(block):
        cells[i % height].setdefault(b, []).append(i // height)
    column = {cond: k for k, cond in enumerate(conditions.elements)}
    for p, q in conditions.covers:
        kp = column[p]
        for cell in cells[column[q]].values():
            b = block[cell[0] * height + kp]
            for y in cell:
                if block[y * height + kp] != b:
                    x, y = m.states[cell[0]], m.states[y]
                    raise NotDownwardClosed(
                        f"kernel value at ({x},{y}) holds {q} but not {p}"
                    )
    return [cells[i % height][b] for i, b in enumerate(block)]
