"""The uncompressed pair graph of the upgrade coalgebra, kept for the
tests.

Every (state, condition) pair lists every move of its one-step
behaviour: (x, phi) moves under a to (y, chi) for every a-edge from x
to y whose label holds chi, for every chi <= phi.  This is the graph
that full re-signing (``test_rounds.full_rounds``) refines, and the one
that the engine's compressed graph (``equivalence._pair_graph``) must
expand to.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ctsmin.models import Cts

PairKey = tuple[str, str]


class MoveGraph(NamedTuple):
    """The pairs reached from some roots and each pair's moves as
    (successor number, label).  The label of a move to a pair at version
    chi under action a is ``action index * |conditions| + condition
    index of chi``, so ``width``, the number of labels, is ``|actions| *
    |conditions|``."""

    pairs: list[PairKey]
    moves: list[list[tuple[int, int]]]
    width: int


def move_graph(m: Cts, roots: Iterable[PairKey]) -> MoveGraph:
    """The pair graph of ``m`` reachable from the roots.  Pairs are
    numbered breadth-first with the roots first in their given order,
    and each pair's successors are taken in (action, state, condition)
    order; when the roots are every pair in state-major order, a pair's
    number is ``state index * |conditions| + condition index``."""
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
    return MoveGraph(pairs, moves, len(m.actions) * height)


def all_moves(m: Cts) -> MoveGraph:
    """The pair graph of every pair, numbered state by state."""
    return move_graph(m, [(x, cond) for x in m.states for cond in m.conditions.elements])
