"""Conditional transition systems.

A conditional system fixes a finite condition poset and gives every
edge a downward closed set of conditions.  By Birkhoff duality those
sets are exactly the elements of a finite distributive lattice, so the
same ``Cts`` is also the lattice-labelled presentation of the system.
The edges present at one fixed condition form a plain transition
system, which the ``project`` command prints.  The refinement engine
runs on the graph of (state, condition) pairs that the system's upgrade
coalgebra induces, compressed by its version-filter law, and reads that
graph straight from the ``Cts``'s rows, its edges by state, action and
successor index, with each label as its downset mask over the sorted
conditions (``equivalence._pair_graph``).  The coalgebra table and its
laws are a test reference (``tests/reference/coalgebra.py``).
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping

from .order import Poset, UnknownElement


class NotDownwardClosed(Exception):
    """An edge label set is not closed under smaller conditions."""

    def __init__(self, detail: str, line: int | None = None):
        self.detail = detail
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"label set not downward closed{where}: {detail}")


Edge = tuple[str, str, str]


class Cts:
    """A conditional transition system over a finite condition poset.

    ``labels`` maps (src, action, dst) to the set of conditions under
    which the edge is present, by names or as an ``int``, its mask over
    ``conditions.elements`` (bit i for element i).  Either way it must
    be a downset of known conditions, which is the same thing as the
    successor structure shrinking under upgrades.  The least bad edge
    raises, whatever order the mapping was built in: ``UnknownElement``
    for its source, else destination, else action, else least unknown
    condition; ``ValueError`` naming it for a bit beyond the conditions;
    ``NotDownwardClosed`` naming it for an open label.

    ``index`` gives each state its position in ``states``, and
    ``rows[i]`` lists the edges from state i as (action index, successor
    index, label mask), in sorted (action, successor) order; edges with
    an empty label are dropped.  The refinement engine walks these rows
    and the writers name them.
    """

    def __init__(
        self,
        states: Iterable[str],
        actions: Iterable[str],
        conditions: Poset,
        labels: Mapping[Edge, Iterable[str] | int],
    ):
        if not conditions.elements:
            raise ValueError("condition poset must be non-empty")
        self.states: tuple[str, ...] = tuple(sorted(set(states)))
        self.actions: tuple[str, ...] = tuple(sorted(set(actions)))
        self.conditions = conditions
        height, down = len(conditions.elements), conditions.down
        self.index = index = {x: i for i, x in enumerate(self.states)}
        action_index = {a: i for i, a in enumerate(self.actions)}
        rows: list[list[tuple[int, int, int]]] = [[] for _ in self.states]
        for edge in sorted(labels):
            src, act, dst = edge
            try:
                i, j, a = index[src], index[dst], action_index[act]
            except KeyError as err:
                raise UnknownElement(err.args[0]) from None
            label = labels[edge]
            if isinstance(label, int):
                if label >> height:
                    raise ValueError(f"{src} {act} {dst} : mask {label:#b} exceeds the conditions")
                rest = label  # walked from its highest bit, whose downset must lie in it
                while rest and not down[top := rest.bit_length() - 1] & ~label:
                    rest &= ~down[top]
            else:
                members = frozenset(label)
                label = conditions.masks(sorted(members))[0]
                rest = conditions.down_close(members) != members
            if rest:  # the label is open
                raise NotDownwardClosed(f"{src} {act} {dst} : {sorted(conditions.names(label))}")
            if label:
                rows[i].append((a, j, label))
        self.rows = rows
