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
    which the edge is present.  Each label set must be downward closed,
    which is the same thing as the successor structure shrinking under
    upgrades.  A label given by names is checked; one given as an
    ``int``, its mask over ``conditions.elements`` (bit i for element
    i), is taken as it is, as the parser checks its masks line by line.
    The keys are checked in sorted order, so a bad mapping raises for
    its least bad edge whatever order it was built in.

    ``index`` gives each state its position in ``states``, and
    ``rows[i]`` lists the edges from state i as (action index, successor
    index, label mask), in sorted (action, successor) order; edges with
    an empty label are dropped.  The refinement engine walks these rows.
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
        self.index = index = {x: i for i, x in enumerate(self.states)}
        action_index = {a: i for i, a in enumerate(self.actions)}
        rows: list[list[tuple[int, int, int]]] = [[] for _ in self.states]
        for edge in sorted(labels):
            src, act, dst = edge
            if src not in index:
                raise UnknownElement(src)
            if dst not in index:
                raise UnknownElement(dst)
            if act not in action_index:
                raise UnknownElement(act)
            label = labels[edge]
            if not isinstance(label, int):
                members = frozenset(label)
                unknown = members.difference(conditions.index)
                if unknown:
                    raise UnknownElement(min(unknown))
                if not conditions.is_downward_closed(members):
                    raise NotDownwardClosed(f"{src} {act} {dst} : {sorted(members)}")
                label = conditions.masks(members)[0]
            if label:
                rows[index[src]].append((action_index[act], index[dst], label))
        self.rows = rows

    def edges(self) -> list[tuple[str, str, str, frozenset[str]]]:
        """Every edge with its label's names, in sorted (src, action, dst) order."""
        states, actions, names = self.states, self.actions, self.conditions.names
        return [
            (x, actions[a], states[d], names(label))
            for x, row in zip(states, self.rows)
            for a, d, label in row
        ]

    def __repr__(self) -> str:
        return f"Cts(states={len(self.states)}, edges={sum(map(len, self.rows))})"
