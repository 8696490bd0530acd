"""Conditional transition systems.

A conditional system fixes a finite condition poset and gives every
edge a downward closed set of conditions.  By Birkhoff duality those
sets are exactly the elements of a finite distributive lattice, so the
same ``Cts`` is also the lattice-labelled presentation of the system.
The edges present at one fixed condition form a plain transition
system, which the ``project`` command prints.  The refinement engine
runs on the graph of (state, condition) pairs that the system's upgrade
coalgebra induces, compressed by its version-filter law, and reads that
graph straight from a ``Cts`` (``equivalence._pair_graph``).  The
coalgebra table and its laws are a test reference
(``tests/reference/coalgebra.py``).
"""
from __future__ import annotations

from typing import Iterable, Mapping

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
    upgrades.
    """

    def __init__(
        self,
        states: Iterable[str],
        actions: Iterable[str],
        conditions: Poset,
        labels: Mapping[Edge, Iterable[str]],
    ):
        if not conditions.elements:
            raise ValueError("condition poset must be non-empty")
        self.states: tuple[str, ...] = tuple(sorted(set(states)))
        self.actions: tuple[str, ...] = tuple(sorted(set(actions)))
        self.conditions = conditions
        state_set = set(self.states)
        action_set = set(self.actions)
        table: dict[Edge, frozenset[str]] = {}
        for (src, act, dst), conds in labels.items():
            if src not in state_set:
                raise UnknownElement(src)
            if dst not in state_set:
                raise UnknownElement(dst)
            if act not in action_set:
                raise UnknownElement(act)
            members = frozenset(conds)
            unknown = members.difference(conditions.index)
            if unknown:
                raise UnknownElement(min(unknown))
            if not conditions.is_downward_closed(members):
                raise NotDownwardClosed(f"{src} {act} {dst} : {sorted(members)}")
            if members:
                table[(src, act, dst)] = members
        # each (src, act) row of (dst, label), keys and rows in sorted order
        out: dict[tuple[str, str], list[tuple[str, frozenset[str]]]] = {}
        for (src, act, dst) in sorted(table):
            out.setdefault((src, act), []).append((dst, table[(src, act, dst)]))
        self._out = out

    def outgoing(self, src: str, act: str) -> list[tuple[str, frozenset[str]]]:
        return self._out.get((src, act), [])

    def edges(self) -> list[tuple[str, str, str, frozenset[str]]]:
        """Every edge with its label, in sorted (src, action, dst) order."""
        return [(s, a, d, label) for (s, a), row in self._out.items() for d, label in row]

    def __repr__(self) -> str:
        return f"Cts(states={len(self.states)}, edges={len(self.edges())})"
