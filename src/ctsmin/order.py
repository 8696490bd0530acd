"""Finite posets and downward closed sets.

Carriers are small sets of opaque strings.  The order relation is stored
fully reflexive-transitive closed (not as a Hasse diagram) and every
operation iterates in lexicographic element order, so all outputs are
deterministic and serialise identically across runs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping


class OrderError(Exception):
    """Base class for order-theoretic construction errors."""


class AntisymmetryViolation(OrderError):
    """The reflexive-transitive closure of the given pairs contains a cycle."""

    def __init__(self, cycle: Iterable[str]):
        self.cycle = tuple(cycle)
        super().__init__("antisymmetry violated on cycle: " + " <= ".join(self.cycle))


class UnknownElement(OrderError):
    def __init__(self, element: str):
        self.element = element
        super().__init__(f"unknown element: {element!r}")


@dataclass(frozen=True)
class Poset:
    """A finite partial order.  ``relation`` is the full closure, including
    the diagonal."""

    elements: tuple[str, ...]
    relation: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))

    @cached_property
    def _element_set(self) -> frozenset[str]:
        return frozenset(self.elements)

    @cached_property
    def _down(self) -> Mapping[str, frozenset[str]]:
        table: dict[str, set[str]] = {e: set() for e in self.elements}
        for p, q in self.relation:
            table[q].add(p)
        return {e: frozenset(s) for e, s in table.items()}

    def leq(self, p: str, q: str) -> bool:
        return (p, q) in self.relation

    def lt(self, p: str, q: str) -> bool:
        return p != q and (p, q) in self.relation

    def check_element(self, p: str) -> None:
        if p not in self._element_set:
            raise UnknownElement(p)

    def below(self, p: str) -> frozenset[str]:
        """All q with q <= p."""
        self.check_element(p)
        return self._down[p]

    @cached_property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs (p, q), p < q with nothing strictly
        between, sorted.  Every p <= q is joined by a chain of them.
        Below q, an element with a larger downset comes first, so each
        r < q meets everything between r and q before itself: r covers
        q unless it lies below a cover already found."""
        size = {e: len(down) for e, down in self._down.items()}
        out = []
        for q in self.elements:
            reached = {q}
            for r in sorted(self._down[q], key=size.__getitem__, reverse=True):
                if r not in reached:
                    out.append((r, q))
                    reached |= self._down[r]
        return tuple(sorted(out))

    @cached_property
    def _closed(self) -> dict[frozenset[str], bool]:
        return {}

    def is_downward_closed(self, members: Iterable[str]) -> bool:
        """Whether ``members`` holds everything below each member.  The
        answer is kept per distinct set, so a parse that meets one label
        on its line and again in the system tests it once."""
        ms = frozenset(members)
        known = self._closed.get(ms)
        if known is None:
            known = self._closed[ms] = self._test_closed(ms)
        return known

    def _test_closed(self, ms: frozenset[str]) -> bool:
        return ms.issuperset(itertools.chain.from_iterable(map(self._down.__getitem__, ms)))

    def down_close(self, members: Iterable[str]) -> frozenset[str]:
        closed: set[str] = set()
        for q in members:
            self.check_element(q)
            closed |= self._down[q]
        return frozenset(closed)

    @cached_property
    def top_down_order(self) -> tuple[str, ...]:
        """Linear extension listing larger elements first, ties broken
        lexicographically.  Used for display.  Kahn's algorithm over the
        covers: an element is maximal among those not yet listed exactly
        when all its upper covers are listed."""
        above = dict.fromkeys(self.elements, 0)
        lower: dict[str, list[str]] = {e: [] for e in self.elements}
        for p, q in self.covers:
            above[p] += 1
            lower[q].append(p)
        ready = [e for e in self.elements if not above[e]]  # sorted, so a heap
        out: list[str] = []
        while ready:
            q = heapq.heappop(ready)
            out.append(q)
            for p in lower[q]:
                above[p] -= 1
                if not above[p]:
                    heapq.heappush(ready, p)
        return tuple(out)

    def __repr__(self) -> str:
        strict = sorted((p, q) for p, q in self.relation if p != q)
        pairs = ", ".join(f"{p}<={q}" for p, q in strict)
        return f"Poset({list(self.elements)}" + (f", {pairs})" if pairs else ")")


def validate_poset(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    """Close ``pairs`` reflexively and transitively over ``elements`` and
    reject the result unless it is antisymmetric.  The reported cycle is
    the sorted strongly connected component of the first offending pair."""
    elems = tuple(sorted(set(elements)))
    known = set(elems)
    reach: dict[str, set[str]] = {e: {e} for e in elems}
    for p, q in pairs:
        if p not in known:
            raise UnknownElement(p)
        if q not in known:
            raise UnknownElement(q)
        reach[p].add(q)
    changed = True
    while changed:
        changed = False
        for p in elems:
            extra: set[str] = set()
            for q in reach[p]:
                extra |= reach[q]
            if not extra <= reach[p]:
                reach[p] |= extra
                changed = True
    for p in elems:
        for q in sorted(reach[p]):
            if q != p and p in reach[q]:
                cycle = sorted(r for r in reach[p] if p in reach[r])
                raise AntisymmetryViolation(cycle)
    relation = frozenset((p, q) for p in elems for q in reach[p])
    return Poset(elems, relation)


# the two-level order phi' < phi of the worked examples, which the test
# corpus and the benchmark's line systems use too
TWO_LEVEL = validate_poset(["phi", "phi'"], [("phi'", "phi")])
