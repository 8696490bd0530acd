"""Finite distributive lattices presented as downset frames.

A Frame carries a base poset and works with its downward closed subsets.
Joins are unions, meets are intersections, and implication is the
relative pseudocomplement, so every frame is a Heyting algebra.  The
lattice-labelled systems of ``models`` take their labels here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .order import Downset, Poset


class FrameError(Exception):
    pass


class BaseMismatch(FrameError):
    def __init__(self) -> None:
        super().__init__("downsets live over different base posets")


class TooLarge(FrameError):
    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what} has size {size}, limit is {limit}")


@dataclass(frozen=True)
class Frame:
    """The lattice of downsets of ``base``, computed on demand."""

    base: Poset

    def _check(self, d: Downset) -> None:
        if d.base != self.base:
            raise BaseMismatch()

    @property
    def bottom(self) -> Downset:
        return Downset(self.base, frozenset())

    @property
    def top(self) -> Downset:
        return Downset(self.base, frozenset(self.base.elements))

    def element(self, members: Iterable[str]) -> Downset:
        return Downset(self.base, frozenset(members))

    def principal(self, p: str) -> Downset:
        return Downset(self.base, self.base.below(p))

    def join(self, a: Downset, b: Downset) -> Downset:
        self._check(a)
        self._check(b)
        return Downset(self.base, a.members | b.members)

    def meet(self, a: Downset, b: Downset) -> Downset:
        self._check(a)
        self._check(b)
        return Downset(self.base, a.members & b.members)

    def implies(self, a: Downset, b: Downset) -> Downset:
        """Relative pseudocomplement: the largest c with c meet a below b.
        Pointwise this collects the conditions whose principal downset
        meets a inside b."""
        self._check(a)
        self._check(b)
        members = frozenset(
            p
            for p in self.base.elements
            if self.base.below(p) & a.members <= b.members
        )
        return Downset(self.base, members)

    def join_irreducibles(self) -> tuple[Poset, dict[str, Downset]]:
        """The poset of principal downsets under inclusion, keyed by their
        generating element.  Inclusion is computed, not copied from the
        base order."""
        principals = {p: self.principal(p) for p in self.base.elements}
        relation = frozenset(
            (p, q)
            for p in self.base.elements
            for q in self.base.elements
            if principals[p].members <= principals[q].members
        )
        return Poset(tuple(self.base.elements), relation), principals

    def enumerate_elements(self, limit: int = 20) -> list[Downset]:
        """All downsets, smallest first, then lexicographic on members."""
        n = len(self.base.elements)
        if n > limit:
            raise TooLarge("frame base", n, limit)
        order = [
            p
            for p in sorted(self.base.elements, key=lambda p: (len(self.base.below(p)), p))
        ]
        found: list[frozenset[str]] = []

        def extend(i: int, current: frozenset[str]) -> None:
            if i == n:
                found.append(current)
                return
            p = order[i]
            extend(i + 1, current)
            if self.base.below(p) - {p} <= current:
                extend(i + 1, current | {p})

        extend(0, frozenset())
        found.sort(key=lambda ms: (len(ms), tuple(sorted(ms))))
        return [Downset(self.base, ms) for ms in found]
