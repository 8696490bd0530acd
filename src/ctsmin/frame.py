"""Finite distributive lattices presented as downset frames.

A Frame carries a base poset and works with its downward closed
subsets.  The lattice-labelled systems of ``models`` take their labels
here; the runtime needs only the base and the bottom element, the label
of an absent edge.  The Heyting operations, the join-irreducibles and
the enumeration of all elements belong to the theory layer
(``ctsmin.theory.lattice.HeytingFrame``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import Downset, Poset


class FrameError(Exception):
    pass


class BaseMismatch(FrameError):
    def __init__(self) -> None:
        super().__init__("downsets live over different base posets")


@dataclass(frozen=True)
class Frame:
    """The lattice of downsets of ``base``, computed on demand."""

    base: Poset

    @property
    def bottom(self) -> Downset:
        return Downset(self.base, frozenset())
