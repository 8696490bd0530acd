"""Maps between posets and the behaviour functor's action on maps.

A ``MonotoneMap`` is a total map whose monotonicity is checked by
``is_monotone`` rather than enforced on construction.  ``v_hat_apply``
applies a state map under the behaviour functor to one state's
one-step structure, as the upgrade coalgebra records it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

from ctsmin.order import OrderError, Poset
from .order import leq, relation
from .coalgebra import SuccessorPairs


@dataclass(frozen=True)
class MonotoneMap:
    """A total map between posets; monotonicity is a checked property, not
    a construction invariant (see is_monotone)."""

    dom: Poset
    cod: Poset
    entries: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, dom: Poset, cod: Poset, table: Mapping[str, str]) -> "MonotoneMap":
        missing = set(dom.elements) - set(table)
        if missing:
            raise OrderError(f"map not total, missing {sorted(missing)}")
        for x, y in table.items():
            dom.check_element(x)
            cod.check_element(y)
        return cls(dom, cod, tuple(sorted((x, table[x]) for x in dom.elements)))

    @cached_property
    def _table(self) -> Mapping[str, str]:
        return dict(self.entries)

    def __call__(self, x: str) -> str:
        return self._table[x]


def is_monotone(candidate: MonotoneMap) -> bool:
    table = dict(candidate.entries)
    return all(
        leq(candidate.cod, table[p], table[q])
        for p, q in relation(candidate.dom)
    )


def v_hat_apply(
    f: Callable[[str, str], object],
    p: Mapping[str, SuccessorPairs],
) -> dict[str, frozenset]:
    """Apply a state map under the behaviour functor to one state's
    one-step structure.  Successors are rewritten at their own recorded
    version; the ambient condition does not enter the formula."""
    return {
        a: frozenset((f(y, psi), psi) for (y, psi) in pairs)
        for a, pairs in p.items()
    }
