"""Order queries by name, and the fixpoint closure that ``validate_poset``
replaced.

``closure_relation`` closes the given pairs by a fixpoint of whole-set
unions, as ``ctsmin.order.validate_poset`` did before it kept bit masks,
and names a cycle the same way: the tests hold the one-pass closure
against it, including the cycle that each violation reports.  ``leq``
and ``lt`` ask one question of a ``Poset`` through its derived
relation; the runtime asks its order questions of the masks instead.
"""

from __future__ import annotations

from typing import Iterable

from ctsmin.order import AntisymmetryViolation, Poset, UnknownElement


def leq(poset: Poset, p: str, q: str) -> bool:
    return (p, q) in poset.relation


def lt(poset: Poset, p: str, q: str) -> bool:
    return p != q and (p, q) in poset.relation


def closure_relation(
    elements: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    """The reflexive-transitive closure of ``pairs`` over ``elements``,
    diagonal included.  Raises ``UnknownElement`` for the first pair
    naming an element outside ``elements``, and ``AntisymmetryViolation``
    naming the sorted strongly connected component of the first element,
    in sorted order, that lies on a cycle."""
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
    return frozenset((p, q) for p in elems for q in reach[p])
