"""Order queries by name, and the fixpoint closure that ``validate_poset``
replaced.

``relation`` is the pair relation of a ``Poset``, read off its downset
masks and kept per poset: the runtime builds none, and asks its order
questions of the masks.  ``leq`` and ``lt`` ask one question of the
masks by name, and ``is_downward_closed`` one of a set of names, as
``ctsmin.models.Cts`` did before it checked labels as masks.
``closure_relation`` closes the given pairs by a fixpoint of whole-set
unions, as ``ctsmin.order.validate_poset`` did before it kept bit
masks, and names a cycle the same way: the tests hold the one-pass
closure against it, including the cycle that each violation reports.
"""

from __future__ import annotations

from typing import Iterable
from weakref import WeakKeyDictionary

from ctsmin.order import AntisymmetryViolation, Poset, UnknownElement, bits

_RELATIONS: WeakKeyDictionary[Poset, frozenset[tuple[str, str]]] = WeakKeyDictionary()


def relation(poset: Poset) -> frozenset[tuple[str, str]]:
    """Every p <= q of ``poset``, including the diagonal."""
    pairs = _RELATIONS.get(poset)
    if pairs is None:
        names = poset.elements
        pairs = _RELATIONS[poset] = frozenset(
            (names[p], q) for q, mask in zip(names, poset.down) for p in bits(mask)
        )
    return pairs


def leq(poset: Poset, p: str, q: str) -> bool:
    return bool(poset.down[poset.index[q]] >> poset.index[p] & 1)


def lt(poset: Poset, p: str, q: str) -> bool:
    return p != q and leq(poset, p, q)


def is_downward_closed(poset: Poset, members: Iterable[str]) -> bool:
    """Whether ``members`` is its own down-closure in ``poset``."""
    members = frozenset(members)
    return poset.down_close(members) == members


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
