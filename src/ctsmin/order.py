"""Finite posets and downward closed sets.

Carriers are small sets of opaque strings.  An order is stored as bit
masks (Birkhoff's downsets, in the bit-vector encoding of Aït-Kaci et
al.): element i of the sorted elements is bit ``1 << i``, and each
element keeps the mask of its downset and that of its lower covers,
closed in one topological pass.  Order questions read the masks: the
covers, the down-closure of a set of names (``down_close``) and the
sorted strict pairs (``strict_codes``) come from them, and no pair
relation is built.  A ``Cts`` keeps its edge labels as downset masks
too, which ``masks`` reads from names and ``names`` writes back, and
checks a label given as a mask against ``down`` without naming it.
Every operation iterates in lexicographic element order, so all
outputs are deterministic and serialise identically.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from functools import cached_property, reduce
from operator import or_


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


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Value:
    """Equal and hashed by ``_key()``, with fields that ``__init__`` sets
    and nothing assigns after.  No dataclass: ``dataclasses`` costs
    every cold start of the command line a few milliseconds."""

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class Poset(_Value):
    """A finite partial order on sorted ``elements``.  ``down[i]`` is the
    mask of the elements at or below element i, and ``lower[i]`` that of
    its lower covers, as ``validate_poset`` closes them.  Two posets are
    equal when they have the same elements and the same downsets."""

    def __init__(self, elements: tuple[str, ...], down: tuple[int, ...], lower: tuple[int, ...]):
        vars(self).update(elements=elements, down=down, lower=lower)

    def _key(self) -> tuple:
        return self.elements, self.down

    @cached_property
    def index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.elements)}

    def strict_codes(self) -> list[int]:
        """Every p < q of element indices as the code p * n + q over n
        elements, sorted, which sorts as the pairs do: read off the
        downset masks."""
        n = len(self.elements)
        return sorted([p * n + q for q, m in enumerate(self.down) for p in bits(m ^ 1 << q)])

    def check_element(self, p: str) -> None:
        if p not in self.index:
            raise UnknownElement(p)

    @cached_property
    def covers(self) -> tuple[tuple[str, str], ...]:
        """The covering pairs (p, q), p < q with nothing strictly
        between, sorted.  Every p <= q is joined by a chain of them."""
        names = self.elements
        pairs = [(names[p], q) for q, mask in zip(names, self.lower) for p in bits(mask)]
        return tuple(sorted(pairs))

    def masks(self, members: Iterable[str]) -> tuple[int, int]:
        """The masks of a set of names and of its down-closure, in one
        pass; an unknown name raises ``UnknownElement``, the first met."""
        index, down = self.index, self.down
        mask = closed = 0
        try:
            for q in members:
                i = index[q]
                mask |= 1 << i
                closed |= down[i]
        except KeyError:
            raise UnknownElement(q) from None
        return mask, closed

    def names(self, mask: int) -> frozenset[str]:
        """The elements whose bits a mask sets."""
        return frozenset(map(self.elements.__getitem__, bits(mask)))

    def down_close(self, members: Iterable[str]) -> frozenset[str]:
        """The down-closure of a set of names, the set itself if closed."""
        members = frozenset(members)
        mask, closed = self.masks(members)
        return members if mask == closed else self.names(closed)

    @cached_property
    def top_down_order(self) -> tuple[str, ...]:
        """Linear extension listing larger elements first, ties broken
        lexicographically.  Used for display.  Kahn's algorithm over the
        covers: an element is maximal among those not yet listed exactly
        when all its upper covers are listed."""
        above = [0] * len(self.elements)
        for mask in self.lower:
            for p in bits(mask):
                above[p] += 1
        ready = [e for e, n in enumerate(above) if not n]  # sorted, so a heap
        out: list[str] = []
        while ready:
            q = heapq.heappop(ready)
            out.append(self.elements[q])
            for p in bits(self.lower[q]):
                above[p] -= 1
                if not above[p]:
                    heapq.heappush(ready, p)
        return tuple(out)

    def __repr__(self) -> str:
        names, n = self.elements, len(self.elements)
        pairs = ", ".join(f"{names[c // n]}<={names[c % n]}" for c in self.strict_codes())
        return f"Poset({list(self.elements)}" + (f", {pairs})" if pairs else ")")


def validate_poset(elements: Iterable[str], pairs: Iterable[tuple[str, str]]) -> Poset:
    """Close ``pairs`` reflexively and transitively over ``elements`` and
    reject the result unless it is antisymmetric.  One topological pass
    (Kahn's algorithm) closes each element's downset after those of all
    its given lower elements, and keeps as its lower covers the given
    lower elements that lie below no other.  On a cycle the pass stops
    short, and the reported cycle is the sorted strongly connected
    component of the least element on one."""
    elems = tuple(sorted(set(elements)))
    index = {e: i for i, e in enumerate(elems)}
    given = [0] * len(elems)  # per element, the mask of its given lower elements
    lowers: list[list[int]] = [[] for _ in elems]  # the same, listed
    upper: list[list[int]] = [[] for _ in elems]
    for p, q in pairs:
        if p not in index:
            raise UnknownElement(p)
        if q not in index:
            raise UnknownElement(q)
        i, j = index[p], index[q]
        if i != j and not given[j] >> i & 1:  # p <= p and repeats add nothing
            given[j] |= 1 << i
            lowers[j].append(i)
            upper[i].append(j)
    waiting = list(map(len, lowers))
    down, lower = [0] * len(elems), [0] * len(elems)
    ready = [q for q, n in enumerate(waiting) if not n]
    for q in ready:  # grows while it is walked
        closed = strict = 0
        for p in lowers[q]:
            closed |= down[p]
            strict |= down[p] ^ 1 << p
        down[q], lower[q] = closed | 1 << q, given[q] & ~strict
        for r in upper[q]:
            waiting[r] -= 1
            if not waiting[r]:
                ready.append(r)
    if len(ready) == len(elems):
        return Poset(elems, tuple(down), tuple(lower))
    # a cycle: close by squaring, since every path is shorter than len(elems)
    down = [mask | 1 << q for q, mask in enumerate(given)]
    for _ in range(len(elems).bit_length()):
        down = [reduce(or_, map(down.__getitem__, bits(mask)), mask) for mask in down]
    for q, mask in enumerate(down):
        component = [elems[p] for p in bits(mask) if down[p] >> q & 1]
        if len(component) > 1:
            raise AntisymmetryViolation(component)


# the two-level order phi' < phi of the worked examples, which the test
# corpus and the benchmark's line systems use too
TWO_LEVEL = validate_poset(["phi", "phi'"], [("phi'", "phi")])
