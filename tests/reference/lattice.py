"""Finite distributive lattices given by their order table, and the
downsets that make up the frame elements.

``Downset`` is a validated downward closed subset of a base poset.
``HeytingFrame`` is the lattice of downsets of a base poset with its
Heyting operations: joins are unions, meets are intersections and
implication is the relative pseudocomplement.  It also gives the
join-irreducibles and enumerates every element, which the lattice
monad's finite spaces are built from.  The runtime needs none of this:
a conditional system's label sets are these downsets, held as plain
frozensets of conditions.

``ExplicitLattice`` is a lattice given by its order table.
``import_lattice`` rebuilds an order-isomorphic frame over its
join-irreducible elements and returns the two translation maps, which
is the finite Birkhoff duality behind presenting every condition
lattice as the downsets of a poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ctsmin.order import OrderError, Poset, validate_poset
from .order import check_element, is_downward_closed, leq, relation


class FrameError(Exception):
    pass


class BaseMismatch(FrameError):
    def __init__(self) -> None:
        super().__init__("downsets live over different base posets")


class TooLarge(FrameError):
    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what} has size {size}, limit is {limit}")


@dataclass(frozen=True)
class Downset:
    """A downward closed subset of ``base``.  Closure is validated."""

    base: Poset
    members: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        for q in self.members:
            check_element(self.base, q)
        if not is_downward_closed(self.base, self.members):
            raise OrderError(f"not downward closed: {sorted(self.members)}")

    def __contains__(self, p: str) -> bool:
        return p in self.members

    def __le__(self, other: "Downset") -> bool:
        return self.members <= other.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return "Downset({" + ", ".join(sorted(self.members)) + "})"


@dataclass(frozen=True)
class HeytingFrame:
    """The lattice of downsets of ``base`` with its Heyting algebra
    operations, computed on demand."""

    base: Poset

    @property
    def bottom(self) -> Downset:
        return Downset(self.base, frozenset())

    def _check(self, d: Downset) -> None:
        if d.base != self.base:
            raise BaseMismatch()

    @property
    def top(self) -> Downset:
        return Downset(self.base, frozenset(self.base.elements))

    def element(self, members: Iterable[str]) -> Downset:
        return Downset(self.base, frozenset(members))

    def principal(self, p: str) -> Downset:
        return Downset(self.base, self.base.down_close([p]))

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
            if self.base.down_close([p]) & a.members <= b.members
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
        return validate_poset(tuple(self.base.elements), relation), principals

    def enumerate_elements(self, limit: int = 20) -> list[Downset]:
        """All downsets, smallest first, then lexicographic on members."""
        n = len(self.base.elements)
        if n > limit:
            raise TooLarge("frame base", n, limit)
        order = sorted(self.base.elements, key=lambda p: (len(self.base.down_close([p])), p))
        found: list[frozenset[str]] = []

        def extend(i: int, current: frozenset[str]) -> None:
            if i == n:
                found.append(current)
                return
            p = order[i]
            extend(i + 1, current)
            if self.base.down_close([p]) - {p} <= current:
                extend(i + 1, current | {p})

        extend(0, frozenset())
        found.sort(key=lambda ms: (len(ms), tuple(sorted(ms))))
        return [Downset(self.base, ms) for ms in found]


class NotALattice(FrameError):
    def __init__(self, pair: tuple[str, str], kind: str):
        self.pair = pair
        self.kind = kind
        super().__init__(f"no least upper / greatest lower bound: {kind} of {pair}")


class NotDistributive(FrameError):
    def __init__(self, triple: tuple[str, str, str]):
        self.triple = triple
        super().__init__(f"distributivity fails on triple {triple}")


def down_closure(poset: Poset, members: Iterable[str]) -> Downset:
    """Smallest downward closed superset of ``members``."""
    return Downset(poset, poset.down_close(members))


def principal_downset(poset: Poset, p: str) -> Downset:
    return Downset(poset, poset.down_close([p]))


class ExplicitLattice:
    """A finite lattice given by its full order table.

    Binary joins and meets are computed once at construction; a missing
    bound raises NotALattice naming the offending pair.
    """

    def __init__(self, poset: Poset):
        self.poset = poset
        elems = poset.elements
        if not elems:
            raise NotALattice(("", ""), "empty carrier")
        index = {e: i for i, e in enumerate(elems)}
        up = [0] * len(elems)
        down = [0] * len(elems)
        for p, q in relation(poset):
            up[index[p]] |= 1 << index[q]
            down[index[q]] |= 1 << index[p]
        n = len(elems)
        self._join: list[list[int]] = [[0] * n for _ in range(n)]
        self._meet: list[list[int]] = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cub = up[i] & up[j]
                k = _unique_bound(up, cub)
                if k is None:
                    raise NotALattice((elems[i], elems[j]), "join")
                self._join[i][j] = k
                clb = down[i] & down[j]
                k = _unique_bound(down, clb)
                if k is None:
                    raise NotALattice((elems[i], elems[j]), "meet")
                self._meet[i][j] = k
        self._elems = elems
        self._index = index

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elems

    def join(self, a: str, b: str) -> str:
        return self._elems[self._join[self._index[a]][self._index[b]]]

    def meet(self, a: str, b: str) -> str:
        return self._elems[self._meet[self._index[a]][self._index[b]]]

    @cached_property
    def bottom(self) -> str:
        i = 0
        for j in range(len(self._elems)):
            i = self._meet[i][j]
        return self._elems[i]

    @cached_property
    def top(self) -> str:
        i = 0
        for j in range(len(self._elems)):
            i = self._join[i][j]
        return self._elems[i]

    def check_distributive(self) -> None:
        n = len(self._elems)
        for i in range(n):
            mi = self._meet[i]
            for j in range(n):
                for k in range(n):
                    if mi[self._join[j][k]] != self._join[mi[j]][mi[k]]:
                        raise NotDistributive(
                            (self._elems[i], self._elems[j], self._elems[k])
                        )

    def join_irreducible_elements(self) -> list[str]:
        """Elements that are not bottom and not a join of two strictly
        smaller elements."""
        n = len(self._elems)
        bot = self._index[self.bottom]
        out = []
        for i in range(n):
            if i == bot:
                continue
            if all(
                i in (j, k)
                for j in range(n)
                for k in range(n)
                if self._join[j][k] == i
            ):
                out.append(self._elems[i])
        return sorted(out)


def _unique_bound(cones: list[int], candidates: int) -> int | None:
    """The index k among ``candidates`` whose cone equals the candidate
    set, if any.  That element is the least (resp. greatest) bound."""
    bits = candidates
    while bits:
        low = bits & -bits
        k = low.bit_length() - 1
        if cones[k] == candidates:
            return k
        bits ^= low
    return None


@dataclass(frozen=True)
class ImportedLattice:
    """Result of import_lattice: a frame over the join-irreducibles plus
    the translation in both directions."""

    frame: HeytingFrame
    to_frame: dict[str, Downset]
    from_frame: dict[frozenset[str], str]

    def encode(self, element: str) -> Downset:
        return self.to_frame[element]

    def decode(self, d: Downset) -> str:
        if d.base != self.frame.base:
            raise BaseMismatch()
        return self.from_frame[d.members]


def import_lattice(lattice: ExplicitLattice | Poset) -> ImportedLattice:
    """Represent a finite distributive lattice as the downset frame of its
    join-irreducible elements.

    The encoding sends an element to the irreducibles below it; by
    finite Birkhoff duality this is an order isomorphism, so the decode
    table is total on the downsets of the irreducible poset.
    """
    if isinstance(lattice, Poset):
        lattice = ExplicitLattice(lattice)
    lattice.check_distributive()
    irr = lattice.join_irreducible_elements()
    order = lattice.poset
    relation = frozenset(
        (p, q) for p in irr for q in irr if leq(order, p, q)
    )
    base = validate_poset(tuple(irr), relation)
    frame = HeytingFrame(base)
    to_frame = {
        e: Downset(base, frozenset(j for j in irr if leq(order, j, e)))
        for e in order.elements
    }
    from_frame = {to_frame[e].members: e for e in order.elements}
    # Injective because every element is the join of the irreducibles below it.
    if len(from_frame) != len(order.elements):
        raise FrameError("two elements share their join-irreducibles")
    return ImportedLattice(frame, to_frame, from_frame)
