"""The lattice-valued powerdomain monad and its reader translation.

An element of T(X) is a monotone map from X into a downset frame whose
every join-irreducible has a least witness in X (the min condition).
Such maps are in order-reversing bijection with monotone maps from the
frame's base into X, and the bijection (tau here) turns Kleisli
composition for T into plain per-condition function composition for the
reader monad.  Everything is finite and enumerable, guarded by size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

from ctsmin.order import OrderError, Poset, validate_poset
from .order import leq, relation
from .lattice import BaseMismatch, Downset, HeytingFrame, TooLarge
from .maps import MonotoneMap


@dataclass(frozen=True)
class StarMap:
    """A monotone map ``dom -> frame`` satisfying the min condition: for
    each base condition the set of states mapped above it has a least
    element."""

    dom: Poset
    frame: HeytingFrame
    entries: tuple[tuple[str, Downset], ...]

    @classmethod
    def of(
        cls,
        dom: Poset,
        frame: HeytingFrame,
        table: Mapping[str, Downset | Iterable[str]],
    ) -> "StarMap":
        values: dict[str, Downset] = {}
        for x in dom.elements:
            if x not in table:
                raise OrderError(f"map not total, missing {x!r}")
            v = table[x]
            values[x] = v if isinstance(v, Downset) else frame.element(v)
            if values[x].base != frame.base:
                raise BaseMismatch()
        for p, q in relation(dom):
            if not values[p].members <= values[q].members:
                raise OrderError(f"not monotone: {p} <= {q} but values disagree")
        for phi in frame.base.elements:
            if _least_witness(dom, values, phi) is None:
                raise OrderError(f"min condition fails at condition {phi!r}")
        return cls(dom, frame, tuple((x, values[x]) for x in dom.elements))

    def value(self, x: str) -> Downset:
        for key, v in self.entries:
            if key == x:
                return v
        raise OrderError(f"unknown element: {x!r}")

    def table(self) -> dict[str, Downset]:
        return dict(self.entries)

    def serial(self) -> str:
        parts = [
            f"{x}:{{{','.join(sorted(v.members))}}}" for x, v in self.entries
        ]
        return "|".join(parts)


def _least_witness(dom: Poset, values: Mapping[str, Downset], phi: str) -> str | None:
    candidates = [x for x in dom.elements if phi in values[x].members]
    for m in candidates:
        if all(leq(dom, m, c) for c in candidates):
            return m
    return None


def star_leq(b: StarMap, c: StarMap) -> bool:
    """The T(X) order, which reverses the pointwise frame order."""
    bt, ct = b.table(), c.table()
    return all(ct[x].members <= bt[x].members for x in bt)


@dataclass(frozen=True)
class ReaderMap:
    """A monotone map from the condition poset into a state poset."""

    dom: Poset
    cod: Poset
    entries: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, dom: Poset, cod: Poset, table: Mapping[str, str]) -> "ReaderMap":
        for phi in dom.elements:
            if phi not in table:
                raise OrderError(f"map not total, missing {phi!r}")
            cod.check_element(table[phi])
        for p, q in relation(dom):
            if not leq(cod, table[p], table[q]):
                raise OrderError(f"not monotone: {p} <= {q} but values disagree")
        return cls(dom, cod, tuple((phi, table[phi]) for phi in dom.elements))

    def value(self, phi: str) -> str:
        for key, v in self.entries:
            if key == phi:
                return v
        raise OrderError(f"unknown condition: {phi!r}")

    def table(self) -> dict[str, str]:
        return dict(self.entries)


def tau(b: StarMap) -> ReaderMap:
    """Send each condition to the least state mapped above it.  This is
    the order isomorphism from T(X) to the reader side."""
    values = b.table()
    table = {}
    for phi in b.frame.base.elements:
        m = _least_witness(b.dom, values, phi)
        if m is None:  # construction invariant of StarMap.of
            raise OrderError(f"no least witness for {phi!r}")
        table[phi] = m
    return ReaderMap.of(b.frame.base, b.dom, table)


def tau_inv(reader: ReaderMap, frame: HeytingFrame) -> StarMap:
    """Inverse of tau: collect, per state, the conditions whose least
    witness sits below it.  The collected set is downward closed because
    the reader map is monotone."""
    if frame.base != reader.dom:
        raise BaseMismatch()
    table = {
        x: frame.element(
            phi for phi in reader.dom.elements if leq(reader.cod, reader.value(phi), x)
        )
        for x in reader.cod.elements
    }
    return StarMap.of(reader.cod, frame, table)


def t_map(f: MonotoneMap, b: StarMap) -> StarMap:
    """Functor action on a map f between state posets."""
    if f.dom != b.dom:
        raise OrderError("domain mismatch in t_map")
    table = {}
    for y in f.cod.elements:
        members: frozenset[str] = frozenset()
        for x in b.dom.elements:
            if leq(f.cod, f(x), y):
                members |= b.value(x).members
        table[y] = b.frame.element(members)
    return StarMap.of(f.cod, b.frame, table)


def t_unit(dom: Poset, frame: HeytingFrame) -> dict[str, StarMap]:
    """Monad unit: each state goes to the map sending its upset to top."""
    out = {}
    for x in dom.elements:
        table = {
            y: frame.top if leq(dom, x, y) else frame.bottom for y in dom.elements
        }
        out[x] = StarMap.of(dom, frame, table)
    return out


@dataclass(frozen=True)
class TxSpace:
    """A fully enumerated T(X) with its reversed pointwise order."""

    poset: Poset
    maps: "tuple[tuple[str, StarMap], ...]"

    def star_map(self, name: str) -> StarMap:
        for key, b in self.maps:
            if key == name:
                return b
        raise OrderError(f"unknown element: {name!r}")

    def name_of(self, b: StarMap) -> str:
        for key, c in self.maps:
            if c == b:
                return key
        raise OrderError("map is not in this space")

    def table(self) -> dict[str, StarMap]:
        return dict(self.maps)


def tx_space(dom: Poset, frame: HeytingFrame, limit: int = 12) -> TxSpace:
    """Enumerate T(dom) over the frame.  Guarded by the product of the
    carrier and condition sizes; beyond the limit enumeration is
    intractable and callers should work through tau instead."""
    size = len(dom.elements) * len(frame.base.elements)
    if size > limit:
        raise TooLarge("T(X) enumeration", size, limit)
    downsets = frame.enumerate_elements()
    found: list[StarMap] = []
    for choice in product(range(len(downsets)), repeat=len(dom.elements)):
        table = {x: downsets[i] for x, i in zip(dom.elements, choice)}
        try:
            found.append(StarMap.of(dom, frame, table))
        except OrderError:
            continue
    named = sorted((b.serial(), b) for b in found)
    names = [n for n, _ in named]
    relation = frozenset(
        (n, m)
        for (n, b) in named
        for (m, c) in named
        if star_leq(b, c)
    )
    return TxSpace(validate_poset(tuple(names), relation), tuple(named))


def t_mult(h: StarMap, space: TxSpace) -> StarMap:
    """Monad multiplication, evaluated by the joint-join formula over the
    enumerated middle layer."""
    if h.dom != space.poset:
        raise OrderError("h must be indexed by the enumerated T(X)")
    frame = h.frame
    if not space.maps:
        raise OrderError("T(X) has no elements to multiply over")
    inner_dom = space.maps[0][1].dom
    table = {}
    for x in inner_dom.elements:
        members: frozenset[str] = frozenset()
        for name, b in space.maps:
            members |= h.value(name).members & b.value(x).members
        table[x] = frame.element(members)
    return StarMap.of(inner_dom, frame, table)


def validate_kleisli(dom: Poset, arrow: Mapping[str, StarMap]) -> None:
    """A Kleisli map must be monotone from dom into the T order."""
    for p, q in relation(dom):
        if not star_leq(arrow[p], arrow[q]):
            raise OrderError(f"not monotone: {p} <= {q} but T-values disagree")


def kleisli_compose(
    f: Mapping[str, StarMap],
    g: Mapping[str, StarMap],
    dom: Poset,
    mid: Poset,
    cod: Poset,
    frame: HeytingFrame,
    limit: int = 12,
) -> dict[str, StarMap]:
    """Compose Kleisli maps f then g by the functor-multiplication route.
    Needs T(cod) enumerated, so the same size guard applies."""
    space = tx_space(cod, frame, limit)
    out: dict[str, StarMap] = {}
    for x in dom.elements:
        b = f[x]
        lifted = {}
        for name, c in space.maps:
            members: frozenset[str] = frozenset()
            for y in mid.elements:
                if star_leq(g[y], c):
                    members |= b.value(y).members
            lifted[name] = frame.element(members)
        out[x] = t_mult(StarMap.of(space.poset, frame, lifted), space)
    return out


def star_to_reader(
    f: Mapping[str, StarMap], dom: Poset
) -> dict[tuple[str, str], str]:
    """Translate a Kleisli map for T into its reader-side form."""
    out = {}
    for x in dom.elements:
        reader = tau(f[x])
        for phi in reader.dom.elements:
            out[(x, phi)] = reader.value(phi)
    return out


def reader_to_star(
    arrow: Mapping[tuple[str, str], str],
    dom: Poset,
    cod: Poset,
    frame: HeytingFrame,
) -> dict[str, StarMap]:
    out = {}
    for x in dom.elements:
        reader = ReaderMap.of(
            frame.base, cod, {phi: arrow[(x, phi)] for phi in frame.base.elements}
        )
        out[x] = tau_inv(reader, frame)
    return out


def reader_kleisli_compose(
    f: Mapping[tuple[str, str], str],
    g: Mapping[tuple[str, str], str],
    dom: Poset,
    conditions: Poset,
) -> dict[tuple[str, str], str]:
    """Reader-monad Kleisli composition: apply both maps at the same
    condition.  This is the runtime primitive the T side is checked
    against."""
    return {
        (x, phi): g[(f[(x, phi)], phi)]
        for x in dom.elements
        for phi in conditions.elements
    }
