"""Transition system models: conditional, lattice-labelled, plain, and
the one-step upgrade coalgebra.

A conditional system fixes a finite condition poset and gives every
edge a downward closed set of conditions; reading the label set of an
edge as a lattice element yields the lattice-labelled presentation, and
fixing a single condition projects out a plain transition system.  The
upgrade coalgebra additionally tracks the version a successor is entered
at.  The refinement engine runs on the graph of (state, condition)
pairs that this coalgebra induces, but reads that graph straight from a
``Cts`` (``equivalence._pair_graph``); ``coalgebra_encode`` tabulates
the coalgebra itself, for ``filters-check`` and the test oracles.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .frame import Frame
from .order import Downset, Poset, UnknownElement


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
    upgrades; pass close=True to normalise instead of reject.
    """

    def __init__(
        self,
        states: Iterable[str],
        actions: Iterable[str],
        conditions: Poset,
        labels: Mapping[Edge, Iterable[str]],
        close: bool = False,
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
            for c in members:
                conditions.check_element(c)
            if close:
                members = conditions.down_close(members)
            elif not conditions.is_downward_closed(members):
                raise NotDownwardClosed(f"{src} {act} {dst} : {sorted(members)}")
            if members:
                table[(src, act, dst)] = members
        self._labels = table
        out: dict[tuple[str, str], list[tuple[str, frozenset[str]]]] = {}
        for (src, act, dst) in sorted(table):
            out.setdefault((src, act), []).append((dst, table[(src, act, dst)]))
        self._out = out

    def label(self, src: str, act: str, dst: str) -> frozenset[str]:
        return self._labels.get((src, act, dst), frozenset())

    def outgoing(self, src: str, act: str) -> list[tuple[str, frozenset[str]]]:
        return self._out.get((src, act), [])

    def successors(self, src: str, act: str, phi: str) -> frozenset[str]:
        self.conditions.check_element(phi)
        return frozenset(
            dst for dst, conds in self.outgoing(src, act) if phi in conds
        )

    def edges(self) -> list[tuple[str, str, str, frozenset[str]]]:
        return [
            (s, a, d, self._labels[(s, a, d)])
            for (s, a, d) in sorted(self._labels)
        ]

    def _key(self):
        return (
            self.states,
            self.actions,
            self.conditions,
            tuple(sorted((e, c) for e, c in self._labels.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cts) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Cts(states={len(self.states)}, edges={len(self._labels)})"


class Lats:
    """A transition system labelled in the downset lattice of a frame.
    The bottom label means the absence of an edge and is never stored."""

    def __init__(
        self,
        states: Iterable[str],
        actions: Iterable[str],
        frame: Frame,
        labels: Mapping[Edge, Downset],
    ):
        self.states = tuple(sorted(set(states)))
        self.actions = tuple(sorted(set(actions)))
        self.frame = frame
        table: dict[Edge, Downset] = {}
        for edge, value in labels.items():
            if value.base != frame.base:
                raise ValueError("label downset over the wrong base")
            if value.members:
                table[edge] = value
        self._labels = table

    def label(self, src: str, act: str, dst: str) -> Downset:
        got = self._labels.get((src, act, dst))
        return got if got is not None else self.frame.bottom

    def edges(self) -> list[tuple[str, str, str, Downset]]:
        return [(s, a, d, self._labels[(s, a, d)]) for (s, a, d) in sorted(self._labels)]

    def _key(self):
        return (
            self.states,
            self.actions,
            self.frame,
            tuple(sorted((e, d.members) for e, d in self._labels.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lats) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Lts:
    """A plain labelled transition system."""

    def __init__(self, states: Iterable[str], actions: Iterable[str], edges: Iterable[Edge]):
        self.states = tuple(sorted(set(states)))
        self.actions = tuple(sorted(set(actions)))
        self.edges = frozenset(edges)
        for (s, a, d) in self.edges:
            if s not in self.states or d not in self.states:
                raise UnknownElement(s if s not in self.states else d)
            if a not in self.actions:
                raise UnknownElement(a)

    def successors(self, src: str, act: str) -> frozenset[str]:
        return frozenset(d for (s, a, d) in self.edges if s == src and a == act)

    def _key(self):
        return (self.states, self.actions, self.edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lts) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def cts_to_lats(m: Cts) -> Lats:
    """Read each label set as an element of the downset frame."""
    frame = Frame(m.conditions)
    labels = {
        (s, a, d): Downset(m.conditions, conds) for (s, a, d, conds) in m.edges()
    }
    return Lats(m.states, m.actions, frame, labels)


def lats_to_cts(m: Lats) -> Cts:
    """Conditions of the result are the base of the frame, so for frames
    of downsets this inverts cts_to_lats on the nose."""
    labels = {(s, a, d): value.members for (s, a, d, value) in m.edges()}
    return Cts(m.states, m.actions, m.frame.base, labels)


def project(m: Cts | Lats, phi: str) -> Lts:
    """The plain transition system seen at one fixed condition."""
    if isinstance(m, Lats):
        m = lats_to_cts(m)
    m.conditions.check_element(phi)
    edges = [
        (s, a, d) for (s, a, d, conds) in m.edges() if phi in conds
    ]
    return Lts(m.states, m.actions, edges)


SuccessorPairs = frozenset[tuple[str, str]]


class UpgradeCoalgebra:
    """One-step behaviour with explicit successor versions: alpha(x, phi, a)
    collects the pairs (x', phi') with an a-edge to x' live at phi' <= phi.

    The table is what ``check_upgrade_preserving`` (``filters-check``)
    and the test oracles take.  The refinement engine does not build it:
    it reads the same successors from the ``Cts`` as it needs them.

    Invariants (checked unless validate=False, which ``mutated`` and
    ``coalgebra_encode`` use): successor sets grow with the condition,
    and every successor pair respects the version bound phi' <= phi.
    """

    def __init__(
        self,
        states: Iterable[str],
        actions: Iterable[str],
        conditions: Poset,
        table: Mapping[tuple[str, str, str], SuccessorPairs],
        validate: bool = True,
    ):
        self.states = tuple(sorted(set(states)))
        self.actions = tuple(sorted(set(actions)))
        self.conditions = conditions
        self._table = {
            key: frozenset(pairs) for key, pairs in table.items() if pairs
        }
        if validate:
            self.validate()

    def alpha(self, x: str, phi: str, a: str) -> SuccessorPairs:
        return self._table.get((x, phi, a), frozenset())

    def validate(self) -> None:
        """Reject entries with an unknown state, condition or action,
        successors above their version bound, and successor sets that
        shrink from a condition to a larger one.  Monotonicity is checked
        along the covering pairs alone: every psi <= phi is joined by a
        chain of covers and inclusion is transitive.  All violations are
        collected and the least is raised, so the message does not depend
        on set iteration order."""
        states, actions = set(self.states), set(self.actions)
        poset = self.conditions
        conditions = set(poset.elements)
        found: list[tuple[tuple, Exception]] = []
        for (x, phi, a), pairs in self._table.items():
            unknown = [
                name
                for name, pool in ((x, states), (phi, conditions), (a, actions))
                if name not in pool
            ]
            if unknown:
                found.append(((0, x, phi, a), UnknownElement(unknown[0])))
                continue
            below = poset.below(phi)
            for (y, psi) in pairs:
                if y not in states or psi not in conditions:
                    error = UnknownElement(y if y not in states else psi)
                elif psi not in below:
                    error = ValueError(
                        f"version bound broken: ({y},{psi}) in alpha({x},{phi},{a})"
                    )
                else:
                    continue
                found.append(((0, x, phi, a, y, psi), error))
        for x in self.states:
            for a in self.actions:
                for (psi, phi) in poset.covers:
                    if not self.alpha(x, psi, a) <= self.alpha(x, phi, a):
                        error = ValueError(
                            f"not monotone in the condition at ({x},{a}): {psi} <= {phi}"
                        )
                        found.append(((1, x, a, phi, psi), error))
        if found:
            raise min(found, key=lambda item: item[0])[1]

    def mutated(
        self, key: tuple[str, str, str], pairs: SuccessorPairs
    ) -> "UpgradeCoalgebra":
        """Copy with one entry replaced, skipping validation."""
        table = dict(self._table)
        if pairs:
            table[key] = pairs
        else:
            table.pop(key, None)
        return UpgradeCoalgebra(
            self.states, self.actions, self.conditions, table, validate=False
        )

    def _key(self):
        return (
            self.states,
            self.actions,
            self.conditions,
            tuple(sorted(self._table.items())),
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UpgradeCoalgebra) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def coalgebra_encode(m: Cts) -> UpgradeCoalgebra:
    """Encode a conditional system as its upgrade coalgebra, one
    successor set per (state, condition, action).  Only ``filters-check``
    and the test oracles use the table; the refinement engine reads the
    pair graph from the system directly, and the tests hold that graph
    against this encoding.

    The result is built with validate=False, because the encoding
    cannot break what ``UpgradeCoalgebra.validate`` checks: every key
    is made of the system's own states, conditions and actions, every
    entered version psi is taken from ``below(phi)``, and ``below`` is
    monotone, so each successor set grows with the condition.  The
    tests run ``validate`` on encoded systems to hold that claim."""
    below = {phi: m.conditions.below(phi) for phi in m.conditions.elements}
    table: dict[tuple[str, str, str], SuccessorPairs] = {}
    for x in m.states:
        for a in m.actions:
            out = m.outgoing(x, a)
            for phi, lower in below.items():
                pairs = frozenset(
                    (d, psi) for (d, conds) in out for psi in conds & lower
                )
                if pairs:
                    table[(x, phi, a)] = pairs
    return UpgradeCoalgebra(m.states, m.actions, m.conditions, table, validate=False)


def version_filter(pairs: SuccessorPairs, phi: str) -> SuccessorPairs:
    """Keep the successors entered at exactly the given version."""
    return frozenset((y, psi) for (y, psi) in pairs if psi == phi)


def check_upgrade_preserving(
    c: UpgradeCoalgebra,
) -> tuple[bool, tuple[str, str, str, str] | None]:
    """Check the two version-filter laws: at comparable conditions the
    same-version slice must agree with the slice taken at the lower
    condition, and an incomparable version must never occur.  Returns
    the lexicographically least witness (x, a, phi, psi) on failure."""
    for x in c.states:
        for a in c.actions:
            for phi in c.conditions.elements:
                here = c.alpha(x, phi, a)
                for psi in c.conditions.elements:
                    if c.conditions.leq(psi, phi):
                        if version_filter(here, psi) != version_filter(
                            c.alpha(x, psi, a), psi
                        ):
                            return False, (x, a, phi, psi)
                    else:
                        if version_filter(here, psi):
                            return False, (x, a, phi, psi)
    return True, None
