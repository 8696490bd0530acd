"""The upgrade coalgebra of a conditional system, as a table.

``UpgradeCoalgebra`` records alpha(x, phi, a), the successors of x under
a at condition phi together with the version each is entered at;
``coalgebra_encode`` tabulates it for a ``Cts``, and ``alpha_graph``
reads the uncompressed pair graph off the table.  ``version_filter`` and
``check_upgrade_preserving`` state the paper's version-filter laws on
the table.  The runtime never builds it: the refinement engine reads the
same successors from the system as it needs them, and the tests hold
the engine against oracles run on this encoding.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ctsmin.models import Cts
from ctsmin.order import Poset, UnknownElement
from .models import outgoing
from .order import leq


SuccessorPairs = frozenset[tuple[str, str]]


class UpgradeCoalgebra:
    """One-step behaviour with explicit successor versions: alpha(x, phi, a)
    collects the pairs (x', phi') with an a-edge to x' live at phi' <= phi.

    The table is what ``check_upgrade_preserving`` and the test oracles
    take.  The refinement engine does not build it: it reads the same
    successors from the ``Cts`` as it needs them.

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
            below = poset.down_close([phi])
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
    successor set per (state, condition, action).  Only the law checks
    and the test oracles use the table; the refinement engine reads the
    pair graph from the system directly, and the tests hold that graph
    against this encoding.

    The result is built with validate=False, because the encoding
    cannot break what ``UpgradeCoalgebra.validate`` checks: every key
    is made of the system's own states, conditions and actions, every
    entered version psi is taken from ``below(phi)``, and ``below`` is
    monotone, so each successor set grows with the condition.  The
    tests run ``validate`` on encoded systems to hold that claim."""
    below = {phi: m.conditions.down_close([phi]) for phi in m.conditions.elements}
    table: dict[tuple[str, str, str], SuccessorPairs] = {}
    for x in m.states:
        for a in m.actions:
            out = outgoing(m, x, a)
            for phi, lower in below.items():
                pairs = frozenset(
                    (d, psi) for (d, conds) in out for psi in conds & lower
                )
                if pairs:
                    table[(x, phi, a)] = pairs
    return UpgradeCoalgebra(m.states, m.actions, m.conditions, table, validate=False)


def alpha_graph(
    c: UpgradeCoalgebra, roots: Iterable[tuple[str, str]]
) -> tuple[list[tuple[str, str]], list[set[tuple[int, tuple[str, str]]]]]:
    """The pairs reachable over ``c.alpha`` from the roots, numbered
    breadth-first with the roots first and successors in sorted
    (action, state, condition) order, and each pair's moves as the set
    of (successor number, (action, version))."""
    number: dict[tuple[str, str], int] = {}
    for pair in roots:
        number.setdefault(pair, len(number))
    pairs = list(number)
    moves = []
    for x, cond in pairs:  # grows while it is walked
        succs = set()
        for a in c.actions:
            for succ in sorted(c.alpha(x, cond, a)):
                if succ not in number:
                    number[succ] = len(pairs)
                    pairs.append(succ)
                succs.add((number[succ], (a, succ[1])))
        moves.append(succs)
    return pairs, moves


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
                    if leq(c.conditions, psi, phi):
                        if version_filter(here, psi) != version_filter(
                            c.alpha(x, psi, a), psi
                        ):
                            return False, (x, a, phi, psi)
                    else:
                        if version_filter(here, psi):
                            return False, (x, a, phi, psi)
    return True, None
