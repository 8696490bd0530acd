"""Edge queries on a conditional system by name.

``edges`` names every edge and its label, read off ``Cts.rows``, and
``outgoing`` gives the (dst, label) row of one (src, action), read off
``edges`` and kept per system: the runtime keeps its edges as rows of
indices and label masks for the refinement engine, and the oracles
read names only.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from ctsmin.models import Cts

_ROWS: WeakKeyDictionary[Cts, dict[tuple[str, str], list[tuple[str, frozenset[str]]]]] = (
    WeakKeyDictionary()
)


def edges(m: Cts) -> list[tuple[str, str, str, frozenset[str]]]:
    """Every edge with its label's names, in sorted (src, action, dst) order."""
    states, actions, names = m.states, m.actions, m.conditions.names
    return [
        (x, actions[a], states[d], names(label))
        for x, row in zip(states, m.rows)
        for a, d, label in row
    ]


def outgoing(m: Cts, src: str, act: str) -> list[tuple[str, frozenset[str]]]:
    """The edges from ``src`` under ``act`` as (dst, label), in sorted
    dst order; empty for a pair without edges."""
    rows = _ROWS.get(m)
    if rows is None:
        rows = _ROWS[m] = {}
        for s, a, d, label in edges(m):
            rows.setdefault((s, a), []).append((d, label))
    return rows.get((src, act), [])
