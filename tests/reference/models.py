"""Edge queries on a conditional system by name.

``outgoing`` gives the (dst, label) row of one (src, action), read off
``Cts.edges`` and kept per system: the runtime keeps its edges as rows
of indices for the refinement engine, and the oracles read names only.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from ctsmin.models import Cts

_ROWS: WeakKeyDictionary[Cts, dict[tuple[str, str], list[tuple[str, frozenset[str]]]]] = (
    WeakKeyDictionary()
)


def outgoing(m: Cts, src: str, act: str) -> list[tuple[str, frozenset[str]]]:
    """The edges from ``src`` under ``act`` as (dst, label), in sorted
    dst order; empty for a pair without edges."""
    rows = _ROWS.get(m)
    if rows is None:
        rows = _ROWS[m] = {}
        for s, a, d, label in m.edges():
            rows.setdefault((s, a), []).append((d, label))
    return rows.get((src, act), [])
