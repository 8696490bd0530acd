"""Line-oriented text format for conditional and lattice-labelled
systems.

A model file gives its kind, the condition poset, the state and action
sets, and one line per labelled edge.  The two kinds have the same
body: a label set of conditions is read either as the conditions under
which the edge is present (``cts``) or, by Birkhoff duality, as an
element of the lattice of downsets of the conditions (``lats``).  Both
parse to the same ``Cts``; only the header line tells them apart.

Comments run from '#' to the end of the line.  Names may not contain
'@', ',' or '"': the outputs join states and conditions with the first
two and quote names with the third, so such a name could make two
outputs collide.  Nor may a name start with '[': the serialiser could
write it at the start of a line that ends in ']', which reads back as a
section header.  A condition may not hold '<=': the line declaring it
would read as an order line.  The serialiser emits a canonical form: conditions top
down, order lines as covering pairs, everything else sorted, so parse
and serialise are mutually inverse on canonical text.
"""

from __future__ import annotations

from .models import Cts, NotDownwardClosed
from .order import validate_poset

KINDS = ("cts", "lats")
SECTIONS = ("conditions", "states", "actions", "transitions")
RESERVED = '@,"'


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _declare(number: int, what: str, names: dict[str, None], tokens: list[str]) -> None:
    """Add the names declared on a line, rejecting a reserved or repeated
    one."""
    for name in tokens:
        if name.startswith("["):
            raise ParseError(number, f"name {name!r} starts with '['")
        for ch in RESERVED:
            if ch in name:
                raise ParseError(number, f"name {name!r} contains reserved {ch!r}")
        if name in names:
            raise ParseError(number, f"{what} {name!r} declared twice")
        names[name] = None


def parse_model(text: str, close: bool = False) -> Cts:
    """The system a model file describes, of either kind."""
    return parse_with_kind(text, close)[1]


def parse_with_kind(text: str, close: bool = False) -> tuple[str, Cts]:
    """The kind named in a model file's header, and its system."""
    kind: str | None = None
    section: str | None = None
    seen: dict[str, int] = {}
    # each kind of name in declaration order
    conditions: dict[str, None] = {}
    order_pairs: list[tuple[str, str]] = []
    states: dict[str, None] = {}
    actions: dict[str, None] = {}
    transitions: list[tuple[int, str, str, str, list[str]]] = []

    for number, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if kind is None:
            if not line.startswith("kind:"):
                raise ParseError(number, "expected 'kind: cts' or 'kind: lats'")
            kind = line[len("kind:"):].strip()
            if kind not in KINDS:
                raise ParseError(number, f"unknown kind {kind!r}")
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ParseError(number, f"unknown section {section!r}")
            if section in seen:
                raise ParseError(number, f"duplicate section {section!r}")
            seen[section] = number
            continue
        if section is None:
            raise ParseError(number, "content outside any section")
        if section == "conditions":
            tokens = line.split()
            if "<=" in tokens or (len(tokens) == 1 and "<=" in line):
                if len(tokens) != 3 or tokens[1] != "<=":
                    raise ParseError(number, "order lines read 'a <= b'")
                for name in (tokens[0], tokens[2]):
                    if name not in conditions:
                        raise ParseError(number, f"undeclared condition {name!r}")
                order_pairs.append((tokens[0], tokens[2]))
            elif len(tokens) == 1:
                _declare(number, "condition", conditions, tokens)
            else:
                raise ParseError(number, "one condition name per line")
        elif section == "states":
            _declare(number, "state", states, line.split())
        elif section == "actions":
            _declare(number, "action", actions, line.split())
        elif section == "transitions":
            tokens = line.split()
            if len(tokens) < 5 or tokens[3] != ":":
                raise ParseError(
                    number, "transitions read 'src action dst : cond [cond ...]'"
                )
            transitions.append((number, tokens[0], tokens[1], tokens[2], tokens[4:]))

    if kind is None:
        raise ParseError(1, "empty model file")
    for name in SECTIONS:
        if name not in seen:
            raise ParseError(1, f"missing section [{name}]")
    if not conditions:
        raise ParseError(seen["conditions"], "at least one condition is required")

    poset = validate_poset(conditions, order_pairs)
    labels: dict[tuple[str, str, str], frozenset[str]] = {}
    for (number, src, act, dst, conds) in transitions:
        if src not in states:
            raise ParseError(number, f"undeclared state {src!r}")
        if dst not in states:
            raise ParseError(number, f"undeclared state {dst!r}")
        if act not in actions:
            raise ParseError(number, f"undeclared action {act!r}")
        members = frozenset(conds)
        if not conditions.keys() >= members:
            # in line order, so the first undeclared one is named
            c = next(c for c in conds if c not in conditions)
            raise ParseError(number, f"undeclared condition {c!r}")
        if close:
            members = poset.down_close(members)
        elif not poset.is_downward_closed(members):
            raise NotDownwardClosed(
                f"{src} {act} {dst} : {' '.join(sorted(members))}", line=number
            )
        edge = (src, act, dst)
        labels[edge] = labels[edge] | members if edge in labels else members

    return kind, Cts(states, actions, poset, labels)


def serialise_model(model: Cts, kind: str = "cts") -> str:
    """The canonical text of a system, headed by the given kind.  A name
    that is empty or holds whitespace or '#' would read back as another
    system, so it raises ``ValueError``."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    for name in (*model.states, *model.actions, *model.conditions.elements):
        if name.split() != [name] or "#" in name:
            raise ValueError(f"name {name!r} is empty or holds whitespace or '#'")
    poset = model.conditions
    rank = {c: i for i, c in enumerate(poset.top_down_order)}
    lines = [f"kind: {kind}", "", "[conditions]"]
    lines.extend(poset.top_down_order)
    lines.extend(f"{p} <= {q}" for (p, q) in poset.covers)
    lines.append("")
    lines.append("[states]")
    if model.states:
        lines.append(" ".join(model.states))
    lines.append("")
    lines.append("[actions]")
    if model.actions:
        lines.append(" ".join(model.actions))
    lines.append("")
    lines.append("[transitions]")
    for (src, act, dst, conds) in model.edges():
        shown = " ".join(sorted(conds, key=lambda c: (rank[c], c)))
        lines.append(f"{src} {act} {dst} : {shown}")
    return "\n".join(lines) + "\n"

