"""Command line front end.

``bisim``, ``check`` and ``minimise`` all run the rounds of the one
refinement engine, which reads the pair graph of the upgrade coalgebra
straight from the parsed system.  ``bisim`` and ``minimise`` refine
every (state, condition) pair (``equivalence.bisim_refinement`` and
``minimise.minimise_refinement``).  ``check`` builds and refines only
the pairs reachable from its two (state, condition) roots and stops at
the first round that separates them (``equivalence.bisimilar``).  Only
``filters-check`` tabulates the coalgebra (``models.coalgebra_encode``),
since its laws are stated on the table.  Model names
may not contain '@', ',' or '"', which the outputs use as separators
and quotes, nor start with '['.

Exit codes: 0 success (or a positive check), 1 negative check result,
2 usage errors (including a model file that cannot be read), 3
validation errors in the input model (including bytes that are not
UTF-8).  ``validate`` differs: it prints an invalid model's error on
stdout as ``invalid: <reason>`` and exits 1.

Both JSON reports print what ``json.dumps(payload, indent=2,
sort_keys=True)`` prints.  CPython falls back to its pure-Python encoder
whenever ``indent`` is set, and on large condition lattices that encoder
took longer than the whole refinement.  The ``bisim`` report goes
through ``_json_text``, which keeps the layout but quotes every string
with the C function ``encode_basestring_ascii``.  The ``minimise``
report, whose quotient rows make up most of the output, is written
without a payload dict by ``minimise.chain_result_text``.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as quote

from .equivalence import bisim_refinement, bisimilar
from .minimise import chain_result_dot, chain_result_text, minimise_refinement
from .modelfile import ParseError, convert_model, parse_model, serialise_model
from .models import (
    Cts,
    NotDownwardClosed,
    check_upgrade_preserving,
    coalgebra_encode,
    lats_to_cts,
    project,
)
from .order import AntisymmetryViolation, OrderError


class _Unreadable(Exception):
    """The model file could not be opened or read."""


def _read_model(path: str, close: bool):
    """Parse a model file.  Bytes that are not UTF-8 make an invalid
    model, with the line they are on; a file that cannot be read at all
    raises ``_Unreadable``."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise _Unreadable(path) from err
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # counted as the parser counts lines; the prefix decodes cleanly
        line = len((data[: err.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not UTF-8: {err.reason}") from None
    return parse_model(text, close=close)


def _as_cts(model) -> Cts:
    return model if isinstance(model, Cts) else lats_to_cts(model)


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the dict (with
    str keys), list, tuple, str, int, bool and None values the reports
    are made of.  Containers are matched by exact type and str items
    are quoted in place, because one Python call per node is most of
    the cost."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = [quote(v) if type(v) is str else _json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            f"{quote(k)}: {quote(v) if type(v) is str else _json_text(v, inner)}"
            for k, v in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, str):
        return quote(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


def _cmd_validate(args) -> int:
    try:
        model = _read_model(args.file, args.close)
    except (ParseError, NotDownwardClosed, AntisymmetryViolation, OrderError) as err:
        print(f"invalid: {err}")
        return 1
    as_cts = _as_cts(model)
    kind = "lats" if not isinstance(model, Cts) else "cts"
    print(
        f"ok: {kind} with {len(as_cts.states)} states,"
        f" {len(as_cts.actions)} actions,"
        f" {len(as_cts.conditions.elements)} conditions,"
        f" {len(as_cts.edges())} transitions"
    )
    return 0


def _cmd_convert(args) -> int:
    model = _read_model(args.file, args.close)
    sys.stdout.write(serialise_model(convert_model(model, args.to)))
    return 0


def _cmd_project(args) -> int:
    as_cts = _as_cts(_read_model(args.file, args.close))
    as_cts.conditions.check_element(args.condition)
    flat = project(as_cts, args.condition)
    for (src, act, dst) in sorted(flat.edges):
        print(f"{src} {act} {dst}")
    return 0


def _cmd_bisim(args) -> int:
    as_cts = _as_cts(_read_model(args.file, args.close))
    relation, iterations = bisim_refinement(as_cts)
    pairs = {f"{x},{y}": sorted(conds) for ((x, y), conds) in relation.entries}
    # the engine computes the lattice fixpoint, which names the report
    _emit_json({"algorithm": "fixpoint", "iterations": iterations, "pairs": pairs})
    return 0


def _cmd_check(args) -> int:
    as_cts = _as_cts(_read_model(args.file, args.close))
    for state in (args.x, args.y):
        if state not in as_cts.states:
            print(f"unknown state {state!r}", file=sys.stderr)
            return 2
    as_cts.conditions.check_element(args.condition)
    if bisimilar(as_cts, args.x, args.y, args.condition):
        print(f"{args.x} and {args.y} are bisimilar under {args.condition}")
        return 0
    print(f"{args.x} and {args.y} are not bisimilar under {args.condition}")
    return 1


def _cmd_minimise(args) -> int:
    as_cts = _as_cts(_read_model(args.file, args.close))
    result = minimise_refinement(as_cts)
    print(chain_result_text(result))
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(chain_result_dot(result, as_cts.conditions))
        except OSError:
            print(f"cannot write {args.dot}", file=sys.stderr)
            return 2
    return 0


def _cmd_filters_check(args) -> int:
    as_cts = _as_cts(_read_model(args.file, args.close))
    ok, witness = check_upgrade_preserving(coalgebra_encode(as_cts))
    if ok:
        print("upgrade preserving")
        return 0
    x, act, phi, psi = witness
    print(
        "not upgrade preserving:"
        f" state {x}, action {act}, downgrade {phi} -> {psi}"
    )
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsmin",
        description="conditional transition system tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="model file")
        p.add_argument(
            "--close",
            action="store_true",
            help="close transition labels downward instead of rejecting",
        )

    p = sub.add_parser("validate", help="parse and validate a model file")
    common(p)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("convert", help="convert between cts and lats form")
    common(p)
    p.add_argument("--to", choices=("cts", "lats"), required=True)
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("project", help="print the plain system at one condition")
    common(p)
    p.add_argument("--condition", required=True)
    p.set_defaults(run=_cmd_project)

    p = sub.add_parser("bisim", help="compute conditional bisimilarity")
    common(p)
    p.set_defaults(run=_cmd_bisim)

    p = sub.add_parser("check", help="decide bisimilarity of two states")
    common(p)
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--condition", required=True)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("minimise", help="minimise via the behaviour chain")
    common(p)
    p.add_argument("--dot", help="also write the quotient as a dot graph")
    p.set_defaults(run=_cmd_minimise)

    p = sub.add_parser(
        "filters-check", help="check that upgrades preserve behaviour"
    )
    common(p)
    p.set_defaults(run=_cmd_filters_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except _Unreadable as err:
        print(f"cannot read {err}", file=sys.stderr)
        return 2
    except (ParseError, NotDownwardClosed, AntisymmetryViolation) as err:
        print(f"invalid model: {err}", file=sys.stderr)
        return 3
    except OrderError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
