"""Command line front end.

Both model kinds parse to the same ``Cts``: by Birkhoff duality a
lattice-labelled system is a conditional one, and the two file kinds
share their body.  Only ``validate`` reads the header's kind, to name
it; ``convert --to`` writes the kind it is given.

``bisim``, ``check`` and ``minimise`` all run the rounds of the one
refinement engine, which reads the pair graph of the upgrade coalgebra
straight from the parsed system.  ``bisim`` and ``minimise`` refine
every (state, condition) pair (``equivalence.refine``): ``bisim``
writes its report from the final blocks, ``minimise`` from every
round's moves (``minimise.minimise_refinement``).  ``project`` prints
the edges present at its condition.  ``check`` builds and refines only
the pairs reachable from its two (state, condition) roots and stops at
the first round that separates them (``equivalence.bisimilar``).  No
command tabulates the coalgebra: ``filters-check`` answers from the
proof that every valid system's coalgebra satisfies the version-filter
laws.  Model names may not contain '@', ',' or '"', which the outputs
use as separators and quotes, nor start with '['.

Exit codes: 0 success (or a positive check), 1 negative check result,
2 usage errors (including a model file that cannot be read), 3
validation errors in the input model (including bytes that are not
UTF-8).  ``validate`` differs: it prints an invalid model's error on
stdout as ``invalid: <reason>`` and exits 1.

This module only parses the command line, dispatches and maps errors to
exit codes.  Both JSON reports and the DOT graph are written by
``ctsmin.minimise``: ``bisim_text`` and ``chain_result_text`` print what
``json.dumps(payload, indent=2, sort_keys=True)`` prints, without
building the payload.
"""

from __future__ import annotations

import argparse
import sys

from .equivalence import bisimilar
from .minimise import bisim_text, chain_result_dot, chain_result_text, minimise_refinement
from .modelfile import ParseError, parse_model, parse_with_kind, serialise_model
from .models import NotDownwardClosed
from .order import AntisymmetryViolation, OrderError


class _Unreadable(Exception):
    """The model file could not be opened or read."""


def _read_text(path: str) -> str:
    """A model file's text.  Bytes that are not UTF-8 make an invalid
    model, with the line they are on; a file that cannot be read at all
    raises ``_Unreadable``."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise _Unreadable(path) from err
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # counted as the parser counts lines; the prefix decodes cleanly
        line = len((data[: err.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not UTF-8: {err.reason}") from None


def _read_model(args):
    return parse_model(_read_text(args.file), close=args.close)


def _cmd_validate(args) -> int:
    try:
        kind, model = parse_with_kind(_read_text(args.file), close=args.close)
    except (ParseError, NotDownwardClosed, AntisymmetryViolation, OrderError) as err:
        print(f"invalid: {err}")
        return 1
    print(
        f"ok: {kind} with {len(model.states)} states,"
        f" {len(model.actions)} actions,"
        f" {len(model.conditions.elements)} conditions,"
        f" {len(model.edges())} transitions"
    )
    return 0


def _cmd_convert(args) -> int:
    sys.stdout.write(serialise_model(_read_model(args), args.to))
    return 0


def _cmd_project(args) -> int:
    model = _read_model(args)
    model.conditions.check_element(args.condition)
    for src, act, dst, label in model.edges():
        if args.condition in label:
            print(f"{src} {act} {dst}")
    return 0


def _cmd_bisim(args) -> int:
    print(bisim_text(_read_model(args)))
    return 0


def _cmd_check(args) -> int:
    model = _read_model(args)
    for state in (args.x, args.y):
        if state not in model.states:
            print(f"unknown state {state!r}", file=sys.stderr)
            return 2
    if bisimilar(model, args.x, args.y, args.condition):
        print(f"{args.x} and {args.y} are bisimilar under {args.condition}")
        return 0
    print(f"{args.x} and {args.y} are not bisimilar under {args.condition}")
    return 1


def _cmd_minimise(args) -> int:
    model = _read_model(args)
    result = minimise_refinement(model)
    print(chain_result_text(result))
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(chain_result_dot(result, model.conditions))
        except OSError:
            print(f"cannot write {args.dot}", file=sys.stderr)
            return 2
    return 0


def _cmd_filters_check(args) -> int:
    """Every system that validates is upgrade preserving, so only the
    parse can fail.  For a state x, an action a and conditions psi and
    phi, the psi-slice of alpha(x, phi, a), the successors entered at
    version psi, is {y : psi in label(x, a, y)} when psi <= phi, since
    alpha(x, phi, a) enters y at every version of label(x, a, y) below
    phi; that is also the psi-slice of alpha(x, psi, a).  When psi is
    not below phi the slice is empty, since every entered version is.
    These are the two version-filter laws.  The tabulated check,
    ``check_upgrade_preserving`` in ``tests/reference/coalgebra.py``,
    stays with the tests, which run it on encodings and on mutated
    tables."""
    _read_model(args)
    print("upgrade preserving")
    return 0


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
