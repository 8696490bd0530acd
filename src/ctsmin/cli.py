"""Command line front end.

``main`` reads and decodes the model file, and one ``parse_model`` call,
for every command, gives the header's kind and the ``Cts`` it hands to
the command.  Only ``validate`` names the kind; ``convert --to`` writes
the kind it is given, as ``serialise_model`` inverts ``parse_model``.
Model files are UTF-8, and a leading byte-order mark is ignored.

Exit codes: 0 success (or a positive check), 1 negative check result,
2 usage errors (including a model file that cannot be read, a state or
condition named on the command line that the model lacks, reported as
``error: unknown element: '<name>'``, and standard output that cannot
be written, whether it takes a report, ``validate``'s verdict or the
``--help`` text), 3 validation errors in the input model (including
bytes that are not UTF-8).  ``validate`` differs: it prints an invalid
model's error on stdout as ``invalid: <reason>`` and exits 1.

This module only parses the command line, dispatches and maps errors to
exit codes; the reports are written by ``ctsmin.minimise``.  Both
JSON reports go to stdout chunk by chunk, as ``minimise._bisim_chunks``
(one state at a time) and ``minimise._report_chunks`` (one stage or
transition row at a time) yield them, then a newline, so no whole
report is held.
"""

from __future__ import annotations

import argparse
import os
import sys

from .equivalence import bisimilar
from .minimise import _bisim_chunks, _report_chunks, chain_result_dot, minimise_refinement
from .modelfile import KINDS, ParseError, parse_model, serialise_model
from .models import NotDownwardClosed
from .order import AntisymmetryViolation, OrderError


def _decode(data: bytes) -> str:
    """A model file's text, less a leading byte-order mark.  Bytes that
    are not UTF-8 make an invalid model, with the line they are on."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # counted as the parser counts lines; the prefix decodes cleanly.
        # The error's object and offset start after any byte-order mark.
        line = len((err.object[: err.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line, f"not UTF-8: {err.reason}") from None


def _cmd_validate(model, args) -> int:
    print(
        f"ok: {args.kind} with {len(model.states)} states,"
        f" {len(model.actions)} actions,"
        f" {len(model.conditions.elements)} conditions,"
        f" {sum(map(len, model.rows))} transitions"
    )
    return 0


def _cmd_convert(model, args) -> int:
    sys.stdout.write(serialise_model(model, args.to))
    return 0


def _cmd_project(model, args) -> int:
    bit = model.conditions.masks([args.condition])[0]  # an unknown name raises
    for x, row in zip(model.states, model.rows):
        for a, d, label in row:
            if label & bit:
                print(f"{x} {model.actions[a]} {model.states[d]}")
    return 0


def _cmd_bisim(model, args) -> int:
    sys.stdout.writelines(_bisim_chunks(model))
    sys.stdout.write("\n")
    return 0


def _cmd_check(model, args) -> int:
    if bisimilar(model, args.x, args.y, args.condition):
        print(f"{args.x} and {args.y} are bisimilar under {args.condition}")
        return 0
    print(f"{args.x} and {args.y} are not bisimilar under {args.condition}")
    return 1


def _cmd_minimise(model, args) -> int:
    result = minimise_refinement(model)
    sys.stdout.writelines(_report_chunks(result))
    sys.stdout.write("\n")
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as handle:
                handle.write(chain_result_dot(result, model.conditions))
        except OSError:
            print(f"cannot write {args.dot}", file=sys.stderr)
            return 2
    return 0


def _cmd_filters_check(model, args) -> int:
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
    print("upgrade preserving")
    return 0


# each command's name, help and handler, and the arguments after
# ``file`` and ``--close``.  Every handler takes the parsed model and the
# arguments, to which ``main`` adds the header's kind as ``kind``.
_COMMANDS = {
    "validate": ("parse and validate a model file", _cmd_validate, {}),
    "convert": ("convert between cts and lats form", _cmd_convert,
                {"--to": {"choices": KINDS, "required": True}}),
    "project": ("print the plain system at one condition", _cmd_project,
                {"--condition": {"required": True}}),
    "bisim": ("compute conditional bisimilarity", _cmd_bisim, {}),
    "check": ("decide bisimilarity of two states", _cmd_check,
              {"x": {}, "y": {}, "--condition": {"required": True}}),
    "minimise": ("minimise via the behaviour chain", _cmd_minimise,
                 {"--dot": {"help": "also write the quotient as a dot graph"}}),
    "filters-check": ("check that upgrades preserve behaviour", _cmd_filters_check, {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsmin",
        description="conditional transition system tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="model file")
        p.add_argument(
            "--close",
            action="store_true",
            help="close transition labels downward instead of rejecting",
        )
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            try:
                with open(args.file, "rb") as handle:
                    data = handle.read()
            except OSError:
                print(f"cannot read {args.file}", file=sys.stderr)
                return 2
            try:
                args.kind, model = parse_model(_decode(data), close=args.close)
            except (ParseError, NotDownwardClosed, AntisymmetryViolation) as err:
                if args.command == "validate":
                    print(f"invalid: {err}")
                    return 1
                print(f"invalid model: {err}", file=sys.stderr)
                return 3
            return _COMMANDS[args.command][1](model, args)
        except OrderError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        finally:
            # on every way out, argparse's SystemExit included, so that
            # a closed stdout fails here, not in the flush at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output: what is still buffered goes
        # to os.devnull, so the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
