"""Reduce command outputs to their meaning and cross-check them.

A later change may reformat the JSON or rename quotient states without
changing what the output says.  The digests here cover only the
meaning: for ``bisim`` the set of (x, y, condition) triples, for
``check`` the verdict, for ``minimise`` the stabilisation stage, the
final pair partition and the quotient transitions with each quotient
state identified by its class of pairs.
"""

from __future__ import annotations

import hashlib
import json

Pair = tuple[str, str]


class Mismatch(Exception):
    """An output that is malformed, or disagrees with another command's."""


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _split_pair_name(name: str) -> Pair:
    state, sep, cond = name.partition("@")
    if not sep:
        raise Mismatch(f"pair name without '@': {name!r}")
    return (state, cond)


def bisim_meaning(text: str) -> tuple[dict[Pair, frozenset[str]], int]:
    """The relation as a map from state pairs to their non-empty condition
    sets, and the reported number of refinement rounds."""
    report = json.loads(text)
    relation = {}
    for key, conds in report["pairs"].items():
        x, sep, y = key.partition(",")
        if not sep:
            raise Mismatch(f"bisim key without ',': {key!r}")
        relation[(x, y)] = frozenset(conds)
    return relation, report["iterations"]


def bisim_digest(relation: dict[Pair, frozenset[str]]) -> str:
    return digest(sorted((x, y, c) for (x, y), conds in relation.items() for c in conds))


def minimise_meaning(text: str) -> dict:
    """Stage, final pair partition and quotient transitions.  Quotient
    states are replaced by the index of their class in the sorted
    partition, so the meaning does not depend on how states are named."""
    report = json.loads(text)
    stage = report["stage"]
    partition = sorted(
        sorted(_split_pair_name(name) for name in cls)
        for cls in report["stages"][stage]["kernel"]
    )
    index = {pair: i for i, cls in enumerate(partition) for pair in cls}

    def cls_of(name: str) -> int:
        pair = _split_pair_name(name)
        if pair not in index:
            raise Mismatch(f"quotient state {name!r} is in no kernel class")
        return index[pair]

    transitions = sorted(
        (cls_of(t["src"]), t["action"], cls_of(t["dst"]), sorted(t["conditions"]))
        for t in report["quotient"]["transitions"]
    )
    return {
        "stage": stage,
        "partition": partition,
        "transitions": transitions,
        "stages": len(report["stages"]),
        "quotient_classes": len(report["quotient"]["states"]),
    }


def minimise_digest(meaning: dict) -> str:
    return digest([meaning["stage"], meaning["partition"], meaning["transitions"]])


def cross_check_kernel(
    meaning: dict,
    relation: dict[Pair, frozenset[str]],
    states: tuple[str, ...],
    conditions: tuple[str, ...],
) -> None:
    """The same-condition kernel of the final partition must be the
    bisimilarity relation: chain stage k equals fixpoint matrix k."""
    index = {pair: i for i, cls in enumerate(meaning["partition"]) for pair in cls}
    missing = {(x, c) for x in states for c in conditions} - set(index)
    if missing:
        raise Mismatch(f"final partition misses pairs {sorted(missing)[:3]}")
    for x in states:
        for y in states:
            kernel = frozenset(
                c for c in conditions if index[(x, c)] == index[(y, c)]
            )
            if kernel != relation.get((x, y), frozenset()):
                raise Mismatch(
                    f"minimise kernel at ({x},{y}) is {sorted(kernel)},"
                    f" bisim gives {sorted(relation.get((x, y), ()))}"
                )


def expected_exit(relation: dict[Pair, frozenset[str]], query: tuple[str, str, str]) -> int:
    """Exit code ``check`` must give: 0 when the condition is in the
    bisim value of the pair, 1 when it is not."""
    x, y, cond = query
    return 0 if cond in relation.get((x, y), frozenset()) else 1
