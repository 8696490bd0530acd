"""Spans around calls into ctsmin's modules, recorded from outside.

The tracer patches module attributes while a traced operation runs and
restores them afterwards, so the untraced operations of the same
process run the program unmodified.  Every name bound to a wrapped
function in any ctsmin module is patched, which catches the CLI's own
``from .x import y`` references.  A function that is missing, because
the code no longer has it, is listed as absent and never called.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter_ns

# (module, attribute, span name): the public calls on the CLI paths
WRAPPED = (
    ("modelfile", "parse_model", "modelfile.parse_model"),
    ("order", "validate_poset", "order.validate_poset"),
    ("order", "coequalise", "order.coequalise"),
    ("models", "coalgebra_encode", "models.coalgebra_encode"),
    ("models", "cts_to_lats", "models.cts_to_lats"),
    ("equivalence", "lattice_bisim_fixpoint", "equivalence.fixpoint"),
    ("equivalence", "LatticeRelation.of", "equivalence.relation_of"),
    ("minimise", "minimise_chain", "minimise.chain"),
    ("minimise", "chain_step", "minimise.chain_step"),
    ("minimise", "pseudo_factorise", "minimise.pseudo_factorise"),
    ("minimise", "kernel_matrix", "minimise.kernel_matrix"),
    ("minimise", "chain_result_json", "minimise.json"),
)


class Tracer:
    """Keeps every span in memory as [name, start_ns, end_ns, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.last: dict[str, object] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end
        self.last[name] = result
        return result

    def prepare(self, package: str = "ctsmin") -> None:
        """Find every binding of the wrapped functions in the loaded
        modules of the package and build its wrapper."""
        loaded = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")
        ]
        for module_name, attr, span in WRAPPED:
            owner = sys.modules.get(f"{package}.{module_name}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(method)
                if not isinstance(raw, classmethod):
                    self.absent.append(span)
                    continue
                self._patches.append(
                    (cls, method, raw, classmethod(self._wrap(span, raw.__func__)))
                )
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(span, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._patches:
            setattr(target, key, original)


def span_cost_ns() -> float:
    """Nanoseconds a traced call adds to a plain call of the same empty
    function: the median over five batches of the difference per call."""
    calls = 20_000

    def empty(*args):
        return None

    tracer = Tracer()
    traced = tracer._wrap("empty", empty)
    costs = []
    for _ in range(5):
        start = perf_counter_ns()
        for _ in range(calls):
            empty(None)
        plain = perf_counter_ns() - start
        tracer.spans.clear()
        start = perf_counter_ns()
        for _ in range(calls):
            traced(None)
        costs.append((perf_counter_ns() - start - plain) / calls)
    return statistics.median(costs)


def summarise(spans: list[list], ranges) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Inclusive seconds, self seconds and call counts per span name over
    the spans in ``ranges``, a list of (first, end, scale).  Self time is
    a span's duration minus that of its children."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for first, end_index, scale in ranges:
        for index in range(first, end_index):
            name, start, end, _ = spans[index]
            total[name] = total.get(name, 0.0) + (end - start) * scale / 1e9
            own[name] = own.get(name, 0.0) + (end - start - child_ns[index]) * scale / 1e9
            calls[name] = calls.get(name, 0) + 1
    return total, own, calls
