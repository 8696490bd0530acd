"""End-to-end benchmark of the ctsmin command line.

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: it imports ``ctsmin`` from
``src`` and the test corpus generator from ``tests/corpus.py``, builds
the workload's models from the seed, writes them as model files under
``.bench_work/`` and drives ``bisim``, ``check`` and ``minimise``
through ``ctsmin.cli.main`` with default options.  One process, one
client, closed loop: the next call starts when the previous one and its
correctness check are done.  Module state is never reset between calls.

Every output is checked outside the timed region (see meaning.py) and,
where ``reference.json`` holds the seed, compared with the recorded
meaning digests.  Times are scaled to a reference machine speed (see
speed.py); the raw wall-clock figures are printed alongside.  With
``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run (see spans.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import meaning
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
COMMANDS = ("bisim", "check", "minimise")
SETUP_REPEATS = 15
PROBE_EVERY_NS = 20_000_000
RAW_CAP = 1.25
TAIL_BEYOND = 10

COUNTS_FROM_OUTPUT = (
    "equivalence.rounds",
    "minimise.stages",
    "minimise.quotient_classes",
    "minimise.json_bytes",
    "cli.bisim_json_bytes",
)
COUNTS_FROM_SPANS = (
    "modelfile.transitions",
    "models.alpha_pairs",
    "order.coequalise_calls",
)
LAYER_TIMES = (
    "modelfile.parse_model",
    "order.validate_poset",
    "order.coequalise",
    "models.coalgebra_encode",
    "models.cts_to_lats",
    "equivalence.fixpoint",
    "equivalence.relation_of",
    "minimise.chain",
    "minimise.chain_step",
    "minimise.pseudo_factorise",
    "minimise.kernel_matrix",
    "minimise.json",
    "minimise.dot",
)


def source_digest() -> str:
    """Digest of the package source, so counts recorded for one version
    of the code are compared only against the same version."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctsmin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "ctsmin" or n.startswith("ctsmin.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work: Path, repeats: int = SETUP_REPEATS):
    """Import ctsmin, generate the models and serialise them, ``repeats``
    times from a cold import, then write the model files of the last
    repetition.  Writing is not timed: on a shared disk the same 500
    small files take 0.05 s or 0.3 s to write, depending on what else
    the disk is doing, which says nothing about the program.  Returns
    the modules and models of the last repetition, and the median
    set-up time in raw and in scaled seconds."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    raw, scaled = [], []
    log = speed.SpeedLog()
    for _ in range(repeats):
        _purge_package()
        bracket = log.bracket()
        start = perf_counter_ns()
        ctsmin = importlib.import_module("ctsmin")
        cli = importlib.import_module("ctsmin.cli")
        corpus_module = workloads.load_corpus_module(ROOT)
        models = workloads.GENERATORS[workload](ctsmin, corpus_module, seed)
        texts = [ctsmin.serialise_model(model.cts) for model in models]
        elapsed = perf_counter_ns() - start
        log.take()
        raw.append(elapsed / 1e9)
        scaled.append(elapsed * log.factor(bracket) / 1e9)
    if Path(ctsmin.__file__).resolve().parent != ROOT / "src" / "ctsmin":
        raise SystemExit(f"ctsmin imported from {ctsmin.__file__}, not from this checkout")
    paths = []
    for index, text in enumerate(texts):
        path = work / f"m{index:04d}.cts"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return cli, models, paths, statistics.median(raw), statistics.median(scaled)


@dataclass
class Timed:
    """One timed operation: its raw latency, its speed bracket and, when
    traced, the range of spans it and its checks recorded."""

    cmd: str
    index: int
    raw_ns: int
    bracket: int
    first_span: int = 0
    end_span: int = 0


class Bench:
    """Runs and checks operations, and keeps what they showed per model."""

    def __init__(self, cli, models, paths, tracer=None):
        self.cli = cli
        self.models = models
        self.paths = paths
        self.tracer = tracer
        self.speed = speed.SpeedLog()
        self.timed: list[Timed] = []
        self.attempted = {cmd: 0 for cmd in COMMANDS}
        self.failed = {cmd: 0 for cmd in COMMANDS}
        self.failures: list[str] = []
        self.relation: dict[int, dict] = {}
        self.bisim_digest: dict[int, str] = {}
        self.minimise_digest: dict[int, str] = {}
        self.verdict: dict[tuple[int, int], int] = {}
        self.counts: dict[int, dict[str, int]] = {}

    # -- running -------------------------------------------------------

    def argv(self, cmd: str, index: int, query: int) -> list[str]:
        path = self.paths[index]
        if cmd == "check":
            x, y, cond = self.models[index].queries[query]
            return ["check", path, x, y, "--condition", cond]
        return [cmd, path]

    def _execute(self, argv: list[str]):
        traced = self.tracer is not None
        out = io.StringIO()
        if traced:
            self.tracer.last.clear()
            self.tracer.install()
        try:
            with contextlib.redirect_stdout(out):
                start = perf_counter_ns()
                if traced:
                    rc = self.tracer.call("cli." + argv[0], self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
                elapsed = perf_counter_ns() - start
        finally:
            if traced:
                self.tracer.uninstall()
        return elapsed, rc, out.getvalue()

    def run_op(self, cmd: str, index: int, query: int, timed: bool) -> int:
        """Run one operation and check it.  Returns its raw latency in ns."""
        traced = self.tracer is not None
        self.attempted[cmd] += 1
        record = Timed(cmd, index, 0, self.speed.bracket())
        if traced:
            record.first_span = len(self.tracer.spans)
        try:
            record.raw_ns, rc, text = self._execute(self.argv(cmd, index, query))
        except (Exception, SystemExit):
            self._fail(cmd, index, "raised:\n" + traceback.format_exc(limit=4))
            return 0
        try:
            extra = self._span_counts(cmd, record.first_span) if traced else {}
            self._check(cmd, index, query, rc, text, extra, traced)
        except (meaning.Mismatch, ValueError, KeyError, TypeError) as err:
            self._fail(cmd, index, f"{type(err).__name__}: {err}")
        if traced:
            record.end_span = len(self.tracer.spans)
        if timed:
            self.timed.append(record)
        return record.raw_ns

    def _span_counts(self, cmd: str, first_span: int) -> dict[str, int]:
        """Counts read from the results the traced calls returned; a
        result of another shape leaves its count out."""
        last = self.tracer.last
        counts = {}
        with contextlib.suppress(AttributeError, TypeError, KeyError):
            counts["modelfile.transitions"] = len(last["modelfile.parse_model"].edges())
        if cmd != "minimise":
            return counts
        with contextlib.suppress(AttributeError, TypeError, KeyError):
            c = last["models.coalgebra_encode"]
            counts["models.alpha_pairs"] = sum(
                len(c.alpha(x, phi, a))
                for x in c.states
                for phi in c.conditions.elements
                for a in c.actions
            )
        counts["order.coequalise_calls"] = sum(
            1 for s in self.tracer.spans[first_span:] if s[0] == "order.coequalise"
        )
        return counts

    def _fail(self, cmd: str, index: int, message: str) -> None:
        self.failed[cmd] += 1
        if len(self.failures) < 5:
            self.failures.append(f"{cmd} on model {index}: {message}")

    def _record_counts(self, index: int, counts: dict[str, int]) -> None:
        known = self.counts.setdefault(index, {})
        for key, value in counts.items():
            if known.setdefault(key, value) != value:
                raise meaning.Mismatch(f"{key} was {known[key]}, now {value}")

    def _check(self, cmd, index, query, rc, text, extra, traced) -> None:
        model = self.models[index]
        if cmd == "check":
            if index not in self.relation:
                raise meaning.Mismatch("no bisim relation to check against")
            want = meaning.expected_exit(self.relation[index], model.queries[query])
            if rc != want:
                raise meaning.Mismatch(f"exit code {rc}, bisim implies {want}")
            self.verdict[(index, query)] = rc
            self._record_counts(index, extra)
            return
        if rc != 0:
            raise meaning.Mismatch(f"exit code {rc}")
        if cmd == "bisim":
            relation, rounds = meaning.bisim_meaning(text)
            value = meaning.bisim_digest(relation)
            if self.bisim_digest.setdefault(index, value) != value:
                raise meaning.Mismatch("output differs from an earlier call")
            self.relation[index] = relation
            extra["equivalence.rounds"] = rounds
            extra["cli.bisim_json_bytes"] = len(text.encode("utf-8"))
        else:
            if index not in self.relation:
                raise meaning.Mismatch("no bisim relation to check against")
            found = meaning.minimise_meaning(text)
            meaning.cross_check_kernel(
                found, self.relation[index], model.cts.states, model.cts.conditions.elements
            )
            value = meaning.minimise_digest(found)
            if self.minimise_digest.setdefault(index, value) != value:
                raise meaning.Mismatch("output differs from an earlier call")
            extra["minimise.stages"] = found["stages"]
            extra["minimise.quotient_classes"] = found["quotient_classes"]
            extra["minimise.json_bytes"] = len(text.encode("utf-8"))
            if traced:
                self._render_dot(model)
        self._record_counts(index, extra)

    def _render_dot(self, model) -> None:
        """DOT output is off by default in the CLI, so the traced run
        renders the captured quotient itself to time that layer."""
        result = self.tracer.last.get("minimise.chain")
        render = getattr(sys.modules.get("ctsmin.minimise"), "chain_result_dot", None)
        if result is None or render is None:
            if "minimise.dot" not in self.tracer.absent:
                self.tracer.absent.append("minimise.dot")
            return
        dot = self.tracer.call("minimise.dot", render, result, model.cts.conditions)
        if not dot.startswith("digraph"):
            raise meaning.Mismatch("DOT output does not start with 'digraph'")

    # -- schedule ------------------------------------------------------

    def loop(self, seconds: float) -> None:
        """Visit the models in order, one bisim, check and minimise each,
        in whole passes over the models, until the timed latencies,
        scaled by the last probe, add up to ``seconds``, or the raw ones
        to RAW_CAP times that.  Scaling the budget keeps the sample count
        the same on a slow or a fast host.  Stopping only between passes
        gives every run the same mix of models, so the throughput and
        the percentiles do not depend on where a run happened to stop.
        Pass ``p`` checks query ``p`` modulo QUERIES_PER_MODEL.  A probe
        runs once at least PROBE_EVERY_NS of operations have passed."""
        budget = seconds * 1e9
        spent = raw = since_probe = 0
        passes = 0
        while spent < budget and raw < RAW_CAP * budget:
            query = passes % workloads.QUERIES_PER_MODEL
            for index in range(len(self.models)):
                for cmd in COMMANDS:
                    elapsed = self.run_op(cmd, index, query, timed=True)
                    spent += elapsed * self.speed.factor(self.speed.bracket())
                    raw += elapsed
                    since_probe += elapsed
                    if since_probe >= PROBE_EVERY_NS:
                        self.speed.take()
                        since_probe = 0
            passes += 1
        self.speed.take()

    def complete(self) -> None:
        """Run, untimed, every operation of the workload the loop did not
        reach, so that the run's digests cover all of it."""
        for index in range(len(self.models)):
            if index not in self.bisim_digest:
                self.run_op("bisim", index, 0, timed=False)
            for query in range(workloads.QUERIES_PER_MODEL):
                if (index, query) not in self.verdict:
                    self.run_op("check", index, query, timed=False)
            if index not in self.minimise_digest:
                self.run_op("minimise", index, 0, timed=False)

    def digests(self) -> dict[str, str]:
        n = len(self.models)
        queries = range(workloads.QUERIES_PER_MODEL)
        return {
            "bisim": meaning.digest([self.bisim_digest.get(i) for i in range(n)]),
            "check": meaning.digest([[self.verdict.get((i, q)) for q in queries] for i in range(n)]),
            "minimise": meaning.digest([self.minimise_digest.get(i) for i in range(n)]),
        }

    def count_totals(self, names) -> dict[str, int]:
        return {
            name: sum(self.counts.get(i, {}).get(name, 0) for i in range(len(self.models)))
            for name in names
        }

    def scaled_ms(self, record: Timed) -> float:
        return record.raw_ns * self.speed.factor(record.bracket) / 1e6


def tail(samples_ms: list[float], pct: float) -> tuple[float | None, int]:
    """The ``pct`` percentile (nearest rank) and the number of samples
    above it; the percentile is None when fewer than TAIL_BEYOND are."""
    ordered = sorted(samples_ms)
    rank = math.ceil(pct / 100 * len(ordered))
    beyond = len(ordered) - rank
    return (ordered[rank - 1] if beyond >= TAIL_BEYOND else None), beyond


def compare_reference(bench: Bench, workload: str, seed: int) -> tuple[list[str], str]:
    """Mismatches against the recorded digests and, for the same source,
    the recorded counts.  Every operation of a command whose digest
    differs counts as failed, since the digest cannot say which one."""
    if not REFERENCE.exists():
        return [], "no reference file; cross-checks only"
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    entry = data["workloads"].get(workload, {}).get(str(seed))
    if entry is None:
        return [], f"no reference for seed {seed}; cross-checks only"
    problems = []
    found = bench.digests()
    for cmd in COMMANDS:
        if found[cmd] != entry["digests"][cmd]:
            problems.append(f"{cmd} meaning digest differs from the reference")
            bench.failed[cmd] = bench.attempted[cmd]
    note = "digests checked against the reference"
    if data["source_sha256"] == source_digest():
        counts = bench.count_totals(COUNTS_FROM_OUTPUT)
        for name, value in entry["counts"].items():
            if counts.get(name) != value:
                problems.append(f"{name} is {counts.get(name)}, recorded {value} for this source")
        note += ", counts too (same source)"
    return problems, note


def end_to_end_metrics(
    bench: Bench, setup: tuple[float, float], pct: float, lines: list[str]
) -> dict:
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    metrics = {
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_ok_share": ((attempted - failed) / attempted, "share"),
    }
    lines.append(f"ops_failed_share {failed / attempted:.6f} ({failed} of {attempted})")
    lines.append(f"setup: {setup[0]:.4f} s wall, {setup[1]:.4f} s scaled")
    probes = [p / 1e6 for p in bench.speed.probes]
    lines.append(f"probe: {len(probes)} runs, median {statistics.median(probes):.3f} ms")
    for cmd in COMMANDS:
        records = [r for r in bench.timed if r.cmd == cmd]
        if not records:
            lines.append(f"{cmd}: no timed samples")
            continue
        samples = [bench.scaled_ms(r) for r in records]
        metrics[f"{cmd}_ops_per_s"] = (len(samples) / (sum(samples) / 1e3), "1/s")
        metrics[f"{cmd}_p50_ms"] = (statistics.median(samples), "ms")
        wall = statistics.median(r.raw_ns / 1e6 for r in records)
        value, beyond = tail(samples, pct)
        if value is None:
            lines.append(
                f"{cmd}: {len(samples)} samples, {beyond} beyond p{pct:g}, too few for a tail;"
                f" wall p50 {wall:.3f} ms"
            )
            continue
        metrics[f"{cmd}_tail_ms"] = (value, "ms")
        lines.append(
            f"{cmd}: {len(samples)} samples, tail is p{pct:g} with {beyond} beyond;"
            f" wall p50 {wall:.3f} ms"
        )
    return metrics


def per_layer_metrics(bench: Bench, lines: list[str]) -> dict:
    """Layer times are scaled seconds per traced operation; counts are
    totals over the workload's models."""
    records = bench.timed
    ranges = [(r.first_span, r.end_span, bench.speed.factor(r.bracket)) for r in records]
    total, own, calls = spans.summarise(bench.tracer.spans, ranges)
    ops = len(records)
    metrics = {f"{name}_s": (total.get(name, 0.0) / ops, "s") for name in LAYER_TIMES}
    rounds = sum(
        bench.counts.get(r.index, {}).get("equivalence.rounds", 0)
        for r in records
        if r.cmd != "minimise"
    )
    fixpoint = total.get("equivalence.fixpoint", 0.0)
    metrics["equivalence.s_per_round"] = (fixpoint / rounds if rounds else 0.0, "s/round")
    metrics["cli.self_s"] = (sum(own.get(f"cli.{cmd}", 0.0) for cmd in COMMANDS) / ops, "s")
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}_self_s"] = (own.get(f"cli.{cmd}", 0.0) / ops, "s")
    for name, value in bench.count_totals(COUNTS_FROM_OUTPUT + COUNTS_FROM_SPANS).items():
        metrics[name] = (value, "bytes" if name.endswith("_bytes") else "count")
    # Tracing overhead: the spans in the timed region, at the measured
    # cost of one span, over the time the operations would have taken
    # without them.  The DOT span is outside the timed region.
    span_calls = sum(n for name, n in calls.items() if name != "minimise.dot")
    bench.speed.take()
    bracket = bench.speed.bracket()
    cost_ns = spans.span_cost_ns()
    bench.speed.take()
    added_ms = span_calls * cost_ns * bench.speed.factor(bracket) / 1e6
    traced_ms = sum(bench.scaled_ms(r) for r in records)
    metrics["trace.overhead_share"] = (added_ms / (traced_ms - added_ms), "share")
    lines.append(
        f"traced operations {ops}, span calls {span_calls}, {cost_ns:.0f} ns per span"
    )
    if bench.tracer.absent:
        lines.append("absent: " + ", ".join(sorted(set(bench.tracer.absent))) + " (reported as 0)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctsmin" / "cli.py").is_file() or not (
        ROOT / "tests" / "corpus.py"
    ).is_file():
        print(f"no ctsmin source checkout at {ROOT}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli, models, paths, *setup_s = setup(args.workload, args.seed, work)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.prepare()
        bench = Bench(cli, models, paths, tracer)
        gc.collect()
        bench.loop(args.seconds)
        bench.complete()
        problems, note = compare_reference(bench, args.workload, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    lines = [f"workload {args.workload} seed {args.seed}: {len(models)} models, {note}"]
    if tracer is None:
        metrics = end_to_end_metrics(
            bench, setup_s, workloads.TAIL_PERCENTILE[args.workload], lines
        )
    else:
        metrics = per_layer_metrics(bench, lines)
    lines.extend(bench.failures)
    lines.extend(problems)
    for line in lines:
        print(line)
    attempted = sum(bench.attempted.values())
    failed = sum(bench.failed.values())
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
