#!/usr/bin/env python3
"""One-command benchmark for pacta.

    python3 perfbench/run.py --workload agree-ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark generates its inputs from
``--seed``, writes them as contract files under ``.perfbench/``, and sends
the workload's fixed query list through ``pacta.cli.main(argv)`` in this
process, one query after another (a closed loop with one client), until
``--seconds`` have passed.  Every answer is checked against a reference that
does not come from the timed code.  It prints a readable report and, as its
last line, one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.

String hashing is pinned (the script re-executes itself once with
``PYTHONHASHSEED`` set): set iteration order decides some of the program's
call counts and costs, so that the same inputs give the same counts in every
run, and the seed moves only the inputs.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

HASH_SEED = "0"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Time of :func:`calibrate` on an unloaded core of the machine the
#: benchmark was built on (2-core x86-64 VM, CPython 3.11).
REFERENCE_KERNEL_S = 0.00125

#: Runs per pass of the largest headline query, which gives ``top_ms``: being
#: the slowest, it would otherwise get the fewest repeats.
TOP_REPEATS = 4

#: Seconds between calibration probes in the timed loop.
PROBE_EVERY_S = 0.025

#: Per-query call counts printed by the traced run (they are pinned by tests).
COUNT_PROBES = {
    "agree cascade m=80": ("game.provable", "game.credit_closure", "game.closure"),
    "simulate dancers n=8": ("game.next_events",),
    "check-trace circular n=4 yes": ("logic.interleave",),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark pacta end to end.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# --- machine speed ------------------------------------------------------------------


def calibrate() -> int:
    """A fixed kernel of the kind of work a pacta query does, touching no
    pacta code: build and use an argparse parser, close sets over
    frozenset bodies, split clause-like text."""
    parser = argparse.ArgumentParser(prog="kernel")
    commands = parser.add_subparsers(dest="command")
    for i in range(8):
        command = commands.add_parser(f"c{i}", help="command")
        command.add_argument("file")
        command.add_argument("--past", default="")
    parser.parse_args(["c3", "file", "--past", "a,b,c"])
    names = [f"k{i}" for i in range(48)]
    bodies = [frozenset(names[i:i + 4]) for i in range(45)]
    reached: set[str] = set()
    table = {}
    for rounds in range(40):
        reached.clear()
        for body in bodies:
            if not body.isdisjoint(reached) or rounds % 3 == 0:
                reached |= body
            table[body] = len(reached)
    text = "\n".join(f"clause {a} <- {b}, {a}" for a, b in zip(names, names[1:]))
    return len(table) + sum(len(line.split("<-")[1].split(",")) for line in text.splitlines())


class Speed:
    """Times :func:`calibrate` between queries.

    The machine the benchmark was built on is shared: for seconds at a time,
    sometimes for a whole run, it executes the same code up to twice as
    slowly.  :meth:`rescale` converts a time measured between two probes to
    the speed at which the kernel takes ``REFERENCE_KERNEL_S``.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        start = perf_counter()
        calibrate()
        end = perf_counter()
        self.ends.append(end)
        self.took.append(end - start)

    def maybe_probe(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def rescale(self, start: float, elapsed: float) -> float:
        """*elapsed* seconds measured from *start*, scaled by the faster of
        the probes just before and just after."""
        i = bisect.bisect(self.ends, start)
        return elapsed * REFERENCE_KERNEL_S / min(self.took[max(i - 1, 0):i + 1])


# --- running queries -------------------------------------------------------------


def run_query(cli, workloads, query) -> tuple[float, str | None]:
    """Time one query; return seconds and None, or a reason it failed.

    An exception escaping ``cli.main`` is a failure like a wrong answer.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(query.argv))
        except Exception:
            elapsed = perf_counter() - start
            last = traceback.format_exc().strip().splitlines()[-1]
            return elapsed, f"exception escaped cli.main: {last}"
        elapsed = perf_counter() - start
    return elapsed, workloads.check(query, code, out.getvalue())


class Outcomes:
    """Attempted and failed queries, with the first reason per query."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, str] = {}

    def record(self, qid: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.setdefault(qid, reason)


def warm_up(cli, workloads, queries) -> None:
    """Run the first query of each command once, untimed and unchecked."""
    seen = set()
    for q in queries:
        if q.command not in seen:
            seen.add(q.command)
            run_query(cli, workloads, q)


def setup(cli, workloads, workload: str, seed: int, directory: Path):
    if directory.exists():
        shutil.rmtree(directory)
    queries = workloads.build(workload, seed, directory)
    qids = [q.qid for q in queries]
    if len(set(qids)) != len(qids):
        raise ValueError("query ids must be unique")
    warm_up(cli, workloads, queries)
    return queries


def timed_loop(cli, workloads, queries, seconds: float, rng: Random, speed: Speed):
    """Closed loop over shuffled passes until *seconds* have passed; the
    first pass always completes, so every query has at least one sample.
    Returns every query's times, rescaled by *speed*."""
    measured: list[tuple[str, float, float]] = []
    outcomes = Outcomes()
    top = max((q for q in queries if q.family == "headline"), key=lambda q: q.size)
    speed.probe()
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        order = list(queries) + [top] * (TOP_REPEATS - 1)
        rng.shuffle(order)
        for q in order:
            if passes and perf_counter() >= deadline:
                break
            start = perf_counter()
            elapsed, reason = run_query(cli, workloads, q)
            measured.append((q.qid, start, elapsed))
            outcomes.record(q.qid, reason)
            speed.maybe_probe()
        passes += 1
    speed.probe()
    samples: dict[str, list[float]] = defaultdict(list)
    for qid, start, elapsed in measured:
        samples[qid].append(speed.rescale(start, elapsed))
    return samples, outcomes, passes


# --- end-to-end metrics ------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The value at the highest percentile with at least ten values beyond it,
    with that percentile and the count beyond (fewer if there are too few)."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def end_to_end(queries, samples, setup_times, workloads, workload):
    """Each query's time to verdict is the median of its rescaled repeats;
    the metrics aggregate those per-query times over the workload's fixed
    query list."""
    per_query = {q.qid: statistics.median(samples[q.qid]) for q in queries}
    values = list(per_query.values())
    tail_value, tail_pct, beyond = tail(values)
    ladder = sorted((q.size, per_query[q.qid], q.qid) for q in queries if q.family == "headline")
    n_samples = sum(len(s) for s in samples.values())
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "queries_per_s": (len(queries) / sum(values), "1/s",
                          f"{len(queries)} queries over the sum of their times"),
        "latency_p50_ms": (statistics.median(values) * 1e3, "ms",
                           f"median of {len(values)} per-query times, {n_samples} samples"),
        "latency_tail_ms": (tail_value * 1e3, "ms",
                            f"p{tail_pct:.1f} of {len(values)} per-query times, "
                            f"{beyond} beyond"),
        "top_ms": (ladder[-1][1] * 1e3, "ms", ladder[-1][2]),
        "time_exp": (slope([s for s, _, _ in ladder], [t for _, t, _ in ladder]), "1",
                     f"{workloads.HEADLINE[workload]}, sizes "
                     f"{', '.join(str(s) for s, _, _ in ladder)}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "whole process"),
    }


# --- traced run ----------------------------------------------------------------------


def traced_run(cli, workloads, tracer_mod, workload, seed, directory):
    """Set up and run one pass traced, alternating with untraced passes, and a
    second traced pass whose call counts must equal the first's; then run the
    workload's count probes traced."""
    tracer = tracer_mod.Tracer()
    with tracer_mod.instrument(tracer):
        tracer.qid = "setup"
        queries = setup(cli, workloads, workload, seed, directory)
    outcomes = Outcomes()

    def one_pass(t=None) -> float:
        start = perf_counter()
        for q in queries:
            if t is not None:
                t.qid = q.qid
            outcomes.record(q.qid, run_query(cli, workloads, q)[1])
        return perf_counter() - start

    # Untraced and traced passes alternate, so that drift and warm-up
    # weigh on both sides of the overhead ratio alike.
    plain = one_pass()
    setup_spans = len(tracer.spans)
    with tracer_mod.instrument(tracer):
        traced = one_pass(tracer)
    plain += one_pass()
    again = tracer_mod.Tracer()
    with tracer_mod.instrument(again):
        traced += one_pass(again)
    first = tracer_mod.call_counts(tracer.spans[setup_spans:])
    second = tracer_mod.call_counts(again.spans)
    if first != second:
        differing = sorted({k for k in first.keys() | second.keys() if first[k] != second[k]})
        outcomes.failed += 1
        outcomes.reasons["trace counts"] = f"counts differ between traced passes: {differing[:3]}"
    metrics = tracer_mod.layer_metrics(tracer.spans)
    metrics["trace.overhead_ratio"] = traced / plain
    with tracer_mod.instrument(tracer):
        for q in workloads.probes(workload, directory):
            tracer.qid = q.qid
            outcomes.record(q.qid, run_query(cli, workloads, q)[1])
    counts = tracer_mod.call_counts(tracer.spans)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.jsonl"
    tracer_mod.write_spans(tracer.spans, spans_path)
    probes = [
        f"  {qid}: " + ", ".join(f"{name} {counts[(qid, name)]}" for name in names)
        for qid, names in COUNT_PROBES.items()
        if any(key[0] == qid for key in counts)
    ]
    return metrics, outcomes, spans_path, probes


# --- main ------------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "pacta" / "__init__.py").is_file():
        return fail(f"no pacta sources under {SRC}; run from a checkout of the repository")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)

    sys.path.insert(0, str(SRC))
    import pacta
    from pacta import cli

    if Path(pacta.__file__).resolve().parent != SRC / "pacta":
        return fail(f"imported pacta from {pacta.__file__}, not from {SRC}")
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.BUILDERS:
        return fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.BUILDERS)}")

    directory = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, outcomes, spans_path, probes = traced_run(
                cli, workloads, tracer_mod, args.workload, args.seed, directory)
            rows = {name: (value, tracer_mod.unit(name), "") for name, value in metrics.items()}
            header = f"traced run, spans in {spans_path.relative_to(ROOT)}"
        else:
            speed = Speed()
            setup_times = []
            for _ in range(SETUPS):
                speed.probe()
                start = perf_counter()
                queries = setup(cli, workloads, args.workload, args.seed, directory)
                elapsed = perf_counter() - start
                speed.probe()
                setup_times.append(speed.rescale(start, elapsed))
            # The benchmark's own objects stay out of the collector's way.
            gc.collect()
            gc.freeze()
            samples, outcomes, passes = timed_loop(
                cli, workloads, queries, args.seconds, Random(f"order:{args.seed}"), speed)
            rows = end_to_end(queries, samples, setup_times, workloads, args.workload)
            header = (f"{len(queries)} queries, {passes} passes, {len(speed.took)} calibration "
                      f"probes (median {statistics.median(speed.took) * 1e3:.3f} ms)")
            probes = []
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"pacta benchmark: workload {args.workload}, seed {args.seed}, {header}")
    for name, (value, unit, note) in rows.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'fail_ratio':40s} {outcomes.failed / max(outcomes.attempted, 1):14.6g} "
          f"{'ratio':6s} {outcomes.failed} failed of {outcomes.attempted} attempted")
    if probes:
        print("per-query counts:")
        print("\n".join(probes))
    for qid, reason in sorted(outcomes.reasons.items()):
        print(f"FINDING {qid}: {reason}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
