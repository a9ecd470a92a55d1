"""Spans around the public entry points of every ``pacta`` layer.

Tracing is done from outside the program: :func:`instrument` replaces the
listed functions and methods (and the names other modules imported) with
wrappers that record a span per call, and puts the originals back on exit.
A span is ``[name, start, end, parent index, query id, info]``, kept in
memory and written out by the caller.  Nothing is patched unless the
benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from pacta import cli, dsl, game, gen, logic, model, oracle

NAME, START, END, PARENT, QID, INFO = range(6)


def _steps(result) -> int:
    """Scheduler rounds of one ``simulate`` call: one per move plus the last."""
    return len(result[0]) + 1


# (span name, owner objects whose attribute is replaced, attribute, info hook)
TARGETS = (
    ("cli.build_parser", (cli,), "build_parser", None),
    ("cli.main", (cli,), "main", None),
    ("dsl.parse", (dsl,), "parse", None),
    ("dsl.analyze", (dsl,), "analyze", None),
    ("dsl.print_spec", (dsl,), "print_spec", None),
    ("model.validate", (model, dsl), "validate", None),
    ("model.check_play", (model, game, oracle), "check_play", None),
    ("game.RuleIndex.build", (game.RuleIndex,), "__init__", None),
    ("game.closure", (game.RuleIndex,), "closure", None),
    ("game.credit_closure", (game.RuleIndex,), "credit_closure", None),
    ("game.next_events", (game.RuleIndex,), "next_events", None),
    ("game.provable", (game.RuleIndex,), "provable", None),
    ("game.credits", (game,), "credits", None),
    ("game.verdict", (game,), "verdict", None),
    ("game.simulate", (game,), "simulate", _steps),
    ("logic.encode_urgency", (logic,), "encode_urgency", None),
    ("logic.urgent_atoms", (logic,), "urgent_atoms", None),
    ("logic.proof_traces", (logic,), "proof_traces", None),
    ("logic.is_proof_trace", (logic,), "is_proof_trace", None),
    ("logic.interleave", (logic,), "interleave", None),
    ("oracle.nd_provable", (oracle,), "nd_provable", None),
    ("oracle.prudence_bruteforce", (oracle,), "prudence_bruteforce", None),
    ("oracle.traces_bruteforce", (oracle,), "traces_bruteforce", None),
    ("gen.shy_dancers", (gen,), "shy_dancers", None),
)


class Tracer:
    """Collects spans; ``qid`` names the query that new spans belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid: str | None = None

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(result)
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Patch every target to record into *tracer*; restore on exit."""
    saved = []
    try:
        for name, owners, attr, info in TARGETS:
            original = getattr(owners[0], attr)
            wrapper = tracer.wrap(name, original, info)
            for owner in owners:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_spans(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for i, (name, start, end, parent, qid, info) in enumerate(spans):
            record = {"id": i, "name": name, "start": start, "end": end,
                      "parent": parent, "query": qid}
            if info is not None:
                record["info"] = info
            out.write(json.dumps(record) + "\n")


def call_counts(spans: list[list]) -> Counter:
    """Calls per (query, span name): the numbers that must repeat exactly."""
    return Counter((s[QID], s[NAME]) for s in spans)


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    last = metric.rsplit(".", 1)[1]
    if last.endswith("ms"):
        return "ms"
    return "count" if last in ("calls", "builds") else "ratio"


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, times and ratios derived from span parentage.

    ``.ms`` is inclusive time of the outermost spans of that name, ``.self_ms``
    subtracts the time covered by child spans.
    """
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    child_calls: Counter = Counter()  # (parent name, child name) -> calls
    queries: defaultdict = defaultdict(set)
    steps = 0
    for s in spans:
        name, start, end, parent = s[NAME], s[START], s[END], s[PARENT]
        duration = end - start
        calls[name] += 1
        queries[name].add(s[QID])
        self_time[name] += duration
        if parent >= 0:
            pname = spans[parent][NAME]
            self_time[pname] -= duration
            child_calls[(pname, name)] += 1
        if not _nested_in_same(spans, s):
            total[name] += duration
        if name == "game.simulate":
            steps += s[INFO]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.build_parser.ms": _ms(total["cli.build_parser"]),
        "cli.main.self_ms": _ms(self_time["cli.main"]),
        "dsl.parse.ms": _ms(total["dsl.parse"]),
        "dsl.analyze.ms": _ms(total["dsl.analyze"]),
        "dsl.print_spec.ms": _ms(total["dsl.print_spec"]),
        "model.validate.ms": _ms(total["model.validate"]),
        "model.check_play.calls": calls["model.check_play"],
        "model.check_play.ms": _ms(total["model.check_play"]),
        "game.RuleIndex.builds": calls["game.RuleIndex.build"],
        "game.RuleIndex.build_ms": _ms(total["game.RuleIndex.build"]),
        "game.provable.calls_per_query": ratio(calls["game.provable"],
                                               len(queries["game.provable"])),
        "game.provable.rounds_per_call": ratio(child_calls[("game.provable", "game.next_events")],
                                               calls["game.provable"]),
        "game.credit_closure.calls": calls["game.credit_closure"],
        "game.credit_closure.self_ms": _ms(self_time["game.credit_closure"]),
        "game.credit_closure.passes_per_call": ratio(
            child_calls[("game.credit_closure", "game.closure")], calls["game.credit_closure"]),
        "game.closure.calls": calls["game.closure"],
        "game.closure.self_ms": _ms(self_time["game.closure"]),
        "game.next_events.calls": calls["game.next_events"],
        "game.next_events.self_ms": _ms(self_time["game.next_events"]),
        "game.simulate.next_events_per_step": ratio(
            child_calls[("game.simulate", "game.next_events")], steps),
        "game.credits.ms": _ms(total["game.credits"]),
        "game.verdict.ms": _ms(total["game.verdict"]),
        "logic.encode_urgency.calls": calls["logic.encode_urgency"],
        "logic.encode_urgency.ms": _ms(total["logic.encode_urgency"]),
        "logic.encode_urgency.per_urgent_call": ratio(
            child_calls[("logic.urgent_atoms", "logic.encode_urgency")],
            calls["logic.urgent_atoms"]),
        "logic.urgent_atoms.ms": _ms(total["logic.urgent_atoms"]),
        "logic.is_proof_trace.ms": _ms(total["logic.is_proof_trace"]),
        "logic.proof_traces.ms": _ms(total["logic.proof_traces"]),
        "logic.interleave.calls": calls["logic.interleave"],
        "logic.interleave.ms": _ms(total["logic.interleave"]),
        "oracle.nd_provable.ms": _ms(total["oracle.nd_provable"]),
        "oracle.prudence_bruteforce.ms": _ms(total["oracle.prudence_bruteforce"]),
        "oracle.traces_bruteforce.ms": _ms(total["oracle.traces_bruteforce"]),
        "gen.shy_dancers.ms": _ms(total["gen.shy_dancers"]),
    }


def _nested_in_same(spans: list[list], span: list) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == span[NAME]:
            return True
        parent = spans[parent][PARENT]
    return False
