"""Command-line interface.

Every command reads a contract file (``-`` for stdin) except ``gen``, which
writes one.  A command only computes its answer: an exit code, a JSON
payload and a callable that builds its text lines.  :func:`main` is the one
place that writes to stdout: with ``--json`` (before or after the command
name) it prints the payload as a single JSON object with sorted keys,
otherwise it builds and prints the text lines.

Exit codes: 0 for success (and "yes" answers), 1 for clean "no" answers
(check-trace, agree, validate findings), 2 for usage and parse errors, 3 for
precondition violations such as asking a conflict-sensitive question about a
conflicted contract.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Callable
from pathlib import Path

from . import dsl, game, gen, logic, oracle
from .model import ContractSpec, PreconditionError, SpecError, _unknown_event, check_play


def _read_text(path: str) -> str:
    """The text of *path* (``-`` for stdin); unreadable input raises ``OSError``."""
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else repr(path)
        raise OSError(f"{name} is not UTF-8 text: {exc}") from exc


def _read_spec(path: str) -> ContractSpec:
    return dsl.parse(_read_text(path))


def _event_list(text: str) -> tuple[str, ...]:
    if not text.strip():
        return ()
    items = tuple(item.strip() for item in text.split(","))
    if "" in items:
        raise PreconditionError(f"empty entry in the event list {text!r}")
    return items


def _fmt_play(seq: tuple[str, ...]) -> str:
    return ",".join(seq) if seq else "(empty)"


def _fmt_set(events: frozenset[str]) -> str:
    return " ".join(sorted(events)) if events else "(empty)"


# --- commands --------------------------------------------------------------

# A command's answer: exit code, JSON payload, and its text lines on demand.
Answer = tuple[int, dict, Callable[[], list[str]]]


def _theory(args: argparse.Namespace) -> logic.HornTheory:
    return logic.theory_of(_read_spec(args.file))


def _set_answer(key: str, items: frozenset[str]) -> Answer:
    """A set, one item per line (text) or as ``{key: [...]}`` (JSON)."""
    ordered = sorted(items)
    return 0, {key: ordered}, lambda: ordered


def _traces_answer(traces: frozenset[tuple[str, ...]]) -> Answer:
    """Traces in shortlex order, one per line or as ``{"traces": [...]}``."""
    ordered = sorted(traces, key=lambda t: (len(t), t))
    payload = {"traces": [list(t) for t in ordered]}
    return 0, payload, lambda: [" ".join(t) if t else "(empty)" for t in ordered]


def _verdict_answer(result: game.GameVerdict) -> Answer:
    """The verdict rows of a finished play, shared by ``verdict`` and ``simulate``."""
    rows = result.participants
    payload = {
        "play": list(result.play),
        "participants": {
            p: {"innocent": row.innocent, "credit_free": row.credit_free, "wins": row.wins}
            for p, row in rows.items()
        },
    }

    def lines() -> list[str]:
        yn = {True: "yes", False: "no"}
        return [
            f"{p}: innocent={yn[row.innocent]} credit_free={yn[row.credit_free]}"
            f" wins={yn[row.wins]}"
            for p, row in sorted(rows.items())
        ]

    return 0, payload, lines


def _cmd_validate(args: argparse.Namespace) -> Answer:
    spec, diags = dsl.analyze(_read_text(args.file))
    ok = spec is not None
    payload = {
        "ok": ok,
        "diagnostics": [
            {"code": d.code, "message": d.message, "line": d.line, "column": d.column}
            for d in diags
        ],
    }
    return (0 if ok else 1), payload, lambda: (["ok"] if ok else [d.render() for d in diags])


def _cmd_prove(args: argparse.Namespace) -> Answer:
    return _set_answer("provable", logic.provable_atoms(_theory(args)))


def _cmd_traces(args: argparse.Namespace) -> Answer:
    return _traces_answer(logic.proof_traces(_theory(args), max_count=args.max))


def _cmd_check_trace(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    trace = _event_list(args.trace)
    # An unknown event is refused by position, as check_play refuses it; a
    # repeated one is a clean "no".
    for i, event in enumerate(trace):
        if event not in spec.events:
            raise _unknown_event(i, event)
    ok = logic.is_proof_trace(logic.theory_of(spec), trace)
    return (0 if ok else 1), {"is_trace": ok}, lambda: ["yes" if ok else "no"]


def _past(spec: ContractSpec, text: str) -> tuple[str, ...]:
    """The ``--past`` events as a play of *spec*: a repeated or unknown event
    is refused by position, as ``strategy`` and ``oracle prudence`` refuse it."""
    return check_play(spec, _event_list(text))


def _cmd_urgent(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    past = _past(spec, args.past)
    return _set_answer("urgent", logic.urgent_atoms(logic.theory_of(spec), past))


def _cmd_prudent(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    return _set_answer("prudent", game.prudent_events(spec, _past(spec, args.past)))


def _cmd_reachable(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    return _set_answer("reachable", game.reachable(spec, _past(spec, args.past)))


def _cmd_credits(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    play = _event_list(args.play)
    ledger = game.credits(spec, play)
    payload = {
        "play": list(play),
        "per_prefix": [sorted(c) for c in ledger.per_prefix],
        "final": sorted(ledger.final),
    }
    return 0, payload, lambda: [
        f"after {_fmt_play(play[:i])}: {_fmt_set(c)}" for i, c in enumerate(ledger.per_prefix)
    ]


def _cmd_verdict(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    return _verdict_answer(game.verdict(spec, _event_list(args.play)))


def _cmd_agree(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    yes = game.agreement(spec)
    provable = game.provable_events(spec)
    payload = {"agreement": yes, "provable": sorted(provable)}
    return (0 if yes else 1), payload, lambda: [
        f"agreement: {'yes' if yes else 'no'}",
        f"provable: {_fmt_set(provable)}",
    ]


def _cmd_strategy(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    strat = game.synthesize_strategy(spec, args.participant)
    past = _event_list(args.past)
    offers = sorted(strat.offers(past))
    payload = {"participant": args.participant, "past": list(past), "offers": offers}
    return 0, payload, lambda: offers


def _cmd_simulate(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    strategies = [game.synthesize_strategy(spec, p) for p in sorted(spec.participants)]
    _, result = game.simulate(spec, strategies, seed=args.seed)
    code, payload, rows = _verdict_answer(result)
    payload["seed"] = args.seed
    return code, payload, lambda: [f"play: {_fmt_play(result.play)}", *rows()]


def _cmd_encode(args: argparse.Namespace) -> Answer:
    encoded = logic.encode_urgency(_theory(args))
    payload = {
        "atoms": sorted(encoded.atoms),
        "clauses": [
            {"head": c.head, "body": sorted(c.body), "kind": c.kind}
            for c in sorted(encoded.clauses, key=lambda c: (c.head, c.kind, sorted(c.body)))
        ],
    }
    return 0, payload, lambda: [dsl.print_spec(logic.spec_of(encoded)).rstrip("\n")]


def _parse_cells(text: str) -> list[tuple[int, int]]:
    cells = []
    for item in map(str.strip, text.split(",") if text.strip() else ()):
        i, dot, j = item.partition(".")
        if not dot or not i.isdigit() or not j.isdigit():
            raise SpecError(f"bad cell {item!r}; expected row.col like 2.3")
        cells.append((int(i), int(j)))
    return cells


def _cmd_gen(args: argparse.Namespace) -> Answer:
    circular = None if args.circular == "all" else _parse_cells(args.circular)
    text = dsl.print_spec(gen.shy_dancers(args.n, circular))
    return 0, {"text": text}, lambda: [text.rstrip("\n")]


def _cmd_oracle_prove(args: argparse.Namespace) -> Answer:
    theory = _theory(args)
    provable = oracle.nd_derivable(theory)
    return _set_answer("provable", provable)


def _cmd_oracle_traces(args: argparse.Namespace) -> Answer:
    return _traces_answer(oracle.traces_bruteforce(_theory(args)))


def _cmd_oracle_prudence(args: argparse.Namespace) -> Answer:
    spec = _read_spec(args.file)
    return _set_answer("prudent", oracle.prudence_bruteforce(spec, _event_list(args.past)))


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacta",
        description="Analyse contracts with circular enabling: provability, "
        "proof traces, prudence, credits, agreements, and strategies.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a single JSON object instead of text"
    )
    # SUPPRESS: an absent per-command flag leaves the global one's value alone.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str | None = None, into=sub):
        """A command on one contract file; the oracle commands carry no help."""
        listed = {"help": help_text} if help_text else {}
        p = into.add_parser(name, parents=[common], **listed)
        p.add_argument("file", help="contract file, or - for stdin" if help_text else None)
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "check a contract file, reporting all findings")
    add("prove", _cmd_prove, "atoms provable from the contract's clauses")
    p = add("traces", _cmd_traces, "enumerate proof traces (shortlex order)")
    p.add_argument("--max", type=int, default=None, help="emit at most this many traces")
    p = add("check-trace", _cmd_check_trace, "is the given sequence a proof trace?")
    p.add_argument("--trace", required=True, help="comma-separated events ('' for empty)")
    for name, func, help_text in (
        ("urgent", _cmd_urgent, "atoms performable right after the given past"),
        ("prudent", _cmd_prudent, "events prudently performable after the given past"),
        ("reachable", _cmd_reachable, "events obtainable on credit from the given past"),
    ):
        p = add(name, func, help_text)
        p.add_argument("--past", default="", help="comma-separated events already done")
    p = add("credits", _cmd_credits, "credit ledger of a play, prefix by prefix")
    p.add_argument("--play", required=True, help="comma-separated events in order")
    p = add("verdict", _cmd_verdict, "judge a finished play participant by participant")
    p.add_argument("--play", required=True, help="comma-separated events in order")
    add("agree", _cmd_agree, "can prudent cooperation satisfy every payoff?")
    p = add("strategy", _cmd_strategy, "offers of the synthesized prudent strategy")
    p.add_argument("--participant", required=True)
    p.add_argument("--past", default="", help="play so far, comma-separated")
    p = add("simulate", _cmd_simulate, "run synthesized strategies to quiescence")
    p.add_argument("--seed", type=int, default=0)
    add("encode", _cmd_encode, "compile the contract's theory into urgency tags")

    p = sub.add_parser("gen", parents=[common], help="generate a contract family")
    gen_sub = p.add_subparsers(dest="family", required=True)
    dancers = gen_sub.add_parser("shy-dancers", parents=[common])
    dancers.add_argument("--n", type=int, required=True, help="grid side length")
    dancers.add_argument(
        "--circular",
        default="all",
        help="'all' or comma-separated cells like 1.1,2.3",
    )
    dancers.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", parents=[common], help="brute-force reference answers")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    add("prove", _cmd_oracle_prove, into=oracle_sub)
    add("traces", _cmd_oracle_traces, into=oracle_sub)
    o = add("prudence", _cmd_oracle_prudence, into=oracle_sub)
    o.add_argument("--past", default="", help="play so far, comma-separated")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The whole command (argument parsing, load, index, answer, output) runs
    with the cyclic garbage collector paused: a contract's values and its
    index hold no reference cycles, so the collector would only rescan them
    while they are built.  The one cyclic garbage a command leaves is the
    argparse tree of :func:`build_parser`, a fixed few hundred objects
    whatever the input.  The collector is switched back on at every exit,
    an escaping exception included, if it was on when ``main`` was called.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, payload, lines = args.func(args)
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in lines():
                print(line)
        return code
    except dsl.ParseError as exc:
        for d in exc.diagnostics:
            print(d.render(), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
