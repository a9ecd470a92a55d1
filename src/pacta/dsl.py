"""Line-oriented contract files: parsing and canonical printing.

The format is one directive per line, with ``#`` comments:

```
agent A owns pay_a          # participants; 'owns' lists events explicitly
agent B
clause ship <- pay_a        # standard: body must already have happened
clause pay_a <<- ship       # circular: body may still be pending
clause kickoff              # empty body: unconditionally enabled
conflict ship refund        # at most one of the two can ever occur
payoff A goal {ship}
payoff B offers {ship} requests {pay_a}   # repeatable, pairs accumulate
```

A clause head that was not explicitly owned is assigned to the most recent
``agent`` line above its first occurrence.  Events that only ever occur in
bodies, conflicts, or payoffs must be declared via ``owns`` — silently
inventing events is how typos survive, so it is an error.  ``↠`` is accepted
as an alias for ``<<-`` on input; the printer always emits ``<-``/``<<-``.

The printer output is canonical (everything sorted, ownership explicit) and
parses back to an equal specification.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    CIRCULAR,
    NAME_RE,
    STANDARD,
    Clause,
    ContractSpec,
    Diagnostic,
    GoalPayoff,
    OfferRequestPayoff,
    SpecError,
    is_reserved_name,
    validate,
)


class ParseError(SpecError):
    """Raised by :func:`parse`; carries the diagnostics in ``diagnostics``."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        text = "\n".join(d.render() for d in self.diagnostics) or "parse error"
        super().__init__(text)


_GOAL_RE = re.compile(r"goal\s*\{([^{}]*)\}\s*", re.A)
_PAIRS_SHAPE_RE = re.compile(r"(?:\s*offers\s*\{[^{}]*\}\s*requests\s*\{[^{}]*\})+\s*", re.A)
_PAIR_RE = re.compile(r"offers\s*\{([^{}]*)\}\s*requests\s*\{([^{}]*)\}", re.A)


@dataclass
class _PayoffLine:
    participant: str
    form: str  # "goal" | "pairs"
    goal: frozenset[str]
    pairs: list[tuple[frozenset[str], frozenset[str]]]
    lineno: int


def analyze(text: str) -> tuple[ContractSpec | None, list[Diagnostic]]:
    """Parse *text*, returning the spec or every problem found (never both)."""
    diags: list[Diagnostic] = []

    def report(code: str, message: str, lineno: int, col: int | None = None) -> None:
        diags.append(Diagnostic(code, message, lineno, col))

    named: set[str] = set()  # tokens NAME_RE has accepted in this call

    def good_name(token: str, lineno: int, line: str | None = None) -> bool:
        """Check *token*; a finding gets the column of *token* in *line*, if given."""
        if token in named:
            return True
        if NAME_RE.match(token):
            named.add(token)
            return True
        code = "reserved-identifier" if is_reserved_name(token) else "bad-identifier"
        col = None if line is None else line.index(token) + 1
        report(code, f"{token!r} is not a valid name", lineno, col)
        return False

    participants: set[str] = set()
    explicit_owner: dict[str, str] = {}
    # (clause, body in file order, line, agent block active at that line)
    clause_lines: list[tuple[Clause, tuple[str, ...], int, str | None]] = []
    conflict_lines: list[tuple[str, str, int]] = []
    payoff_lines: list[_PayoffLine] = []
    active_agent: str | None = None

    for lineno, raw in enumerate(text.lstrip("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(None, 1)
        directive = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""

        if directive == "agent":
            tokens = rest.split()
            if not tokens:
                report("bad-agent", "agent needs a name", lineno)
                continue
            name = tokens[0]
            if not good_name(name, lineno, line):
                continue
            participants.add(name)
            active_agent = name
            if len(tokens) > 1:
                if tokens[1] != "owns" or len(tokens) == 2:
                    report(
                        "bad-agent",
                        "expected 'owns' followed by events",
                        lineno,
                    )
                    continue
                for ev in tokens[2:]:
                    if not good_name(ev, lineno):
                        continue
                    previous = explicit_owner.get(ev)
                    if previous is not None and previous != name:
                        report(
                            "ownership-conflict",
                            f"event {ev!r} already owned by {previous!r}",
                            lineno,
                        )
                    else:
                        explicit_owner[ev] = name

        elif directive == "clause":
            kind = STANDARD
            head_text, body_text = rest, None
            for symbol, sym_kind in (("<<-", CIRCULAR), ("↠", CIRCULAR), ("<-", STANDARD)):
                at = rest.find(symbol)
                if at != -1:
                    head_text = rest[:at].strip()
                    body_text = rest[at + len(symbol):].strip()
                    kind = sym_kind
                    break
            if not head_text or " " in head_text or "\t" in head_text:
                report("bad-clause", "clause needs a single head event", lineno)
                continue
            if not good_name(head_text, lineno, line):
                continue
            body: list[str] = []
            if body_text not in (None, "", "true"):
                ok = True
                for item in body_text.split(","):
                    item = item.strip()
                    if not item:
                        report("bad-clause", "empty entry in clause body", lineno)
                        ok = False
                    elif not good_name(item, lineno):
                        ok = False
                    else:
                        body.append(item)
                if not ok:
                    continue
            clause_lines.append(
                (Clause(head_text, body, kind), tuple(body), lineno, active_agent)
            )

        elif directive == "conflict":
            tokens = rest.split()
            if len(tokens) != 2:
                report("bad-conflict", "conflict needs exactly two events", lineno)
                continue
            if not all(good_name(t, lineno) for t in tokens):
                continue
            if tokens[0] == tokens[1]:
                report("self-conflict", f"event {tokens[0]!r} cannot conflict with itself", lineno)
                continue
            conflict_lines.append((tokens[0], tokens[1], lineno))

        elif directive == "payoff":
            pieces = rest.split(None, 1)
            name = pieces[0] if pieces else ""
            spec_text = pieces[1].strip() if len(pieces) > 1 else ""
            if not name or not spec_text:
                report("bad-payoff", "payoff needs a participant and a form", lineno)
                continue
            if not good_name(name, lineno, line):
                continue
            goal_match = _GOAL_RE.fullmatch(spec_text)
            if goal_match:
                events = goal_match.group(1).split()
                if all(good_name(ev, lineno) for ev in events):
                    payoff_lines.append(
                        _PayoffLine(name, "goal", frozenset(events), [], lineno)
                    )
                continue
            if _PAIRS_SHAPE_RE.fullmatch(spec_text):
                pairs: list[tuple[frozenset[str], frozenset[str]]] = []
                ok = True
                for offers_text, requests_text in _PAIR_RE.findall(spec_text):
                    offers = offers_text.split()
                    requests = requests_text.split()
                    if not all(good_name(ev, lineno) for ev in offers + requests):
                        ok = False
                        continue
                    pairs.append((frozenset(offers), frozenset(requests)))
                if ok:
                    payoff_lines.append(
                        _PayoffLine(name, "pairs", frozenset(), pairs, lineno)
                    )
                continue
            report(
                "bad-payoff",
                "expected 'goal {events}' or 'offers {events} requests {events}'",
                lineno,
            )

        else:
            report("unknown-directive", f"unknown directive {directive!r}", lineno)

    # --- ownership resolution -------------------------------------------
    owner: dict[str, str] = dict(explicit_owner)
    for clause, _, lineno, agent in clause_lines:
        if clause.head in owner:
            continue
        if agent is None:
            report(
                "no-active-agent",
                f"clause head {clause.head!r} appears before any agent",
                lineno,
            )
        else:
            owner[clause.head] = agent
    events = set(owner)

    def undeclared(names, lineno: int, role: str) -> None:
        for ev in names:
            if ev not in events:
                report(
                    "undeclared-event",
                    f"{role} uses {ev!r}, which is neither owned nor a clause head",
                    lineno,
                )

    clauses: set[Clause] = set()
    for clause, body, lineno, _ in clause_lines:
        if not clause.body <= events:
            undeclared(body, lineno, f"clause for {clause.head!r}")
        if clause in clauses:
            report("duplicate-clause", f"clause for {clause.head!r} repeated", lineno)
        clauses.add(clause)

    for e1, e2, lineno in conflict_lines:
        undeclared((e1, e2), lineno, "conflict")

    payoff_form: dict[str, str] = {}
    goals: dict[str, frozenset[str]] = {}
    pair_acc: dict[str, list[tuple[frozenset[str], frozenset[str]]]] = {}
    for pl in payoff_lines:
        if pl.participant not in participants:
            report(
                "unknown-participant",
                f"payoff for undeclared agent {pl.participant!r}",
                pl.lineno,
            )
            continue
        undeclared(sorted(pl.goal - events), pl.lineno, "payoff")
        for offers, requests in pl.pairs:
            undeclared(sorted((offers | requests) - events), pl.lineno, "payoff")
        before = payoff_form.get(pl.participant)
        if before is not None and before != pl.form:
            report(
                "mixed-payoff",
                f"payoff for {pl.participant!r} mixes goal and offers/requests forms",
                pl.lineno,
            )
            continue
        payoff_form[pl.participant] = pl.form
        if pl.form == "goal":
            if pl.participant in goals:
                report(
                    "duplicate-goal",
                    f"second goal payoff for {pl.participant!r}",
                    pl.lineno,
                )
                continue
            goals[pl.participant] = pl.goal
        else:
            pair_acc.setdefault(pl.participant, []).extend(pl.pairs)

    if diags:
        return None, diags

    payoffs: dict[str, GoalPayoff | OfferRequestPayoff] = {}
    for p, goal in goals.items():
        payoffs[p] = GoalPayoff(goal)
    for p, pairs in pair_acc.items():
        payoffs[p] = OfferRequestPayoff(tuple(pairs))

    spec = ContractSpec(
        events=events,
        participants=participants,
        owner=owner,
        clauses=clauses,
        conflicts=((e1, e2) for e1, e2, _ in conflict_lines),
        payoffs=payoffs,
    )
    residual = validate(spec)
    if residual:
        return None, residual
    return spec, []


def parse(text: str) -> ContractSpec:
    """Parse and validate a contract file; raise :class:`ParseError` on any problem."""
    spec, diags = analyze(text)
    if spec is None:
        raise ParseError(diags)
    return spec


_KIND_ORDER = {STANDARD: 0, CIRCULAR: 1}


def print_spec(spec: ContractSpec) -> str:
    """Render a valid spec canonically; the result parses back equal."""
    lines: list[str] = []
    owned: dict[str, list[str]] = {}
    for e, p in spec.owner.items():
        owned.setdefault(p, []).append(e)
    for p in sorted(spec.participants):
        events = sorted(owned.get(p, ()))
        suffix = f" owns {' '.join(events)}" if events else ""
        lines.append(f"agent {p}{suffix}")
    # The first three fields differ between distinct clauses, so the kind
    # itself is never compared; each body is sorted once.
    for head, _, body, kind in sorted(
        (c.head, _KIND_ORDER[c.kind], sorted(c.body), c.kind) for c in spec.clauses
    ):
        arrow = "<-" if kind == STANDARD else "<<-"
        if body:
            lines.append(f"clause {head} {arrow} {', '.join(body)}")
        elif kind == STANDARD:
            lines.append(f"clause {head}")
        else:
            lines.append(f"clause {head} {arrow} true")
    for pair in sorted(spec.conflicts, key=sorted):
        lines.append(f"conflict {' '.join(sorted(pair))}")
    for p in sorted(spec.payoffs):
        payoff = spec.payoffs[p]
        if isinstance(payoff, GoalPayoff):
            lines.append(f"payoff {p} goal {{{' '.join(sorted(payoff.goal))}}}")
        else:
            for offers, requests in payoff.pairs:
                lines.append(
                    f"payoff {p} offers {{{' '.join(sorted(offers))}}}"
                    f" requests {{{' '.join(sorted(requests))}}}"
                )
    return "\n".join(lines) + "\n"
