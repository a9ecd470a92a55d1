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


# One payoff form, whole: a goal, or the first offers/requests pair
# (groups 2 and 3) and the text of any further pairs (group 4).
_PAYOFF_RE = re.compile(
    r"goal\s*\{([^{}]*)\}\s*"
    r"|offers\s*\{([^{}]*)\}\s*requests\s*\{([^{}]*)\}"
    r"((?:\s*offers\s*\{[^{}]*\}\s*requests\s*\{[^{}]*\})*)\s*",
    re.A,
)
_PAIR_RE = re.compile(r"offers\s*\{([^{}]*)\}\s*requests\s*\{([^{}]*)\}", re.A)


def analyze(text: str) -> tuple[ContractSpec | None, list[Diagnostic]]:
    """Parse *text*, returning the spec or every problem found (never both).

    Each line takes one path per directive.  A name is looked up in the set
    of names already accepted in this call before ``NAME_RE`` is asked, so a
    well-formed line costs a few string splits and set lookups; the checks
    that name a problem run only for a line that fails those lookups.
    """
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
    clauses: set[Clause] = set()
    # (clause, body in file order, line, repeats an earlier clause)
    clause_lines: list[tuple[Clause, list[str], int, bool]] = []
    # (head, line, agent block active at that line) of heads not yet owned
    unowned_heads: list[tuple[str, int, str | None]] = []
    conflict_lines: list[tuple[str, str, int]] = []
    # (participant, goal or None for the pairs form, pairs, line)
    payoff_lines: list[tuple[str, frozenset[str] | None, list, int]] = []
    active_agent: str | None = None

    for lineno, line in enumerate(text.lstrip("\ufeff").splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split(None, 1)
        if not parts:
            continue
        directive = parts[0]
        rest = parts[1] if len(parts) > 1 else ""

        # Clause and payoff lines are the bulk of a file: they are tested first.
        if directive == "clause":
            # Of the arrows present, the first of "<<-", "↠", "<-" in that
            # order splits the line; with none, the whole line is the head.
            if "<<-" in rest:
                head_text, _, body_text = rest.partition("<<-")
                kind = CIRCULAR
            elif "↠" in rest:
                head_text, _, body_text = rest.partition("↠")
                kind = CIRCULAR
            else:
                head_text, _, body_text = rest.partition("<-")
                kind = STANDARD
            head_text = head_text.strip()
            if not head_text or " " in head_text or "\t" in head_text:
                report("bad-clause", "clause needs a single head event", lineno)
                continue
            if head_text not in named and not good_name(head_text, lineno, line):
                continue
            body_text = body_text.strip()
            body: list[str] = []
            if body_text and body_text != "true":
                body = list(map(str.strip, body_text.split(",")))
                if not named.issuperset(body):
                    ok = True
                    for item in body:
                        if not item:
                            report("bad-clause", "empty entry in clause body", lineno)
                            ok = False
                        elif not good_name(item, lineno):
                            ok = False
                    if not ok:
                        continue
            clause = Clause(head_text, body, kind)
            size = len(clauses)
            clauses.add(clause)
            clause_lines.append((clause, body, lineno, len(clauses) == size))
            if head_text not in explicit_owner:
                unowned_heads.append((head_text, lineno, active_agent))

        elif directive == "payoff":
            pieces = rest.split(None, 1)
            name = pieces[0] if pieces else ""
            spec_text = pieces[1].strip() if len(pieces) > 1 else ""
            if not name or not spec_text:
                report("bad-payoff", "payoff needs a participant and a form", lineno)
                continue
            if name not in named and not good_name(name, lineno, line):
                continue
            match = _PAYOFF_RE.fullmatch(spec_text)
            if match is None:
                report(
                    "bad-payoff",
                    "expected 'goal {events}' or 'offers {events} requests {events}'",
                    lineno,
                )
                continue
            goal_text, offers_text, requests_text, more = match.groups()
            if goal_text is not None:
                goal = goal_text.split()
                if named.issuperset(goal) or all(good_name(ev, lineno) for ev in goal):
                    payoff_lines.append((name, frozenset(goal), [], lineno))
                continue
            pair_texts = [(offers_text, requests_text)]
            if more:
                pair_texts += _PAIR_RE.findall(more)
            pairs: list[tuple[frozenset[str], frozenset[str]]] = []
            for offers_text, requests_text in pair_texts:
                offers = offers_text.split()
                requests = requests_text.split()
                if (named.issuperset(offers) and named.issuperset(requests)) or all(
                    good_name(ev, lineno) for ev in offers + requests
                ):
                    pairs.append((frozenset(offers), frozenset(requests)))
            if len(pairs) == len(pair_texts):
                payoff_lines.append((name, None, pairs, lineno))

        elif directive == "agent":
            tokens = rest.split()
            if not tokens:
                report("bad-agent", "agent needs a name", lineno)
                continue
            name = tokens[0]
            if name not in named and not good_name(name, lineno, line):
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
                    if ev not in named and not good_name(ev, lineno):
                        continue
                    previous = explicit_owner.setdefault(ev, name)
                    if previous != name:
                        report(
                            "ownership-conflict",
                            f"event {ev!r} already owned by {previous!r}",
                            lineno,
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

        else:
            report("unknown-directive", f"unknown directive {directive!r}", lineno)

    # --- ownership resolution -------------------------------------------
    # A head owned when its line was read stays owned, so only the others
    # are looked at again.
    owner: dict[str, str] = dict(explicit_owner)
    for head, lineno, agent in unowned_heads:
        if head in owner:
            continue
        if agent is None:
            report(
                "no-active-agent",
                f"clause head {head!r} appears before any agent",
                lineno,
            )
        else:
            owner[head] = agent
    events = set(owner)

    def undeclared(names, lineno: int, role: str) -> None:
        for ev in names:
            if ev not in events:
                report(
                    "undeclared-event",
                    f"{role} uses {ev!r}, which is neither owned nor a clause head",
                    lineno,
                )

    for clause, body, lineno, repeated in clause_lines:
        if not clause.body <= events:
            undeclared(body, lineno, f"clause for {clause.head!r}")
        if repeated:
            report("duplicate-clause", f"clause for {clause.head!r} repeated", lineno)

    for e1, e2, lineno in conflict_lines:
        undeclared((e1, e2), lineno, "conflict")

    payoff_form: dict[str, bool] = {}  # participant -> uses the goal form
    goals: dict[str, frozenset[str]] = {}
    pair_acc: dict[str, list[tuple[frozenset[str], frozenset[str]]]] = {}
    for participant, goal, pairs, lineno in payoff_lines:
        if participant not in participants:
            report(
                "unknown-participant",
                f"payoff for undeclared agent {participant!r}",
                lineno,
            )
            continue
        if goal is not None and not goal <= events:
            undeclared(sorted(goal - events), lineno, "payoff")
        for offers, requests in pairs:
            if not (offers <= events and requests <= events):
                undeclared(sorted((offers | requests) - events), lineno, "payoff")
        is_goal = goal is not None
        if payoff_form.setdefault(participant, is_goal) != is_goal:
            report(
                "mixed-payoff",
                f"payoff for {participant!r} mixes goal and offers/requests forms",
                lineno,
            )
            continue
        if is_goal:
            if participant in goals:
                report(
                    "duplicate-goal",
                    f"second goal payoff for {participant!r}",
                    lineno,
                )
                continue
            goals[participant] = goal
        else:
            pair_acc.setdefault(participant, []).extend(pairs)

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
