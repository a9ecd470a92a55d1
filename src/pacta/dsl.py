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
``true`` is the empty body, so it names no event or participant.

The printer output is canonical (everything sorted, ownership explicit) and
parses back to an equal specification.

Loading reads, then walks.  :func:`analyze` first reads the file in bulk:
one pass over the lines splits each one and files its text by directive,
and every line check then runs once over what was collected (all distinct
names in one match, each distinct clause body and payoff form once,
ownership and declarations as dict and set operations).  Only a file that
fails a check is walked line by line, and the walk only names the
findings, each at its line.  The read makes every check of
:func:`~pacta.model.validate` but the clause-against-conflict one, so that
one alone runs on the spec it builds, and only when the file has
conflicts.  A loaded spec holds one frozenset per distinct event set,
shared by the clause bodies and payoff pairs that hold it.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import chain, compress, repeat
from operator import itemgetter, not_

from .model import (
    CIRCULAR,
    NAME_LINES_RE,
    NAME_RE,
    STANDARD,
    Clause,
    ContractSpec,
    Diagnostic,
    GoalPayoff,
    OfferRequestPayoff,
    Payoff,
    SpecError,
    _bad_name_code,
    conflicting_clauses,
    validate,  # noqa: F401 -- unused here; perfbench/tracer.py patches dsl.validate
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


def _body_names(body_text: str) -> list[str]:
    """The names of a clause body's text, in file order."""
    body_text = body_text.strip()
    if not body_text or body_text == "true":
        return []
    return list(map(str.strip, body_text.split(",")))


def analyze(text: str) -> tuple[ContractSpec | None, list[Diagnostic]]:
    """Parse *text*, returning the spec or every problem found (never both).

    The file is read, then walked only if the read refuses it.  The read
    (:func:`_read`) files each line's text by directive and makes every
    line check in bulk over the collected texts; it builds the spec of a
    file that passes them all, and then only
    :func:`~pacta.model.conflicting_clauses` is asked about it: every other
    check of ``validate`` holds by construction (names passed ``NAME_RE``,
    every event has an owner that is a declared agent, and bodies,
    conflicts and payoffs name only owned events and declared agents).
    The walk (:func:`_walk`) reads a refused file line by line and names
    each finding at its line; it builds no spec.
    """
    spec = _read(text)
    if spec is None:
        diags = _walk(text)
        if not diags:
            raise AssertionError("the read refused a file in which the walk finds nothing")
        return None, diags
    residual = [finding for _, finding in conflicting_clauses(spec)]
    if residual:
        return None, residual
    return spec, []


_CLAUSE_ARROW = {True: "<<-", False: "<-"}
_CLAUSE_KIND = {True: CIRCULAR, False: STANDARD}
_EMPTY_BODIES = frozenset({"", "true"})


def _read(text: str) -> ContractSpec | None:
    """The spec of *text*, or None when a line check of :func:`_walk` would
    find something.

    One loop splits each line and files its text by directive; the checks
    then run over the filed texts, each distinct clause body and payoff
    form once, and each filed text is dropped once it is read.
    """
    clause_texts: list[str] = []
    payoff_texts: list[str] = []
    conflict_texts: list[str] = []
    # (clause lines above it, text) of each agent line
    agent_lines: list[tuple[int, str]] = []
    # "↠" is "<<-" to the walk, which splits a clause at the first "<<-",
    # else the first "↠", else the first "<-".  They split alike unless a
    # line holds two arrows, and then both leave one where no name can be.
    for line in text.lstrip("\ufeff").replace("↠", "<<-").splitlines():
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:  # a directive with nothing after it
            return None
        directive, rest = parts
        if directive == "clause":
            clause_texts.append(rest)
        elif directive == "payoff":
            payoff_texts.append(rest)
        elif directive == "agent":
            agent_lines.append((len(clause_texts), rest))
        elif directive == "conflict":
            conflict_texts.append(rest)
        else:
            return None

    # One frozenset per distinct event set, shared by every clause body
    # and payoff that holds it.
    sets: dict[frozenset[str], frozenset[str]] = {}
    heads, clauses = _read_clauses(clause_texts, sets)
    del clause_texts  # the line texts are most of what the read holds
    if len(clauses) < len(heads):  # a clause repeated
        return None
    payoffs = _read_payoffs(payoff_texts, sets)
    del payoff_texts
    if payoffs is None:
        return None

    # --- ownership: an event an 'owns' list names has that owner, and any
    # other head takes the agent block of its first line, so it may not
    # come above the first agent line.
    agents: list[str] = []
    owner: dict[str, str] = {}
    for _, rest in agent_lines:
        tokens = rest.split()
        if len(tokens) > 1 and (tokens[1] != "owns" or len(tokens) == 2):
            return None
        name = tokens[0]
        owned = tokens[2:]
        if not {name}.issuperset(map(owner.get, owned, repeat(name))):
            return None  # an event owned by another agent
        owner.update(dict.fromkeys(owned, name))
        agents.append(name)
    if not all(map(owner.__contains__, heads)):
        starts = [start for start, _ in agent_lines]
        above = heads[: starts[0]] if starts else heads
        if not all(map(owner.__contains__, above)):
            return None
        block_owner: dict[str, str] = {}
        for start, end, name in reversed(list(zip(starts, starts[1:] + [len(heads)], agents))):
            block_owner.update(dict.fromkeys(heads[start:end], name))
        owner = block_owner | owner

    # --- declarations and names: once every event set and conflict names
    # only events and every payoff an agent, the events and agents are
    # every name of the file.
    conflicts = [rest.split() for rest in conflict_texts]
    if any(len(pair) != 2 or pair[0] == pair[1] for pair in conflicts):
        return None
    events = owner.keys()
    if not all(map(events.__ge__, sets)) or not all(
        map(owner.__contains__, chain.from_iterable(conflicts))
    ):
        return None
    participants = set(agents)
    if not participants.issuperset(payoffs):
        return None
    names = [*events, *participants]
    if names and not NAME_LINES_RE.match("\n".join(names)):
        return None

    return ContractSpec(
        events=events,
        participants=participants,
        owner=owner,
        clauses=clauses,
        conflicts=conflicts,
        payoffs=payoffs,
    )


def _read_clauses(texts: list[str], sets: dict) -> tuple[list[str], set[Clause]]:
    """The head of each clause line's text, and the set of their clauses.

    Each text is split as the walk splits it, and each distinct body text is
    read once, as :func:`_body_names` reads it.
    """
    circular = list(map(str.__contains__, texts, repeat("<<-")))
    split = map(str.partition, texts, map(_CLAUSE_ARROW.__getitem__, circular))
    head_texts, _, body_texts = zip(*split) if texts else ((), (), ())
    heads = list(map(str.strip, head_texts))
    distinct = list(set(body_texts))
    stripped = list(map(str.strip, distinct))
    empty = list(map(_EMPTY_BODIES.__contains__, stripped))
    full = list(map(not_, empty))
    items = map(str.split, compress(stripped, full), repeat(","))
    found = list(map(frozenset, map(map, repeat(str.strip), items)))
    body_of = dict.fromkeys(compress(distinct, empty), frozenset())
    body_of.update(zip(compress(distinct, full), map(sets.setdefault, found, found)))
    bodies = map(body_of.__getitem__, body_texts)
    kinds = map(_CLAUSE_KIND.__getitem__, circular)
    return heads, set(map(tuple.__new__, repeat(Clause), zip(heads, bodies, kinds)))


def _read_payoffs(texts: list[str], sets: dict) -> dict[str, Payoff] | None:
    """The payoff of each participant of the payoff lines' texts, or None.

    Each distinct form text is read once.
    """
    form_of: dict[str, tuple[frozenset[str] | None, list]] = {}
    forms: defaultdict[str, list[tuple[frozenset[str] | None, list]]] = defaultdict(list)
    try:
        for name, form_text in map(str.split, texts, repeat(None), repeat(1)):
            form = form_of.get(form_text)
            if form is None:
                form = form_of[form_text] = _read_form(form_text.strip(), sets)
                if form is None:
                    return None
            forms[name].append(form)
    except ValueError:  # a payoff line with no form
        return None
    payoffs: dict[str, Payoff] = {}
    for name, read in forms.items():
        goal = read[0][0]
        if goal is not None:
            if len(read) > 1:  # a second goal, or both forms
                return None
            payoffs[name] = GoalPayoff(goal)
        elif any(other is not None for other, _ in read):
            return None
        else:
            pairs = frozenset(chain.from_iterable(pairs for _, pairs in read))
            payoffs[name] = OfferRequestPayoff(pairs)
    return payoffs


def _read_form(text: str, sets: dict) -> tuple[frozenset[str] | None, list] | None:
    """(goal, []) or (None, pairs) for the form text of a payoff, or None."""
    match = _PAYOFF_RE.fullmatch(text)
    if match is None:
        return None

    def event_set(names: str) -> frozenset[str]:
        found = frozenset(names.split())
        return sets.setdefault(found, found)

    goal_text, offers_text, requests_text, more = match.groups()
    if goal_text is not None:
        return event_set(goal_text), []
    pair_texts = [(offers_text, requests_text)]
    if more:
        pair_texts += _PAIR_RE.findall(more)
    return None, [(event_set(offers), event_set(requests)) for offers, requests in pair_texts]


def _walk(text: str) -> list[Diagnostic]:
    """Every finding of the line checks on *text*, each at its line, in
    the order :func:`analyze` reports them."""
    diags: list[Diagnostic] = []

    def report(code: str, message: str, lineno: int, col: int | None = None) -> None:
        diags.append(Diagnostic(code, message, lineno, col))

    def good_name(token: str, lineno: int, line: str | None = None) -> bool:
        """Check *token*; a finding gets the column of *token* in *line*, if given."""
        if NAME_RE.match(token):
            return True
        col = None if line is None else line.index(token) + 1
        report(_bad_name_code(token), f"{token!r} is not a valid name", lineno, col)
        return False

    def read_body(body_text: str, lineno: int) -> frozenset[str] | None:
        """The body of a clause as a set, or None."""
        body = _body_names(body_text)
        ok = True
        for item in body:
            if not item:
                report("bad-clause", "empty entry in clause body", lineno)
                ok = False
            elif not good_name(item, lineno):
                ok = False
        return frozenset(body) if ok else None

    def read_form(spec_text: str, lineno: int) -> tuple[bool, list[frozenset[str]]] | None:
        """Whether a payoff's form is a goal, and the events of the goal or of
        each pair, or None."""
        match = _PAYOFF_RE.fullmatch(spec_text)
        if match is None:
            report(
                "bad-payoff",
                "expected 'goal {events}' or 'offers {events} requests {events}'",
                lineno,
            )
            return None
        goal_text, offers_text, requests_text, more = match.groups()
        if goal_text is not None:
            found = [goal_text.split()]
        else:
            pairs = [(offers_text, requests_text), *_PAIR_RE.findall(more)]
            found = [offers.split() + requests.split() for offers, requests in pairs]
        # Each goal or pair is checked up to its first bad name.
        if not all([all(good_name(ev, lineno) for ev in names) for names in found]):
            return None
        return goal_text is not None, list(map(frozenset, found))

    participants: set[str] = set()
    explicit_owner: dict[str, str] = {}
    clauses: set[tuple[str, frozenset[str], str]] = set()
    # (head, body text, line, repeats an earlier clause)
    clause_lines: list[tuple[str, str, int, bool]] = []
    # (head, line, agent block active at that line) of heads not yet owned
    unowned_heads: list[tuple[str, int, str | None]] = []
    conflict_lines: list[tuple[str, str, int]] = []
    # (participant, uses the goal form, events of the goal or of each pair, line)
    payoff_lines: list[tuple[str, bool, list[frozenset[str]], int]] = []
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
            if not good_name(head_text, lineno, line):
                continue
            body = read_body(body_text, lineno)
            if body is None:
                continue
            size = len(clauses)
            clauses.add((head_text, body, kind))
            clause_lines.append((head_text, body_text, lineno, len(clauses) == size))
            if head_text not in explicit_owner:
                unowned_heads.append((head_text, lineno, active_agent))

        elif directive == "payoff":
            pieces = rest.split(None, 1)
            name = pieces[0] if pieces else ""
            spec_text = pieces[1].strip() if len(pieces) > 1 else ""
            if not name or not spec_text:
                report("bad-payoff", "payoff needs a participant and a form", lineno)
                continue
            if not good_name(name, lineno, line):
                continue
            form = read_form(spec_text, lineno)
            if form is None:
                continue
            payoff_lines.append((name, *form, lineno))

        elif directive == "agent":
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

    for head, body_text, lineno, repeated in clause_lines:
        undeclared(_body_names(body_text), lineno, f"clause for {head!r}")
        if repeated:
            report("duplicate-clause", f"clause for {head!r} repeated", lineno)

    for e1, e2, lineno in conflict_lines:
        undeclared((e1, e2), lineno, "conflict")

    payoff_form: dict[str, bool] = {}  # participant -> uses the goal form
    with_goal: set[str] = set()
    for participant, is_goal, found, lineno in payoff_lines:
        if participant not in participants:
            report(
                "unknown-participant",
                f"payoff for undeclared agent {participant!r}",
                lineno,
            )
            continue
        for names in found:
            undeclared(sorted(names), lineno, "payoff")
        if payoff_form.setdefault(participant, is_goal) != is_goal:
            report(
                "mixed-payoff",
                f"payoff for {participant!r} mixes goal and offers/requests forms",
                lineno,
            )
            continue
        if is_goal:
            if participant in with_goal:
                report(
                    "duplicate-goal",
                    f"second goal payoff for {participant!r}",
                    lineno,
                )
            with_goal.add(participant)

    return diags


def parse(text: str) -> ContractSpec:
    """Parse and validate a contract file; raise :class:`ParseError` on any problem."""
    spec, diags = analyze(text)
    if spec is None:
        raise ParseError(diags)
    return spec


def print_spec(spec: ContractSpec) -> str:
    """Render a valid spec canonically; the result parses back equal.

    Lines come in this order: agents by name, clauses by head and then
    standard before circular and by body, conflicts, and payoffs by
    participant and then by offers and requests.  A body, goal, offer or
    request is ordered as the sorted list of its names, a list before any
    it begins.
    """
    lines: list[str] = []
    owned: dict[str, list[str]] = {}
    for e, p in spec.owner.items():
        owned.setdefault(p, []).append(e)
    for p in sorted(spec.participants):
        events = sorted(owned.get(p, ()))
        suffix = f" owns {' '.join(events)}" if events else ""
        lines.append(f"agent {p}{suffix}")

    # Each distinct event set -> its names, sorted and joined by spaces.  A
    # space sorts below every character a name holds (", " does not: the
    # "!" and "$" of encode_urgency's tags sort below ","), so these texts
    # sort as the lists of names do, and a body's text is its printed one
    # with ", " for each space.  Each table is dropped once used: kept, they
    # raise the peak memory of printing a large grid above the old sort's.
    sets = set(map(itemgetter(1), spec.clauses))
    for payoff in spec.payoffs.values():
        if isinstance(payoff, GoalPayoff):
            sets.add(payoff.goal)
        else:
            sets.update(chain.from_iterable(payoff.pairs))
    text = dict(zip(sets, map(" ".join, map(sorted, sets))))
    del sets

    standard: defaultdict[str, list[str]] = defaultdict(list)
    circular: defaultdict[str, list[str]] = defaultdict(list)
    for head, body, kind in spec.clauses:
        (standard if kind == STANDARD else circular)[head].append(text[body])
    for head in sorted(standard.keys() | circular.keys()):
        # A head's empty body, if it has one, is the text "" and sorts first.
        bodies = sorted(standard.get(head, ()))
        if bodies and not bodies[0]:
            lines.append(f"clause {head}")
            del bodies[0]
        lines += [f"clause {head} <- {body.replace(' ', ', ')}" for body in bodies]
        bodies = sorted(circular.get(head, ()))
        if bodies and not bodies[0]:
            bodies[0] = "true"
        lines += [f"clause {head} <<- {body.replace(' ', ', ')}" for body in bodies]
    del standard, circular

    for pair in sorted(spec.conflicts, key=sorted):
        lines.append(f"conflict {' '.join(sorted(pair))}")
    for p in sorted(spec.payoffs):
        payoff = spec.payoffs[p]
        if isinstance(payoff, GoalPayoff):
            lines.append(f"payoff {p} goal {{{text[payoff.goal]}}}")
        else:
            for offers, requests in sorted([(text[o], text[r]) for o, r in payoff.pairs]):
                lines.append(f"payoff {p} offers {{{offers}}} requests {{{requests}}}")
    del text
    return "\n".join(lines) + "\n"
