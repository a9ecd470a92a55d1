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

The format has one grammar, and each of its rules is written once: the
comment and directive split of a line (:func:`_lines`, :func:`_file`), the
arrow that splits a clause (:func:`_split_clauses`), the names of a body
(:func:`_body_names`) and the sides of a payoff form (:func:`_form`).
:func:`analyze` files each line's text and number by directive, and the
read makes every line check once over the filed texts (all distinct names
in one match, each distinct clause body and payoff form once, ownership
and declarations as dict and set operations).  A file that fails a check
is filed again, and the findings pass splits its lines by the same rules
and names each finding at its line.  The read makes every check of
:func:`~pacta.model.validate` but the clause-against-conflict one, so that
one alone runs on the spec it builds, and only when the file has
conflicts.  A loaded spec holds one frozenset per distinct event set,
shared by the clause bodies and payoff pairs that hold it.
"""

from __future__ import annotations

import re
from bisect import bisect
from collections import defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from operator import add, attrgetter, itemgetter

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


# One offers/requests pair: the texts of its two sides (groups 1 and 2).
_PAIR_RE = re.compile(r"offers\s*\{([^{}]*)\}\s*requests\s*\{([^{}]*)\}", re.A)
# One payoff form, whole: a goal (group 1), or the sides of the first pair
# (groups 2 and 3) and the text of any further pairs (group 4).
_PAYOFF_RE = re.compile(
    rf"goal\s*\{{([^{{}}]*)\}}|{_PAIR_RE.pattern}((?:\s*{_PAIR_RE.pattern})*)", re.A
)

_DIRECTIVES = ("agent", "clause", "conflict", "payoff")
# The arrows of a clause line, each with the kind of clause it makes.
_ARROW_KINDS = {"<<-": CIRCULAR, "↠": CIRCULAR, "<-": STANDARD}
# The clause body texts that name no event.
_NO_NAMES = {"": (), "true": ()}

# The filed lines of a file: each directive's line texts and line numbers.
_Filed = dict[str, tuple[list[str], list[int]]]


def analyze(text: str) -> tuple[ContractSpec | None, list[Diagnostic]]:
    """Parse *text*, returning the spec or every problem found (never both).

    The lines are filed by directive (:func:`_file`) and read in bulk
    (:func:`_read`): each line check runs once over the filed texts, and a
    file that passes them all becomes the spec.  Then only
    :func:`~pacta.model.conflicting_clauses` is asked about it: every other
    check of ``validate`` holds by construction (names passed ``NAME_RE``,
    every event has an owner that is a declared agent, and bodies,
    conflicts and payoffs name only owned events and declared agents).  The
    read drops each file once it is read, so a file it refuses is filed
    again: :func:`_findings` splits its lines by the same rules and names
    each finding at its line, and builds no spec.
    """
    spec = _read(_file(_lines(text)))
    if spec is None:
        diags = _findings(text)
        if not diags:
            raise AssertionError("the read refused a file with no findings")
        return None, diags
    residual = [finding for _, finding in conflicting_clauses(spec)]
    if residual:
        return None, residual
    return spec, []


# --- the grammar: each rule of the format, used by the read and the findings


def _lines(text: str) -> list[str]:
    """The lines of *text*, each cut at its first ``#``."""
    lines = text.lstrip("\ufeff").splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return lines


def _file(lines: list[str]) -> _Filed:
    """The text after the directive of each of the *lines*, and the line's
    number, filed by directive.

    A line's first word is its directive and the rest, from the next word
    on, is its text.  A line with no word is skipped.  Each directive of
    the format has a file, even when no line names it.
    """
    filed: _Filed = {directive: ([], []) for directive in _DIRECTIVES}
    for number, words in enumerate(map(str.split, lines, repeat(None), repeat(1)), 1):
        if words:
            try:
                texts, numbers = filed[words[0]]
            except KeyError:  # an unknown directive
                texts, numbers = filed[words[0]] = [], []
            try:
                texts.append(words[1])
            except IndexError:  # a directive with nothing after it
                texts.append("")
            numbers.append(number)
    return filed


def _split_clauses(texts: list[str]) -> tuple[list[str], tuple[str, ...], list[str]]:
    """The head, body text and kind of each clause text.

    Of the arrows a text holds, the first of ``<<-``, ``↠`` and ``<-`` in
    that order splits it; a text with none is all head.
    """
    arrows = ["<<-" if "<<-" in text else "↠" if "↠" in text else "<-" for text in texts]
    head_texts, _, bodies = zip(*map(str.partition, texts, arrows)) if texts else ((), (), ())
    return list(map(str.strip, head_texts)), bodies, list(map(_ARROW_KINDS.__getitem__, arrows))


def _body_names(texts: Iterable[str]) -> Iterator[Iterable[str]]:
    """The names of each clause body text, in order: none for a blank body
    or ``true``, else each comma-separated entry, stripped."""
    stripped = list(map(str.strip, texts))
    entries = map(str.split, stripped, repeat(","))
    return map(_NO_NAMES.get, stripped, map(map, repeat(str.strip), entries))


def _form(text: str) -> tuple[bool, list[list[str]]] | None:
    """Whether a payoff's form text is a goal, and the names of the goal or
    of each offers/requests pair's two sides in turn; None when *text* is
    neither form."""
    match = _PAYOFF_RE.fullmatch(text.strip())
    if match is None:
        return None
    goal, offers, requests, more = match.group(1, 2, 3, 4)
    if goal is not None:
        return True, [goal.split()]
    sides = [offers.split(), requests.split()]
    if more:
        sides += map(str.split, chain.from_iterable(_PAIR_RE.findall(more)))
    return False, sides


def _block_agents(
    agent_numbers: list[int], agents: list[str], numbers: list[int]
) -> list[str | None]:
    """The agent of the block each of the lines *numbers* lies in: that of
    the last agent line above it, and None above the first."""
    block_of = [None, *agents]  # by the number of agent lines above
    return list(map(block_of.__getitem__, map(bisect, repeat(agent_numbers), numbers)))


# --- the read: a clean file's spec -------------------------------------------


def _read(filed: _Filed) -> ContractSpec | None:
    """The spec of the filed lines, or None when :func:`_findings` would
    find something in them.

    The checks run over the filed texts, each distinct clause body and
    payoff form once, and each file is dropped once it is read.
    """
    if len(filed) > len(_DIRECTIVES):  # an unknown directive
        return None
    # Popped, so that each file goes once it is read; of the line numbers,
    # only the clause and agent lines' are read, for the blocks.
    clause_texts, clause_numbers = filed.pop("clause")
    agent_texts, agent_numbers = filed.pop("agent")
    payoff_texts = filed.pop("payoff")[0]
    conflict_texts = filed.pop("conflict")[0]

    # One frozenset per distinct event set, shared by every clause body
    # and payoff that holds it.
    sets: dict[frozenset[str], frozenset[str]] = {}
    heads, clauses = _read_clauses(clause_texts, sets)
    del clause_texts  # the line texts are most of what the read holds
    if len(clauses) < len(heads):  # a clause repeated
        return None

    # --- ownership: an event an 'owns' list names has that owner, and any
    # other head takes the agent of the block of its first line, so it may
    # not come above the first agent line.
    agents: list[str] = []
    owner: dict[str, str] = {}
    for tokens in map(str.split, agent_texts):
        if not tokens or len(tokens) > 1 and (tokens[1] != "owns" or len(tokens) == 2):
            return None
        name = tokens[0]
        owned = tokens[2:]
        if not {name}.issuperset(map(owner.get, owned, repeat(name))):
            return None  # an event owned by another agent
        owner.update(dict.fromkeys(owned, name))
        agents.append(name)
    if not all(map(owner.__contains__, heads)):
        blocks = _block_agents(agent_numbers, agents, clause_numbers)
        # Each head's first line is the last one the dict takes.
        owner = dict(zip(reversed(heads), reversed(blocks))) | owner
        if None in owner.values():
            return None
    del clause_numbers

    payoffs = _read_payoffs(payoff_texts, sets)
    del payoff_texts
    if payoffs is None:
        return None

    # --- declarations and names: once every event set and conflict names
    # only events and every payoff an agent, the events and agents are
    # every name of the file.
    conflicts = list(map(str.split, conflict_texts))
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
    """The head of each clause text, and the set of their clauses; each
    distinct body text is read once."""
    heads, bodies, kinds = _split_clauses(texts)
    distinct = list(set(bodies))
    found = list(map(frozenset, _body_names(distinct)))
    body_of = dict(zip(distinct, map(sets.setdefault, found, found)))
    bodies = map(body_of.__getitem__, bodies)
    return heads, set(map(tuple.__new__, repeat(Clause), zip(heads, bodies, kinds)))


def _read_payoffs(texts: list[str], sets: dict) -> dict[str, Payoff] | None:
    """The payoff of each participant of the payoff texts, or None; each
    distinct form text is read once."""
    # form text -> (is a goal, the event set of each side) of each distinct one
    form_of: dict[str, tuple[bool, list[frozenset[str]]]] = {}
    forms: defaultdict[str, list[tuple[bool, list[frozenset[str]]]]] = defaultdict(list)
    try:
        for name, form_text in map(str.split, texts, repeat(None), repeat(1)):
            form = form_of.get(form_text)
            if form is None:
                form = _form(form_text)
                if form is None:
                    return None
                is_goal, sides = form
                found = list(map(frozenset, sides))
                form = form_of[form_text] = is_goal, list(map(sets.setdefault, found, found))
            forms[name].append(form)
    except ValueError:  # a payoff text with no form
        return None
    del form_of  # the form texts, before the payoffs' peak
    payoffs: dict[str, Payoff] = {}
    for name, read in forms.items():
        if read[0][0]:
            if len(read) > 1:  # a second goal, or both forms
                return None
            payoffs[name] = GoalPayoff(read[0][1][0])
        elif any(map(itemgetter(0), read)):
            return None
        else:
            sides = chain.from_iterable(map(itemgetter(1), read))
            payoffs[name] = OfferRequestPayoff._trusted(frozenset(zip(sides, sides)))
    return payoffs


# --- the findings: a refused file's diagnostics ------------------------------


def _findings(text: str) -> list[Diagnostic]:
    """Every finding of the line checks on *text*, each at its line, in
    the order :func:`analyze` reports them: those of single lines by line,
    then heads above every agent, each clause's undeclared names and
    repeats, and the undeclared names of conflicts, then those of payoffs
    with their participant and form checks, each in line order."""
    lines = _lines(text)
    filed = _file(lines)
    diags: list[Diagnostic] = []

    def report(code: str, message: str, number: int, col: int | None = None) -> None:
        diags.append(Diagnostic(code, message, number, col))

    def good_name(token: str, number: int, at_column: bool = False) -> bool:
        """Check *token*; a finding gets the column of *token* in its line, if asked."""
        if NAME_RE.match(token):
            return True
        col = lines[number - 1].index(token) + 1 if at_column else None
        report(_bad_name_code(token), f"{token!r} is not a valid name", number, col)
        return False

    # Lines alone: each directive's lines, in order, keeping those whose
    # names are good for the checks across lines below.
    agents: list[str] = []
    agent_numbers: list[int] = []
    explicit_owner: dict[str, str] = {}
    for rest, number in zip(*filed.pop("agent")):
        tokens = rest.split()
        if not tokens:
            report("bad-agent", "agent needs a name", number)
            continue
        name = tokens[0]
        if not good_name(name, number, at_column=True):
            continue
        agents.append(name)
        agent_numbers.append(number)
        if len(tokens) > 1:
            if tokens[1] != "owns" or len(tokens) == 2:
                report("bad-agent", "expected 'owns' followed by events", number)
                continue
            for ev in tokens[2:]:
                if not good_name(ev, number):
                    continue
                previous = explicit_owner.setdefault(ev, name)
                if previous != name:
                    report(
                        "ownership-conflict",
                        f"event {ev!r} already owned by {previous!r}",
                        number,
                    )

    # (line, head, body names, kind) of each clause line
    clause_lines: list[tuple[int, str, list[str], str]] = []
    texts, numbers = filed.pop("clause")
    heads, bodies, kinds = _split_clauses(texts)
    for number, head, names, kind in zip(numbers, heads, _body_names(bodies), kinds):
        if not head or " " in head or "\t" in head:
            report("bad-clause", "clause needs a single head event", number)
            continue
        if not good_name(head, number, at_column=True):
            continue
        names = list(names)
        good = True
        for item in names:
            if not item:
                report("bad-clause", "empty entry in clause body", number)
                good = False
            elif not good_name(item, number):
                good = False
        if good:
            clause_lines.append((number, head, names, kind))

    conflict_lines: list[tuple[int, list[str]]] = []
    for rest, number in zip(*filed.pop("conflict")):
        pair = rest.split()
        if len(pair) != 2:
            report("bad-conflict", "conflict needs exactly two events", number)
            continue
        if not all(map(good_name, pair, repeat(number))):
            continue
        if pair[0] == pair[1]:
            report("self-conflict", f"event {pair[0]!r} cannot conflict with itself", number)
            continue
        conflict_lines.append((number, pair))

    # (line, participant, uses the goal form, names of the goal or of each pair)
    payoff_lines: list[tuple[int, str, bool, list[list[str]]]] = []
    for rest, number in zip(*filed.pop("payoff")):
        pieces = rest.split(None, 1)
        if len(pieces) < 2:
            report("bad-payoff", "payoff needs a participant and a form", number)
            continue
        name, form_text = pieces
        if not good_name(name, number, at_column=True):
            continue
        form = _form(form_text)
        if form is None:
            report(
                "bad-payoff",
                "expected 'goal {events}' or 'offers {events} requests {events}'",
                number,
            )
            continue
        is_goal, sides = form
        found = sides if is_goal else list(map(add, sides[::2], sides[1::2]))
        # Each goal or pair is checked up to its first bad name.
        if all([all(map(good_name, names, repeat(number))) for names in found]):
            payoff_lines.append((number, name, is_goal, found))

    for directive, (_, numbers) in filed.items():
        for number in numbers:
            report("unknown-directive", f"unknown directive {directive!r}", number)
    diags.sort(key=attrgetter("line"))

    # Across lines: ownership first, as every check below needs the events.
    owner = dict(explicit_owner)
    blocks = _block_agents(agent_numbers, agents, [number for number, *_ in clause_lines])
    for (number, head, _, _), agent in zip(clause_lines, blocks):
        if head in owner:
            continue
        if agent is None:
            report("no-active-agent", f"clause head {head!r} appears before any agent", number)
        else:
            owner[head] = agent

    def undeclared(names: Iterable[str], number: int, role: str) -> None:
        for ev in names:
            if ev not in owner:
                report(
                    "undeclared-event",
                    f"{role} uses {ev!r}, which is neither owned nor a clause head",
                    number,
                )

    seen: set[tuple[str, frozenset[str], str]] = set()
    for number, head, names, kind in clause_lines:
        undeclared(names, number, f"clause for {head!r}")
        clause = (head, frozenset(names), kind)
        if clause in seen:
            report("duplicate-clause", f"clause for {head!r} repeated", number)
        seen.add(clause)

    for number, pair in conflict_lines:
        undeclared(pair, number, "conflict")

    participants = set(agents)
    uses_goal: dict[str, bool] = {}
    with_goal: set[str] = set()
    for number, participant, is_goal, found in payoff_lines:
        if participant not in participants:
            report("unknown-participant", f"payoff for undeclared agent {participant!r}", number)
            continue
        for names in found:
            undeclared(sorted(set(names)), number, "payoff")
        if uses_goal.setdefault(participant, is_goal) != is_goal:
            report(
                "mixed-payoff",
                f"payoff for {participant!r} mixes goal and offers/requests forms",
                number,
            )
            continue
        if is_goal:
            if participant in with_goal:
                report("duplicate-goal", f"second goal payoff for {participant!r}", number)
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
