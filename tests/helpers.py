"""Shared fixture builders and generators for the test suite.

The two-letter contracts C1..C4 and the conflicted E5 mirror the fixture
files in tests/data; test_dsl checks the files parse to exactly these
values, so every other test may use whichever form is convenient.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    Diagnostic,
    GoalPayoff,
    HornTheory,
    InvalidPlayError,
    OfferRequestPayoff,
    PreconditionError,
    circ,
    is_prudent_play,
    prudence_table,
    std,
)
from pacta.game import _rules
from pacta.gen import MAX_SHY_DANCERS_N, _event, _guest, _neighbours
from pacta.model import NAME_RE, RESERVED_WORDS, is_reserved_name
from pacta.oracle import _bodies_by_head, _final_credits

DATA = Path(__file__).parent / "data"

ATOMS3 = ("a", "b", "c")
LETTERS = "abcdefg"


def read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@contextmanager
def budget(seconds: float):
    """Fail the test when the block takes *seconds* or longer."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s, budget {seconds} s"


def two_party(ca: Clause, cb: Clause, conflicts=(), payoffs: bool = True) -> ContractSpec:
    return ContractSpec.of(
        owner={"a": "A", "b": "B"},
        clauses=[ca, cb],
        conflicts=conflicts,
        payoffs=(
            {"A": GoalPayoff(frozenset({"b"})), "B": GoalPayoff(frozenset({"a"}))}
            if payoffs
            else None
        ),
    )


def c1() -> ContractSpec:
    return two_party(std("a"), std("b", "a"))


def c2() -> ContractSpec:
    return two_party(std("a", "b"), std("b", "a"))


def c3() -> ContractSpec:
    return two_party(circ("a", "b"), std("b", "a"))


def c4() -> ContractSpec:
    return two_party(circ("a", "b"), circ("b", "a"))


def e5() -> ContractSpec:
    return ContractSpec.of(
        owner={"a": "A", "b": "B", "c": "B"},
        clauses=[std("b", "a"), std("c", "a"), std("a", "c"), circ("a", "b")],
        conflicts=[("b", "c")],
    )


def delta1() -> HornTheory:
    return HornTheory.of([std("a"), std("b", "a")])


def delta2() -> HornTheory:
    return HornTheory.of([std("a", "b"), std("b", "a")])


def delta3() -> HornTheory:
    return HornTheory.of([circ("a", "b"), std("b", "a")])


def delta4() -> HornTheory:
    return HornTheory.of([circ("a", "b"), circ("b", "a")])


STAR_CLAUSES = (
    circ("e6", "e0", "e1"),
    std("e3", "e6"),
    std("e4", "e6"),
    std("e0", "e3"),
    circ("e7", "e4", "e5"),
    std("e1", "e7"),
    std("e2", "e7"),
    std("e5", "e2"),
)

STAR_EVENTS = tuple(f"e{i}" for i in range(8))


def star_theory() -> HornTheory:
    return HornTheory.of(STAR_CLAUSES, atoms=STAR_EVENTS)


def star_spec() -> ContractSpec:
    return ContractSpec.of(
        owner={e: "T" for e in STAR_EVENTS},
        clauses=STAR_CLAUSES,
        payoffs={"T": GoalPayoff(frozenset(STAR_EVENTS))},
    )


def or_payoffs_spec() -> ContractSpec:
    fs = frozenset
    return ContractSpec.of(
        owner={"a0": "A", "a1": "A", "a2": "A", "b0": "B", "b1": "B", "b2": "B"},
        clauses=[
            circ("a0", "b0", "b2"),
            std("a1", "b1"),
            circ("a2", "b2"),
            std("b0", "a0"),
            std("b1", "a0", "a1"),
            std("b2", "a0", "a2"),
        ],
        payoffs={
            "A": OfferRequestPayoff(
                ((fs({"a0"}), fs({"b0", "b2"})), (fs({"a0", "a1"}), fs({"b1"})))
            ),
            "B": OfferRequestPayoff(
                ((fs({"b0"}), fs({"a0"})), (fs({"b2"}), fs({"a0", "a2"})))
            ),
        },
    )


def delta2_contract() -> ContractSpec:
    return ContractSpec.of(
        owner={"a": "T", "b": "T"},
        clauses=[std("a", "b"), std("b", "a")],
        payoffs={"T": GoalPayoff(frozenset({"a", "b"}))},
    )


def standard_chain(n):
    """``s0`` is a fact and each ``s(k+1)`` needs ``sk``: n + 1 traces."""
    atoms = [f"s{k}" for k in range(n)]
    return HornTheory.of(
        [std(atoms[0])] + [std(b, a) for a, b in zip(atoms, atoms[1:])]
    )


def circular_chain(n):
    """``x_k <<- x_{k+1}`` and the fact ``x_n``: in order, each step stays on
    credit for exactly one prefix."""
    x = tuple(f"x{k}" for k in range(1, n + 1))
    spec = ContractSpec.of(
        owner={e: "AB"[k % 2] for k, e in enumerate(x)},
        clauses=[circ(x[k], x[k + 1]) for k in range(n - 1)] + [std(x[-1])],
    )
    return spec, x


def withdrawal_cascade(m):
    """``c_j <<- c_{j+1}`` for j < m and ``c_m <<- z`` with ``z`` unobtainable,
    beside the standard chain ``s_1``, ``s_{k+1} <- s_k``: the grants of the
    ``c_j`` are withdrawn one by one, from ``c_m`` down, and exactly the
    ``s_k`` are provable."""
    c = tuple(f"c{j}" for j in range(1, m + 1))
    s = tuple(f"s{j}" for j in range(1, m + 1))
    spec = ContractSpec.of(
        owner={e: "C" for e in c + ("z",)} | {e: "S" for e in s},
        clauses=[circ(c[j], c[j + 1]) for j in range(m - 1)]
        + [circ(c[-1], "z"), std(s[0])]
        + [std(s[j + 1], s[j]) for j in range(m - 1)],
        payoffs={"C": GoalPayoff(frozenset({c[0]})), "S": GoalPayoff(frozenset({s[-1]}))},
    )
    return spec, c, s


def prudent_reference(rules, seq):
    """The prudence check as it was before it read circular bodies against
    ``provable()``: a full ``credit_closure`` of the past at every step that
    only a circular clause can justify."""
    past: set[str] = set()
    for e in seq:
        if e in past:
            return False
        if not any(b <= past for b in rules.std_bodies.get(e, ())):
            bodies = rules.circ_bodies.get(e, ())
            if not bodies:
                return False
            closed = rules.credit_closure(past)
            if not any(b <= closed for b in bodies):
                return False
        past.add(e)
    return True


def prudent_by_steps(rules, seq):
    """The prudence check as it was before it read the credit ledger: its
    own walk, each step against its clauses and ``provable()``."""
    past: set[str] = set()
    provable: frozenset[str] | None = None
    for e in seq:
        if e in past:
            return False
        if not any(b <= past for b in rules.std_bodies.get(e, ())):
            bodies = rules.circ_bodies.get(e, ())
            if not bodies:
                return False
            if provable is None:
                provable = rules.provable()
            if not any(b <= provable for b in bodies):
                return False
        past.add(e)
    return True


def assert_prudent_play(spec, seq, want):
    """``is_prudent_play`` answers *want*, a reference's answer, on a play
    of *spec*, and refuses a sequence with a repeated or unknown step, on
    which every reference answers ``False``."""
    if len(set(seq)) == len(seq) and set(seq) <= spec.events:
        assert is_prudent_play(spec, seq) == want, (spec, seq)
    else:
        assert not want, (spec, seq)
        with pytest.raises(InvalidPlayError):
            is_prudent_play(spec, seq)


def is_proof_trace_by_prudence(theory: HornTheory, trace) -> bool:
    """``logic.is_proof_trace`` as it was before it dropped the prudence
    check: a prudent play (``prudent_by_steps``) with an empty ledger."""
    seq = tuple(trace)
    unknown = frozenset(seq) - theory.atoms
    if unknown:
        raise PreconditionError(f"unknown atoms: {', '.join(sorted(unknown))}")
    rules = _rules(theory)
    return prudent_by_steps(rules, seq) and not rules.unjustified(seq)


def next_events_reference(rules, done):
    """``RuleIndex.next_events`` as it was before it answered by delta or
    against ``provable()``, without its memo: a full ``credit_closure`` of
    *done* for every question."""
    done = frozenset(done)
    closed = rules.credit_closure(done)
    out = set()
    for e in frozenset(rules.std_bodies) | frozenset(rules.circ_bodies):
        if e in done:
            continue
        if any(b <= done for b in rules.std_bodies.get(e, ())):
            out.add(e)
        elif any(b <= closed for b in rules.circ_bodies.get(e, ())):
            out.add(e)
    return frozenset(out)


def credit_closure_by_passes(rules, done):
    """The credit closure as one full ``closure`` per withdrawal pass: the
    reference ``RuleIndex.credit_closure`` is checked against."""
    base = set(done)
    grant = set(rules.circ_bodies)
    while True:
        closed = rules.closure(base | grant)
        kept = {e for e in grant if any(b <= closed for b in rules.circ_bodies[e])}
        if kept == grant:
            return closed
        grant = kept


# --- reference for the trace referee -----------------------------------------


def traces_bruteforce_reference(theory: HornTheory) -> frozenset[tuple[str, ...]]:
    """``oracle.traces_bruteforce`` as it was before it saturated
    semi-naively: every pass applies every rule to every trace found so
    far, and inserts each circular head into every trace of a finished
    subtheory again.  The reference ``traces_bruteforce`` is checked
    against; it puts a head at each place of a trace itself."""
    if len(theory.atoms) > 8:
        raise PreconditionError("traces_bruteforce supports at most 8 atoms")
    std_flat = [(body, head) for head, body, kind in theory.clauses if kind == STANDARD]
    circ_flat = [(body, head) for head, body, kind in theory.clauses if kind == CIRCULAR]

    @lru_cache(maxsize=None)
    def saturate(facts: frozenset[str]) -> set[tuple[str, ...]]:
        rules = std_flat + [(frozenset(), a) for a in facts]
        traces: set[tuple[str, ...]] = {()}
        changed = True
        while changed:
            changed = False
            for sigma in list(traces):
                have = set(sigma)
                for body, head in rules:
                    if head not in have and body <= have:
                        grown = sigma + (head,)
                        if grown not in traces:
                            traces.add(grown)
                            changed = True
            for body, head in circ_flat:
                sub = traces if head in facts else saturate(facts | {head})
                for tau in list(sub):
                    if body <= set(tau):
                        for k in range(len(tau) + 1):
                            merged = tuple(dict.fromkeys(tau[:k] + (head,) + tau[k:]))
                            if merged not in traces:
                                traces.add(merged)
                                changed = True
        return traces

    return frozenset(saturate(frozenset()))


# --- reference for the game-tree referee ------------------------------------


def all_plays(spec: ContractSpec) -> list[tuple[str, ...]]:
    """Every play of the spec, shortest first: the repetition-free
    sequences of events whose prefixes are all conflict-free."""
    events = sorted(spec.events)
    out: list[tuple[str, ...]] = [()]
    for play in out:
        for e in events:
            if e not in play and spec.compatible(frozenset(play) | {e}):
                out.append(play + (e,))
    return out


def prudence_by_play(spec: ContractSpec) -> dict[tuple[str, ...], frozenset[str]]:
    """``prudence_table(spec)`` read per play: each play looked up by its
    state, its event set and final ledger.  The plays must reach every state
    of the table."""
    table = prudence_table(spec)
    bodies = _bodies_by_head(spec)
    states = {p: (frozenset(p), _final_credits(spec, p, bodies)) for p in all_plays(spec)}
    assert set(states.values()) == set(table), spec
    return {p: table[state] for p, state in states.items()}


def prudence_table_reference(
    spec: ContractSpec,
) -> dict[tuple[str, ...], frozenset[str]]:
    """``oracle.prudence_table`` as it was before it shared work between
    plays: one node per play, every play's ledger from ``_final_credits``
    and every entry of every play judged again on every pass.  The
    reference ``prudence_table`` is checked against."""
    if len(spec.events) > 6:
        raise PreconditionError("prudence_table supports at most 6 events")
    events = sorted(spec.events)

    plays: list[tuple[str, ...]] = []

    def grow(prefix: tuple[str, ...], used: frozenset[str]) -> None:
        plays.append(prefix)
        for e in events:
            if e not in used and spec.compatible(used | {e}):
                grow(prefix + (e,), used | {e})

    grow((), frozenset())

    bodies = _bodies_by_head(spec)
    gamma = {p: _final_credits(spec, p, bodies) for p in plays}
    fireable = {
        p: tuple(
            e
            for e in events
            if e not in p and spec.compatible(frozenset(p) | {e})
        )
        for p in plays
    }
    owned = {a: spec.owned_by(a) for a in spec.participants}

    table: dict[tuple[str, ...], frozenset[str]] = {
        p: frozenset(fireable[p]) for p in plays
    }

    def prudent_here(
        base: tuple[str, ...],
        event: str,
        cur: dict[tuple[str, ...], frozenset[str]],
    ) -> bool:
        actor = spec.owner[event]
        mine = owned[actor]
        budget = gamma[base]

        def recovered(play: tuple[str, ...]) -> bool:
            return gamma[play] & mine <= budget

        def others_done(play: tuple[str, ...]) -> bool:
            return not any(spec.owner[x] != actor for x in cur[play])

        def safe(play: tuple[str, ...], ok: bool) -> bool:
            ok = ok or recovered(play)
            for nxt in fireable[play]:
                if spec.owner[nxt] != actor and not safe(play + (nxt,), ok):
                    return False
            if not ok and others_done(play):
                # A fair stop here would leave the actor exposed: it must be
                # able to keep the play alive safely on its own.
                return any(
                    safe(play + (nxt,), ok)
                    for nxt in fireable[play]
                    if spec.owner[nxt] == actor
                )
            return True

        return safe(base + (event,), False)

    while True:
        new_table = {
            p: frozenset(e for e in table[p] if prudent_here(p, e, table))
            for p in plays
        }
        if new_table == table:
            return new_table
        table = new_table


# --- references for the contract loader ------------------------------------


_GOAL_RE = re.compile(r"goal\s*\{([^{}]*)\}\s*", re.A)
_PAIRS_SHAPE_RE = re.compile(r"(?:\s*offers\s*\{[^{}]*\}\s*requests\s*\{[^{}]*\})+\s*", re.A)
_PAIR_RE = re.compile(r"offers\s*\{([^{}]*)\}\s*requests\s*\{([^{}]*)\}", re.A)


@dataclass
class _ClauseLine:
    head: str
    body: tuple[str, ...]
    kind: str
    lineno: int
    agent: str | None  # agent block active at this line


@dataclass
class _PayoffLine:
    participant: str
    form: str  # "goal" | "pairs"
    goal: frozenset[str]
    pairs: list[tuple[frozenset[str], frozenset[str]]]
    lineno: int


def analyze_reference(text: str) -> tuple[ContractSpec | None, list[Diagnostic]]:
    """The parser as it was before names were checked once per call and
    clauses built in the line loop: the reference ``dsl.analyze`` is checked
    against.  It has since taken one rule over, with ``validate_reference``:
    a name in ``RESERVED_WORDS``, which ``NAME_RE`` now refuses, is a
    ``reserved-identifier``."""
    diags: list[Diagnostic] = []

    def report(code: str, message: str, lineno: int, col: int | None = None) -> None:
        diags.append(Diagnostic(code, message, lineno, col))

    def good_name(token: str, lineno: int, col: int | None = None) -> bool:
        if NAME_RE.match(token):
            return True
        reserved = is_reserved_name(token) or token in RESERVED_WORDS
        code = "reserved-identifier" if reserved else "bad-identifier"
        report(code, f"{token!r} is not a valid name", lineno, col)
        return False

    participants: list[str] = []
    explicit_owner: dict[str, str] = {}
    clause_lines: list[_ClauseLine] = []
    conflict_lines: list[tuple[str, str, int]] = []
    payoff_lines: list[_PayoffLine] = []
    active_agent: str | None = None

    for lineno, raw in enumerate(text.lstrip("﻿").splitlines(), start=1):
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
            if not good_name(name, lineno, line.index(name) + 1):
                continue
            if name not in participants:
                participants.append(name)
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
            if not good_name(head_text, lineno, line.index(head_text) + 1):
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
                _ClauseLine(head_text, tuple(body), kind, lineno, active_agent)
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
            if not good_name(name, lineno, line.index(name) + 1):
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
    for cl in clause_lines:
        if cl.head in owner:
            continue
        if cl.agent is None:
            report(
                "no-active-agent",
                f"clause head {cl.head!r} appears before any agent",
                cl.lineno,
            )
        else:
            owner[cl.head] = cl.agent
    events = set(owner)

    def declared(ev: str, lineno: int, role: str) -> None:
        if ev not in events:
            report(
                "undeclared-event",
                f"{role} uses {ev!r}, which is neither owned nor a clause head",
                lineno,
            )

    seen_clauses: set[tuple[str, frozenset[str], str]] = set()
    for cl in clause_lines:
        for ev in cl.body:
            declared(ev, cl.lineno, f"clause for {cl.head!r}")
        key = (cl.head, frozenset(cl.body), cl.kind)
        if key in seen_clauses:
            report("duplicate-clause", f"clause for {cl.head!r} repeated", cl.lineno)
        seen_clauses.add(key)

    for e1, e2, lineno in conflict_lines:
        declared(e1, lineno, "conflict")
        declared(e2, lineno, "conflict")

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
        for ev in sorted(pl.goal):
            declared(ev, pl.lineno, "payoff")
        for offers, requests in pl.pairs:
            for ev in sorted(offers | requests):
                declared(ev, pl.lineno, "payoff")
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
        clauses=(Clause(cl.head, cl.body, cl.kind) for cl in clause_lines),
        conflicts=((e1, e2) for e1, e2, _ in conflict_lines),
        payoffs=payoffs,
    )
    residual = validate_reference(spec)
    if residual:
        return None, residual
    return spec, []


def compatible_reference(spec: ContractSpec, done) -> bool:
    """``ContractSpec.compatible`` as it was before it indexed the conflict
    pairs by member: a scan of every pair."""
    done = frozenset(done)
    return all(not pair <= done for pair in spec.conflicts)


def check_play_reference(spec: ContractSpec, play) -> tuple[str, ...]:
    """``model.check_play`` as it was before it indexed the conflicts: a
    scan of every pair after every step of an invalid play."""
    seq = tuple(play)
    whole = frozenset(seq)
    if len(whole) == len(seq) and whole <= spec.events and compatible_reference(spec, whole):
        return seq
    seen: set[str] = set()
    for i, e in enumerate(seq):
        if e not in spec.events:
            raise InvalidPlayError(f"position {i}: {e!r} is not an event of the contract")
        if e in seen:
            raise InvalidPlayError(f"position {i}: event {e!r} repeated")
        seen.add(e)
        if not compatible_reference(spec, seen):
            raise InvalidPlayError(f"position {i}: event {e!r} conflicts with an earlier event")
    raise AssertionError("unreachable: the whole-set checks accept every valid play")


def validate_reference(spec: ContractSpec) -> list[Diagnostic]:
    """``model.validate`` as it was before it sorted only its findings and
    indexed the conflicts: the reference ``validate`` is checked against."""
    out: list[Diagnostic] = []

    def bad(code: str, message: str) -> None:
        out.append(Diagnostic(code, message))

    def name_kind(n: str) -> str | None:
        if NAME_RE.match(n):
            return None
        reserved = is_reserved_name(n) or n in RESERVED_WORDS
        return "reserved-identifier" if reserved else "bad-identifier"

    for e in sorted(spec.events):
        kind = name_kind(e)
        if kind:
            bad(kind, f"event name {e!r} is not a valid identifier")
    for p in sorted(spec.participants):
        kind = name_kind(p)
        if kind:
            bad(kind, f"participant name {p!r} is not a valid identifier")

    for e in sorted(spec.events):
        if e not in spec.owner:
            bad("unowned-event", f"event {e!r} has no owner")
    for e, p in sorted(spec.owner.items()):
        if e not in spec.events:
            bad("unknown-event", f"owner entry for undeclared event {e!r}")
        if p not in spec.participants:
            bad("unknown-participant", f"event {e!r} owned by undeclared participant {p!r}")

    for c in sorted(spec.clauses, key=lambda c: (c.head, c.kind, sorted(c.body))):
        if c.head not in spec.events:
            bad("unknown-event", f"clause head {c.head!r} is not a declared event")
        for b in sorted(c.body):
            if b not in spec.events:
                bad("unknown-event", f"clause for {c.head!r} uses undeclared event {b!r}")
        if not compatible_reference(spec, c.body):
            bad(
                "conflicting-clause",
                f"clause for {c.head!r} has a body that violates a conflict",
            )

    for pair in sorted(spec.conflicts, key=sorted):
        for e in sorted(pair):
            if e not in spec.events:
                bad("unknown-event", f"conflict mentions undeclared event {e!r}")

    for p, payoff in sorted(spec.payoffs.items()):
        if p not in spec.participants:
            bad("unknown-participant", f"payoff for undeclared participant {p!r}")
        if not isinstance(payoff, (GoalPayoff, OfferRequestPayoff)):
            bad("bad-payoff", f"payoff for {p!r} is not a recognised reachability payoff")
            continue
        if isinstance(payoff, OfferRequestPayoff) and not payoff.pairs:
            bad("bad-payoff", f"payoff for {p!r} has no offers/requests pair")
        for e in sorted(payoff.events()):
            if e not in spec.events:
                bad("unknown-event", f"payoff for {p!r} mentions undeclared event {e!r}")

    return out


# --- references for the printer and the generator -----------------------------


_KIND_ORDER = {STANDARD: 0, CIRCULAR: 1}


def print_spec_reference(spec: ContractSpec) -> str:
    """``dsl.print_spec`` as it was before it sorted each distinct set once
    and each head's bodies as texts: one sort of ``(head, kind, sorted body)``
    tuples.  The reference ``print_spec`` is checked against."""
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
        (head, _KIND_ORDER[kind], sorted(body), kind) for head, body, kind in spec.clauses
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
            # A space sorts below every name character, so the joined texts
            # sort as the lists of names would.
            for offers, requests in sorted(
                (" ".join(sorted(o)), " ".join(sorted(r))) for o, r in payoff.pairs
            ):
                lines.append(f"payoff {p} offers {{{offers}}} requests {{{requests}}}")
    return "\n".join(lines) + "\n"


def shy_dancers_reference(n: int, circular=None) -> ContractSpec:
    """``gen.shy_dancers`` as it was before it built its clauses with
    ``tuple.__new__`` and handed each payoff a frozenset: one ``Clause`` call
    per clause and a tuple of pairs per payoff.  The reference
    ``shy_dancers`` is checked against."""
    if n < 2:
        raise PreconditionError("shy_dancers needs n >= 2")
    if n > MAX_SHY_DANCERS_N:
        raise PreconditionError(f"shy_dancers takes n <= {MAX_SHY_DANCERS_N}, got {n}")
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if circular is None:
        circular_cells = set(cells)
    else:
        circular_cells = set(circular)
        stray = sorted(circular_cells.difference(cells))
        if stray:
            raise PreconditionError(f"cells outside the {n}x{n} grid: {stray}")

    owner = {_event(c): _guest(c) for c in cells}
    clauses: list[Clause] = []
    payoffs: dict[str, OfferRequestPayoff] = {}
    for cell in cells:
        kind = CIRCULAR if cell in circular_cells else STANDARD
        neighbour_events = sorted(_event(nb) for nb in _neighbours(cell, n))
        # One frozenset per pair, shared by the clause and the payoff pair.
        pairs = [frozenset(pair) for pair in itertools.combinations(neighbour_events, 2)]
        event = _event(cell)
        clauses.extend(Clause(event, pair, kind) for pair in pairs)
        payoffs[_guest(cell)] = OfferRequestPayoff(tuple((pair, pair) for pair in pairs))
    return ContractSpec.of(owner=owner, clauses=clauses, payoffs=payoffs)


# --- exhaustive families and random generators ------------------------------


def single_slot_family():
    """Every theory over a,b,c with at most one clause per (head, kind) and
    bodies of at most two other atoms: 5^6 = 15625 theories."""

    def options(head: str):
        others = [x for x in ATOMS3 if x != head]
        return [
            None,
            frozenset(),
            frozenset({others[0]}),
            frozenset({others[1]}),
            frozenset(others),
        ]

    slots = [(h, k) for h in ATOMS3 for k in (STANDARD, CIRCULAR)]
    for combo in itertools.product(*[options(h) for h, _ in slots]):
        clauses = frozenset(
            Clause(h, body, k) for (h, k), body in zip(slots, combo) if body is not None
        )
        yield HornTheory(frozenset(ATOMS3), clauses)


def all_clauses3():
    """All 42 clauses over a,b,c with bodies of size at most two (the head
    may appear in its own body)."""
    out = []
    for head in ATOMS3:
        for kind in (STANDARD, CIRCULAR):
            for r in range(3):
                for body in itertools.combinations(ATOMS3, r):
                    out.append(Clause(head, frozenset(body), kind))
    return out


def sparse_family(max_clauses: int = 3):
    """Every theory over a,b,c built from at most *max_clauses* of the 42
    possible small clauses; includes self-referential and multi-clause heads."""
    pool = all_clauses3()
    for r in range(max_clauses + 1):
        for picked in itertools.combinations(pool, r):
            yield HornTheory(frozenset(ATOMS3), frozenset(picked))


def random_theory(rng: random.Random, min_atoms: int = 3, max_atoms: int = 6) -> HornTheory:
    n = rng.randint(min_atoms, max_atoms)
    atoms = LETTERS[:n]
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(atoms)
        kind = rng.choice((STANDARD, CIRCULAR))
        body = frozenset(rng.sample(atoms, rng.randint(0, min(3, n))))
        clauses.add(Clause(head, body, kind))
    return HornTheory(frozenset(atoms), frozenset(clauses))


def random_spec(rng: random.Random, max_events: int = 5, allow_conflicts: bool = False) -> ContractSpec:
    n = rng.randint(2, max_events)
    events = list(LETTERS[:n])
    participants = ["A", "B", "C"][: rng.randint(1, 3)]
    owner = {e: rng.choice(participants) for e in events}
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(events)
        kind = rng.choice((STANDARD, CIRCULAR))
        body = frozenset(rng.sample(events, rng.randint(0, min(3, n))))
        clauses.add(Clause(head, body, kind))
    conflicts = []
    if allow_conflicts and n >= 2 and rng.random() < 0.5:
        pair = rng.sample(events, 2)
        conflicts.append((pair[0], pair[1]))
        clauses = {c for c in clauses if not frozenset(pair) <= c.body}
    payoffs = {}
    for p in participants:
        if rng.random() < 0.3:
            continue
        if rng.random() < 0.6:
            payoffs[p] = GoalPayoff(frozenset(rng.sample(events, rng.randint(0, n))))
        else:
            pairs = tuple(
                (
                    frozenset(rng.sample(events, rng.randint(0, 2))),
                    frozenset(rng.sample(events, rng.randint(0, 2))),
                )
                for _ in range(rng.randint(1, 3))
            )
            payoffs[p] = OfferRequestPayoff(pairs)
    return ContractSpec.of(
        owner=owner,
        clauses=clauses,
        conflicts=conflicts,
        payoffs=payoffs,
        participants=participants,
    )
