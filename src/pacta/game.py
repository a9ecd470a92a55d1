"""Game semantics of contracts: credits, prudence, winning, agreement.

The polynomial core is :class:`RuleIndex`, a clause table with three fixpoint
routines:

* ``closure`` — ordinary forward chaining over standard clauses;
* ``credit_closure`` — the largest consistent "credit grant": start by
  granting every circular head, close under standard clauses, and withdraw
  any grant whose circular justification is not contained in the closure,
  until stable.  One closure under every grant is computed; withdrawn
  grants are then taken back from its counters by delete and rederive, so
  a withdrawal costs the clauses of the atoms it moves, not a new closure;
* ``next_events`` — events that can be performed *prudently* after a set of
  done events: enabled outright by a standard clause, or backed by a circular
  clause whose body the rest of the play can still honour.

Iterating ``next_events`` from the empty set yields exactly the events of the
contract that can be brought about by prudent cooperation, which is what the
agreement check is built on; ``provable`` gets the same set from a single
``credit_closure`` of the empty set, once per index.  A prudent step never
moves the credit closure, so every past inside ``provable`` has it as its
credit closure, and ``next_events`` follows a prudent play by deltas.
``_credit_spans`` reads each step's credit interval: ``credits`` sweeps
them, and ``unjustified`` keeps those never closed, the final ledger.  A
play is a proof trace (:mod:`pacta.logic`) when that ledger is empty and
prudent when every step in it has a circular body inside ``provable``.
Every query on a spec or theory shares its one index (:func:`_rules`).  All
operations in this module work on finite plays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .model import (
    STANDARD,
    Clause,
    ContractSpec,
    InvalidPlayError,
    PreconditionError,
    Strategy,
    check_event_set,
    check_play,
)

if TYPE_CHECKING:
    from .logic import HornTheory


class RuleIndex:
    """Clause tables keyed by head, shared by the game and logic layers.

    One pass over the clauses files both kinds of body by head and compiles
    the standard clauses into the counter tables that ``_propagate`` runs
    on, so each fixpoint call only copies a list of counts.  Besides these
    tables it keeps only two answers: ``provable`` and the last
    ``next_events``.
    """

    __slots__ = (
        "std_bodies",
        "circ_bodies",
        "_heads",
        "_by_atom",
        "_need",
        "_std_heads",
        "_facts",
        "_last_next",
        "_provable",
    )

    def __init__(self, clauses: Iterable[Clause]):
        self.std_bodies: dict[str, list[frozenset[str]]] = {}
        self.circ_bodies: dict[str, list[frozenset[str]]] = {}
        self._std_heads: list[str] = []
        self._by_atom: dict[str, list[int]] = {}
        need: list[int] = []
        facts: set[str] = set()
        std_bodies, std_heads, by_atom = self.std_bodies, self._std_heads, self._by_atom
        circ_bodies = self.circ_bodies
        for head, body, kind in clauses:
            if kind == STANDARD:
                std_bodies.setdefault(head, []).append(body)
                for a in body:
                    by_atom.setdefault(a, []).append(len(need))
                need.append(len(body))
                std_heads.append(head)
                if not body:
                    facts.add(head)
            else:
                circ_bodies.setdefault(head, []).append(body)
        self._heads = frozenset(self.std_bodies) | frozenset(self.circ_bodies)
        self._need = need
        self._facts = frozenset(facts)
        self._last_next: tuple[frozenset[str], frozenset[str]] | None = None
        self._provable: frozenset[str] | None = None

    def closure(self, seed: Iterable[str]) -> set[str]:
        """Least set containing *seed* and closed under standard clauses.

        No ``src/`` code calls it; ``perfbench/tracer.py`` patches it by
        name (ROADMAP item 2)."""
        return self._close(seed)[0]

    def _close(self, seed: Iterable[str]) -> tuple[set[str], list[int]]:
        """``closure(seed)`` and its counters: how many body atoms of each
        standard clause lie outside the closure."""
        done = set(seed)
        done |= self._facts
        need = self._need.copy()
        self._propagate(done, need, list(done))
        return done, need

    def _propagate(self, closed: set[str], need: list[int], queue: list[str]) -> None:
        """Forward chaining: count the atoms of *queue*, already in *closed*,
        out of the counters *need*, adding each head whose clause they
        complete to *closed* and to the queue."""
        heads = self._std_heads
        by_atom = self._by_atom
        while queue:
            for idx in by_atom.get(queue.pop(), ()):
                need[idx] -= 1
                if need[idx] == 0:
                    h = heads[idx]
                    if h not in closed:
                        closed.add(h)
                        queue.append(h)

    def credit_closure(self, done: Iterable[str]) -> set[str]:
        """Everything obtainable from *done* when credit is granted soundly.

        The largest consistent grant: grant every circular head, close under
        the standard clauses, and withdraw each grant none of whose circular
        bodies lies inside the closure, until no grant is withdrawn.  When
        the first closure withdraws nothing, it is the answer.

        Otherwise the grants are taken back by delete and rederive, on the
        counters of that closure, batch by batch: each batch first
        overdeletes every atom a derivation of which used a withdrawn grant
        (atoms of *done*, facts and grants still held are spared), then
        rederives, with ``_propagate``, the overdeleted atoms that some
        standard clause still supports.  The closure only shrinks, so a
        circular body outside the first closure never holds again: only the
        bodies inside it are filed under their atoms, and a grant falls in
        the next batch when its last filed body loses its first atom.  Each
        batch touches only the clauses of the atoms it moves.
        """
        base = set(done)
        grant = set(self.circ_bodies)
        closed, need = self._close(base | grant)
        circ = self.circ_bodies
        out = {e for e in grant if not any(b <= closed for b in circ[e])}
        if not out:
            return closed
        grant -= out
        owner: list[str | None] = []  # the grant of each filed body, None once broken
        filed: dict[str, list[int]] = {}
        whole = dict.fromkeys(grant, 0)  # filed bodies of each grant not yet broken
        for h in grant:
            for b in circ[h]:
                if b <= closed:
                    for a in b:
                        filed.setdefault(a, []).append(len(owner))
                    owner.append(h)
                    whole[h] += 1
        by_atom, heads, std = self._by_atom, self._std_heads, self.std_bodies
        keep = base | self._facts
        while out:
            gone = out - keep
            closed -= gone
            stack = list(gone)
            while stack:
                for idx in by_atom.get(stack.pop(), ()):
                    need[idx] += 1
                    if need[idx] == 1:
                        h = heads[idx]
                        if h in closed and h not in keep and h not in grant:
                            closed.discard(h)
                            gone.add(h)
                            stack.append(h)
            # need[i] always equals |body_i − closed|, so testing the bodies
            # is testing the counters for zero.
            queue = [h for h in gone if any(b <= closed for b in std.get(h, ()))]
            closed.update(queue)
            self._propagate(closed, need, queue)
            out = set()
            for a in gone - closed:
                for k in filed.get(a, ()):
                    h = owner[k]
                    if h is not None:
                        owner[k] = None
                        whole[h] -= 1
                        if not whole[h]:
                            out.add(h)
            grant -= out
        return closed

    def next_events(self, done: frozenset[str]) -> frozenset[str]:
        """Events not yet in *done* that can be performed prudently now.

        A prudent step never moves the credit closure: if ``e`` is in
        ``credit_closure(X)``, then ``credit_closure(X ∪ {e})`` equals it.
        (The largest consistent grant of ``X ∪ {e}``, joined with that of
        ``X``, is consistent for ``X``, whose closure already holds ``e``.)
        As ``credit_closure(∅)`` is ``provable()``, every ``X ⊆ provable()``
        has ``credit_closure(X) = provable()``.

        So the answer is found, cheapest first: the last answer again, for
        the same *done* (tested by identity before equality; in ``simulate``
        every strategy synthesized for the spec asks once per step, with the
        event set of the step's ``_Play``); a delta, when *done* adds one
        event of the last answer to its key: that answer, minus the event,
        plus the heads of the standard clauses the event completes; the
        clauses read against ``provable()``, when the index has already
        computed it and *done* lies inside it; and only otherwise a full
        ``credit_closure``.  A one-shot query never computes ``provable()``
        to test the third.  The key and the answer are stored as one tuple,
        so concurrent callers can at worst compute again.
        """
        done = frozenset(done)
        last = self._last_next
        if last is not None:
            key, answer = last
            if key is done or key == done:
                return answer
            if len(done) == len(key) + 1 and key <= done:
                (e,) = done - key
                if e in answer:
                    heads, std = self._std_heads, self.std_bodies
                    result = answer.difference((e,)).union(
                        h
                        for idx in self._by_atom.get(e, ())
                        if (h := heads[idx]) not in done and any(b <= done for b in std[h])
                    )
                    self._last_next = (done, result)
                    return result
        provable = self._provable
        if provable is not None and done <= provable:
            closed = provable
        else:
            closed = self.credit_closure(done)
        out: set[str] = set()
        for e in self._heads:
            if e in done:
                continue
            if any(b <= done for b in self.std_bodies.get(e, ())):
                out.add(e)
            elif any(b <= closed for b in self.circ_bodies.get(e, ())):
                out.add(e)
        result = frozenset(out)
        self._last_next = (done, result)
        return result

    def provable(self) -> frozenset[str]:
        """Least fixpoint of ``X ∪ next_events(X)`` from the empty set.

        The fixpoint equals ``credit_closure(∅)``, everything obtainable from
        nothing when credit is granted soundly, so one call computes it; the
        index keeps the answer, as it depends on the clauses alone.
        """
        if self._provable is None:
            self._provable = frozenset(self.credit_closure(()))
        return self._provable

    def unjustified(self, seq: Sequence[str]) -> frozenset[str]:
        """The final credit ledger of the duplicate-free sequence *seq*.

        A step is justified by a standard body inside its past or by a
        circular body inside the whole sequence; the rest stay on credit.
        These are the steps whose credit interval never closes.
        """
        never = len(seq) + 1
        return frozenset(e for e, _, closes in self._credit_spans(seq) if closes == never)

    def _credit_spans(self, seq: Sequence[str]) -> list[tuple[str, int, int]]:
        """``(event, opens, closes)`` for every step of the duplicate-free
        *seq* that ever goes on credit: it is in the ledger of the prefix of
        length ``i`` exactly when ``opens <= i < closes``.

        The step at position ``j`` is judged against its fixed past
        ``seq[:j]`` by the standard clauses, so a step they do not justify
        opens at ``j + 1``.  A prefix contains a body from the length just
        past the body's last position on, and keeps containing it, so the
        step closes at the shortest prefix that holds one of its circular
        bodies, or never (``len(seq) + 1``) when none lies inside *seq*.
        """
        never = len(seq) + 1
        whole = frozenset(seq)
        where = {a: i + 1 for i, a in enumerate(seq)}  # shortest prefix holding each step
        past: set[str] = set()
        spans: list[tuple[str, int, int]] = []
        for j, e in enumerate(seq):
            justified = any(b <= past for b in self.std_bodies.get(e, ()))
            past.add(e)
            if justified:
                continue
            held = [b for b in self.circ_bodies.get(e, ()) if b <= whole]
            if not held:
                spans.append((e, j + 1, never))
            elif not any(b <= past for b in held):
                spans.append((e, j + 1, min(max(where[a] for a in b) for b in held)))
        return spans


def _rules(value: ContractSpec | HornTheory) -> RuleIndex:
    """The one ``RuleIndex`` of a spec or theory value, built on first use
    and kept in the value's instance ``__dict__``, so that all queries on
    one value, and all strategies synthesized for a spec, share its tables
    and its ``next_events`` memo.  At a ``simulate`` step those strategies
    ask the memo about one shared set, the one the step's ``_Play`` carries.

    The index reads only ``clauses``, which both frozen dataclasses store as
    a frozenset, so it can never go stale, and it lives and dies with the
    value: a new value, ``dataclasses.replace`` included, builds its own.
    Keeping it on the value, not in a table keyed by it, spares every lookup
    a comparison of whole clause sets.
    """
    index = value.__dict__.get("_rule_index")
    if index is None:
        index = value.__dict__["_rule_index"] = RuleIndex(value.clauses)
    return index


def _require_conflict_free(spec: ContractSpec, op: str) -> None:
    if spec.conflicts:
        raise PreconditionError(f"{op} requires a conflict-free specification")


def _require_participant(spec: ContractSpec, participant: str) -> None:
    if participant not in spec.participants:
        raise PreconditionError(f"unknown participant: {participant!r}")


def reachable(spec: ContractSpec, done: Iterable[str]) -> frozenset[str]:
    """Events obtainable on credit from *done* (excluding *done* itself)."""
    _require_conflict_free(spec, "reachable")
    X = check_event_set(spec, done)
    return frozenset(_rules(spec).credit_closure(X)) - X


def prudent_events(spec: ContractSpec, done: Iterable[str]) -> frozenset[str]:
    """Events that can be prudently performed right after the events in *done*."""
    _require_conflict_free(spec, "prudent_events")
    X = check_event_set(spec, done)
    return _rules(spec).next_events(X)


def is_prudent_play(spec: ContractSpec, play: Sequence[str]) -> bool:
    """True when every step of *play* is prudent at the moment it is taken.

    That is when each step of the final ledger (``unjustified``) has a
    circular body inside ``provable()``, the credit closure of every prefix
    of a prudent play (see ``next_events``); granting those steps with
    ``provable()`` is consistent.  Only a non-empty ledger computes it.
    """
    _require_conflict_free(spec, "is_prudent_play")
    rules = _rules(spec)
    ledger = rules.unjustified(check_play(spec, play))
    if not ledger:
        return True
    provable, circ = rules.provable(), rules.circ_bodies
    return all(any(b <= provable for b in circ.get(e, ())) for e in ledger)


def provable_events(spec: ContractSpec) -> frozenset[str]:
    """All events prudent cooperation can bring about from scratch."""
    _require_conflict_free(spec, "provable_events")
    return _rules(spec).provable()


@dataclass(frozen=True)
class CreditLedger:
    """Credits after each prefix of a play.

    ``per_prefix[i]`` holds the events of the first ``i`` moves that are, at
    that point, neither enabled by their own past (standard clauses) nor
    backed for the whole prefix (circular clauses).  ``per_prefix[0]`` is
    always empty; ``final`` is the ledger after the complete play.
    """

    per_prefix: tuple[frozenset[str], ...]

    @property
    def final(self) -> frozenset[str]:
        return self.per_prefix[-1]


def credits(spec: ContractSpec, play: Sequence[str]) -> CreditLedger:
    """Compute the credit ledger of *play* (conflicting specs are fine here).

    Circular justification is monotone in the prefix, so each step is on
    credit for one interval of prefixes (``RuleIndex._credit_spans``); one
    sweep over the prefixes adds each step where its interval opens and
    drops it where it closes.  The cost is the play plus the clause bodies
    of its steps plus the size of the answer.
    """
    seq = check_play(spec, play)
    opens: list[list[str]] = [[] for _ in range(len(seq) + 2)]
    closes: list[list[str]] = [[] for _ in range(len(seq) + 2)]
    for e, start, stop in _rules(spec)._credit_spans(seq):
        opens[start].append(e)
        closes[stop].append(e)
    pending: set[str] = set()
    per_prefix: list[frozenset[str]] = []
    for i in range(len(seq) + 1):
        pending.update(opens[i])
        pending.difference_update(closes[i])
        per_prefix.append(frozenset(pending))
    return CreditLedger(tuple(per_prefix))


def innocent(spec: ContractSpec, participant: str, play: Sequence[str]) -> bool:
    """No urgent event of *participant* is left undone at the end of *play*."""
    _require_conflict_free(spec, "innocent")
    _require_participant(spec, participant)
    seq = check_play(spec, play)
    pending = _rules(spec).next_events(frozenset(seq))
    return not (pending & spec.owned_by(participant))


def credit_free(spec: ContractSpec, participant: str, play: Sequence[str]) -> bool:
    """None of *participant*'s events remain on credit after *play*."""
    _require_participant(spec, participant)
    final = _rules(spec).unjustified(check_play(spec, play))
    return not (final & spec.owned_by(participant))


@dataclass(frozen=True)
class ParticipantVerdict:
    innocent: bool
    credit_free: bool
    wins: bool


@dataclass(frozen=True)
class GameVerdict:
    """Outcome of a finished play, one row per participant (read-only)."""

    play: tuple[str, ...]
    participants: Mapping[str, ParticipantVerdict] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "participants", MappingProxyType(dict(self.participants)))


def _verdict_rows(
    spec: ContractSpec, seq: tuple[str, ...], participants: Iterable[str]
) -> dict[str, ParticipantVerdict]:
    """The verdict row of each of *participants* after the finished play *seq*.

    A participant is innocent when none of its events is still prudent and
    credit-free when none is left on credit.  It wins when it is innocent and
    either someone else is not, or it is credit-free and its payoff holds.
    """
    rules = _rules(spec)
    done = frozenset(seq)
    owner = spec.owner.get  # None for an unowned head: no participant
    culprits = {owner(e) for e in rules.next_events(done)} & spec.participants
    debtors = {owner(e) for e in rules.unjustified(seq)}
    rows: dict[str, ParticipantVerdict] = {}
    for p in sorted(participants):
        inn = p not in culprits
        cf = p not in debtors
        # An innocent participant is no culprit, so any culprit is someone else.
        won = inn and (bool(culprits) or (cf and spec.payoffs[p].holds(done)))
        rows[p] = ParticipantVerdict(innocent=inn, credit_free=cf, wins=won)
    return rows


def _require_total_payoffs(spec: ContractSpec, op: str) -> None:
    missing = sorted(spec.participants - set(spec.payoffs))
    if missing:
        raise PreconditionError(
            f"{op} needs a payoff for every participant; missing: {', '.join(missing)}"
        )


def verdict(spec: ContractSpec, play: Sequence[str]) -> GameVerdict:
    """Judge a finished play: innocence, credits, and winners."""
    _require_conflict_free(spec, "verdict")
    _require_total_payoffs(spec, "verdict")
    seq = check_play(spec, play)
    return GameVerdict(play=seq, participants=_verdict_rows(spec, seq, spec.participants))


def wins(spec: ContractSpec, participant: str, play: Sequence[str]) -> bool:
    """Does *participant* win the finished *play*?

    A participant wins positively (their payoff holds, they are innocent and
    credit-free) or by default (they are innocent while someone else is not).
    """
    _require_conflict_free(spec, "wins")
    _require_participant(spec, participant)
    if participant not in spec.payoffs:
        raise PreconditionError(f"participant {participant!r} has no payoff")
    seq = check_play(spec, play)
    return _verdict_rows(spec, seq, (participant,))[participant].wins


def agreement(spec: ContractSpec) -> bool:
    """Can every participant's payoff be met by prudent cooperation?

    Requires a conflict-free spec whose payoffs are total.
    """
    _require_conflict_free(spec, "agreement")
    _require_total_payoffs(spec, "agreement")
    done = _rules(spec).provable()
    return all(spec.payoffs[p].holds(done) for p in spec.participants)


def synthesize_strategy(spec: ContractSpec, participant: str) -> Strategy:
    """The prudent strategy: always offer every prudent owned event."""
    _require_conflict_free(spec, "synthesize_strategy")
    _require_participant(spec, participant)
    rules = _rules(spec)
    owned = spec.owned_by(participant)

    def choose(play: tuple[str, ...]) -> frozenset[str]:
        if type(play) is _Play and play.spec is spec:
            done = play.events  # simulate checked it and shares the set
        else:
            done = frozenset(check_play(spec, play))
        return rules.next_events(done) & owned

    return Strategy(participant=participant, choose=choose)


class _Play(tuple):
    """The play at one ``simulate`` step, a tuple that also carries the spec
    it is a valid play of and its event set.  The strategies synthesized for
    that spec value read the set instead of checking the play, so they all
    hand ``next_events`` the same set, which its memo finds by identity."""

    def __new__(cls, moves: Iterable[str], spec: ContractSpec, events: frozenset[str]):
        play = tuple.__new__(cls, moves)
        play.spec, play.events = spec, events
        return play


def simulate(
    spec: ContractSpec,
    strategies: Sequence[Strategy],
    seed: int = 0,
) -> tuple[tuple[str, ...], GameVerdict]:
    """Run the strategies to quiescence under a fair scheduler.

    Exactly one strategy per participant is required.  At every step each
    strategy, in participant order, is asked for offers about one shared
    tuple of the play so far, a ``_Play`` (offers must be owned and fresh;
    the spec is conflict-free, so a fresh event is always playable); the
    scheduler fires the event whose uninterrupted offer streak started
    earliest, breaking ties uniformly at random with the given seed.  The loop
    stops when nobody offers, which makes the resulting finite play fair with
    respect to all the strategies.
    """
    _require_conflict_free(spec, "simulate")
    _require_total_payoffs(spec, "simulate")
    by_part: dict[str, Strategy] = {}
    for s in strategies:
        if s.participant in by_part:
            raise PreconditionError(f"duplicate strategy for {s.participant!r}")
        _require_participant(spec, s.participant)
        by_part[s.participant] = s
    missing = sorted(spec.participants - set(by_part))
    if missing:
        raise PreconditionError(f"no strategy for: {', '.join(missing)}")

    rng = random.Random(seed)
    # Each participant with the events it may offer: owned and declared.
    in_order = [(p, by_part[p], spec.owned_by(p) & spec.events) for p in sorted(by_part)]
    play: list[str] = []
    streak_start: dict[str, int] = {}
    while True:
        done = frozenset(play)
        snapshot = _Play(play, spec, done)
        offered: set[str] = set()
        for p, strat, mine in in_order:
            offers = strat.offers(snapshot)
            if not (offers <= mine and done.isdisjoint(offers)):
                for e in sorted(offers):  # name the first bad offer
                    if e not in mine:
                        raise InvalidPlayError(
                            f"strategy for {p!r} offered {e!r}, which it does not own"
                        )
                    if e in done:
                        raise InvalidPlayError(
                            f"strategy for {p!r} offered unplayable {e!r} after "
                            f"<{','.join(snapshot) or 'empty'}>"
                        )
            offered |= offers
        streak_start = {e: t for e, t in streak_start.items() if e in offered}
        for e in offered.difference(streak_start):
            streak_start[e] = len(play)
        if not offered:
            break
        oldest = min(streak_start.values())
        candidates = sorted(e for e, t in streak_start.items() if t == oldest)
        chosen = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        play.append(chosen)
        del streak_start[chosen]

    seq = tuple(play)
    return seq, GameVerdict(play=seq, participants=_verdict_rows(spec, seq, spec.participants))
