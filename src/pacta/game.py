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
``credit_closure`` of the empty set, once per index.  ``prudent`` checks a
whole play step by step, each step against its own clauses, and
``unjustified`` reads the credit ledger of a sequence; both serve the game
queries here and proof traces in :mod:`pacta.logic`.  Each spec value builds
its index once and every query on it shares that one (:func:`_rules`).  All
operations in this module work on finite plays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .model import (
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    InvalidPlayError,
    OfferRequestPayoff,
    PreconditionError,
    Strategy,
    check_event_set,
    check_play,
)


class RuleIndex:
    """Clause tables keyed by head, shared by the game and logic layers.

    One pass over the clauses compiles both kinds: the standard clauses into
    the counter tables that ``_propagate`` runs on, so each fixpoint call
    only copies a list of counts, and the circular bodies into a list.  The
    table of circular bodies by atom, which ``_withdraw`` counts missing
    atoms on, is built by the first withdrawal and kept in its slot.
    """

    __slots__ = (
        "std_bodies",
        "circ_bodies",
        "_heads",
        "_by_atom",
        "_need",
        "_std_heads",
        "_facts",
        "_circ_heads",
        "_circ_by_atom",
        "_circ_list",
        "_last_next",
        "_provable",
    )

    def __init__(self, clauses: Iterable[Clause]):
        self.std_bodies: dict[str, list[frozenset[str]]] = {}
        self.circ_bodies: dict[str, list[frozenset[str]]] = {}
        self._std_heads: list[str] = []
        self._by_atom: dict[str, list[int]] = {}
        self._circ_heads: list[str] = []
        self._circ_by_atom: dict[str, list[int]] | None = None
        self._circ_list: list[frozenset[str]] = []
        need: list[int] = []
        facts: set[str] = set()
        std_bodies, std_heads, by_atom = self.std_bodies, self._std_heads, self._by_atom
        circ_bodies, circ_heads, circ_list = self.circ_bodies, self._circ_heads, self._circ_list
        for c in clauses:
            head, body = c.head, c.body
            if c.kind == STANDARD:
                std_bodies.setdefault(head, []).append(body)
                for a in body:
                    by_atom.setdefault(a, []).append(len(need))
                need.append(len(body))
                std_heads.append(head)
                if not body:
                    facts.add(head)
            else:
                circ_bodies.setdefault(head, []).append(body)
                circ_list.append(body)
                circ_heads.append(head)
        self._heads = frozenset(self.std_bodies) | frozenset(self.circ_bodies)
        self._need = need
        self._facts = frozenset(facts)
        self._last_next: tuple[frozenset[str], frozenset[str]] | None = None
        self._provable: frozenset[str] | None = None

    def closure(self, seed: Iterable[str]) -> set[str]:
        """Least set containing *seed* and closed under standard clauses."""
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
        the first closure withdraws nothing, that closure is the answer;
        otherwise ``_withdraw`` updates it in place, batch by batch.
        """
        base = set(done)
        grant = set(self.circ_bodies)
        closed, need = self._close(base | grant)
        circ = self.circ_bodies
        out = {e for e in grant if not any(b <= closed for b in circ[e])}
        if out:
            self._withdraw(closed, need, base, grant - out, out)
        return closed

    def _withdraw(
        self,
        closed: set[str],
        need: list[int],
        base: set[str],
        grant: set[str],
        out: set[str],
    ) -> None:
        """Take the grants *out* back from the closure *closed* of
        ``base ∪ grant ∪ out``, and every grant that loses its last circular
        body on the way, leaving the closure of *base* and the grants kept.

        Delete and rederive, on the counters *need* of ``_close``: each
        batch of withdrawn grants first overdeletes every atom a derivation
        of which used one (atoms of *base*, facts and grants still held are
        spared), then rederives, with ``_propagate``, the overdeleted atoms
        that some standard clause still supports.  Missing-atom counts per
        circular body, on the table of bodies by atom, name the grants
        of the next batch: those whose last full body lost an atom.  Each
        batch touches only the clauses of the atoms it moves.
        """
        by_atom = self._by_atom
        heads = self._std_heads
        std = self.std_bodies
        circ_heads = self._circ_heads
        circ_by_atom = self._circ_by_atom
        if circ_by_atom is None:
            circ_by_atom = self._circ_by_atom = {}
            for k, body in enumerate(self._circ_list):
                for a in body:
                    circ_by_atom.setdefault(a, []).append(k)
        keep = base | self._facts
        missing = [len(b - closed) for b in self._circ_list]
        full = dict.fromkeys(self.circ_bodies, 0)  # bodies with none missing
        for k, m in enumerate(missing):
            if not m:
                full[circ_heads[k]] += 1
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
                for k in circ_by_atom.get(a, ()):
                    missing[k] += 1
                    if missing[k] == 1:
                        h = circ_heads[k]
                        full[h] -= 1
                        if not full[h] and h in grant:
                            out.add(h)
            grant -= out

    def next_events(self, done: frozenset[str]) -> frozenset[str]:
        """Events not yet in *done* that can be performed prudently now.

        The last answer is kept, so asking again about the same *done* is a
        set comparison: in ``simulate`` every strategy synthesized for one
        spec asks once per step, and only the first of them computes.  The
        key and the answer are stored as one tuple, so concurrent callers can
        at worst compute again.
        """
        done = frozenset(done)
        last = self._last_next
        if last is not None and last[0] == done:
            return last[1]
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

    def prudent(self, seq: Sequence[str]) -> bool:
        """Is every step of *seq* in ``next_events`` of the steps before it?

        Each step is checked against its own clauses: a standard body inside
        its past passes it, and only otherwise is ``credit_closure`` of the
        past asked for one of its circular bodies.  A repeated step never
        passes: a done event is never next.
        """
        past: set[str] = set()
        for e in seq:
            if e in past:
                return False
            if not any(b <= past for b in self.std_bodies.get(e, ())):
                bodies = self.circ_bodies.get(e, ())
                if not bodies:
                    return False
                closed = self.credit_closure(past)
                if not any(b <= closed for b in bodies):
                    return False
            past.add(e)
        return True

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


def _rules(spec: ContractSpec) -> RuleIndex:
    """The spec's one ``RuleIndex``, built on first use and kept in the
    spec's instance ``__dict__``, so that all queries on one spec value, and
    all strategies synthesized for it, share its tables and its
    ``next_events`` memo.

    The index reads only ``clauses``, which ``ContractSpec`` stores as a
    frozenset, so it can never go stale, and it lives and dies with the
    value: a new value, ``dataclasses.replace`` included, builds its own.
    Keeping it on the value, not in a table keyed by it, spares every lookup
    a comparison of whole clause sets.
    """
    index = spec.__dict__.get("_rule_index")
    if index is None:
        index = spec.__dict__["_rule_index"] = RuleIndex(spec.clauses)
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
    """True when every step of *play* is prudent at the moment it is taken."""
    _require_conflict_free(spec, "is_prudent_play")
    return _rules(spec).prudent(check_play(spec, play))


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

    Requires a conflict-free spec whose payoffs are total and depend only on
    the set of performed events (both built-in payoff forms qualify).
    """
    _require_conflict_free(spec, "agreement")
    _require_total_payoffs(spec, "agreement")
    for p, payoff in spec.payoffs.items():
        if not isinstance(payoff, (GoalPayoff, OfferRequestPayoff)):
            raise PreconditionError(
                f"payoff for {p!r} is not a reachability payoff"
            )
    done = _rules(spec).provable()
    return all(spec.payoffs[p].holds(done) for p in spec.participants)


def synthesize_strategy(spec: ContractSpec, participant: str) -> Strategy:
    """The prudent strategy: always offer every prudent owned event."""
    _require_conflict_free(spec, "synthesize_strategy")
    _require_participant(spec, participant)
    rules = _rules(spec)
    owned = spec.owned_by(participant)

    def choose(play: tuple[str, ...]) -> frozenset[str]:
        seq = check_play(spec, play)
        return rules.next_events(frozenset(seq)) & owned

    return Strategy(participant=participant, choose=choose)


def simulate(
    spec: ContractSpec,
    strategies: Sequence[Strategy],
    seed: int = 0,
) -> tuple[tuple[str, ...], GameVerdict]:
    """Run the strategies to quiescence under a fair scheduler.

    Exactly one strategy per participant is required.  At every step each
    strategy is asked for offers (which must be owned and fresh; the spec is
    conflict-free, so a fresh event is always playable);
    the scheduler fires the event whose uninterrupted offer streak started
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
    play: list[str] = []
    played: set[str] = set()
    streak_start: dict[str, int] = {}
    step = 0
    while True:
        snapshot = tuple(play)
        offered: set[str] = set()
        for p in sorted(by_part):
            strat = by_part[p]
            for e in sorted(strat.offers(snapshot)):
                if e not in spec.events or spec.owner.get(e) != p:
                    raise InvalidPlayError(
                        f"strategy for {p!r} offered {e!r}, which it does not own"
                    )
                if e in played:
                    raise InvalidPlayError(
                        f"strategy for {p!r} offered unplayable {e!r} after "
                        f"<{','.join(snapshot) or 'empty'}>"
                    )
                offered.add(e)
        streak_start = {e: t for e, t in streak_start.items() if e in offered}
        for e in sorted(offered):
            streak_start.setdefault(e, step)
        if not offered:
            break
        oldest = min(streak_start.values())
        candidates = sorted(e for e, t in streak_start.items() if t == oldest)
        chosen = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        play.append(chosen)
        played.add(chosen)
        del streak_start[chosen]
        step += 1

    seq = tuple(play)
    return seq, GameVerdict(play=seq, participants=_verdict_rows(spec, seq, spec.participants))
