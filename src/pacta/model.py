"""Core data model: events, clauses, payoffs, contract specifications.

A contract is a set of events, each owned by a participant, together with
enabling clauses and (optionally) conflicts and payoffs.  A clause
``head <- body`` comes in two kinds: a *standard* clause enables its head once
every body event has already happened, while a *circular* clause enables its
head as soon as the body events are guaranteed by the rest of the play — the
head may be performed "on credit" before the body is done.

Everything here is an immutable value object; the algorithms live in
:mod:`pacta.game`, :mod:`pacta.logic` and :mod:`pacta.oracle`.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

STANDARD = "standard"
CIRCULAR = "circular"

#: Words of the contract language that no event or participant may be named:
#: ``true`` is the empty clause body, so ``clause a <- true`` could not name it.
RESERVED_WORDS = frozenset({"true"})

# An identifier that is not a reserved word, up to a newline or the end.
_NAME = rf"(?!(?:{'|'.join(sorted(RESERVED_WORDS))})(?:\n|\Z))[A-Za-z_][A-Za-z0-9_]*"
#: Names a contract file may use for events and participants: identifiers
#: other than the reserved words.
NAME_RE = re.compile(rf"{_NAME}\Z")

#: Names joined by newlines: one match checks every one against ``NAME_RE``.
NAME_LINES_RE = re.compile(rf"{_NAME}(?:\n{_NAME})*\Z")

#: Prefixes reserved for the urgency encoding (see :func:`pacta.logic.encode_urgency`).
RESERVED_PREFIXES = ("R$", "U$")


class SpecError(ValueError):
    """Base class for domain errors raised by this package."""


class InvalidSpecError(SpecError):
    """A specification failed validation.

    Carries the offending :class:`Diagnostic` list in ``diagnostics``.
    """

    def __init__(self, diagnostics: list["Diagnostic"]):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(d.message for d in self.diagnostics) or "invalid specification"
        super().__init__(lines)


class InvalidPlayError(SpecError):
    """A play (sequence of events) violates the rules of the specification."""


class PreconditionError(SpecError):
    """An operation was invoked outside its supported domain.

    Examples: asking for prudent events of a specification with conflicts,
    simulating without a strategy for every participant, or encoding a theory
    whose atom names collide with the reserved tag namespace.
    """


def is_reserved_name(name: str) -> bool:
    """True if *name* belongs to the tag namespace of the urgency encoding."""
    return name.startswith(RESERVED_PREFIXES) or "!" in name


def _bad_name_code(name: str) -> str:
    """The code of the finding about *name*, a name ``NAME_RE`` refuses."""
    reserved = name in RESERVED_WORDS or is_reserved_name(name)
    return "reserved-identifier" if reserved else "bad-identifier"


@dataclass(frozen=True)
class Diagnostic:
    """A single validation or parse finding."""

    code: str
    message: str
    line: int | None = None
    column: int | None = None

    def render(self) -> str:
        where = ""
        if self.line is not None:
            where = f"line {self.line}"
            if self.column is not None:
                where += f", col {self.column}"
            where += ": "
        return f"{where}[{self.code}] {self.message}"


class _ClauseFields(NamedTuple):
    head: str
    body: frozenset[str]
    kind: str


class Clause(_ClauseFields):
    """An enabling clause ``head <- body`` of the given kind.

    ``body`` is a set of events; the empty body means the head is enabled
    unconditionally.  ``kind`` is :data:`STANDARD` or :data:`CIRCULAR`.

    A clause is a named tuple ``(head, body, kind)``, so it is built,
    hashed and compared in C: a loaded file builds one per line, and every
    set of clauses hashes and compares them.  It equals the plain tuple of
    its fields and hashes as ``hash((head, body, kind))``, which fixes the
    iteration order of every set of clauses.  Reading a field by name costs
    about twice as much as unpacking, so loops over many clauses unpack.
    """

    __slots__ = ()

    def __new__(cls, head: str, body: Iterable[str], kind: str = STANDARD) -> "Clause":
        if kind not in (STANDARD, CIRCULAR):
            raise ValueError(f"unknown clause kind: {kind!r}")
        if isinstance(body, str):  # frozenset would split it into characters
            raise TypeError(f"body of the clause for {head!r} is a string, not a set of events")
        return tuple.__new__(cls, (head, frozenset(body), kind))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Clause":
        # The named tuple's own _make, which _replace calls, skips __new__.
        return cls(*iterable)

    def __repr__(self) -> str:  # keep test failure output readable
        head, body, kind = self
        arrow = "<-" if kind == STANDARD else "<<-"
        return f"Clause({head} {arrow} {', '.join(sorted(body)) or 'true'})"


def std(head: str, *body: str) -> Clause:
    """Shorthand for a standard clause."""
    return Clause(head, frozenset(body), STANDARD)


def circ(head: str, *body: str) -> Clause:
    """Shorthand for a circular clause."""
    return Clause(head, frozenset(body), CIRCULAR)


def _event_set(events: Iterable[str], what: str) -> frozenset[str]:
    if isinstance(events, str):  # frozenset would split it into characters
        raise TypeError(f"{what} is a string, not a set of names")
    return frozenset(events)


def _clause_set(clauses: Iterable[Clause], what: str) -> frozenset[Clause]:
    if isinstance(clauses, str):  # frozenset would split it into characters
        raise TypeError(f"{what} is a string, not a set of clauses")
    return frozenset(clauses)


@dataclass(frozen=True)
class GoalPayoff:
    """Participant is satisfied once every goal event has happened."""

    goal: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", _event_set(self.goal, "the goal"))

    def holds(self, done: frozenset[str]) -> bool:
        return self.goal <= done

    def events(self) -> frozenset[str]:
        return self.goal


@dataclass(frozen=True)
class OfferRequestPayoff:
    """Conditional payoff built from (offer, request) pairs.

    Satisfied on an event set X when every honoured offer has its request
    honoured too (for all pairs, O ⊆ X implies R ⊆ X) and at least one
    request is fully in X.  With no pairs at all the payoff is never
    satisfied; the DSL cannot write such a payoff, so ``validate`` reports it.
    ``pairs`` is a frozenset, since the order and repeats of pairs carry no
    meaning; the printer sorts them.
    """

    pairs: frozenset[tuple[frozenset[str], frozenset[str]]]

    def __post_init__(self) -> None:
        if isinstance(self.pairs, str):
            raise TypeError("OfferRequestPayoff.pairs is a string, not a set of pairs")
        pairs = frozenset(
            (_event_set(o, "an offer"), _event_set(r, "a request")) for o, r in self.pairs
        )
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _trusted(
        cls, pairs: frozenset[tuple[frozenset[str], frozenset[str]]]
    ) -> "OfferRequestPayoff":
        """The payoff on *pairs*, kept as given: for the loader and the
        generator, which build a frozenset of frozenset pairs, so
        ``__post_init__`` would check and rebuild them for nothing."""
        payoff = object.__new__(cls)
        object.__setattr__(payoff, "pairs", pairs)
        return payoff

    def holds(self, done: frozenset[str]) -> bool:
        if not all(req <= done for offer, req in self.pairs if offer <= done):
            return False
        return any(req <= done for _, req in self.pairs)

    def events(self) -> frozenset[str]:
        """Every event of every pair, offers and requests, collected anew on
        each call."""
        return frozenset(chain.from_iterable(chain(*self.pairs)))


Payoff = GoalPayoff | OfferRequestPayoff


@dataclass(frozen=True)
class ContractSpec:
    """An immutable, hashable contract specification.

    ``owner`` maps every event to its participant; ``conflicts`` is a set of
    pairs of distinct events that can never both occur in one play (any
    other conflict is refused with a ``bad-conflict`` :class:`InvalidSpecError`);
    ``payoffs`` maps participants to a :data:`Payoff` (anything else is a
    ``bad-payoff`` error; several operations require totality).  The set fields are
    stored as frozensets, whatever iterables they are given as (a string,
    which would split into characters, is refused with a ``TypeError``); both
    mappings are stored as read-only copies and left out of the hash, which
    the frozenset fields carry.  Tables derived from the fields are built on
    first use and kept on the value, so a new value builds its own.
    """

    events: frozenset[str]
    participants: frozenset[str]
    owner: Mapping[str, str] = field(hash=False)
    clauses: frozenset[Clause]
    conflicts: frozenset[frozenset[str]] = frozenset()
    payoffs: Mapping[str, Payoff] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if isinstance(self.conflicts, str):
            raise TypeError("ContractSpec.conflicts is a string, not a set of pairs")
        conflicts = frozenset(
            _event_set(pair, "a pair of ContractSpec.conflicts") for pair in self.conflicts
        )
        bad = sorted(sorted(pair) for pair in conflicts if len(pair) != 2)
        if bad:
            message = "conflict must involve exactly two events, got {}"
            raise InvalidSpecError([Diagnostic("bad-conflict", message.format(p)) for p in bad])
        bad = sorted(p for p, payoff in self.payoffs.items() if not isinstance(payoff, Payoff))
        if bad:
            message = "payoff for {!r} is not a recognised reachability payoff"
            raise InvalidSpecError([Diagnostic("bad-payoff", message.format(p)) for p in bad])
        object.__setattr__(self, "events", _event_set(self.events, "ContractSpec.events"))
        object.__setattr__(
            self, "participants", _event_set(self.participants, "ContractSpec.participants")
        )
        object.__setattr__(self, "clauses", _clause_set(self.clauses, "ContractSpec.clauses"))
        object.__setattr__(self, "conflicts", conflicts)
        object.__setattr__(self, "owner", MappingProxyType(dict(self.owner)))
        object.__setattr__(self, "payoffs", MappingProxyType(dict(self.payoffs)))

    @classmethod
    def of(
        cls,
        owner: Mapping[str, str],
        clauses: Iterable[Clause] = (),
        conflicts: Iterable[tuple[str, str]] = (),
        payoffs: Mapping[str, Payoff] | None = None,
        participants: Iterable[str] = (),
    ) -> "ContractSpec":
        """Build a spec from plain inputs, deriving events and participants.

        ``participants`` only needs entries that own no event (rare, but a
        payoff may belong to a purely observing party).
        """
        parts = frozenset(owner.values()) | _event_set(participants, "the participants argument")
        return cls(
            events=frozenset(owner),
            participants=parts,
            owner=owner,
            clauses=clauses,
            conflicts=conflicts,
            payoffs=payoffs or {},
        )

    @cached_property
    def _owned_index(self) -> dict[str, frozenset[str]]:
        groups: dict[str, list[str]] = {}
        for e, p in self.owner.items():
            groups.setdefault(p, []).append(e)
        return {p: frozenset(events) for p, events in groups.items()}

    @cached_property
    def _partners(self) -> dict[str, set[str]]:
        """Each event of a conflict -> the events it conflicts with, every
        pair filed under both of its events."""
        partners: defaultdict[str, set[str]] = defaultdict(set)
        for x, y in self.conflicts:
            partners[x].add(y)
            partners[y].add(x)
        return dict(partners)

    def owned_by(self, participant: str) -> frozenset[str]:
        """The events *participant* owns."""
        return self._owned_index.get(participant, frozenset())

    def compatible(self, done: Iterable[str]) -> bool:
        """True when no conflicting pair is contained in *done*: no event of
        *done* has a partner in it.  A disjointness test walks the smaller
        side, so an event in many pairs costs a set at most its size."""
        if not self.conflicts:
            return True
        done = frozenset(done)
        partners = self._partners
        return all(partners[x].isdisjoint(done) for x in done if x in partners)


def _clause_key(c: Clause) -> tuple[str, str, tuple[str, ...]]:
    """The one order of clauses: by head, then by kind (``circular`` before
    ``standard``, as the words sort), then by sorted body.  Findings and
    refusals about clauses come in this order, the natural-deduction search
    tries clauses in it, and ``encode --json`` lists them in it."""
    head, body, kind = c
    return head, kind, tuple(sorted(body))


def conflicting_clauses(spec: ContractSpec) -> list[tuple[tuple, Diagnostic]]:
    """The ``conflicting-clause`` findings of *spec*, each with the
    :func:`_clause_key` of its clause, in that order: every clause whose
    body holds both events of a conflict.  A spec without conflicts has none.
    """
    if not spec.conflicts:
        return []
    message = "clause for {!r} has a body that violates a conflict"
    found = [
        (_clause_key(c), Diagnostic("conflicting-clause", message.format(c.head)))
        for c in spec.clauses
        if not spec.compatible(c.body)
    ]
    found.sort(key=lambda kf: kf[0])
    return found


def validate(spec: ContractSpec) -> list[Diagnostic]:
    """Check structural well-formedness, returning all findings.

    An empty result means the spec is usable by every operation that does not
    impose extra preconditions of its own.  Findings come in the order of the
    names, clauses and pairs they are about; each part is checked once and
    only the parts with findings are sorted, so a clean spec costs one pass
    over its parts and no sort.  The ``conflicting-clause`` check is
    :func:`conflicting_clauses`, which :func:`pacta.dsl.analyze` runs as its
    only check of a built spec: its line checks make every other one.
    """
    events, participants = spec.events, spec.participants
    # Sort key of a part -> its findings.  A key starts with the number of
    # the section its part belongs to, so sections come out in this order.
    found: dict[tuple, list[Diagnostic]] = {}

    def bad(key: tuple, code: str, message: str) -> None:
        found.setdefault(key, []).append(Diagnostic(code, message))

    for section, role, names in ((0, "event", events), (1, "participant", participants)):
        for n in names:
            if not NAME_RE.match(n):
                bad((section, n), _bad_name_code(n), f"{role} name {n!r} is not a valid identifier")

    for e in events.difference(spec.owner):
        bad((2, e), "unowned-event", f"event {e!r} has no owner")
    for e, p in spec.owner.items():
        if e not in events:
            bad((3, e), "unknown-event", f"owner entry for undeclared event {e!r}")
        if p not in participants:
            bad((3, e), "unknown-participant", f"event {e!r} owned by undeclared participant {p!r}")

    for c in spec.clauses:
        head, body, _ = c
        if head not in events:
            message = f"clause head {head!r} is not a declared event"
            bad((4, _clause_key(c)), "unknown-event", message)
        if not body <= events:
            for b in sorted(body - events):
                message = f"clause for {head!r} uses undeclared event {b!r}"
                bad((4, _clause_key(c)), "unknown-event", message)
    for key, finding in conflicting_clauses(spec):
        found.setdefault((4, key), []).append(finding)

    for pair in spec.conflicts:
        for e in sorted(pair - events):
            message = f"conflict mentions undeclared event {e!r}"
            bad((5, tuple(sorted(pair))), "unknown-event", message)

    for p, payoff in spec.payoffs.items():
        if p not in participants:
            bad((6, p), "unknown-participant", f"payoff for undeclared participant {p!r}")
        if isinstance(payoff, OfferRequestPayoff) and not payoff.pairs:
            bad((6, p), "bad-payoff", f"payoff for {p!r} has no offers/requests pair")
        for e in sorted(payoff.events() - events):
            bad((6, p), "unknown-event", f"payoff for {p!r} mentions undeclared event {e!r}")

    return [d for key in sorted(found) for d in found[key]]


def _unknown_event(position: int, event: str) -> InvalidPlayError:
    """The error naming *event*, not an event of the contract, at *position*."""
    return InvalidPlayError(f"position {position}: {event!r} is not an event of the contract")


def check_play(spec: ContractSpec, play: Iterable[str]) -> tuple[str, ...]:
    """Validate *play* as a sequence of moves of *spec* and return it as a tuple.

    A play may not repeat events, use undeclared events, or contain both
    sides of a conflict.  Enabling is *not* checked here: plays on credit are
    legitimate, that is the whole point of circular clauses.

    A valid play is accepted by whole-set checks.  An invalid one is walked
    once, to its first unknown or repeated event or its first event in
    conflict with an earlier one, and that position is named.  A string is
    refused with a ``TypeError``: ``tuple`` would split it into characters.
    """
    if isinstance(play, str):
        raise TypeError("the play is a string, not a sequence of events")
    seq = tuple(play)
    whole = frozenset(seq)
    if len(whole) == len(seq) and whole <= spec.events and spec.compatible(whole):
        return seq
    partners = spec._partners
    seen: set[str] = set()
    for i, e in enumerate(seq):
        if e not in spec.events:
            raise _unknown_event(i, e)
        if e in seen:
            raise InvalidPlayError(f"position {i}: event {e!r} repeated")
        if not seen.isdisjoint(partners.get(e, ())):
            raise InvalidPlayError(f"position {i}: event {e!r} conflicts with an earlier event")
        seen.add(e)
    raise AssertionError("unreachable: the whole-set checks accept every valid play")


def _refuse_unknown(names: frozenset[str], known: frozenset[str], noun: str) -> None:
    """Refuse *names* outside *known* with a :class:`PreconditionError` that
    lists them, sorted, as ``unknown <noun>: ...``."""
    unknown = names - known
    if unknown:
        raise PreconditionError(f"unknown {noun}: {', '.join(sorted(unknown))}")


def check_event_set(spec: ContractSpec, events: Iterable[str]) -> frozenset[str]:
    """Validate *events* as a conflict-free subset of the contract's events."""
    X = _event_set(events, "the event set")
    _refuse_unknown(X, spec.events, "events")
    if not spec.compatible(X):
        raise PreconditionError("event set contains a conflicting pair")
    return X


@dataclass(frozen=True)
class Strategy:
    """A participant's strategy: offers a set of owned events after any play."""

    participant: str
    choose: Callable[[tuple[str, ...]], frozenset[str]]

    def offers(self, play: tuple[str, ...]) -> frozenset[str]:
        return frozenset(self.choose(play))
