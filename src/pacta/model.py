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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

STANDARD = "standard"
CIRCULAR = "circular"

#: Names a contract file may use for events and participants.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

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


@dataclass(frozen=True)
class Clause:
    """An enabling clause ``head <- body`` of the given kind.

    ``body`` is a set of events; the empty body means the head is enabled
    unconditionally.  ``kind`` is :data:`STANDARD` or :data:`CIRCULAR`.
    """

    head: str
    body: frozenset[str]
    kind: str = STANDARD

    def __post_init__(self) -> None:
        if self.kind not in (STANDARD, CIRCULAR):
            raise ValueError(f"unknown clause kind: {self.kind!r}")
        object.__setattr__(self, "body", frozenset(self.body))

    def __repr__(self) -> str:  # keep test failure output readable
        arrow = "<-" if self.kind == STANDARD else "<<-"
        body = ", ".join(sorted(self.body)) or "true"
        return f"Clause({self.head} {arrow} {body})"


def std(head: str, *body: str) -> Clause:
    """Shorthand for a standard clause."""
    return Clause(head, frozenset(body), STANDARD)


def circ(head: str, *body: str) -> Clause:
    """Shorthand for a circular clause."""
    return Clause(head, frozenset(body), CIRCULAR)


@dataclass(frozen=True)
class GoalPayoff:
    """Participant is satisfied once every goal event has happened."""

    goal: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "goal", frozenset(self.goal))

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
    satisfied.
    """

    pairs: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def __post_init__(self) -> None:
        # Normalise: pair order and duplicates carry no meaning.
        canon = sorted(
            {(frozenset(o), frozenset(r)) for o, r in self.pairs},
            key=lambda pr: (sorted(pr[0]), sorted(pr[1])),
        )
        object.__setattr__(self, "pairs", tuple(canon))

    def holds(self, done: frozenset[str]) -> bool:
        if not all(req <= done for offer, req in self.pairs if offer <= done):
            return False
        return any(req <= done for _, req in self.pairs)

    def events(self) -> frozenset[str]:
        out: set[str] = set()
        for offer, req in self.pairs:
            out |= offer | req
        return frozenset(out)


Payoff = GoalPayoff | OfferRequestPayoff


@dataclass(frozen=True)
class ContractSpec:
    """An immutable, hashable contract specification.

    ``owner`` maps every event to its participant; ``conflicts`` is a set of
    unordered event pairs that can never both occur in one play; ``payoffs``
    maps participants to their payoff (participants may lack one, but several
    game operations require totality).  The set fields are stored as
    frozensets, whatever iterables they are given as; both mappings are
    stored as read-only copies and left out of the hash, which the frozenset
    fields carry.
    """

    events: frozenset[str]
    participants: frozenset[str]
    owner: Mapping[str, str] = field(hash=False)
    clauses: frozenset[Clause]
    conflicts: frozenset[frozenset[str]] = frozenset()
    payoffs: Mapping[str, Payoff] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", frozenset(self.events))
        object.__setattr__(self, "participants", frozenset(self.participants))
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        object.__setattr__(self, "conflicts", frozenset(map(frozenset, self.conflicts)))
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
        parts = frozenset(owner.values()) | frozenset(participants)
        return cls(
            events=frozenset(owner),
            participants=parts,
            owner=owner,
            clauses=clauses,
            conflicts=conflicts,
            payoffs=payoffs or {},
        )

    def owned_by(self, participant: str) -> frozenset[str]:
        return frozenset(e for e, p in self.owner.items() if p == participant)

    def compatible(self, done: Iterable[str]) -> bool:
        """True when no conflicting pair is contained in *done*."""
        done = frozenset(done)
        return all(not pair <= done for pair in self.conflicts)


def validate(spec: ContractSpec) -> list[Diagnostic]:
    """Check structural well-formedness, returning all findings.

    An empty result means the spec is usable by every operation that does not
    impose extra preconditions of its own.
    """
    out: list[Diagnostic] = []

    def bad(code: str, message: str) -> None:
        out.append(Diagnostic(code, message))

    for e in sorted(spec.events):
        if not NAME_RE.match(e):
            kind = "reserved-identifier" if is_reserved_name(e) else "bad-identifier"
            bad(kind, f"event name {e!r} is not a valid identifier")
    for p in sorted(spec.participants):
        if not NAME_RE.match(p):
            kind = "reserved-identifier" if is_reserved_name(p) else "bad-identifier"
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
        if not spec.compatible(c.body):
            bad(
                "conflicting-clause",
                f"clause for {c.head!r} has a body that violates a conflict",
            )

    for pair in sorted(spec.conflicts, key=sorted):
        if len(pair) != 2:
            bad("bad-conflict", f"conflict must involve exactly two events, got {sorted(pair)}")
            continue
        for e in sorted(pair):
            if e not in spec.events:
                bad("unknown-event", f"conflict mentions undeclared event {e!r}")

    for p, payoff in sorted(spec.payoffs.items()):
        if p not in spec.participants:
            bad("unknown-participant", f"payoff for undeclared participant {p!r}")
        if not isinstance(payoff, (GoalPayoff, OfferRequestPayoff)):
            bad("bad-payoff", f"payoff for {p!r} is not a recognised reachability payoff")
            continue
        for e in sorted(payoff.events()):
            if e not in spec.events:
                bad("unknown-event", f"payoff for {p!r} mentions undeclared event {e!r}")

    return out


def ensure_valid(spec: ContractSpec) -> None:
    """Raise :class:`InvalidSpecError` if :func:`validate` finds anything."""
    diags = validate(spec)
    if diags:
        raise InvalidSpecError(diags)


def check_play(spec: ContractSpec, play: Iterable[str]) -> tuple[str, ...]:
    """Validate *play* as a sequence of moves of *spec* and return it as a tuple.

    A play may not repeat events, use undeclared events, or contain both
    sides of a conflict.  Enabling is *not* checked here: plays on credit are
    legitimate, that is the whole point of circular clauses.

    A valid play is accepted by whole-set checks; only an invalid one is
    walked step by step, to name the first offending position.
    """
    seq = tuple(play)
    whole = frozenset(seq)
    if len(whole) == len(seq) and whole <= spec.events and spec.compatible(whole):
        return seq
    seen: set[str] = set()
    for i, e in enumerate(seq):
        if e not in spec.events:
            raise InvalidPlayError(f"position {i}: {e!r} is not an event of the contract")
        if e in seen:
            raise InvalidPlayError(f"position {i}: event {e!r} repeated")
        seen.add(e)
        if not spec.compatible(seen):
            raise InvalidPlayError(f"position {i}: event {e!r} conflicts with an earlier event")
    raise AssertionError("unreachable: the whole-set checks accept every valid play")


def check_event_set(spec: ContractSpec, events: Iterable[str]) -> frozenset[str]:
    """Validate *events* as a conflict-free subset of the contract's events."""
    X = frozenset(events)
    unknown = X - spec.events
    if unknown:
        raise PreconditionError(f"unknown events: {', '.join(sorted(unknown))}")
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
