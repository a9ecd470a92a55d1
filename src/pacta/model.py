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
from bisect import bisect_left
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

    def __init__(self, head: str, body: Iterable[str], kind: str = STANDARD):
        # Written by hand so that a clause costs three attribute writes and no
        # __post_init__ call: a loaded file builds one clause per line.  The
        # writes go through object.__setattr__, not self.__dict__, which
        # would turn the instance's inline values into a dict and make every
        # later read and hash of the clause slower.
        if kind not in (STANDARD, CIRCULAR):
            raise ValueError(f"unknown clause kind: {kind!r}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", frozenset(body))
        object.__setattr__(self, "kind", kind)

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
    satisfied; the DSL cannot write such a payoff, so ``validate`` reports it.
    """

    pairs: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def __post_init__(self) -> None:
        # Normalise: pair order and duplicates carry no meaning.  Duplicates
        # are dropped in input order, so pairs that come sorted (a printed
        # file, or another payoff's pairs) sort in one linear pass.
        canon = sorted(
            dict.fromkeys((frozenset(o), frozenset(r)) for o, r in self.pairs),
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
        """True when no conflicting pair is contained in *done*.

        *done* is tested only against the pairs that touch it, through an
        index of the pairs by member that is built on first use and kept in
        the value's instance ``__dict__``.  ``conflicts`` is a frozenset, so
        the index never goes stale; a new value builds its own.
        """
        if not self.conflicts:
            return True
        done = frozenset(done)
        index = self.__dict__.get("_conflict_index")
        if index is None:
            index = self.__dict__["_conflict_index"] = _index_conflicts(self.conflicts)
        partners, other_pairs = index
        if any(not partners[x].isdisjoint(done) for x in done if x in partners):
            return False
        return not other_pairs or not any(
            pair <= done for x in (None, *done) for pair in other_pairs.get(x, ())
        )


def _index_conflicts(
    conflicts: frozenset[frozenset[str]],
) -> tuple[dict[str, set[str]], dict[str | None, list[frozenset[str]]]]:
    """File each conflict pair under one of its members.

    A two-event pair {x, y} is filed as partner y of x; a set-disjointness
    test walks the smaller side, so an event in many pairs costs a set at
    most its size.  A hand-built pair of another size is filed whole under
    one member, the empty pair under ``None``, which every set looks up: the
    empty pair is contained in every set.
    """
    partners: dict[str, set[str]] = {}
    other_pairs: dict[str | None, list[frozenset[str]]] = {}
    for pair in conflicts:
        if len(pair) == 2:
            x, y = pair
            partners.setdefault(x, set()).add(y)
        else:
            other_pairs.setdefault(next(iter(pair), None), []).append(pair)
    return partners, other_pairs


def validate(spec: ContractSpec) -> list[Diagnostic]:
    """Check structural well-formedness, returning all findings.

    An empty result means the spec is usable by every operation that does not
    impose extra preconditions of its own.  Findings come in the order of the
    names, clauses and pairs they are about; each part is checked once and
    only the parts with findings are sorted, so a clean spec costs one pass
    over its parts and no sort.
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
                kind = "reserved-identifier" if is_reserved_name(n) else "bad-identifier"
                bad((section, n), kind, f"{role} name {n!r} is not a valid identifier")

    for e in events.difference(spec.owner):
        bad((2, e), "unowned-event", f"event {e!r} has no owner")
    for e, p in spec.owner.items():
        if e not in events:
            bad((3, e), "unknown-event", f"owner entry for undeclared event {e!r}")
        if p not in participants:
            bad((3, e), "unknown-participant", f"event {e!r} owned by undeclared participant {p!r}")

    def clause_key(c: Clause) -> tuple:
        return (4, c.head, c.kind, tuple(sorted(c.body)))

    for c in spec.clauses:
        if c.head not in events:
            bad(clause_key(c), "unknown-event", f"clause head {c.head!r} is not a declared event")
        if not c.body <= events:
            for b in sorted(c.body - events):
                message = f"clause for {c.head!r} uses undeclared event {b!r}"
                bad(clause_key(c), "unknown-event", message)
        if not spec.compatible(c.body):
            message = f"clause for {c.head!r} has a body that violates a conflict"
            bad(clause_key(c), "conflicting-clause", message)

    for pair in spec.conflicts:
        if len(pair) != 2:
            message = f"conflict must involve exactly two events, got {sorted(pair)}"
            bad((5, tuple(sorted(pair))), "bad-conflict", message)
            continue
        for e in sorted(pair - events):
            message = f"conflict mentions undeclared event {e!r}"
            bad((5, tuple(sorted(pair))), "unknown-event", message)

    for p, payoff in spec.payoffs.items():
        if p not in participants:
            bad((6, p), "unknown-participant", f"payoff for undeclared participant {p!r}")
        if not isinstance(payoff, (GoalPayoff, OfferRequestPayoff)):
            message = f"payoff for {p!r} is not a recognised reachability payoff"
            bad((6, p), "bad-payoff", message)
            continue
        if isinstance(payoff, OfferRequestPayoff) and not payoff.pairs:
            bad((6, p), "bad-payoff", f"payoff for {p!r} has no offers/requests pair")
        for e in sorted(payoff.events() - events):
            bad((6, p), "unknown-event", f"payoff for {p!r} mentions undeclared event {e!r}")

    return [d for key in sorted(found) for d in found[key]]


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

    A valid play is accepted by whole-set checks.  An invalid one is walked
    to its first unknown or repeated event; a prefix can only lose
    compatibility as it grows, so the first event before that one to complete
    a conflict is found by bisection.  Either way the first offending position
    is named.
    """
    seq = tuple(play)
    whole = frozenset(seq)
    if len(whole) == len(seq) and whole <= spec.events and spec.compatible(whole):
        return seq
    seen: set[str] = set()
    stop = len(seq)
    for i, e in enumerate(seq):
        if e not in spec.events or e in seen:
            stop = i
            break
        seen.add(e)
    i = bisect_left(range(stop), True, key=lambda j: not spec.compatible(seq[: j + 1]))
    if i < stop:
        raise InvalidPlayError(f"position {i}: event {seq[i]!r} conflicts with an earlier event")
    if seq[i] not in spec.events:
        raise InvalidPlayError(f"position {i}: {seq[i]!r} is not an event of the contract")
    raise InvalidPlayError(f"position {i}: event {seq[i]!r} repeated")


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
