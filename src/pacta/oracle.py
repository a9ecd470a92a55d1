"""Brute-force reference implementations, kept deliberately independent.

These are the arbiters the fast algorithms in :mod:`pacta.game` and
:mod:`pacta.logic` are tested against:

* :func:`nd_provable` and :func:`nd_derivable` — natural-deduction
  provability of one atom or of all, following the
  introduction/elimination rules directly (assumption sets grow for the
  premise of a circular implication);
* :func:`traces_bruteforce` — the trace semantics computed straight from
  the interleaving definition, by semi-naive saturation: each rule meets
  each trace once;
* :func:`prudence_bruteforce` — prudence read off the game tree below the
  play: an event is prudent when, against arbitrary opponent behaviour, its
  owner can always bring its credits back without relying on anyone else.

All three are exponential and raise :class:`~pacta.model.PreconditionError`
before any search on inputs past their size guards: 12 atoms for the
natural-deduction search (:func:`nd_provable`, :func:`nd_derivable`,
:func:`nd_derivation`),
8 atoms for :func:`traces_bruteforce`, 6 events for :func:`prudence_table`
and :func:`prudence_bruteforce`.  They exist to be obviously correct, not
fast.  Two of them skip repeated work where an argument shows that no
answer changes.  The trace referee applies each rule to each trace once,
since each rule consumes one trace, and skips the circular clauses whose
head is already a fact, which only find traces again (the arguments are in
:func:`traces_bruteforce`).  The prudence referee solves the game tree's
quotient by "same event set, same final ledger", whose classes have
matching subtrees, so no play's entry changes, and :func:`prudence_table`
returns that table on states (the argument is in its docstring);
:func:`prudence_bruteforce` solves only the states below its play, which is
exact because an entry reads nothing outside its play's subtree.  The tests
hold each of the two to the naive version it replaced, read per play, and
the lookup to the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    PreconditionError,
    _clause_key,
    check_play,
)
from .logic import HornTheory, Trace

RULES = ("Id", "ArrowE", "CArrowE")


@dataclass(frozen=True, eq=False, repr=False)
class Derivation:
    """A natural-deduction proof tree.

    ``rule`` is one of :data:`RULES`.  Clause bodies are sets, so a clause
    application carries one premise per body atom.  ``assumptions``
    records the hypotheses in scope at this node; the premise of a circular
    clause is derived under the assumptions extended with the clause's head.
    Trees compare by value on a stack, skipping node pairs identical or
    compared before (by ``id``); ``hash`` and ``repr`` read one node.
    """

    goal: str
    rule: str
    assumptions: frozenset[str]
    premises: tuple["Derivation", ...] = ()
    clause: Clause | None = None

    def _own(self) -> tuple:
        return self.goal, self.rule, self.assumptions, self.clause, len(self.premises)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b and (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                if a._own() != b._own():
                    return False
                stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self) -> int:
        return hash(self._own())

    def __repr__(self) -> str:
        return f"Derivation({self.goal!r}, {self.rule!r}, {[p.goal for p in self.premises]})"


class _NdSearch:
    """Forward chaining per assumption set, recursing only into larger sets.
    Guarded at 12 atoms."""

    def __init__(self, theory: HornTheory):
        if len(theory.atoms) > 12:
            raise PreconditionError(
                "natural-deduction search supports at most 12 atoms"
            )
        self.clauses = sorted(theory.clauses, key=_clause_key)
        self.memo: dict[frozenset[str], frozenset[str]] = {}
        # (assumptions, atom) -> clause that first derived the atom there
        self.fired_by: dict[tuple[frozenset[str], str], Clause] = {}

    def derivable(self, assumptions: frozenset[str]) -> frozenset[str]:
        hit = self.memo.get(assumptions)
        if hit is not None:
            return hit
        derived = set(assumptions)
        changed = True
        while changed:
            changed = False
            for c in self.clauses:
                head, body, kind = c
                if head in derived:
                    continue
                if kind == STANDARD:
                    ok = body <= derived
                else:
                    # head is not yet derived, hence not in the assumptions:
                    # the recursion strictly enlarges the set and terminates.
                    ok = body <= self.derivable(assumptions | {head})
                if ok:
                    derived.add(head)
                    self.fired_by.setdefault((assumptions, head), c)
                    changed = True
        result = frozenset(derived)
        self.memo[assumptions] = result
        return result

    def reconstruct(self, goal: str, assumptions: frozenset[str]) -> Derivation:
        if goal in assumptions:
            return Derivation(goal, "Id", assumptions)
        clause = self.fired_by[(assumptions, goal)]
        if clause.kind == STANDARD:
            scope = assumptions
            rule = "ArrowE"
        else:
            scope = assumptions | {goal}
            rule = "CArrowE"
        premises = tuple(self.reconstruct(b, scope) for b in sorted(clause.body))
        return Derivation(goal, rule, assumptions, premises, clause)


def nd_derivable(
    theory: HornTheory, assumptions: frozenset[str] = frozenset()
) -> frozenset[str]:
    """Every atom derivable from the theory under the given assumptions, the
    assumptions included, from one search."""
    return _NdSearch(theory).derivable(frozenset(assumptions))


def nd_provable(
    theory: HornTheory, atom: str, assumptions: frozenset[str] = frozenset()
) -> bool:
    """Is *atom* derivable from the theory under the given assumptions?"""
    return atom in nd_derivable(theory, assumptions)


def nd_derivation(
    theory: HornTheory, atom: str, assumptions: frozenset[str] = frozenset()
) -> Derivation | None:
    """A proof tree for *atom*, or None when it is not derivable."""
    search = _NdSearch(theory)
    scope = frozenset(assumptions)
    if atom not in search.derivable(scope):
        return None
    return search.reconstruct(atom, scope)


def check_derivation(theory: HornTheory, deriv: Derivation) -> bool:
    """Audit a proof tree rule by rule against the theory.

    A node's own check does not depend on where it sits: its parent checks
    that it carries the parent's scope as its assumptions.  So the walk
    keeps an explicit stack and checks each distinct node object once,
    keyed by ``id`` (a tree that shares a subproof is checked in time
    linear in its distinct nodes, and no depth overflows the call stack).
    """
    seen = {id(deriv)}
    stack = [deriv]
    while stack:
        node = stack.pop()
        if node.rule == "Id":
            if node.goal not in node.assumptions or node.premises or node.clause is not None:
                return False
            continue
        if node.rule not in ("ArrowE", "CArrowE"):
            return False
        c = node.clause
        if c is None or c not in theory.clauses or c.head != node.goal:
            return False
        wanted_kind = STANDARD if node.rule == "ArrowE" else CIRCULAR
        if c.kind != wanted_kind:
            return False
        scope = node.assumptions if node.rule == "ArrowE" else node.assumptions | {node.goal}
        if tuple(p.goal for p in node.premises) != tuple(sorted(c.body)):
            return False
        for p in node.premises:
            if p.assumptions != scope:
                return False
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return True


def _insertions(tau: Trace, atom: str) -> set[Trace]:
    """The interleavings of trace *tau* with the one-atom trace *atom*,
    ``interleave(tau, (atom,))``: *atom* put at each of the ``len(tau) + 1``
    places, duplicates squeezed (the leftmost copy stays)."""
    return {tuple(dict.fromkeys(tau[:k] + (atom,) + tau[k:])) for k in range(len(tau) + 1)}


def traces_bruteforce(theory: HornTheory) -> frozenset[Trace]:
    """Trace semantics by semi-naive saturation of the interleaving
    definition, each fact-extended subtheory saturated once per call.
    Guarded at 8 atoms.

    A theory's traces, given a set of facts, are the least set holding
    ``()`` and closed under three rules: a standard clause or a fact whose
    body a trace holds appends its head; a circular clause inserts its head
    at each place of a trace of the theory with that head as one more fact,
    when that trace holds its body.  Each rule consumes one trace, so the
    least set is reached by applying each rule to each trace once, as soon
    as the trace is found (semi-naive evaluation).  A circular head that is
    not yet a fact reads the traces of a subtheory with strictly more facts,
    saturated already, so those insertions are made once, up front.

    A circular clause whose head ``h`` is already a fact is not applied: it
    would read this theory's own traces and only find them again.  Every
    insertion of a fact ``h`` into a trace is a trace without that rule, by
    induction over how the trace was made.  Into ``()`` it is ``(h,)``, which
    the fact appends.  Into ``rho + (x,)``, where a rule appended ``x``, it
    is that trace itself, that trace with ``h`` appended (the fact again),
    an insertion into ``rho`` (when ``x`` is ``h``), or one with ``x``
    appended by the same rule, whose body ``rho`` still holds.  Into an
    insertion of a circular head ``c != h`` into a trace ``tau`` of the
    subtheory with fact ``c``, which has ``h`` as a fact too, it is an
    insertion of ``c`` into an insertion of ``h`` into ``tau``: the two
    insertions commute (the tests check it on every trace of up to four of
    five atoms), and the inner one is a trace of the subtheory by
    induction that still holds the clause's body."""
    if len(theory.atoms) > 8:
        raise PreconditionError("traces_bruteforce supports at most 8 atoms")
    std_flat = [(body, head) for head, body, kind in theory.clauses if kind == STANDARD]
    circ_flat = [(body, head) for head, body, kind in theory.clauses if kind == CIRCULAR]

    @lru_cache(maxsize=None)
    def saturate(facts: frozenset[str]) -> set[Trace]:
        rules = std_flat + [(frozenset(), a) for a in facts]
        traces: set[Trace] = {()}
        for body, head in circ_flat:
            if head not in facts:
                for tau in saturate(facts | {head}):
                    if body <= set(tau):
                        traces |= _insertions(tau, head)
        new = list(traces)
        while new:
            sigma = new.pop()
            have = set(sigma)
            grown = {sigma + (head,) for body, head in rules if head not in have and body <= have}
            grown -= traces
            traces |= grown
            new += grown
        return traces

    return frozenset(saturate(frozenset()))


# ---------------------------------------------------------------------------
# prudence from the game tree


Bodies = dict[str, list[frozenset[str]]]


def _bodies_by_head(spec: ContractSpec) -> tuple[Bodies, Bodies]:
    """The bodies of the standard and of the circular clauses, each listed
    under their heads."""
    by_kind: dict[str, Bodies] = {STANDARD: {}, CIRCULAR: {}}
    for head, body, kind in spec.clauses:
        by_kind[kind].setdefault(head, []).append(body)
    return by_kind[STANDARD], by_kind[CIRCULAR]


def _final_credits(
    spec: ContractSpec,
    seq: tuple[str, ...],
    bodies: tuple[Bodies, Bodies] | None = None,
) -> frozenset[str]:
    """The events of *seq* that no clause justifies: no standard body done
    before them, no circular body anywhere in *seq*.  *bodies* is
    ``_bodies_by_head(spec)``, for a caller that asks about many plays."""
    std_bodies, circ_bodies = bodies or _bodies_by_head(spec)
    whole = frozenset(seq)
    past: set[str] = set()
    pending: set[str] = set()
    for e in seq:
        justified = any(b <= past for b in std_bodies.get(e, ())) or any(
            b <= whole for b in circ_bodies.get(e, ())
        )
        if not justified:
            pending.add(e)
        past.add(e)
    return frozenset(pending)


# A state of the game: a set of done events and the final ledger of every
# play that reaches it, as a bit mask over the sorted events.
State = tuple[frozenset[str], int]
Steps = dict[str, tuple[str, State]]  # fireable event -> (its owner, next state)


class _Game:
    """The states of one spec's game, each with its steps, built on demand.

    Nothing is kept between calls: :meth:`solve` asks for each state's steps
    once, and a state's steps read only its event set and ledger.  The spec
    is checked for what the game reads, every event owned by a participant
    and every clause head an event, before any state is built; an owner
    entry for an undeclared event is not read."""

    root: State = (frozenset(), 0)  # the empty play's

    def __init__(self, spec: ContractSpec):
        if len(spec.events) > 6:
            raise PreconditionError("the prudence referee supports at most 6 events")
        self.spec = spec
        self.events = sorted(spec.events)
        for e in self.events:
            if (owner := spec.owner.get(e)) not in spec.participants:
                whose = "no owner" if owner is None else f"the undeclared owner {owner!r}"
                raise PreconditionError(f"event {e!r} has {whose}")
        if strays := {c.head for c in spec.clauses} - spec.events:
            raise PreconditionError(f"clause head {min(strays)!r} is not a declared event")
        self.bit = {e: 1 << i for i, e in enumerate(self.events)}
        self.owned = {a: spec.owned_by(a) & spec.events for a in spec.participants}
        self.owned_mask = {a: sum(map(self.bit.get, self.owned[a])) for a in spec.participants}
        self.rules: dict[str, list[tuple[frozenset[str], int]]] = {STANDARD: [], CIRCULAR: []}
        for head, body, kind in spec.clauses:
            self.rules[kind].append((body, self.bit[head]))

    def ledger(self, mask: int) -> frozenset[str]:
        """The events of a ledger mask."""
        return frozenset(e for e in self.events if mask & self.bit[e])

    def justified(self, kind: str, done: frozenset[str]) -> int:
        """The mask of the heads of the *kind* clauses with a body inside *done*."""
        found = 0
        for body, head in self.rules[kind]:
            if body <= done:
                found |= head
        return found

    def steps(self, state: State) -> Steps:
        """Each event fireable at *state*, with its owner and the next state:
        the event joins the ledger unless a standard body inside the event
        set justifies it, then what a circular body inside the grown set
        justifies leaves the ledger."""
        done, ledger = state
        std = self.justified(STANDARD, done)
        return {
            e: (
                self.spec.owner[e],
                (grown, (ledger | (self.bit[e] & ~std)) & ~self.justified(CIRCULAR, grown)),
            )
            for e in self.events
            if e not in done and self.spec.compatible(grown := done | {e})
        }

    def solve(self, start: State) -> dict[State, frozenset[str]]:
        """The prudent events at *start* and at every state below it."""
        below = {start: self.steps(start)}
        todo = [start]
        while todo:
            for _, child in below[todo.pop()].values():
                if child not in below:
                    below[child] = self.steps(child)
                    todo.append(child)
        table = {state: frozenset(moves) for state, moves in below.items()}
        owned = self.owned
        memo: dict[tuple[State, str, int], bool] = {}

        def safe(state: State, actor: str, exposed: int) -> bool:
            # Reached only while no state from the entry down to this one's
            # parent has recovered; once one has, every continuation is safe.
            if not state[1] & exposed:
                return True
            key = (state, actor, exposed)
            if key not in memo:
                moves = below[state].values()
                memo[key] = all(
                    safe(child, actor, exposed) for who, child in moves if who != actor
                ) and (
                    # The others are done, and a fair stop here would leave the
                    # actor exposed: it must keep the play alive safely alone.
                    not table[state] <= owned[actor]
                    or any(safe(child, actor, exposed) for who, child in moves if who == actor)
                )
            return memo[key]

        while True:
            memo.clear()
            dropped = []
            for state, moves in below.items():
                for e in table[state]:
                    actor, child = moves[e]
                    # A play recovers when its ledger holds none of these.
                    if not safe(child, actor, self.owned_mask[actor] & ~state[1]):
                        dropped.append((state, e))
            if not dropped:
                return table
            for state, e in dropped:
                table[state] -= {e}


def prudence_table(
    spec: ContractSpec,
) -> dict[tuple[frozenset[str], frozenset[str]], frozenset[str]]:
    """Prudent events at every state of the spec's game, by game-tree analysis.

    A play is a repetition-free sequence of events whose prefixes are all
    conflict-free.  Its state is its event set and its final ledger, what
    :func:`_final_credits` returns for it; the table maps each state some
    play reaches, ``(frozenset(play), _final_credits(spec, play))``, to the
    events prudent right after every play that reaches it.  An event ``e``
    fireable after play ``p``, owned by ``A``, is prudent when ``A`` can
    count on getting back to its ledger at ``p``: in the tree below
    ``p + (e,)``, until a play is reached whose final ledger holds no event
    of ``A`` beyond the ledger of ``p``, every move of another participant
    keeps this so, and wherever the others are done (every event still
    prudent there is ``A``'s, so the play may fairly stop) ``A`` has a move
    of its own that keeps it so.  "Prudent there" reads the table itself:
    the result is the greatest table for which the definition holds.
    Conflicts are fully supported.  Guarded at 6 events.

    The game is solved on states, not plays, and that changes no play's
    entry.  Two plays with the same state have the same fireable events,
    and their children's ledgers agree: the new event joins the ledger
    unless a standard body done before it justifies it, then whatever a
    circular body inside the grown set justifies leaves it (an earlier
    event's past is fixed, and circular justification only grows with the
    set).  So their subtrees match move for move and ledger for ledger, the
    relation "same state" is a bisimulation, and the greatest table on
    plays gives both plays the same entries.  At most 3^6 states stand for
    up to 1,957 plays.

    Judging starts from "every fireable event is prudent" and drops, pass
    by pass, every entry that fails against the current table, until a
    pass drops nothing.  Dropping is monotone (fewer prudent events make
    more stops fair, which can only drop more), so the passes land on the
    greatest table.  Within a pass the table is fixed, and whether a state
    is safe for an actor with a given exposed mask is worked out once.
    """
    game = _Game(spec)
    return {
        (done, game.ledger(mask)): entry
        for (done, mask), entry in game.solve(game.root).items()
    }


def prudence_bruteforce(
    spec: ContractSpec, play: tuple[str, ...] | list[str]
) -> frozenset[str]:
    """Prudent events right after *play*, from the game below it (≤ 6 events).

    Solving only the states below the play's own state is exact: an entry
    reads ledgers, moves and the table only at states its play reaches, so
    the greatest table restricted to those states is the greatest table of
    the game below them."""
    seq = check_play(spec, play)
    game = _Game(spec)
    state = game.root
    for e in seq:
        state = game.steps(state)[e][1]
    return game.solve(state)[state]
