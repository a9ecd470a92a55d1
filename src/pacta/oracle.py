"""Brute-force reference implementations, kept deliberately independent.

These are the arbiters the fast algorithms in :mod:`pacta.game` and
:mod:`pacta.logic` are tested against:

* :func:`nd_provable` — natural-deduction provability, following the
  introduction/elimination rules directly (assumption sets grow for the
  premise of a circular implication);
* :func:`traces_bruteforce` — the trace semantics computed by naive
  saturation straight from the interleaving definition;
* :func:`prudence_bruteforce` — prudence read off the full game tree: an
  event is prudent when, against arbitrary opponent behaviour, its owner can
  always bring its credits back without relying on anyone else.

All three are exponential and raise :class:`~pacta.model.PreconditionError`
before any search on inputs past their size guards: 12 atoms for the
natural-deduction search (:func:`nd_provable`, :func:`nd_derivation`),
8 atoms for :func:`traces_bruteforce`, 6 events for :func:`prudence_table`
and :func:`prudence_bruteforce`.  They exist to be obviously correct, not
fast.  :func:`prudence_table` alone shares work between the plays of its
tree, in three ways its docstring argues leave the table unchanged; the
tests also hold it to the plainer version it replaced, play by play.
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


def _clause_order(c: Clause) -> tuple[str, str, list[str]]:
    """The order ``_NdSearch`` tries clauses in: head, kind, sorted body."""
    head, body, kind = c
    return head, kind, sorted(body)


class _NdSearch:
    """Forward chaining per assumption set, recursing only into larger sets.
    Guarded at 12 atoms."""

    def __init__(self, theory: HornTheory):
        if len(theory.atoms) > 12:
            raise PreconditionError(
                "natural-deduction search supports at most 12 atoms"
            )
        self.clauses = sorted(theory.clauses, key=_clause_order)
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


def nd_provable(
    theory: HornTheory, atom: str, assumptions: frozenset[str] = frozenset()
) -> bool:
    """Is *atom* derivable from the theory under the given assumptions?"""
    search = _NdSearch(theory)
    return atom in search.derivable(frozenset(assumptions))


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
    """Trace semantics by plain saturation, each fact-extended subtheory
    saturated once per call.  Guarded at 8 atoms."""
    if len(theory.atoms) > 8:
        raise PreconditionError("traces_bruteforce supports at most 8 atoms")
    std_flat = [(body, head) for head, body, kind in theory.clauses if kind == STANDARD]
    circ_flat = [(body, head) for head, body, kind in theory.clauses if kind == CIRCULAR]

    @lru_cache(maxsize=None)
    def saturate(facts: frozenset[str]) -> set[Trace]:
        rules = std_flat + [(frozenset(), a) for a in facts]
        traces: set[Trace] = {()}
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
                # Adding an already-present fact changes nothing, so the
                # subtheory is this one; otherwise it has strictly more facts.
                sub = traces if head in facts else saturate(facts | {head})
                for tau in list(sub):
                    if body <= set(tau):
                        for merged in _insertions(tau, head):
                            if merged not in traces:
                                traces.add(merged)
                                changed = True
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


@dataclass
class _EventSet:
    """What :func:`prudence_table` needs to know about one set of done
    events, whatever order they were done in: the events fireable next, the
    atoms a circular body inside the set justifies (as a mask), and one step
    per fireable event ``e`` — ``(e, owner of e, the grown set's record, the
    mask of e, or 0 when a standard body inside this set justifies e)``."""

    fireable: frozenset[str]
    circ_justified: int
    steps: list[tuple[str, str, "_EventSet", int]]


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


def prudence_table(
    spec: ContractSpec,
) -> dict[tuple[str, ...], frozenset[str]]:
    """Prudent events after every play of the spec, by game-tree analysis.

    The table maps every play (a repetition-free sequence of events whose
    prefixes are all conflict-free) to the events prudent right after it.
    An event ``e`` fireable after play ``p``, owned by ``A``, is prudent when
    ``A`` can count on getting back to its ledger at ``p``: in the tree below
    ``p + (e,)``, until a play is reached whose final ledger holds no event
    of ``A`` beyond the ledger of ``p``, every move of another participant
    keeps this so, and wherever the others are done (every event still
    prudent there is ``A``'s, so the play may fairly stop) ``A`` has a move
    of its own that keeps it so.  "Prudent there" reads the table itself:
    the result is the greatest table for which the definition holds.
    Conflicts are fully supported.  Guarded at 6 events.

    Work is shared three ways, and none changes what is computed:

    * What depends only on a play's event set is computed once per set (at
      most 64 sets against up to 1,957 plays): the fireable next events, and
      the atoms a standard body or a circular body inside the set justifies
      (see :class:`_EventSet`).
    * A play's final ledger, what :func:`_final_credits` returns for it,
      grows from its parent's: the new event joins it unless a standard body
      done before it justifies it, then whatever a circular body inside the
      grown set justifies leaves it.  Nothing else moves: an earlier event's
      past is fixed, and circular justification only grows with the set.
    * Judging starts from "every fireable event is prudent" and prunes in
      passes until a pass drops nothing.  Pruning is monotone (fewer prudent
      events make more stops fair, which can only prune further), so the
      passes land on the greatest table whichever entries each one judges,
      as long as no entry left at the end fails.  An entry ``(p, e)`` reads
      the table only through "the others are done at ``q``" for
      ``owner[e]``, where ``q`` is ``p + (e,)`` or extends it, and as the
      table shrinks that test can only flip from false to true.  So a pass
      judges again only the entries on the path to a play whose entry has
      just flipped the test for their owner; every other entry would read
      what it read before.  With one owner the test never flips, and one
      pass settles the table.
    """
    if len(spec.events) > 6:
        raise PreconditionError("prudence_table supports at most 6 events")
    events = sorted(spec.events)
    owner = spec.owner
    std_rules = [(body, head) for head, body, kind in spec.clauses if kind == STANDARD]
    circ_rules = [(body, head) for head, body, kind in spec.clauses if kind == CIRCULAR]

    # Ledgers are bit masks over the sorted events: each play builds one.
    bit = {e: 1 << i for i, e in enumerate(events)}

    def mask(atoms) -> int:
        return sum(bit[a] for a in set(atoms))

    by_set: dict[frozenset[str], _EventSet] = {}

    def event_set(done: frozenset[str]) -> _EventSet:
        known = by_set.get(done)
        if known is None:
            fireable = [
                e for e in events if e not in done and spec.compatible(done | {e})
            ]
            known = by_set[done] = _EventSet(
                frozenset(fireable),
                mask(h for b, h in circ_rules if b <= done),
                [],
            )
            std_justified = {h for b, h in std_rules if b <= done}
            known.steps.extend(
                (
                    e,
                    owner[e],
                    event_set(done | {e}),
                    0 if e in std_justified else bit[e],
                )
                for e in fireable
            )
        return known

    # The game tree in preorder; node 0 is the empty play.  A node other
    # than the root also names the entry (parent's play, its last event).
    plays: list[tuple[str, ...]] = [()]
    parent = [0]
    mover = [""]  # owner of the node's last event
    gamma = [0]  # the play's final ledger, as a mask
    table: list[frozenset[str]] = []  # prudent events, first all fireable
    kids: list[dict[str, list[int]]] = [{}]  # children, by their mover

    def grow(node: int, here: _EventSet) -> None:
        table.append(here.fireable)
        for e, actor, there, joins in here.steps:
            child = len(plays)
            plays.append(plays[node] + (e,))
            parent.append(node)
            mover.append(actor)
            gamma.append((gamma[node] | joins) & ~there.circ_justified)
            kids[node].setdefault(actor, []).append(child)
            kids.append({})
            grow(child, there)

    grow(0, event_set(frozenset()))

    owned = {a: spec.owned_by(a) for a in spec.participants}
    owned_mask = {a: mask(owned[a]) for a in spec.participants}
    actors = {owner[e] for e in events}

    def prudent(entry: int) -> bool:
        actor = mover[entry]
        mine = owned[actor]
        # A play recovers when its ledger holds none of these.
        exposed = owned_mask[actor] & ~gamma[parent[entry]]

        def safe(node: int) -> bool:
            # Reached only while no play from the entry down to the parent
            # has recovered; once one has, every continuation is safe.
            if not gamma[node] & exposed:
                return True
            moves = kids[node]
            for other, theirs in moves.items():
                if other != actor and not all(map(safe, theirs)):
                    return False
            if table[node] <= mine:
                # The others are done, and a fair stop here would leave the
                # actor exposed: it must keep the play alive safely alone.
                return any(map(safe, moves.get(actor, ())))
            return True

        return safe(entry)

    judge = range(1, len(plays))
    while judge:
        dropped = [n for n in judge if not prudent(n)]
        before = {parent[n]: table[parent[n]] for n in dropped}
        for n in dropped:
            table[parent[n]] -= {plays[n][-1]}
        again: set[int] = set()
        for q, old in before.items():
            new = table[q]
            flipped = {a for a in actors if new <= owned[a] and not old <= owned[a]}
            node = q
            while flipped and node:
                if mover[node] in flipped and plays[node][-1] in table[parent[node]]:
                    again.add(node)
                node = parent[node]
        judge = sorted(again)

    return {plays[n]: table[n] for n in range(len(plays))}


def prudence_bruteforce(
    spec: ContractSpec, play: tuple[str, ...] | list[str]
) -> frozenset[str]:
    """Prudent events right after *play*, from the game tree (≤ 6 events)."""
    seq = check_play(spec, play)
    return prudence_table(spec)[seq]
