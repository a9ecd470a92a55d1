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
fast.
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
from .logic import HornTheory, Trace, interleave

RULES = ("Id", "ArrowE", "CArrowE")


@dataclass(frozen=True)
class Derivation:
    """A natural-deduction proof tree.

    ``rule`` is one of :data:`RULES`.  Clause bodies are sets, so a clause
    application carries one premise per body atom.  ``assumptions``
    records the hypotheses in scope at this node; the premise of a circular
    clause is derived under the assumptions extended with the clause's head.
    """

    goal: str
    rule: str
    assumptions: frozenset[str]
    premises: tuple["Derivation", ...] = ()
    clause: Clause | None = None


class _NdSearch:
    """Forward chaining per assumption set, recursing only into larger sets.
    Guarded at 12 atoms."""

    def __init__(self, theory: HornTheory):
        if len(theory.atoms) > 12:
            raise PreconditionError(
                "natural-deduction search supports at most 12 atoms"
            )
        self.clauses = sorted(
            theory.clauses, key=lambda c: (c.head, c.kind, sorted(c.body))
        )
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
                if c.head in derived:
                    continue
                if c.kind == STANDARD:
                    ok = c.body <= derived
                else:
                    # c.head is not yet derived, hence not in the assumptions:
                    # the recursion strictly enlarges the set and terminates.
                    ok = c.body <= self.derivable(assumptions | {c.head})
                if ok:
                    derived.add(c.head)
                    self.fired_by.setdefault((assumptions, c.head), c)
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
    """Audit a proof tree rule by rule against the theory."""
    if deriv.rule == "Id":
        return (
            deriv.goal in deriv.assumptions
            and not deriv.premises
            and deriv.clause is None
        )
    if deriv.rule in ("ArrowE", "CArrowE"):
        c = deriv.clause
        if c is None or c not in theory.clauses or c.head != deriv.goal:
            return False
        wanted_kind = STANDARD if deriv.rule == "ArrowE" else CIRCULAR
        if c.kind != wanted_kind:
            return False
        scope = (
            deriv.assumptions
            if deriv.rule == "ArrowE"
            else deriv.assumptions | {deriv.goal}
        )
        if tuple(p.goal for p in deriv.premises) != tuple(sorted(c.body)):
            return False
        return all(
            p.assumptions == scope and check_derivation(theory, p)
            for p in deriv.premises
        )
    return False


def traces_bruteforce(theory: HornTheory) -> frozenset[Trace]:
    """Trace semantics by plain saturation, each fact-extended subtheory
    saturated once per call.  Guarded at 8 atoms."""
    if len(theory.atoms) > 8:
        raise PreconditionError("traces_bruteforce supports at most 8 atoms")
    std_flat = [(c.body, c.head) for c in theory.clauses if c.kind == STANDARD]
    circ_flat = [(c.body, c.head) for c in theory.clauses if c.kind == CIRCULAR]

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
                        for merged in interleave(tau, (head,)):
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
    for c in spec.clauses:
        by_kind[c.kind].setdefault(c.head, []).append(c.body)
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


def prudence_table(
    spec: ContractSpec,
) -> dict[tuple[str, ...], frozenset[str]]:
    """Prudent events after every play of the spec, by game-tree analysis.

    Starts from "everything fireable is prudent" and prunes until stable.
    Pruning is monotone — declaring fewer events prudent makes more stopped
    plays count as innocent, which can only prune further — so the loop lands
    on the greatest fixpoint.  Conflicts are fully supported.  Guarded at 6
    events.
    """
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


def prudence_bruteforce(
    spec: ContractSpec, play: tuple[str, ...] | list[str]
) -> frozenset[str]:
    """Prudent events right after *play*, from the game tree (≤ 6 events)."""
    seq = check_play(spec, play)
    return prudence_table(spec)[seq]
