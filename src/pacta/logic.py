"""Horn contract logic: provability, proof traces, and the urgency encoding.

A :class:`HornTheory` is a set of definite clauses over atoms, in the same
two kinds as contract clauses: ``standard`` (``α → a``: conclude *a* once the
whole body is derived) and ``circular`` (``α ↠ a``: conclude *a* if the body
is derivable while assuming *a*).  Facts are empty-body standard clauses.

*Proof traces* refine provability with an order of performance: a trace is a
duplicate-free sequence of atoms witnessing in what order they can be
honoured.  Standard steps append on the right; a circular step for ``α ↠ a``
takes a trace of the theory extended with the fact ``a``, checks the body is
in it, and re-inserts ``a`` via interleaving — which is what lets ``a`` occur
*before* its justification.

The traces are computed from the game side instead: a sequence is a proof
trace exactly when it repeats no atom and its final credit ledger
(``RuleIndex.unjustified``) is empty, which makes it a prudent play.  The
interleaving definition survives as :func:`pacta.oracle.traces_bruteforce`,
which the tests hold the fast path to.  Every query on one theory value
shares its one index (``game._rules``), as the game queries on a spec do.

The urgency encoding compiles the question "which atom may be performed
next?" into plain provability over a tagged alphabet: ``!a`` ("a was already
performed"), ``R$a`` ("a is still obtainable"), ``U$a`` ("a can be performed
now").  The tag spellings are outside the identifier grammar of the DSL, so
encoded theories can never collide with user input.  :func:`urgent_atoms`
and :func:`provable_atoms` do not go through the encoding: they read the
game fixpoint (``RuleIndex.next_events`` and ``RuleIndex.provable``).  The
encoding's theorem is that its ``U$`` tags give the urgent atoms and its
``R$`` tags the atoms of the proof traces, which are the provable atoms;
the acceptance tests hold :func:`encode_urgency` to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .game import _require_conflict_free, _rules
from .model import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    Diagnostic,
    InvalidSpecError,
    PreconditionError,
    _clause_key,
    _clause_set,
    _event_set,
    _refuse_unknown,
    is_reserved_name,
)

Trace = tuple[str, ...]


@dataclass(frozen=True)
class HornTheory:
    """An immutable Horn theory; hashable, so it can key caches in tests.

    Every clause speaks of atoms of the theory: any other is refused with an
    :class:`InvalidSpecError` carrying one ``unknown-event`` diagnostic per
    such clause, as :class:`ContractSpec` refuses a bad conflict.
    """

    atoms: frozenset[str]
    clauses: frozenset[Clause]

    def __post_init__(self) -> None:
        atoms = _event_set(self.atoms, "HornTheory.atoms")
        clauses = _clause_set(self.clauses, "HornTheory.clauses")
        bad = [c for c in clauses if c[0] not in atoms or not c[1] <= atoms]
        if bad:
            message = "clause for {!r} names atoms outside the theory: {}"
            found = []
            for head, body, _ in sorted(bad, key=_clause_key):
                outside = ", ".join(sorted((body | {head}) - atoms))
                found.append(Diagnostic("unknown-event", message.format(head, outside)))
            raise InvalidSpecError(found)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "clauses", clauses)

    @classmethod
    def of(cls, clauses: Iterable[Clause], atoms: Iterable[str] = ()) -> "HornTheory":
        """Build a theory, deriving the alphabet from the clauses.

        Extra isolated atoms may be supplied via *atoms*.
        """
        cs = _clause_set(clauses, "the clauses argument")
        alphabet = set(_event_set(atoms, "the atoms argument"))
        for head, body, _ in cs:
            alphabet.add(head)
            alphabet |= body
        return cls(alphabet, cs)


def theory_of(spec: ContractSpec) -> HornTheory:
    """View a conflict-free contract as a Horn theory (owners are dropped).

    A clause that names an undeclared event is refused, as ``HornTheory``
    refuses one that names an atom outside the theory.  The view is built
    once per spec value and kept on it, and it is handed the spec's one
    index (``game._rules``), built here if the spec has none yet, so game
    queries on the spec and logic queries on its theory share one index,
    whichever of the two asks first.  The theory holds no reference back to
    the spec."""
    _require_conflict_free(spec, "the Horn theory reading")
    theory = spec.__dict__.get("_theory")
    if theory is None:
        theory = HornTheory(atoms=spec.events, clauses=spec.clauses)
        theory.__dict__["_rule_index"] = _rules(spec)
        spec.__dict__["_theory"] = theory
    return theory


def spec_of(theory: HornTheory) -> ContractSpec:
    """Wrap a theory as a contract whose one participant ``T`` owns every
    atom (for printing and play)."""
    return ContractSpec.of(owner={a: "T" for a in theory.atoms}, clauses=theory.clauses)


def provable_atoms(theory: HornTheory) -> frozenset[str]:
    """All atoms provable from the theory (circular clauses discharge their head)."""
    return _rules(theory).provable()


# ---------------------------------------------------------------------------
# proof traces


def interleave(left: Sequence[str], right: Sequence[str]) -> frozenset[Trace]:
    """All order-preserving merges of the two sequences, duplicates squeezed.

    Both operands are squeezed first; shared elements may therefore migrate
    leftward in the result (the leftmost copy survives).  Strings work too,
    treated as sequences of single-character events.
    """
    a = tuple(dict.fromkeys(left))
    b = tuple(dict.fromkeys(right))
    out: set[Trace] = set()
    stack: list[tuple[int, int, Trace]] = [(0, 0, ())]
    while stack:
        i, j, acc = stack.pop()
        if i == len(a) or j == len(b):
            out.add(tuple(dict.fromkeys(acc + a[i:] + b[j:])))
            continue
        stack.append((i + 1, j, acc + (a[i],)))
        stack.append((i, j + 1, acc + (b[j],)))
    return frozenset(out)


def iter_proof_traces(theory: HornTheory) -> Iterator[Trace]:
    """Yield all proof traces in shortlex order, lazily.

    Walks the prudent plays level by level: each play of length *k* is
    extended by its prudent next atoms in sorted order, so every level comes
    out lexicographically sorted.  Plays with an empty credit ledger are
    the traces.  Every walked play is prudent, so it lies inside
    ``provable()``, which is computed up front: ``next_events`` then reads
    the clauses against it and no play pays for a credit closure.
    """
    rules = _rules(theory)
    rules.provable()
    level: list[Trace] = [()]
    while level:
        longer: list[Trace] = []
        for play in level:
            if not rules.unjustified(play):
                yield play
            for a in sorted(rules.next_events(frozenset(play))):
                longer.append(play + (a,))
        level = longer


def proof_traces(theory: HornTheory, max_count: int | None = None) -> frozenset[Trace]:
    """The set of proof traces of the theory.

    With *max_count*, only the first that many traces in shortlex order are
    returned.
    """
    if max_count is not None and max_count < 0:
        raise PreconditionError("max_count must be non-negative")
    return frozenset(islice(iter_proof_traces(theory), max_count))


def is_proof_trace(theory: HornTheory, trace: Sequence[str]) -> bool:
    """Membership in the trace set: *trace* repeats no atom and leaves an
    empty credit ledger.  Unknown atoms are a precondition error, and a
    string a ``TypeError``."""
    if isinstance(trace, str):  # tuple would split it into characters
        raise TypeError("the trace is a string, not a sequence of atoms")
    seq = tuple(trace)
    atoms = frozenset(seq)
    _refuse_unknown(atoms, theory.atoms, "atoms")
    return len(atoms) == len(seq) and not _rules(theory).unjustified(seq)


# ---------------------------------------------------------------------------
# urgency encoding


def mark_done(atom: str) -> str:
    """Tag: the atom has already been performed."""
    return "!" + atom


def mark_reachable(atom: str) -> str:
    """Tag: the atom can still be obtained."""
    return "R$" + atom


def mark_urgent(atom: str) -> str:
    """Tag: the atom can be performed right now."""
    return "U$" + atom


def encode_urgency(theory: HornTheory) -> HornTheory:
    """Compile the theory into one whose provable ``U$``/``R$`` tags answer
    urgency and reachability questions.

    Each standard clause ``α → a`` becomes ``!α → U$a`` (once the body is
    performed, *a* is immediately performable) and ``R$α → R$a``; each
    circular clause ``α ↠ a`` becomes ``R$α ↠ U$a`` (it suffices that the
    body stays obtainable).  Every atom also gets ``!a → U$a`` (a performed
    atom counts as performable) and ``U$a → R$a``.
    """
    offenders = sorted(a for a in theory.atoms if is_reserved_name(a))
    if offenders:
        raise PreconditionError(
            f"atoms collide with the tag namespace: {', '.join(offenders)}"
        )
    clauses: set[Clause] = set()
    for head, body, kind in theory.clauses:
        if kind == STANDARD:
            clauses.add(Clause(mark_urgent(head), frozenset(map(mark_done, body)), STANDARD))
            clauses.add(
                Clause(mark_reachable(head), frozenset(map(mark_reachable, body)), STANDARD)
            )
        else:
            clauses.add(
                Clause(mark_urgent(head), frozenset(map(mark_reachable, body)), CIRCULAR)
            )
    for a in theory.atoms:
        clauses.add(Clause(mark_urgent(a), frozenset({mark_done(a)}), STANDARD))
        clauses.add(Clause(mark_reachable(a), frozenset({mark_urgent(a)}), STANDARD))
    alphabet = frozenset(
        tag(a) for a in theory.atoms for tag in (mark_done, mark_reachable, mark_urgent)
    )
    return HornTheory(atoms=alphabet, clauses=clauses)


def urgent_atoms(theory: HornTheory, done: Iterable[str]) -> frozenset[str]:
    """Atoms performable right after the atoms in *done*.

    Answered by the game fixpoint, ``RuleIndex.next_events``.  The theorem of
    the encoding is that these are exactly the atoms whose ``U$`` tag
    :func:`encode_urgency` makes provable once the past is marked done;
    ``test_c07``/``test_c08`` hold the encoding to it.
    """
    performed = _event_set(done, "the past")
    _refuse_unknown(performed, theory.atoms, "atoms")
    return _rules(theory).next_events(performed)
