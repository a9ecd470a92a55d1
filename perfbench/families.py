"""Seeded input families and the closed-form facts each one guarantees.

Everything here is plain Python over strings and tuples: it imports nothing
from ``pacta``, so a generated contract and its expected answers never come
from the code under test.  The closed forms are pinned against
``pacta.oracle`` at every size the oracles reach by ``test_perfbench.py``.

A contract is a :class:`Contract` value; :func:`to_ces` writes it in the
line format of ``pacta.dsl``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

STANDARD = "standard"
CIRCULAR = "circular"

Clause = tuple[str, tuple[str, ...], str]  # (head, sorted body, kind)


@dataclass(frozen=True)
class Contract:
    """A contract as plain data; ``payoffs`` maps a participant to
    ``("goal", events)`` or ``("pairs", ((offers, requests), ...))``."""

    participants: tuple[str, ...]
    owner: dict[str, str]
    clauses: tuple[Clause, ...]
    conflicts: tuple[tuple[str, str], ...] = ()
    payoffs: dict[str, tuple] = field(default_factory=dict)

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(sorted(self.owner))

    def owned_by(self, participant: str) -> frozenset[str]:
        return frozenset(e for e, p in self.owner.items() if p == participant)


def clause(head: str, *body: str, kind: str = STANDARD) -> Clause:
    return (head, tuple(sorted(body)), kind)


def to_ces(contract: Contract) -> str:
    """Render *contract* as a contract file, clauses in their given order.

    Clause order decides set iteration order inside the program, which moves
    some queries' cost by up to 10 %, so it is kept fixed.
    """
    lines = []
    for p in contract.participants:
        owned = sorted(contract.owned_by(p))
        lines.append(f"agent {p} owns {' '.join(owned)}" if owned else f"agent {p}")
    clause_lines = []
    for head, body, kind in contract.clauses:
        arrow = "<-" if kind == STANDARD else "<<-"
        if body:
            clause_lines.append(f"clause {head} {arrow} {', '.join(body)}")
        elif kind == STANDARD:
            clause_lines.append(f"clause {head}")
        else:
            clause_lines.append(f"clause {head} <<- true")
    lines += clause_lines
    lines += [f"conflict {a} {b}" for a, b in contract.conflicts]
    for p, payoff in contract.payoffs.items():
        if payoff[0] == "goal":
            lines.append(f"payoff {p} goal {{{' '.join(sorted(payoff[1]))}}}")
        else:
            for offers, requests in payoff[1]:
                lines.append(
                    f"payoff {p} offers {{{' '.join(sorted(offers))}}}"
                    f" requests {{{' '.join(sorted(requests))}}}"
                )
    return "\n".join(lines) + "\n"


# --- the withdrawal cascade --------------------------------------------------


@dataclass(frozen=True)
class Cascade:
    """``c_j <<- c_{j+1}`` for j < m and ``c_m <<- z`` with ``z`` unobtainable
    (participant C), beside a standard chain ``s_1``, ``s_{k+1} <- s_k``
    (participant S).  C wants ``c_1``; S wants ``s_m``.

    Facts: exactly the standard chain is provable and no ``c_j``, so the
    agreement fails.  On the play ``c_1 .. c_m`` nothing is ever discharged:
    the ledger after prefix k >= 1 is ``{c_k}``, only ``s_1`` is prudent after
    every prefix, and the verdict finds S culpable, C the default winner.
    """

    m: int
    c: tuple[str, ...]
    z: str
    s: tuple[str, ...]
    contract: Contract

    @classmethod
    def make(cls, m: int) -> "Cascade":
        c = tuple(f"c{j}" for j in range(1, m + 1))
        z = "z"
        s = tuple(f"s{j}" for j in range(1, m + 1))
        clauses = [clause(c[j], c[j + 1], kind=CIRCULAR) for j in range(m - 1)]
        clauses.append(clause(c[-1], z, kind=CIRCULAR))
        clauses.append(clause(s[0]))
        clauses += [clause(s[j + 1], s[j]) for j in range(m - 1)]
        owner = {e: "C" for e in c + (z,)} | {e: "S" for e in s}
        payoffs = {"C": ("goal", (c[0],)), "S": ("goal", (s[-1],))}
        contract = Contract(("C", "S"), owner, tuple(clauses), payoffs=payoffs)
        return cls(m, c, z, s, contract)

    @property
    def provable(self) -> list[str]:
        return sorted(self.s)

    @property
    def play(self) -> tuple[str, ...]:
        return self.c

    def ledger(self) -> list[list[str]]:
        return [[]] + [[self.c[k - 1]] for k in range(1, self.m + 1)]

    def prudent_after(self, k: int) -> list[str]:
        return [self.s[0]]

    def verdict(self) -> dict:
        return {
            "C": {"innocent": True, "credit_free": False, "wins": True},
            "S": {"innocent": False, "credit_free": True, "wins": False},
        }


# --- chains --------------------------------------------------------------------


@dataclass(frozen=True)
class StandardChain:
    """``s_1`` is a fact and ``s_{k+1} <- s_k``; one participant T wants ``s_n``.

    Facts: every atom is provable; the proof traces are exactly the n + 1
    prefixes ``s_1 .. s_k``; after the prefix of length k the only urgent
    atom is ``s_{k+1}``; swapping the last two atoms gives a non-trace.
    """

    n: int
    s: tuple[str, ...]
    contract: Contract

    @classmethod
    def make(cls, n: int) -> "StandardChain":
        s = tuple(f"s{k}" for k in range(1, n + 1))
        clauses = [clause(s[0])] + [clause(s[k + 1], s[k]) for k in range(n - 1)]
        contract = Contract(
            ("T",), {e: "T" for e in s}, tuple(clauses), payoffs={"T": ("goal", (s[-1],))}
        )
        return cls(n, s, contract)

    def traces(self, max_count: int) -> list[list[str]]:
        return [list(self.s[:k]) for k in range(min(max_count, self.n + 1))]

    def urgent_after(self, k: int) -> list[str]:
        return [self.s[k]] if k < self.n else []

    @property
    def non_trace(self) -> tuple[str, ...]:
        return self.s[:-2] + (self.s[-1], self.s[-2])


@dataclass(frozen=True)
class CircularChain:
    """``x_k <<- x_{k+1}`` for k < n and ``x_n`` a fact; A owns the odd
    positions, B the even ones, and each wants all of the other's events.

    Facts: every atom is provable.  Played in order, the ledger after prefix
    k is ``{x_k}`` for 0 < k < n and empty at 0 and n; played in reverse it
    is always empty.  After the in-order prefix of length k the prudent (and
    urgent) events are ``x_{k+1} .. x_n``.  Both full plays end with everyone
    innocent, credit-free and winning.  The in-order play is a proof trace;
    dropping its last atom leaves a non-trace.
    """

    n: int
    x: tuple[str, ...]
    contract: Contract

    @classmethod
    def make(cls, n: int) -> "CircularChain":
        x = tuple(f"x{k}" for k in range(1, n + 1))
        clauses = [clause(x[k], x[k + 1], kind=CIRCULAR) for k in range(n - 1)]
        clauses.append(clause(x[-1]))
        owner = {e: "AB"[k % 2] for k, e in enumerate(x)}
        payoffs = {"A": ("goal", x[1::2]), "B": ("goal", x[0::2])}
        return cls(n, x, Contract(("A", "B"), owner, tuple(clauses), payoffs=payoffs))

    def ledger(self, reverse: bool) -> list[list[str]]:
        if reverse:
            return [[] for _ in range(self.n + 1)]
        return [[]] + [[self.x[k - 1]] for k in range(1, self.n)] + [[]]

    def prudent_after(self, k: int) -> list[str]:
        return sorted(self.x[k:])

    def verdict(self) -> dict:
        row = {"innocent": True, "credit_free": True, "wins": True}
        return {p: dict(row) for p in self.contract.participants}

    @property
    def non_trace(self) -> tuple[str, ...]:
        return self.x[:-1]


# --- random theories and specs -------------------------------------------------

LETTERS = "abcdef"


def random_theory(rng: random.Random, min_atoms: int = 1, max_atoms: int = 5) -> Contract:
    """A random Horn theory drawn as the repository's test helpers draw them,
    written as a single-participant contract."""
    n = rng.randint(min_atoms, max_atoms)
    atoms = LETTERS[:n]
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(atoms)
        kind = rng.choice((STANDARD, CIRCULAR))
        body = rng.sample(atoms, rng.randint(0, min(3, n)))
        clauses.add(clause(head, *body, kind=kind))
    return Contract(("T",), {a: "T" for a in atoms}, tuple(sorted(clauses)))


def random_spec(rng: random.Random, max_events: int = 5) -> Contract:
    """A random contract drawn as the repository's test helpers draw them,
    conflicts and partial payoffs included."""
    n = rng.randint(2, max_events)
    events = list(LETTERS[:n])
    participants = ["A", "B", "C"][: rng.randint(1, 3)]
    owner = {e: rng.choice(participants) for e in events}
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(events)
        kind = rng.choice((STANDARD, CIRCULAR))
        body = rng.sample(events, rng.randint(0, min(3, n)))
        clauses.add(clause(head, *body, kind=kind))
    conflicts: list[tuple[str, str]] = []
    if rng.random() < 0.5:
        a, b = rng.sample(events, 2)
        conflicts.append((a, b))
        clauses = {c for c in clauses if not {a, b} <= set(c[1])}
    payoffs: dict[str, tuple] = {}
    for p in participants:
        if rng.random() < 0.3:
            continue
        if rng.random() < 0.6:
            payoffs[p] = ("goal", tuple(sorted(rng.sample(events, rng.randint(0, n)))))
        else:
            pairs = tuple(
                (
                    tuple(sorted(rng.sample(events, rng.randint(0, 2)))),
                    tuple(sorted(rng.sample(events, rng.randint(0, 2)))),
                )
                for _ in range(rng.randint(1, 3))
            )
            payoffs[p] = ("pairs", pairs)
    return Contract(
        tuple(participants), owner, tuple(sorted(clauses)), tuple(conflicts), payoffs
    )


#: Defects injected into a valid contract file, with the diagnostic code that
#: ``validate`` must report for each.
DEFECTS = (
    ("undeclared-event", "clause {e} <- zz_missing"),
    ("unknown-directive", "widget {e}"),
    ("self-conflict", "conflict {e} {e}"),
    ("bad-identifier", "clause 9{e}"),
    ("unknown-participant", "payoff Nobody goal {{{e}}}"),
)


def broken_text(text: str, contract: Contract, rng: random.Random) -> tuple[str, str]:
    """Append one seeded defect to *text*; return the file and its code."""
    code, line = rng.choice(DEFECTS)
    return text + line.format(e=rng.choice(contract.events)) + "\n", code


def payoff_holds(payoff: tuple, done: frozenset[str]) -> bool:
    """The two payoff forms of the file format, by their definitions."""
    if payoff[0] == "goal":
        return set(payoff[1]) <= done
    pairs = [(set(o), set(r)) for o, r in payoff[1]]
    if not all(r <= done for o, r in pairs if o <= done):
        return False
    return any(r <= done for _, r in pairs)


def expected_encoding(contract: Contract) -> dict:
    """The ``encode`` output, transcribed from the urgency encoding's
    definition: ``!α → U$a`` and ``R$α → R$a`` per standard clause,
    ``R$α ↠ U$a`` per circular clause, ``!a → U$a`` and ``U$a → R$a`` per atom."""
    done, reach, urgent = (lambda a: "!" + a), (lambda a: "R$" + a), (lambda a: "U$" + a)
    out = set()
    for head, body, kind in contract.clauses:
        if kind == STANDARD:
            out.add((urgent(head), tuple(sorted(map(done, body))), STANDARD))
            out.add((reach(head), tuple(sorted(map(reach, body))), STANDARD))
        else:
            out.add((urgent(head), tuple(sorted(map(reach, body))), CIRCULAR))
    for a in contract.events:
        out.add((urgent(a), (done(a),), STANDARD))
        out.add((reach(a), (urgent(a),), STANDARD))
    atoms = sorted(tag(a) for a in contract.events for tag in (done, reach, urgent))
    return {
        "atoms": atoms,
        "clauses": [
            {"head": h, "body": list(b), "kind": k}
            for h, b, k in sorted(out, key=lambda c: (c[0], c[2], c[1]))
        ],
    }
