"""Shared fixture builders and generators for the test suite.

The two-letter contracts C1..C4 and the conflicted E5 mirror the fixture
files in tests/data; test_dsl checks the files parse to exactly these
values, so every other test may use whichever form is convenient.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    HornTheory,
    OfferRequestPayoff,
    circ,
    std,
)

DATA = Path(__file__).parent / "data"

ATOMS3 = ("a", "b", "c")
LETTERS = "abcdef"


def read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@contextmanager
def budget(seconds: float):
    """Fail the test when the block takes *seconds* or longer."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f} s, budget {seconds} s"


def two_party(ca: Clause, cb: Clause, conflicts=(), payoffs: bool = True) -> ContractSpec:
    return ContractSpec.of(
        owner={"a": "A", "b": "B"},
        clauses=[ca, cb],
        conflicts=conflicts,
        payoffs=(
            {"A": GoalPayoff(frozenset({"b"})), "B": GoalPayoff(frozenset({"a"}))}
            if payoffs
            else None
        ),
    )


def c1() -> ContractSpec:
    return two_party(std("a"), std("b", "a"))


def c2() -> ContractSpec:
    return two_party(std("a", "b"), std("b", "a"))


def c3() -> ContractSpec:
    return two_party(circ("a", "b"), std("b", "a"))


def c4() -> ContractSpec:
    return two_party(circ("a", "b"), circ("b", "a"))


def e5() -> ContractSpec:
    return ContractSpec.of(
        owner={"a": "A", "b": "B", "c": "B"},
        clauses=[std("b", "a"), std("c", "a"), std("a", "c"), circ("a", "b")],
        conflicts=[("b", "c")],
    )


def delta1() -> HornTheory:
    return HornTheory.of([std("a"), std("b", "a")])


def delta2() -> HornTheory:
    return HornTheory.of([std("a", "b"), std("b", "a")])


def delta3() -> HornTheory:
    return HornTheory.of([circ("a", "b"), std("b", "a")])


def delta4() -> HornTheory:
    return HornTheory.of([circ("a", "b"), circ("b", "a")])


STAR_CLAUSES = (
    circ("e6", "e0", "e1"),
    std("e3", "e6"),
    std("e4", "e6"),
    std("e0", "e3"),
    circ("e7", "e4", "e5"),
    std("e1", "e7"),
    std("e2", "e7"),
    std("e5", "e2"),
)

STAR_EVENTS = tuple(f"e{i}" for i in range(8))


def star_theory() -> HornTheory:
    return HornTheory.of(STAR_CLAUSES, atoms=STAR_EVENTS)


def star_spec() -> ContractSpec:
    return ContractSpec.of(
        owner={e: "T" for e in STAR_EVENTS},
        clauses=STAR_CLAUSES,
        payoffs={"T": GoalPayoff(frozenset(STAR_EVENTS))},
    )


def or_payoffs_spec() -> ContractSpec:
    fs = frozenset
    return ContractSpec.of(
        owner={"a0": "A", "a1": "A", "a2": "A", "b0": "B", "b1": "B", "b2": "B"},
        clauses=[
            circ("a0", "b0", "b2"),
            std("a1", "b1"),
            circ("a2", "b2"),
            std("b0", "a0"),
            std("b1", "a0", "a1"),
            std("b2", "a0", "a2"),
        ],
        payoffs={
            "A": OfferRequestPayoff(
                ((fs({"a0"}), fs({"b0", "b2"})), (fs({"a0", "a1"}), fs({"b1"})))
            ),
            "B": OfferRequestPayoff(
                ((fs({"b0"}), fs({"a0"})), (fs({"b2"}), fs({"a0", "a2"})))
            ),
        },
    )


def delta2_contract() -> ContractSpec:
    return ContractSpec.of(
        owner={"a": "T", "b": "T"},
        clauses=[std("a", "b"), std("b", "a")],
        payoffs={"T": GoalPayoff(frozenset({"a", "b"}))},
    )


def standard_chain(n):
    """``s0`` is a fact and each ``s(k+1)`` needs ``sk``: n + 1 traces."""
    atoms = [f"s{k}" for k in range(n)]
    return HornTheory.of(
        [std(atoms[0])] + [std(b, a) for a, b in zip(atoms, atoms[1:])]
    )


def circular_chain(n):
    """``x_k <<- x_{k+1}`` and the fact ``x_n``: in order, each step stays on
    credit for exactly one prefix."""
    x = tuple(f"x{k}" for k in range(1, n + 1))
    spec = ContractSpec.of(
        owner={e: "AB"[k % 2] for k, e in enumerate(x)},
        clauses=[circ(x[k], x[k + 1]) for k in range(n - 1)] + [std(x[-1])],
    )
    return spec, x


def withdrawal_cascade(m):
    """``c_j <<- c_{j+1}`` for j < m and ``c_m <<- z`` with ``z`` unobtainable,
    beside the standard chain ``s_1``, ``s_{k+1} <- s_k``: the grants of the
    ``c_j`` are withdrawn one by one, from ``c_m`` down, and exactly the
    ``s_k`` are provable."""
    c = tuple(f"c{j}" for j in range(1, m + 1))
    s = tuple(f"s{j}" for j in range(1, m + 1))
    spec = ContractSpec.of(
        owner={e: "C" for e in c + ("z",)} | {e: "S" for e in s},
        clauses=[circ(c[j], c[j + 1]) for j in range(m - 1)]
        + [circ(c[-1], "z"), std(s[0])]
        + [std(s[j + 1], s[j]) for j in range(m - 1)],
        payoffs={"C": GoalPayoff(frozenset({c[0]})), "S": GoalPayoff(frozenset({s[-1]}))},
    )
    return spec, c, s


def credit_closure_by_passes(rules, done):
    """The credit closure as one full ``closure`` per withdrawal pass: the
    reference ``RuleIndex.credit_closure`` is checked against."""
    base = set(done)
    grant = set(rules.circ_bodies)
    while True:
        closed = rules.closure(base | grant)
        kept = {e for e in grant if any(b <= closed for b in rules.circ_bodies[e])}
        if kept == grant:
            return closed
        grant = kept


# --- exhaustive families and random generators ------------------------------


def single_slot_family():
    """Every theory over a,b,c with at most one clause per (head, kind) and
    bodies of at most two other atoms: 5^6 = 15625 theories."""

    def options(head: str):
        others = [x for x in ATOMS3 if x != head]
        return [
            None,
            frozenset(),
            frozenset({others[0]}),
            frozenset({others[1]}),
            frozenset(others),
        ]

    slots = [(h, k) for h in ATOMS3 for k in (STANDARD, CIRCULAR)]
    for combo in itertools.product(*[options(h) for h, _ in slots]):
        clauses = frozenset(
            Clause(h, body, k) for (h, k), body in zip(slots, combo) if body is not None
        )
        yield HornTheory(frozenset(ATOMS3), clauses)


def all_clauses3():
    """All 42 clauses over a,b,c with bodies of size at most two (the head
    may appear in its own body)."""
    out = []
    for head in ATOMS3:
        for kind in (STANDARD, CIRCULAR):
            for r in range(3):
                for body in itertools.combinations(ATOMS3, r):
                    out.append(Clause(head, frozenset(body), kind))
    return out


def sparse_family(max_clauses: int = 3):
    """Every theory over a,b,c built from at most *max_clauses* of the 42
    possible small clauses; includes self-referential and multi-clause heads."""
    pool = all_clauses3()
    for r in range(max_clauses + 1):
        for picked in itertools.combinations(pool, r):
            yield HornTheory(frozenset(ATOMS3), frozenset(picked))


def random_theory(rng: random.Random, min_atoms: int = 3, max_atoms: int = 6) -> HornTheory:
    n = rng.randint(min_atoms, max_atoms)
    atoms = LETTERS[:n]
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(atoms)
        kind = rng.choice((STANDARD, CIRCULAR))
        body = frozenset(rng.sample(atoms, rng.randint(0, min(3, n))))
        clauses.add(Clause(head, body, kind))
    return HornTheory(frozenset(atoms), frozenset(clauses))


def random_spec(rng: random.Random, max_events: int = 5, allow_conflicts: bool = False) -> ContractSpec:
    n = rng.randint(2, max_events)
    events = list(LETTERS[:n])
    participants = ["A", "B", "C"][: rng.randint(1, 3)]
    owner = {e: rng.choice(participants) for e in events}
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(events)
        kind = rng.choice((STANDARD, CIRCULAR))
        body = frozenset(rng.sample(events, rng.randint(0, min(3, n))))
        clauses.add(Clause(head, body, kind))
    conflicts = []
    if allow_conflicts and n >= 2 and rng.random() < 0.5:
        pair = rng.sample(events, 2)
        conflicts.append((pair[0], pair[1]))
        clauses = {c for c in clauses if not frozenset(pair) <= c.body}
    payoffs = {}
    for p in participants:
        if rng.random() < 0.3:
            continue
        if rng.random() < 0.6:
            payoffs[p] = GoalPayoff(frozenset(rng.sample(events, rng.randint(0, n))))
        else:
            pairs = tuple(
                (
                    frozenset(rng.sample(events, rng.randint(0, 2))),
                    frozenset(rng.sample(events, rng.randint(0, 2))),
                )
                for _ in range(rng.randint(1, 3))
            )
            payoffs[p] = OfferRequestPayoff(pairs)
    return ContractSpec.of(
        owner=owner,
        clauses=clauses,
        conflicts=conflicts,
        payoffs=payoffs,
        participants=participants,
    )
