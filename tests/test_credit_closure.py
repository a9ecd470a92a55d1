"""Withdrawing credit by delete and rederive.

``RuleIndex.credit_closure`` closes once under every grant and then takes the
withdrawn grants back batch by batch, on the counters of that one closure,
counting down only the circular bodies that lie inside it.  It is checked
here against the pass-by-pass fixpoint it replaced
(``helpers.credit_closure_by_passes``) on seeded random theories, each
indexed from its clauses in two orders, and at every prefix of the generated
families; ``is_prudent_play``, which asks for ``provable()`` only for
steps left on credit, is checked against ``next_events`` step by step;
and cost guards pin the linear behaviour and the two shortcuts that change
no answer: facts are spared by a withdrawal, and a closure that withdraws
nothing files no bodies.
"""

import itertools
import random

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    print_spec,
    provable_events,
    shy_dancers,
    spec_of,
    std,
)
from pacta.cli import main
from pacta.game import RuleIndex, _rules

from helpers import (
    assert_prudent_play,
    budget,
    circular_chain,
    credit_closure_by_passes,
    random_theory,
    standard_chain,
    withdrawal_cascade,
)


def random_case(rng):
    """The clauses of a random theory of 1–40 atoms with up to three planted
    gadgets, some ``done`` sets for it, and the gadgets as
    ``(shape, grant, p, q)``.

    Each gadget is a grant ``g`` waiting on an atom ``z`` that no clause
    gives, with atoms ``p`` and ``q`` that should fall with it."""
    n = rng.randint(1, 40)
    atoms = [f"a{i}" for i in range(n)]
    clauses = set()
    for _ in range(rng.randint(0, 2 * n)):
        head = rng.choice(atoms)
        kind = rng.choice((STANDARD, CIRCULAR))
        size = rng.choice((0, 1, 1, 2, 2, 3))
        clauses.add(Clause(head, frozenset(rng.sample(atoms, min(size, n))), kind))
    gadgets = []
    for g in range(rng.randint(0, 3)):
        grant, z, a, b = (f"{x}{g}" for x in ("g", "z", "p", "q"))
        atoms += [grant, z, a, b]
        clauses.add(Clause(grant, frozenset({z}), CIRCULAR))
        shape = rng.choice(("cycle", "rederived", "chained"))
        if shape == "cycle":
            # a <- g, a <- b, b <- a: the cycle stands only on the grant
            clauses |= {
                Clause(a, frozenset({grant}), STANDARD),
                Clause(a, frozenset({b}), STANDARD),
                Clause(b, frozenset({a}), STANDARD),
            }
        elif shape == "rederived":
            # g <- a, a <- (random atom or fact): a standard clause may
            # bring the withdrawn grant back
            clauses.add(Clause(grant, frozenset({a}), STANDARD))
            support = rng.choice(atoms[:n])
            body = frozenset() if rng.random() < 0.5 else frozenset({support})
            clauses.add(Clause(a, body, STANDARD))
        else:
            # b <<- a, a <- g: a second grant falls in the next batch
            clauses.add(Clause(a, frozenset({grant}), STANDARD))
            clauses.add(Clause(b, frozenset({a}), CIRCULAR))
        gadgets.append((shape, grant, a, b))
    dones = [set(), set(rng.sample(atoms, rng.randint(0, len(atoms))))]
    dones.append({grant for _, grant, _, _ in gadgets if rng.random() < 0.5})
    return list(clauses), dones, gadgets


def withdrawn(rules, closed, e):
    return not any(b <= closed for b in rules.circ_bodies[e])


def test_credit_closure_equals_the_pass_by_pass_fixpoint_on_random_theories():
    rng = random.Random(20261018)
    seen = dict.fromkeys(
        ("withdrew", "several batches", "done grant withdrawn", "grant rederived",
         "cycle dropped"), 0
    )
    for _ in range(3_000):
        clauses, dones, gadgets = random_case(rng)
        # clause order fixes the numbering of both kinds of clause
        rules, backwards = RuleIndex(clauses), RuleIndex(clauses[::-1])
        for done in dones:
            expected = credit_closure_by_passes(rules, done)
            assert rules.credit_closure(done) == expected, (clauses, done)
            assert backwards.credit_closure(done) == expected, (clauses, done)
            grants = set(rules.circ_bodies)
            first = rules.closure(set(done) | grants)
            if first != expected:
                seen["withdrew"] += 1
            for shape, g, a, b in gadgets:
                if not withdrawn(rules, expected, g):
                    continue
                if g in done:
                    seen["done grant withdrawn"] += 1
                elif g in expected:
                    seen["grant rederived"] += 1
                if shape == "cycle" and a in first and a not in expected:
                    seen["cycle dropped"] += 1
                if shape == "chained" and b not in done and withdrawn(rules, expected, b):
                    seen["several batches"] += 1
    assert all(count >= 500 for count in seen.values()), seen


def test_credit_closure_equals_the_pass_by_pass_fixpoint_at_every_prefix_of_the_families():
    cases = []
    for m in (1, 2, 7, 40):
        spec, c, s = withdrawal_cascade(m)
        cases += [(spec, c), (spec, s), (spec, c[::-1]), (spec, s + c)]
    for n in (1, 2, 9, 40):
        spec, x = circular_chain(n)
        cases += [(spec, x), (spec, x[::-1])]
    for n, circular in (
        (3, None),
        (4, None),
        (4, [(1, 1)]),
        (4, [(1, 1), (1, 2), (2, 1), (2, 2)]),
        (5, [(1, 1), (3, 3), (5, 5)]),
    ):
        spec = shy_dancers(n, circular)
        order = sorted(spec.events)
        cases += [(spec, order), (spec, order[::-1])]
    for spec, play in cases:
        rules = RuleIndex(spec.clauses)
        for k in range(len(play) + 1):
            done = play[:k]
            assert rules.credit_closure(done) == credit_closure_by_passes(rules, done), (
                play, k
            )


def prudent_by_next_events(rules, seq):
    done = frozenset()
    for e in seq:
        if e not in rules.next_events(done):
            return False
        done |= {e}
    return True


def test_prudent_is_next_events_step_by_step_on_random_theories():
    rng = random.Random(5)
    plays = 0
    for _ in range(600):
        th = random_theory(rng, min_atoms=1, max_atoms=5)
        spec = spec_of(th)
        rules = _rules(spec)
        atoms = sorted(th.atoms)
        for k in range(len(atoms) + 1):
            for seq in itertools.permutations(atoms, k):
                assert_prudent_play(spec, seq, prudent_by_next_events(rules, seq))
                plays += 1
        for seq in ([atoms[0], atoms[0]], atoms + atoms[:1], ["zz"], atoms[:1] + ["zz"]):
            assert_prudent_play(spec, seq, prudent_by_next_events(rules, seq))
    assert plays > 10_000


def test_provable_events_on_a_long_withdrawal_cascade_is_about_linear():
    spec, c, s = withdrawal_cascade(2_000)
    with budget(0.5):
        assert provable_events(spec) == frozenset(s)


def test_a_withdrawal_spares_the_facts_it_touches():
    # s1 is a fact that every grant c_j also gives: each of the 2,000
    # batches takes a clause of s1 away, and overdeleting s1 there would
    # overdelete and rederive the whole chain s_k once per batch.
    spec, c, s = withdrawal_cascade(2_000)
    rules = RuleIndex([*spec.clauses, *(std(s[0], cj) for cj in c)])
    with budget(0.5):
        assert rules.credit_closure(()) == set(s)


def test_a_credit_closure_that_withdraws_nothing_costs_one_closure():
    # Every grant of the all-circular 30×30 grid holds at every past, so
    # each call is one closure and one look for a body inside it; filing
    # all 23,084 circular bodies by atom would cost about fifteen times that.
    spec = shy_dancers(30)
    rules = RuleIndex(spec.clauses)
    order = sorted(spec.events)
    with budget(0.5):
        for k in range(0, len(order), 9):
            assert rules.credit_closure(order[:k]) == spec.events


def test_check_trace_on_a_long_standard_chain_is_about_linear(tmp_path, capsys):
    path = tmp_path / "chain.ces"
    path.write_text(print_spec(spec_of(standard_chain(20_000))), encoding="utf-8")
    whole = ",".join(f"s{k}" for k in range(20_000))
    with budget(6):
        assert main(["check-trace", str(path), "--trace", whole]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_agree_computes_the_provable_fixpoint_once(tmp_path, monkeypatch, capsys):
    spec, c, s = withdrawal_cascade(5)
    path = tmp_path / "cascade.ces"
    path.write_text(print_spec(spec), encoding="utf-8")
    calls = []
    real = RuleIndex.credit_closure

    def counted(self, done):
        calls.append(done)
        return real(self, done)

    monkeypatch.setattr(RuleIndex, "credit_closure", counted)
    assert main(["agree", str(path)]) == 1
    assert capsys.readouterr().out == f"agreement: no\nprovable: {' '.join(sorted(s))}\n"
    assert len(calls) == 1
