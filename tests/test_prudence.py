"""Prudent plays never move the credit closure.

If ``e`` is in ``credit_closure(X)``, then ``credit_closure(X ∪ {e})``
equals it, so every ``X ⊆ provable()`` has ``credit_closure(X) =
provable()``.  On that theorem ``RuleIndex.next_events`` answers a prudent
one-event extension of its last question as a delta and reads the clauses
against ``provable()`` once the index has it, and ``simulate`` hands the
strategies synthesized for its spec the event set of each step's play.  A
play is prudent exactly when every step of its final credit ledger has a
circular body inside ``provable()``, so ``is_prudent_play`` reads only that
ledger, as ``is_proof_trace`` does.  The theorem and that lemma are checked here on
seeded random theories and the families, each rewrite against the code it
replaced (``helpers.prudent_reference``, ``helpers.prudent_by_steps``,
``helpers.is_proof_trace_by_prudence``, ``helpers.next_events_reference``)
and against fresh indexes at every ``simulate`` step, and cost guards pin
the linear behaviour.
"""

import dataclasses
import itertools
import random

import pytest

from pacta import (
    InvalidPlayError,
    Strategy,
    credits,
    is_proof_trace,
    is_prudent_play,
    print_spec,
    proof_traces,
    prudent_events,
    shy_dancers,
    simulate,
    spec_of,
    synthesize_strategy,
    verdict,
)
from pacta.cli import main
from pacta.game import RuleIndex, _rules
from pacta.logic import HornTheory

from helpers import (
    assert_prudent_play,
    budget,
    circular_chain,
    is_proof_trace_by_prudence,
    next_events_reference,
    prudent_by_steps,
    prudent_reference,
    random_spec,
    random_theory,
    standard_chain,
    withdrawal_cascade,
)


def family_cases():
    """(clauses, a play of provable events) of the cascade and the chains."""
    for m in (1, 2, 7, 40):
        spec, c, s = withdrawal_cascade(m)
        yield spec.clauses, s
    for n in (1, 2, 9, 200):
        spec, x = circular_chain(n)
        yield spec.clauses, x
    for n in (1, 3, 200):
        th = standard_chain(n)
        yield th.clauses, tuple(f"s{k}" for k in range(n))


def test_credit_closure_of_every_provable_subset_is_provable():
    rng = random.Random(20261019)
    subsets = 0
    for _ in range(4_000):
        rules = RuleIndex(random_theory(rng, min_atoms=1, max_atoms=6).clauses)
        provable = rules.provable()
        for k in range(len(provable) + 1):
            for X in itertools.combinations(sorted(provable), k):
                assert rules.credit_closure(X) == provable, (rules.std_bodies, X)
                subsets += 1
    for clauses, play in family_cases():
        rules = RuleIndex(clauses)
        provable = rules.provable()
        assert set(play) <= provable
        pasts = [play[:k] for k in range(len(play) + 1)]
        pasts += [rng.sample(play, rng.randint(0, len(play))) for _ in range(20)]
        for X in pasts:
            assert rules.credit_closure(X) == provable, (play, X)
            subsets += 1
    assert subsets > 20_000


def test_an_event_of_the_credit_closure_never_moves_it():
    """The step behind the theorem, from any past, provable or not."""
    rng = random.Random(8)
    moved_outside = 0
    for _ in range(2_000):
        th = random_theory(rng, min_atoms=1, max_atoms=6)
        rules = RuleIndex(th.clauses)
        X = set(rng.sample(sorted(th.atoms), rng.randint(0, len(th.atoms))))
        closed = rules.credit_closure(X)
        for e in sorted(th.atoms - X):
            grown = rules.credit_closure(X | {e})
            if e in closed:
                assert grown == closed, (th, X, e)
            else:
                moved_outside += grown != closed | {e}
    assert moved_outside > 100


def random_plays(rng, rules, atoms):
    """A prudent play, the same play with one step repeated, and a shuffle."""
    prudent: list[str] = []
    while True:
        nxt = sorted(next_events_reference(rules, prudent))
        if not nxt or rng.random() < 0.1:
            break
        prudent.append(rng.choice(nxt))
    yield tuple(prudent)
    if prudent:
        repeated = prudent[:]
        repeated.insert(rng.randint(1, len(prudent)), rng.choice(prudent))
        yield tuple(repeated)
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    yield tuple(shuffled[: rng.randint(0, len(shuffled))])


def test_prudent_equals_the_closure_per_step_reference():
    rng = random.Random(11)
    counts = {True: 0, False: 0}
    for _ in range(3_000):
        th = random_theory(rng, min_atoms=1, max_atoms=6)
        spec = spec_of(th)
        rules = _rules(spec)
        if rng.random() < 0.5:
            rules.provable()
        for seq in random_plays(rng, rules, sorted(th.atoms)):
            want = prudent_reference(rules, seq)
            assert_prudent_play(spec, seq, want)
            counts[want] += 1
    for clauses, play in family_cases():
        spec = spec_of(HornTheory.of(clauses, play))
        rules = _rules(spec)
        for seq in (play, play[::-1], play + play[:1], play[1:]):
            assert_prudent_play(spec, seq, prudent_reference(rules, seq))
    assert min(counts.values()) > 2_000, counts


def short_sequences(atoms, longest=5):
    """Every duplicate-free sequence of at most *longest* of *atoms*, and
    each non-empty one again with its first atom repeated at the end."""
    for k in range(longest + 1):
        for seq in itertools.permutations(atoms, k):
            yield seq
            if seq:
                yield seq + seq[:1]


def test_prudent_and_is_proof_trace_equal_the_step_loops_they_replaced():
    """``is_prudent_play`` and ``is_proof_trace`` read the final ledger
    alone; both are held to the walks they replaced
    (``helpers.prudent_by_steps``, ``helpers.is_proof_trace_by_prudence``),
    and every duplicate-free sequence with an empty ledger is prudent."""
    counts = {"prudent": 0, "imprudent": 0, "trace": 0}

    def check(th, spec, seq):
        rules = _rules(th)
        want = prudent_by_steps(rules, seq)
        assert_prudent_play(spec, seq, want)
        trace = is_proof_trace(th, seq)
        assert trace == is_proof_trace_by_prudence(th, seq), (th, seq)
        if len(set(seq)) == len(seq) and not rules.unjustified(seq):
            assert want and trace, (th, seq)
        counts["prudent" if want else "imprudent"] += 1
        counts["trace"] += trace

    rng = random.Random(19)
    for _ in range(80):
        th = random_theory(rng, min_atoms=3, max_atoms=7)
        spec = spec_of(th)
        for seq in short_sequences(sorted(th.atoms)):
            check(th, spec, seq)
    assert min(counts.values()) > 1_500, counts
    for clauses, play in family_cases():
        th = HornTheory.of(clauses, play)
        spec = spec_of(th)
        half = len(play) // 2
        for seq in (play, play[::-1], play + play[:1], play[1:], play[:-1], play[half:]):
            check(th, spec, seq)


def test_next_events_equals_the_reference_along_mixed_questions():
    """One index answers a walk of questions: a prudent step (the delta), a
    step that is not prudent, the same set again, an equal copy, a plain
    set, a jump to another past, and ``provable()`` asked on the way."""
    rng = random.Random(12)
    asked = dict.fromkeys(("prudent", "not prudent", "same", "copy", "jump"), 0)
    for _ in range(1_500):
        th = random_theory(rng, min_atoms=1, max_atoms=6)
        atoms = sorted(th.atoms)
        rules = RuleIndex(th.clauses)
        done = frozenset()
        for _ in range(12):
            if rng.random() < 0.1:
                rules.provable()
            answer = rules.next_events(done)
            assert answer == next_events_reference(rules, done), (th, done)
            fresh = [a for a in atoms if a not in done]
            moves = ["same", "copy", "jump"]
            if answer:
                moves += ["prudent"] * 4
            if set(fresh) - answer:
                moves.append("not prudent")
            move = rng.choice(moves)
            asked[move] += 1
            if move == "prudent":
                done = done | {rng.choice(sorted(answer))}
            elif move == "not prudent":
                done = done | {rng.choice(sorted(set(fresh) - answer))}
            elif move == "copy":
                done = frozenset(list(done)) if rng.random() < 0.5 else set(done)
            elif move == "jump":
                done = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
    assert min(asked.values()) > 1_000, asked


def count_closures(monkeypatch):
    calls = []
    real = RuleIndex.credit_closure

    def counted(self, done):
        calls.append(frozenset(done))
        return real(self, done)

    monkeypatch.setattr(RuleIndex, "credit_closure", counted)
    return calls


def test_a_prudent_walk_costs_one_closure(monkeypatch):
    calls = count_closures(monkeypatch)
    spec = shy_dancers(6, [(1, 1), (1, 2), (2, 1), (2, 2), (5, 5)])
    strategies = [synthesize_strategy(spec, p) for p in sorted(spec.participants)]
    play, _ = simulate(spec, strategies, seed=3)
    assert len(play) > 20 and calls == [frozenset()]

    calls.clear()
    spec, x = circular_chain(300)
    assert is_prudent_play(spec, x)
    assert calls == []
    assert is_prudent_play(spec, x[:-1]) and _rules(spec).unjustified(x[:-1]) == {"x299"}
    assert calls == [frozenset()]

    calls.clear()
    spec, x = circular_chain(6)
    assert len(proof_traces(HornTheory.of(spec.clauses), 10)) == 10
    assert calls == [frozenset()]


def strategies_checked_per_step(spec, strategies, mismatches):
    """Wrap each strategy so that every answer is compared with a fresh
    index's ``next_events``; the play tuple is passed through unchanged."""

    def wrap(s):
        owned = spec.owned_by(s.participant)

        def choose(play):
            got = s.choose(play)
            want = next_events_reference(RuleIndex(spec.clauses), play) & owned
            if got != want:
                mismatches.append((play, s.participant, got, want))
            return got

        return Strategy(s.participant, choose)

    return [wrap(s) for s in strategies]


def dancer_and_random_specs():
    for n, circular in ((2, None), (3, [(1, 1)]), (4, [(1, 1), (1, 2), (2, 1), (2, 2)]),
                        (5, [(1, 1), (1, 2), (2, 1), (2, 2), (4, 4)]), (5, None)):
        yield shy_dancers(n, circular)
    rng = random.Random(20261020)
    for _ in range(400):
        spec = random_spec(rng, max_events=6)
        if set(spec.payoffs) == spec.participants:
            yield spec


def test_delta_next_events_equals_a_fresh_index_at_every_simulate_step():
    steps = 0
    for spec in dancer_and_random_specs():
        for seed in range(3):
            mismatches = []
            strategies = [synthesize_strategy(spec, p) for p in sorted(spec.participants)]
            play, _ = simulate(spec, strategies_checked_per_step(spec, strategies, mismatches), seed)
            assert mismatches == [], (spec, seed)
            steps += len(play)
    assert steps > 1_000


def rogue(spec, participant):
    """Offers every owned event not yet played, prudent or not."""
    owned = spec.owned_by(participant)
    return Strategy(participant, lambda play: owned.difference(play))


def fresh(spec, participant):
    owned = spec.owned_by(participant)
    return Strategy(
        participant, lambda play: next_events_reference(RuleIndex(spec.clauses), play) & owned
    )


def copying(strategy):
    """Hands the strategy an equal tuple that is never the one it was given."""
    return Strategy(strategy.participant, lambda play: strategy.choose(tuple(list(play))))


def test_simulate_takes_the_full_path_for_rogue_offers_and_copied_plays():
    rng = random.Random(21)
    rogue_steps = 0
    for spec in dancer_and_random_specs():
        parts = sorted(spec.participants)
        bad = rng.choice(parts)
        for seed in range(2):
            synth = {p: synthesize_strategy(spec, p) for p in parts}
            mixed = [rogue(spec, p) if p == bad else synth[p] for p in parts]
            reference = [rogue(spec, p) if p == bad else fresh(spec, p) for p in parts]
            play, result = simulate(spec, mixed, seed)
            assert (play, result) == simulate(spec, reference, seed), (spec, seed)
            rules = RuleIndex(spec.clauses)
            rogue_steps += not prudent_reference(rules, play)

            copies = [copying(synthesize_strategy(spec, p)) for p in parts]
            fresh_all = [fresh(spec, p) for p in parts]
            assert simulate(spec, copies, seed) == simulate(spec, fresh_all, seed), (spec, seed)
    assert rogue_steps > 100


def test_a_strategy_still_validates_every_play_it_has_not_seen():
    spec = shy_dancers(3)
    strategies = [synthesize_strategy(spec, p) for p in sorted(spec.participants)]
    play, _ = simulate(spec, strategies, seed=0)
    rules = RuleIndex(spec.clauses)
    for k in range(len(play)):
        for past in (play[:k], play[1 : k + 1], play[k::-1]):
            for s in strategies:
                want = next_events_reference(rules, past) & spec.owned_by(s.participant)
                assert s.choose(past) == want, (past, s.participant)
    first = strategies[0]
    assert first.choose(play) == first.choose(list(play)) == frozenset()
    assert first.choose(play[:-1]) == {play[-1]} & spec.owned_by(first.participant)
    with pytest.raises(InvalidPlayError):
        first.choose(play[:-2] + ("zz",))
    for bad in (play + play[:1], play[:2] + ("zz",), ("zz",)):
        with pytest.raises(InvalidPlayError):
            first.choose(bad)
    with pytest.raises(InvalidPlayError):
        first.choose(list(play[:1]) * 2)


def test_queries_leave_no_per_play_state_on_the_spec():
    spec = shy_dancers(3)
    strategies = [synthesize_strategy(spec, p) for p in sorted(spec.participants)]
    play, _ = simulate(spec, strategies, seed=0)
    assert strategies[0].offers(play[:2]) == strategies[0].offers(list(play[:2]))
    assert prudent_events(spec, play[:3])
    assert credits(spec, play).final == frozenset()
    assert verdict(spec, play).play == play
    fields = {f.name for f in dataclasses.fields(spec)}
    assert "_rule_index" in vars(spec)
    assert set(vars(spec)) <= fields | {"_rule_index", "_owned_index", "_partners"}


def test_a_strategy_for_another_spec_value_checks_the_simulated_play():
    spec = shy_dancers(3)
    parts = sorted(spec.participants)
    twin = dataclasses.replace(spec)  # equal, but another value with its own index
    for seed in range(3):
        own = [synthesize_strategy(spec, p) for p in parts]
        twins = [synthesize_strategy(twin, p) for p in parts]
        assert simulate(spec, twins, seed) == simulate(spec, own, seed), seed

    # A strategy that trusted the step's play would never see that its spec
    # lacks an event the others play.
    gone = max(spec.events - spec.owned_by(parts[0]))
    fewer = dataclasses.replace(spec, events=spec.events - {gone})
    strategies = [synthesize_strategy(fewer, parts[0])]
    strategies += [synthesize_strategy(spec, p) for p in parts[1:]]
    with pytest.raises(InvalidPlayError, match=f"{gone!r} is not an event"):
        simulate(spec, strategies, seed=0)


def test_check_trace_on_a_long_circular_chain_is_about_linear(tmp_path, capsys):
    spec, x = circular_chain(20_000)
    path = tmp_path / "chain.ces"
    path.write_text(print_spec(spec), encoding="utf-8")
    with budget(6):
        assert main(["check-trace", str(path), "--trace", ",".join(x)]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_is_prudent_play_on_a_long_circular_chain_is_about_linear():
    spec, x = circular_chain(2_000)
    with budget(0.5):
        assert is_prudent_play(spec, x)


def test_simulating_fourteen_by_fourteen_dancers_is_about_quadratic():
    spec = shy_dancers(14)
    with budget(1):
        strategies = [synthesize_strategy(spec, p) for p in sorted(spec.participants)]
        play, result = simulate(spec, strategies, seed=0)
    assert frozenset(play) == spec.events
    assert all(row.wins for row in result.participants.values())

