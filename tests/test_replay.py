"""Replaying plays in linear passes.

``credits`` builds its ledger in one sweep over per-step credit intervals,
every query on one spec or theory value shares that value's ``RuleIndex``,
and ``RuleIndex.next_events`` remembers its last answer, so the strategies
``simulate`` asks at one step share one computation.  Verdict rows map the
culprits and debtors to their owners once instead of scanning every event and
participant per participant.  Each rewrite is checked here against the code
it replaced and against the oracles, and cost guards pin the linear
behaviour.
"""

import dataclasses
import random
from itertools import combinations, islice

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    Strategy,
    credits,
    is_proof_trace,
    iter_proof_traces,
    proof_traces,
    provable_atoms,
    prudent_events,
    shy_dancers,
    simulate,
    std,
    synthesize_strategy,
    traces_bruteforce,
    urgent_atoms,
    verdict,
    wins,
)
from pacta.game import ParticipantVerdict, RuleIndex, _rules
from pacta.oracle import _final_credits

from helpers import (
    budget,
    c3,
    circular_chain,
    delta3,
    prudent_by_steps,
    random_spec,
    random_theory,
    star_spec,
    star_theory,
)


def random_contract(rng, min_events=1, max_events=6):
    """A random spec, conflicted about half of the time (bodies may still
    hold both sides of a conflict: the ledger does not care)."""
    events = [f"e{i}" for i in range(rng.randint(min_events, max_events))]
    clauses = {
        Clause(
            rng.choice(events),
            frozenset(rng.sample(events, rng.randint(0, min(3, len(events))))),
            rng.choice((STANDARD, CIRCULAR)),
        )
        for _ in range(rng.randint(0, 2 * len(events)))
    }
    conflicts = []
    if len(events) >= 2 and rng.random() < 0.5:
        conflicts = [tuple(rng.sample(events, 2)) for _ in range(rng.randint(1, 2))]
    return ContractSpec.of(
        owner={e: rng.choice("AB") for e in events},
        clauses=clauses,
        conflicts=conflicts,
    )


def plays_of(spec, rng):
    """A forward, a reversed and a shuffled play, each dropping the events
    that conflict with an earlier one."""
    forward = sorted(spec.events)
    shuffled = forward[:]
    rng.shuffle(shuffled)
    for order in (forward, forward[::-1], shuffled):
        play = []
        for e in order:
            if spec.compatible(play + [e]):
                play.append(e)
        yield tuple(play)


def test_credit_sweep_equals_the_prefix_ledgers_and_the_oracle():
    rng = random.Random(20261018)
    conflicted = 0
    for _ in range(3_000):
        spec = random_contract(rng)
        conflicted += bool(spec.conflicts)
        rules = RuleIndex(spec.clauses)
        for play in plays_of(spec, rng):
            ledger = credits(spec, play).per_prefix
            assert len(ledger) == len(play) + 1
            for i, entry in enumerate(ledger):
                prefix = play[:i]
                assert entry == rules.unjustified(prefix), (spec, play, i)
                assert entry == _final_credits(spec, prefix), (spec, play, i)
    assert conflicted > 1_000


def test_credit_sweep_on_larger_random_specs():
    rng = random.Random(7)
    for _ in range(150):
        spec = random_contract(rng, min_events=10, max_events=40)
        for play in plays_of(spec, rng):
            ledger = credits(spec, play).per_prefix
            assert ledger == tuple(
                _final_credits(spec, play[:i]) for i in range(len(play) + 1)
            ), spec


def fresh_strategies(spec):
    """Prudent strategies that build a new index on every offer."""

    def strategy(p):
        owned = spec.owned_by(p)
        return Strategy(
            p,
            lambda play: RuleIndex(spec.clauses).next_events(frozenset(play))
            & owned,
        )

    return [strategy(p) for p in sorted(spec.participants)]


def synthesized(spec):
    return [synthesize_strategy(spec, p) for p in sorted(spec.participants)]


def test_shared_next_events_leave_simulations_unchanged():
    for n in range(2, 7):
        spec = shy_dancers(n)
        for seed in range(5):
            assert simulate(spec, synthesized(spec), seed) == simulate(
                spec, fresh_strategies(spec), seed
            ), (n, seed)

    rng = random.Random(20261018)
    simulated = 0
    for _ in range(500):
        spec = random_spec(rng, max_events=5)
        if set(spec.payoffs) != spec.participants:
            continue
        simulated += 1
        for seed in range(3):
            assert simulate(spec, synthesized(spec), seed) == simulate(
                spec, fresh_strategies(spec), seed
            ), (spec, seed)
    assert simulated > 200


def test_next_events_memo_answers_alternating_pasts():
    spec = star_spec()
    rules = RuleIndex(spec.clauses)
    pasts = [
        frozenset(),
        frozenset({"e6"}),
        frozenset(),
        frozenset({"e6", "e7"}),
        frozenset({"e6"}),
        frozenset({"e6", "e7", "e1"}),
        frozenset({"e6", "e7"}),
    ]
    for past in pasts + pasts[::-1]:
        want = RuleIndex(spec.clauses).next_events(past)
        assert rules.next_events(past) == want, past
        assert rules.next_events(set(past)) == want, past
    assert rules.next_events(frozenset()) == {"e6", "e7"}
    assert rules.next_events(frozenset({"e6"})) == {"e3", "e4", "e7"}


def test_one_index_per_value_and_never_for_a_replaced_one():
    spec = c3()
    assert _rules(spec) is _rules(spec)
    assert prudent_events(spec, ()) == {"a"}
    plain = dataclasses.replace(spec, clauses=frozenset({std("a", "b"), std("b", "a")}))
    assert _rules(plain) is not _rules(spec)
    assert prudent_events(plain, ()) == frozenset()
    assert prudent_events(spec, ()) == {"a"}
    same = dataclasses.replace(spec)
    assert same == spec and hash(same.clauses) == hash(spec.clauses)
    assert _rules(same) is not _rules(spec)
    assert "_rule_index" not in repr(spec)

    theory = delta3()
    assert _rules(theory) is _rules(theory)
    assert provable_atoms(theory) == {"a", "b"}
    twin = dataclasses.replace(theory)
    assert twin == theory and hash(twin) == hash(theory)
    assert _rules(twin) is not _rules(theory)
    assert "_rule_index" not in repr(theory)


def count_builds(monkeypatch):
    built = []
    real = RuleIndex.__init__

    def counted(self, clauses):
        built.append(self)
        real(self, clauses)

    monkeypatch.setattr(RuleIndex, "__init__", counted)
    return built


def test_the_logic_queries_on_one_theory_build_one_index(monkeypatch):
    built = count_builds(monkeypatch)
    theory = star_theory()
    provable = provable_atoms(theory)
    atoms = sorted(theory.atoms)
    for k in range(len(atoms) + 1):
        for past in combinations(atoms, k):
            assert urgent_atoms(theory, past) <= provable - set(past)
    traces = proof_traces(theory, 50)
    assert len(traces) == 50
    assert all(is_proof_trace(theory, trace) for trace in traces)
    assert built == [_rules(theory)]
    provable_atoms(star_theory())
    assert len(built) == 2


def test_queries_during_a_suspended_trace_walk_share_its_index():
    """Between two traces of a walk, the other logic queries on the same
    theory move the index's ``next_events`` memo; the walk, resumed, still
    yields the oracle's traces, and every answer equals a fresh index's."""
    rng = random.Random(20261019)
    suspended = 0
    for _ in range(300):
        theory = random_theory(rng, min_atoms=1, max_atoms=5)
        fresh = RuleIndex(theory.clauses)
        traces = traces_bruteforce(theory)
        prefixes = {t[:i] for t in traces for i in range(len(t) + 1)}
        walk = iter_proof_traces(theory)
        walked = list(islice(walk, rng.randint(1, len(traces))))
        suspended += len(walked) < len(traces)
        for past in rng.sample(sorted(prefixes), min(4, len(prefixes))):
            # Every prudent play extends to a trace, so the urgent atoms
            # after a trace prefix are the atoms that extend it to another.
            want = {a for a in theory.atoms if past + (a,) in prefixes}
            assert urgent_atoms(theory, past) == fresh.next_events(frozenset(past)) == want
        atoms = sorted(theory.atoms)
        for _ in range(4):
            if rng.random() < 0.5:
                seq = rng.choice(sorted(traces))
            else:
                seq = tuple(rng.sample(atoms, rng.randint(0, len(atoms))))
            want = prudent_by_steps(fresh, seq) and not fresh.unjustified(seq)
            assert is_proof_trace(theory, seq) == want == (seq in traces), (theory, seq)
        assert provable_atoms(theory) == fresh.provable() == frozenset().union(*traces)
        walked += walk
        assert walked == sorted(traces, key=lambda t: (len(t), t)), theory
    assert suspended > 100


def test_credits_on_a_long_circular_chain_is_about_linear():
    spec, x = circular_chain(4_000)
    with budget(0.3):
        ledger = credits(spec, x).per_prefix
    assert ledger == (frozenset(),) + tuple(frozenset({e}) for e in x[:-1]) + (
        frozenset(),
    )


def test_simulating_ten_by_ten_dancers_stays_cheap():
    spec = shy_dancers(10)
    with budget(2):
        play, result = simulate(spec, synthesized(spec), seed=0)
    assert frozenset(play) == spec.events
    assert all(row.wins for row in result.participants.values())


def verdict_rows_reference(spec, seq):
    """The verdict rows as first written: per participant, a scan of every
    owned event and of every other participant."""
    rules = RuleIndex(spec.clauses)
    done = frozenset(seq)
    culprits = {spec.owner.get(e) for e in rules.next_events(done)}
    final = rules.unjustified(seq)
    rows = {}
    for p in spec.participants:
        inn = p not in culprits
        cf = not (final & spec.owned_by(p))
        others_culpable = any(q in culprits for q in spec.participants if q != p)
        won = inn and (others_culpable or (cf and spec.payoffs[p].holds(done)))
        rows[p] = ParticipantVerdict(innocent=inn, credit_free=cf, wins=won)
    return rows


def test_verdict_rows_equal_the_per_participant_scan():
    """Random conflict-free specs with a third party owning nothing, one event
    in three left without an owner (so unowned heads turn up among the
    prudent and the credited events), at every prefix of three plays."""
    rng = random.Random(13)
    checked = culpable_unowned = 0
    for _ in range(400):
        spec = random_contract(rng, max_events=7)
        owner = {e: p for e, p in spec.owner.items() if rng.random() > 1 / 3}
        participants = spec.participants | {"C"}
        events = sorted(spec.events)
        payoffs = {
            p: GoalPayoff(frozenset(rng.sample(events, rng.randint(0, min(2, len(events))))))
            for p in participants
        }
        spec = dataclasses.replace(
            spec, owner=owner, participants=participants, conflicts=frozenset(), payoffs=payoffs
        )
        for play in plays_of(spec, rng):
            for i in range(len(play) + 1):
                seq = play[:i]
                expected = verdict_rows_reference(spec, seq)
                assert dict(verdict(spec, seq).participants) == expected
                p = rng.choice(sorted(participants))
                assert wins(spec, p, seq) == expected[p].wins
                prudent = RuleIndex(spec.clauses).next_events(frozenset(seq))
                culpable_unowned += not prudent <= owner.keys()
                checked += 1
    assert checked > 4_000 and culpable_unowned > 500


def test_verdict_on_fifty_by_fifty_dancers_is_about_linear():
    spec = shy_dancers(50)
    play = tuple(sorted(spec.events))
    _rules(spec).provable()
    with budget(0.4):
        result = verdict(spec, play)
    assert len(result.participants) == 2_500
    assert all(row.wins for row in result.participants.values())
