"""End-to-end acceptance checks.

Each test pins one headline behaviour of the package: the worked fixture
values, the exhaustive small-instance cross-validation between the fast
fixpoint algorithms and the independent oracles, and the runtime budgets
the implementation is expected to meet.  Sampling strides and size caps
for the exponential oracles are calibrated so the whole file stays within
a few minutes; the polynomial sides always run in full.
"""

import itertools
import random
from functools import lru_cache

import pytest

from pacta import (
    CIRCULAR,
    HornTheory,
    PreconditionError,
    agreement,
    credit_free,
    credits,
    encode_urgency,
    innocent,
    is_proof_trace,
    is_prudent_play,
    iter_proof_traces,
    nd_provable,
    print_spec,
    proof_traces,
    provable_atoms,
    provable_events,
    prudence_table,
    prudent_events,
    shy_dancers,
    simulate,
    spec_of,
    std,
    synthesize_strategy,
    traces_bruteforce,
    urgent_atoms,
    verdict,
    wins,
)
from pacta.cli import main
from pacta.game import _rules
from pacta.gen import _neighbours
from pacta.logic import interleave, mark_done, mark_reachable, mark_urgent
from pacta.oracle import _bodies_by_head, _final_credits

from helpers import (
    STAR_CLAUSES,
    all_plays,
    budget,
    c1,
    c2,
    c3,
    c4,
    delta1,
    delta2,
    delta2_contract,
    delta3,
    delta4,
    e5,
    or_payoffs_spec,
    random_spec,
    random_theory,
    single_slot_family,
    sparse_family,
    standard_chain,
    star_spec,
    star_theory,
)


@lru_cache(maxsize=None)
def exhaustive_families():
    """Every one-body-per-slot theory and every sparse theory over 3 atoms."""
    return tuple(single_slot_family()), tuple(sparse_family())


@lru_cache(maxsize=None)
def random_theories():
    rng = random.Random(20260817)
    return tuple(random_theory(rng, min_atoms=1, max_atoms=6) for _ in range(10_000))


@pytest.fixture(scope="module", autouse=True)
def drop_the_families_after_this_module():
    """The families, and the index each theory gets, live for this module
    only: kept for the session, their million tracked objects made every
    later full garbage collection take about 0.4 s, inside the time budgets
    of the other modules' tests too."""
    yield
    exhaustive_families.cache_clear()
    random_theories.cache_clear()


def all_pasts(atoms):
    atoms = sorted(atoms)
    for k in range(len(atoms) + 1):
        yield from map(frozenset, itertools.combinations(atoms, k))


def trace_next(theory, done):
    """Atoms that can occur right after *done* in some proof trace.

    Independent of the tag encoding: the done atoms become plain facts and
    the full trace set of the extended theory is enumerated.
    """
    ext = HornTheory(
        theory.atoms, frozenset(theory.clauses) | {std(a) for a in done}
    )
    out = set()
    for tr in proof_traces(ext):
        for i, atom in enumerate(tr):
            if atom not in done and set(tr[:i]) <= done:
                out.add(atom)
    return frozenset(out)


def tagged_urgent(enc, atoms, past):
    """Atoms outside *past* whose ``U$`` tag the encoding *enc* proves once
    every atom of *past* is marked done: the done marks' credit closure
    under the one rule index of *enc*, shared by every past."""
    proved = _rules(enc).credit_closure({mark_done(a) for a in past})
    return frozenset(a for a in atoms - past if mark_urgent(a) in proved)


def test_tagged_urgent_is_provability_with_the_done_marks_as_facts():
    # The encoding's theorem speaks of the theory with the marks added as
    # facts; tagged_urgent reads the encoding's own index instead.
    rng = random.Random(1729)
    for _ in range(3_000):
        th = random_theory(rng, 3, 6)
        enc = encode_urgency(th)
        atoms = sorted(th.atoms)
        for _ in range(6):
            past = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
            ext = HornTheory(enc.atoms, enc.clauses | {std(mark_done(a)) for a in past})
            proved = provable_atoms(ext)
            expected = frozenset(a for a in th.atoms - past if mark_urgent(a) in proved)
            assert tagged_urgent(enc, th.atoms, past) == expected, (th, past)


def ledger(spec, play):
    return tuple(credits(spec, play).per_prefix)


f = frozenset


def test_c01_proof_trace_fixtures_are_exact():
    with budget(1):
        assert proof_traces(delta1()) == {(), ("a",), ("a", "b")}
        assert proof_traces(delta2()) == {()}
        assert proof_traces(delta3()) == {(), ("a", "b")}
        assert ("b", "a") not in proof_traces(delta3())
        assert proof_traces(delta4()) == {(), ("a", "b"), ("b", "a")}


def test_c02_double_diamond_provability_and_prudent_language():
    with budget(5):
        theory = star_theory()
        spec = star_spec()
        everything = f(f"e{i}" for i in range(8))
        assert provable_atoms(theory) == everything
        assert provable_events(spec) == everything

        # Weakening either promise to a plain dependency deadlocks the lot.
        swapped = 0
        for i, c in enumerate(STAR_CLAUSES):
            if c.kind != CIRCULAR:
                continue
            weakened = [
                std(x.head, *sorted(x.body)) if j == i else x
                for j, x in enumerate(STAR_CLAUSES)
            ]
            assert provable_atoms(HornTheory.of(weakened)) == f()
            swapped += 1
        assert swapped == 2

        # The prudent plays are exactly the prefixes of the two diamond
        # groups run in any interleaved order.
        g1 = {("e6",) + m for m in interleave(("e4",), ("e3", "e0"))}
        g2 = {("e7",) + m for m in interleave(("e1",), ("e2", "e5"))}
        full = set()
        for w1 in g1:
            for w2 in g2:
                full |= interleave(w1, w2)
        language = {w[:i] for w in full for i in range(7)}

        candidates = (
            seq
            for k in range(7)
            for seq in itertools.permutations(sorted(spec.events), k)
        )
        prudent = {seq for seq in candidates if is_prudent_play(spec, seq)}
        assert prudent == language
        assert len(prudent) == 591


def test_c03_offer_request_contract_agrees():
    with budget(1):
        spec = or_payoffs_spec()
        assert provable_events(spec) == f({"a0", "a2", "b0", "b2"})
        assert agreement(spec)


def test_c04_dancer_agreement_matches_the_neighbourhood_rule():
    rng = random.Random(11)
    for n in (3, 4):
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for _ in range(220):
            chosen = set(rng.sample(cells, rng.randint(0, len(cells))))
            spec = shy_dancers(n, circular=sorted(chosen))
            starts = any(
                sum(1 for d in _neighbours(c, n) if d in chosen) >= 2
                for c in cells
            )
            assert agreement(spec) is starts

    with budget(10):
        assert agreement(shy_dancers(10))


def test_c05_credit_ledgers_are_exact():
    assert ledger(c1(), ("a", "b")) == (f(), f(), f())
    assert ledger(c1(), ("b", "a")) == (f(), f("b"), f("b"))
    assert ledger(c2(), ("a", "b")) == (f(), f("a"), f("a"))
    assert ledger(c2(), ("b", "a")) == (f(), f("b"), f("b"))
    assert ledger(c3(), ("a", "b")) == (f(), f("a"), f())
    assert ledger(c3(), ("b", "a")) == (f(), f("b"), f("b"))
    assert ledger(c4(), ("a", "b")) == (f(), f("a"), f())
    assert ledger(c4(), ("b", "a")) == (f(), f("b"), f())
    assert ledger(e5(), ("a", "b")) == (f(), f("a"), f())
    assert ledger(e5(), ("b", "a")) == (f(), f("b"), f("b"))
    assert ledger(e5(), ("a", "c")) == (f(), f("a"), f("a"))
    assert ledger(e5(), ("c", "a")) == (f(), f("c"), f("c"))


def test_c06_forward_chaining_matches_natural_deduction():
    with budget(120):
        slot, sparse = exhaustive_families()
        for th in itertools.chain(slot, sparse, random_theories()):
            fast = provable_atoms(th)
            assert fast == {a for a in th.atoms if nd_provable(th, a)}, th


def test_c07_prudence_urgency_and_bruteforce_coincide():
    slot, sparse = exhaustive_families()

    # All three answers at every past, on every theory: the game fixpoint,
    # the tag encoding, and the full game-tree table, whose states (event
    # set, final ledger) stand for every play that reaches them.
    for th in itertools.chain(slot, sparse, random_theories()):
        spec = spec_of(th)
        enc = encode_urgency(th)
        by_set = {}
        for (past, ledger), brute in prudence_table(spec).items():
            pe = by_set.get(past)
            if pe is None:
                pe = prudent_events(spec, past)
                assert pe == tagged_urgent(enc, th.atoms, past), (th, past)
                by_set[past] = pe
            assert brute == pe, (th, past, ledger)

    # Fourth opinion from trace enumeration, on strided slices (the trace
    # sets of fact-extended theories grow exponentially with atom count).
    for th in itertools.chain(slot[::10], sparse[::8]):
        for past in all_pasts(th.atoms):
            assert trace_next(th, past) == urgent_atoms(th, past), (th, past)
    for th in random_theories()[::25]:
        if len(th.atoms) > 4:
            continue
        for past in all_pasts(th.atoms):
            assert trace_next(th, past) == urgent_atoms(th, past), (th, past)


def test_c08_urgency_encoding_theorem_holds():
    slot, sparse = exhaustive_families()

    # An atom is urgent exactly when its U$ tag becomes provable after
    # marking the past done — checked against the game-side fixpoint on
    # every theory, and against urgent_atoms itself on a stride.
    for idx, th in enumerate(itertools.chain(slot, sparse[::4])):
        enc = encode_urgency(th)
        spec = spec_of(th)
        for past in all_pasts(th.atoms):
            tags = tagged_urgent(enc, th.atoms, past)
            assert tags == prudent_events(spec, past), (th, past)
            if idx % 10 == 0:
                assert tags == urgent_atoms(th, past), (th, past)
            if idx % 20 == 0:
                ext = HornTheory(
                    enc.atoms, frozenset(enc.clauses) | {std("!" + a) for a in past}
                )
                assert provable_atoms(ext) == {
                    t for t in ext.atoms if nd_provable(ext, t)
                }, (th, past)

    # The R$ tags answer reachability: exactly the atoms occurring in at
    # least one proof trace.
    for th in itertools.chain(slot, sparse):
        traced = f(a for tr in proof_traces(th) for a in tr)
        assert provable_atoms(th) == traced, th
        tags = provable_atoms(encode_urgency(th))
        assert f(a for a in th.atoms if mark_reachable(a) in tags) == traced, th


def test_c09_synthesized_strategies_win_everywhere_iff_agreement():
    rng = random.Random(4)
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    sampled = []
    while len(sampled) < 3:
        chosen = sorted(rng.sample(cells, rng.randint(0, len(cells))))
        spec = shy_dancers(3, circular=chosen)
        if agreement(spec):
            sampled.append(spec)

    for spec in (c1(), c3(), c4(), star_spec(), or_payoffs_spec(), *sampled):
        assert agreement(spec)
        strategies = [synthesize_strategy(spec, p) for p in sorted(spec.participants)]
        for seed in (0, 1, 7):
            _, verdict = simulate(spec, strategies, seed=seed)
            assert all(row.wins for row in verdict.participants.values()), (
                spec,
                seed,
                verdict,
            )

    assert not agreement(c2())
    assert not agreement(delta2_contract())


def test_c10_interleaving_squeezes_shared_atoms():
    assert interleave("aba", "ca") == {
        ("a", "b", "c"),
        ("a", "c", "b"),
        ("c", "a", "b"),
    }


def shortlex(trace):
    return (len(trace), trace)


def test_c11_proof_traces_are_the_prudent_plays_with_empty_ledgers():
    slot, sparse = exhaustive_families()
    for th in itertools.chain(slot, sparse):
        brute = traces_bruteforce(th)
        assert proof_traces(th) == brute, th
        assert list(iter_proof_traces(th)) == sorted(brute, key=shortlex), th
        for k in range(len(th.atoms) + 1):
            for seq in itertools.permutations(sorted(th.atoms), k):
                assert is_proof_trace(th, seq) == (seq in brute), (th, seq)

    # A repeated atom is a plain "no", even right after a genuine trace.
    assert not is_proof_trace(delta1(), ("a", "a"))
    assert not is_proof_trace(delta4(), ("a", "b", "a"))


def test_c12_trace_queries_on_long_chains_cost_about_their_answer(tmp_path, capsys):
    chain = standard_chain(1_100)
    path = tmp_path / "chain.ces"
    path.write_text(print_spec(spec_of(chain)), encoding="utf-8")
    whole = ",".join(f"s{k}" for k in range(1_100))
    with budget(20):
        assert main(["check-trace", str(path), "--trace", whole]) == 0
    assert capsys.readouterr().out == "yes\n"

    with budget(1):
        first = list(itertools.islice(iter_proof_traces(standard_chain(1_000)), 10))
    assert first == [tuple(f"s{k}" for k in range(i)) for i in range(10)]


def oracle_rows(spec, play, pending, final):
    """``(innocent, credit_free, wins)`` of every participant, from the
    definition; ``wins`` is None for a participant without a payoff.

    *pending* is the game-tree prudence table's entry for *play*'s state
    and *final* the oracle's credit ledger of it.
    """
    done = frozenset(play)
    culpable = {q for q in spec.participants if pending & spec.owned_by(q)}
    rows = {}
    for p in spec.participants:
        inn = p not in culpable
        cf = not (final & spec.owned_by(p))
        payoff = spec.payoffs.get(p)
        won = None
        if payoff is not None:
            won = inn and (bool(culpable - {p}) or (cf and payoff.holds(done)))
        rows[p] = (inn, cf, won)
    return rows


def test_c13_verdicts_match_the_oracles_on_multi_party_specs():
    rng = random.Random(20261018)
    partial = parties = 0
    for _ in range(500):
        spec = random_spec(rng, max_events=5)
        total = set(spec.payoffs) == spec.participants
        partial += not total
        parties = max(parties, len(spec.participants))
        table = prudence_table(spec)
        rows_at = {}
        bodies = _bodies_by_head(spec)
        state = {}
        for play in all_plays(spec):  # shortest first, so its prefixes come first
            here = state[play] = frozenset(play), _final_credits(spec, play, bodies)
            rows = rows_at.get(here)
            if rows is None:
                rows = rows_at[here] = oracle_rows(spec, play, table[here], here[1])
            for p, (inn, cf, won) in rows.items():
                assert innocent(spec, p, play) == inn, (spec, play, p)
                assert credit_free(spec, p, play) == cf, (spec, play, p)
                if won is None:
                    with pytest.raises(PreconditionError, match="no payoff"):
                        wins(spec, p, play)
                else:
                    assert wins(spec, p, play) == won, (spec, play, p)
            if total:
                got = verdict(spec, play).participants
                assert {
                    p: (r.innocent, r.credit_free, r.wins) for p, r in got.items()
                } == rows, (spec, play)
            else:
                with pytest.raises(PreconditionError, match="payoff"):
                    verdict(spec, play)
            prudent = all(play[i] in table[state[play[:i]]] for i in range(len(play)))
            assert is_prudent_play(spec, play) == prudent, (spec, play)
        assert set(rows_at) == set(table), spec
    assert partial and parties == 3
