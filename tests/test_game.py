import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    InvalidPlayError,
    InvalidSpecError,
    PreconditionError,
    Strategy,
    agreement,
    credit_free,
    credits,
    innocent,
    is_prudent_play,
    provable_events,
    prudent_events,
    reachable,
    simulate,
    std,
    synthesize_strategy,
    verdict,
    wins,
)

from helpers import (
    c1,
    c2,
    c3,
    c4,
    delta2_contract,
    e5,
    or_payoffs_spec,
    star_spec,
    two_party,
)


class TestReachable:
    def test_credit_reachability(self):
        assert reachable(c1(), ()) == frozenset({"a", "b"})
        assert reachable(c2(), ()) == frozenset()
        assert reachable(c3(), ()) == frozenset({"a", "b"})
        assert reachable(c3(), ("a",)) == frozenset({"b"})
        assert reachable(c3(), ("a", "b")) == frozenset()

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="conflict-free"):
            reachable(e5(), ())
        with pytest.raises(PreconditionError, match="unknown"):
            reachable(c1(), ("zz",))


class TestPrudentEvents:
    def test_two_event_tables(self):
        assert prudent_events(c1(), ()) == frozenset({"a"})
        assert prudent_events(c1(), ("a",)) == frozenset({"b"})
        assert prudent_events(c1(), ("a", "b")) == frozenset()
        assert prudent_events(c2(), ()) == frozenset()
        assert prudent_events(c2(), ("a",)) == frozenset({"b"})
        assert prudent_events(c2(), ("b",)) == frozenset({"a"})
        assert prudent_events(c3(), ()) == frozenset({"a"})
        assert prudent_events(c3(), ("a",)) == frozenset({"b"})
        assert prudent_events(c3(), ("b",)) == frozenset({"a"})
        assert prudent_events(c4(), ()) == frozenset({"a", "b"})

    def test_star_walk(self):
        spec = star_spec()
        assert prudent_events(spec, ()) == frozenset({"e6", "e7"})
        assert prudent_events(spec, ("e6",)) == frozenset({"e3", "e4", "e7"})

    def test_conflicted_specs_are_rejected(self):
        with pytest.raises(PreconditionError, match="conflict-free"):
            prudent_events(e5(), ())


class TestIsPrudentPlay:
    def test_two_event_plays(self):
        assert is_prudent_play(c3(), ())
        assert is_prudent_play(c3(), ("a",))
        assert is_prudent_play(c3(), ("a", "b"))
        assert not is_prudent_play(c3(), ("b",))
        assert not is_prudent_play(c3(), ("b", "a"))

    def test_star_plays(self):
        spec = star_spec()
        assert is_prudent_play(
            spec, ("e6", "e3", "e0", "e4", "e7", "e2", "e5", "e1")
        )
        assert not is_prudent_play(spec, ("e3",))
        assert not is_prudent_play(spec, ("e6", "e0"))

    def test_invalid_play_is_an_error_not_a_no(self):
        with pytest.raises(InvalidPlayError):
            is_prudent_play(c3(), ("a", "a"))


class TestProvableEvents:
    def test_fixtures(self):
        assert provable_events(c1()) == frozenset({"a", "b"})
        assert provable_events(c2()) == frozenset()
        assert provable_events(c3()) == frozenset({"a", "b"})
        assert provable_events(c4()) == frozenset({"a", "b"})
        assert provable_events(or_payoffs_spec()) == frozenset(
            {"a0", "a2", "b0", "b2"}
        )
        assert provable_events(star_spec()) == star_spec().events


class TestCredits:
    def test_ledger_shape(self):
        ledger = credits(c3(), ("b", "a"))
        assert ledger.per_prefix == (
            frozenset(),
            frozenset({"b"}),
            frozenset({"b"}),
        )
        assert ledger.final == frozenset({"b"})

    def test_circular_justification_clears_at_the_end(self):
        assert credits(c3(), ("a", "b")).per_prefix == (
            frozenset(),
            frozenset({"a"}),
            frozenset(),
        )

    def test_conflicted_specs_are_supported(self):
        assert credits(e5(), ("a", "c")).per_prefix == (
            frozenset(),
            frozenset({"a"}),
            frozenset({"a"}),
        )

    def test_invalid_plays_are_rejected(self):
        with pytest.raises(InvalidPlayError):
            credits(e5(), ("b", "c"))


class TestInnocenceAndCredit:
    def test_innocence_and_credit_freeness_are_distinct(self):
        spec = c3()
        # at the start: A owes a prudent move but has taken no credit
        assert not innocent(spec, "A", ())
        assert credit_free(spec, "A", ())
        # after a on credit: A owes nothing more but the credit is open
        assert innocent(spec, "A", ("a",))
        assert not credit_free(spec, "A", ("a",))
        assert not innocent(spec, "B", ("a",))
        # after the reply both properties hold
        assert innocent(spec, "A", ("a", "b"))
        assert credit_free(spec, "A", ("a", "b"))
        assert innocent(spec, "B", ("a", "b"))
        assert credit_free(spec, "B", ("a", "b"))

    def test_unknown_participant(self):
        with pytest.raises(PreconditionError, match="participant"):
            innocent(c3(), "Z", ())
        with pytest.raises(PreconditionError, match="participant"):
            credit_free(c3(), "Z", ())


class TestWinsAndVerdict:
    def test_positive_win_despite_partner_on_credit(self):
        # b was fired before its enabling: B stays on credit and loses,
        # while A's circular promise is honoured by the whole play
        assert wins(c3(), "A", ("b", "a"))
        assert not wins(c3(), "B", ("b", "a"))

    def test_default_win_when_other_side_is_culpable(self):
        assert wins(c1(), "A", ("a",))
        assert not wins(c1(), "B", ("a",))

    def test_stalemate_loses_for_everyone(self):
        assert not wins(c2(), "A", ())
        assert not wins(c2(), "B", ())

    def test_everyone_wins_the_cooperative_play(self):
        for spec in (c1(), c3(), c4()):
            assert wins(spec, "A", ("a", "b"))
            assert wins(spec, "B", ("a", "b"))

    def test_missing_payoff_is_an_error(self):
        bare = two_party(std("a"), std("b", "a"), payoffs=False)
        with pytest.raises(PreconditionError, match="payoff"):
            wins(bare, "A", ("a", "b"))

    def test_verdict_rows(self):
        result = verdict(c3(), ("b", "a"))
        assert result.play == ("b", "a")
        a_row = result.participants["A"]
        b_row = result.participants["B"]
        assert (a_row.innocent, a_row.credit_free, a_row.wins) == (True, True, True)
        assert (b_row.innocent, b_row.credit_free, b_row.wins) == (True, False, False)

    def test_verdict_rows_are_read_only(self):
        result = verdict(c3(), ("b", "a"))
        with pytest.raises(TypeError):
            result.participants["A"] = result.participants["B"]
        assert hash(result) == hash(verdict(c3(), ["b", "a"]))

    def test_verdict_preconditions(self):
        with pytest.raises(PreconditionError, match="conflict-free"):
            verdict(e5(), ())
        with pytest.raises(PreconditionError, match="payoff"):
            verdict(two_party(std("a"), std("b", "a"), payoffs=False), ())


class TestAgreement:
    def test_fixture_contracts(self):
        assert agreement(c1())
        assert not agreement(c2())
        assert agreement(c3())
        assert agreement(c4())
        assert agreement(or_payoffs_spec())
        assert agreement(star_spec())
        assert not agreement(delta2_contract())

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="conflict-free"):
            agreement(e5())
        with pytest.raises(PreconditionError, match="payoff"):
            agreement(two_party(std("a"), std("b", "a"), payoffs=False))
        with pytest.raises(InvalidSpecError, match="payoff"):
            ContractSpec.of(owner={"a": "A"}, payoffs={"A": "always"})


class TestSynthesizeStrategy:
    def test_offers_follow_prudence(self):
        spec = c3()
        assert synthesize_strategy(spec, "A").offers(()) == frozenset({"a"})
        assert synthesize_strategy(spec, "B").offers(()) == frozenset()
        assert synthesize_strategy(spec, "B").offers(("a",)) == frozenset({"b"})
        assert synthesize_strategy(spec, "A").offers(("a",)) == frozenset()

    def test_star_offers(self):
        strat = synthesize_strategy(star_spec(), "T")
        assert strat.offers(()) == frozenset({"e6", "e7"})
        assert strat.offers(("e6",)) == frozenset({"e3", "e4", "e7"})

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError, match="participant"):
            synthesize_strategy(c3(), "Z")
        with pytest.raises(InvalidPlayError):
            synthesize_strategy(c3(), "A").offers(("zz",))


def _synthesized(spec):
    return [synthesize_strategy(spec, p) for p in sorted(spec.participants)]


class TestSimulate:
    def test_sequential_contract_is_deterministic(self):
        for seed in range(4):
            play, result = simulate(c1(), _synthesized(c1()), seed=seed)
            assert play == ("a", "b")
            assert all(row.wins for row in result.participants.values())

    def test_symmetric_contract_plays_either_order(self):
        seen = set()
        for seed in range(6):
            play, result = simulate(c4(), _synthesized(c4()), seed=seed)
            assert play in {("a", "b"), ("b", "a")}
            seen.add(play)
            assert all(row.wins for row in result.participants.values())
        assert len(seen) == 2  # the tie-break actually varies with the seed

    def test_same_seed_reproduces_the_run(self):
        spec = or_payoffs_spec()
        first = simulate(spec, _synthesized(spec), seed=7)
        second = simulate(spec, _synthesized(spec), seed=7)
        assert first == second

    def test_plays_realize_every_provable_event(self):
        for spec in (or_payoffs_spec(), star_spec(), c4()):
            for seed in range(3):
                play, result = simulate(spec, _synthesized(spec), seed=seed)
                assert frozenset(play) == provable_events(spec)
                assert all(row.innocent for row in result.participants.values())

    def test_scheduler_is_first_come_first_served(self):
        # z joins the offer queue one step late and must wait for both
        # longer-standing offers to fire, whatever the seed says
        spec = ContractSpec.of(
            owner={"x": "A", "y": "A", "z": "B"},
            clauses=[std("x"), std("y"), std("z")],
            payoffs={"A": GoalPayoff(frozenset()), "B": GoalPayoff(frozenset())},
        )
        a_strat = Strategy("A", lambda play: {"x", "y"} - set(play))
        b_strat = Strategy("B", lambda play: {"z"} - set(play) if play else set())
        for seed in range(6):
            play, _ = simulate(spec, [a_strat, b_strat], seed=seed)
            assert set(play[:2]) == {"x", "y"}
            assert play[2] == "z"

    def test_strategy_roster_is_checked(self):
        spec = c1()
        with pytest.raises(PreconditionError, match="no strategy"):
            simulate(spec, [synthesize_strategy(spec, "A")])
        with pytest.raises(PreconditionError, match="duplicate"):
            simulate(
                spec,
                [synthesize_strategy(spec, "A")] * 2
                + [synthesize_strategy(spec, "B")],
            )
        with pytest.raises(PreconditionError, match="participant"):
            simulate(
                spec,
                _synthesized(spec) + [Strategy("Z", lambda play: set())],
            )

    def test_offers_must_be_owned_and_playable(self):
        spec = c1()
        grabby = Strategy("A", lambda play: {"b"})
        with pytest.raises(InvalidPlayError, match="does not own"):
            simulate(spec, [grabby, synthesize_strategy(spec, "B")])
        stuck = Strategy("A", lambda play: {"a"})  # keeps offering a forever
        with pytest.raises(InvalidPlayError, match="unplayable"):
            simulate(spec, [stuck, synthesize_strategy(spec, "B")])

    def test_a_bad_offer_set_is_named_by_its_first_bad_offer(self):
        spec = c1()
        cases = (
            (lambda play: {"zz", "b"}, "strategy for 'A' offered 'b', which it does not own"),
            (
                lambda play: {"zz", "a"} if play else {"a"},
                "strategy for 'A' offered unplayable 'a' after <a>",
            ),
        )
        for choose, message in cases:
            with pytest.raises(InvalidPlayError) as err:
                simulate(spec, [Strategy("A", choose), synthesize_strategy(spec, "B")])
            assert str(err.value) == message

    def test_spec_preconditions(self):
        with pytest.raises(PreconditionError, match="conflict-free"):
            simulate(e5(), [])
        bare = two_party(std("a"), std("b", "a"), payoffs=False)
        with pytest.raises(PreconditionError, match="payoff"):
            simulate(bare, [])


# ---------------------------------------------------------------------------
# property tests


_EVENTS = "abcdef"


@st.composite
def conflict_free_specs(draw, max_events: int = 5):
    n = draw(st.integers(2, max_events))
    events = list(_EVENTS[:n])
    participants = ["A", "B", "C"][: draw(st.integers(1, 3))]
    owner = {e: draw(st.sampled_from(participants)) for e in events}
    clauses = draw(
        st.lists(
            st.builds(
                Clause,
                head=st.sampled_from(events),
                body=st.frozensets(st.sampled_from(events), max_size=3),
                kind=st.sampled_from((STANDARD, CIRCULAR)),
            ),
            max_size=2 * n,
        )
    )
    payoffs = {
        p: GoalPayoff(draw(st.frozensets(st.sampled_from(events), max_size=n)))
        for p in participants
    }
    return ContractSpec.of(
        owner=owner, clauses=clauses, payoffs=payoffs, participants=participants
    )


def _greedy_prudent_walk(spec):
    done: tuple[str, ...] = ()
    while True:
        step = prudent_events(spec, done)
        if not step:
            return done
        done += (min(step),)


@settings(max_examples=80, deadline=None)
@given(conflict_free_specs())
def test_prudent_walks_stay_prudent_and_exhaust_the_provable_set(spec):
    play = _greedy_prudent_walk(spec)
    for i in range(len(play) + 1):
        assert is_prudent_play(spec, play[:i])
    assert frozenset(play) == provable_events(spec)


@settings(max_examples=80, deadline=None)
@given(conflict_free_specs(), st.integers(0, 2**16))
def test_simulation_reaches_quiescence_exactly_on_the_provable_set(spec, seed):
    play, result = simulate(spec, _synthesized(spec), seed=seed)
    assert frozenset(play) == provable_events(spec)
    assert prudent_events(spec, play) == frozenset()
    for p, row in result.participants.items():
        assert row.innocent
        assert row.credit_free == credit_free(spec, p, play)
        assert row.wins == wins(spec, p, play)


@settings(max_examples=80, deadline=None)
@given(conflict_free_specs(), st.integers(0, 2**16))
def test_everyone_wins_the_simulation_iff_the_contract_agrees(spec, seed):
    play, result = simulate(spec, _synthesized(spec), seed=seed)
    assert all(row.wins for row in result.participants.values()) == agreement(spec)


@settings(max_examples=80, deadline=None)
@given(conflict_free_specs(), st.integers(0, 2**16))
def test_credit_ledger_invariants(spec, seed):
    play, _ = simulate(spec, _synthesized(spec), seed=seed)
    ledger = credits(spec, play)
    assert len(ledger.per_prefix) == len(play) + 1
    assert ledger.per_prefix[0] == frozenset()
    assert ledger.final <= frozenset(play)
    for i in range(len(play) + 1):
        assert credits(spec, play[:i]).final == ledger.per_prefix[i]
