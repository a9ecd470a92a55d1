import copy
import dataclasses
import pickle

import pytest

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    InvalidPlayError,
    InvalidSpecError,
    OfferRequestPayoff,
    PreconditionError,
    Strategy,
    check_event_set,
    check_play,
    circ,
    parse,
    print_spec,
    shy_dancers,
    std,
    validate,
)
from pacta.model import Diagnostic, _clause_key, is_reserved_name

from helpers import c1, c3, e5, read, two_party


def codes(diags):
    return {d.code for d in diags}


class TestClause:
    def test_body_is_coerced_to_frozenset(self):
        c = Clause("a", ["b", "c", "b"])
        assert c.body == frozenset({"b", "c"})
        assert c.kind == STANDARD

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Clause("a", frozenset(), "sometimes")
        with pytest.raises(ValueError):
            std("a")._replace(kind="sometimes")

    def test_replace_keeps_the_checks(self):
        c = std("a")._replace(body=["c", "b"])
        assert type(c) is Clause and c == std("a", "b", "c") and type(c.body) is frozenset

    def test_a_string_body_is_refused(self):
        # frozenset("bc") would be the body {"b", "c"}.
        for build in (
            lambda: Clause("a", "bc"),
            lambda: Clause._make(("a", "bc", STANDARD)),
            lambda: std("a")._replace(body="bc"),
        ):
            with pytest.raises(TypeError, match="'a'"):
                build()
        assert std("a", "bc").body == frozenset({"bc"})

    def test_helpers_and_repr(self):
        assert std("b", "a") == Clause("b", frozenset({"a"}), STANDARD)
        assert circ("a", "b") == Clause("a", frozenset({"b"}), CIRCULAR)
        assert repr(std("a")) == "Clause(a <- true)"
        assert repr(circ("a", "c", "b")) == "Clause(a <<- b, c)"

    def test_clauses_are_hashable_values(self):
        assert std("a", "b") == Clause("a", ("b",))
        assert len({std("a", "b"), Clause("a", ["b"]), circ("a", "b")}) == 2

    def test_hash_is_the_hash_of_the_fields(self):
        # The iteration order of every set of clauses rests on it.
        for c in (std("a"), std("b", "a"), circ("a", "c", "b")):
            assert hash(c) == hash((c.head, c.body, c.kind))

    def test_clauses_are_immutable(self):
        c = std("b", "a")
        for name in ("head", "body", "kind", "extra"):
            with pytest.raises(AttributeError):
                setattr(c, name, "x")
        assert c == std("b", "a")

    @pytest.mark.parametrize(
        "body", [["b", "a"], ("a", "b", "a"), {"a", "b"}, iter("ab"), {"a": 1, "b": 2}]
    )
    def test_any_iterable_body_becomes_a_frozenset(self, body):
        c = Clause("h", body, CIRCULAR)
        assert type(c.body) is frozenset and c.body == frozenset({"a", "b"})

    def test_equality_and_inequality_between_clauses(self):
        c = std("b", "a")
        assert c == Clause("b", ["a"]) and not c != Clause("b", ["a"])
        for other in (std("c", "a"), std("b"), std("b", "a", "c"), circ("b", "a")):
            assert c != other and not c == other

    def test_copy_and_pickle_round_trip(self):
        for c in (std("a"), circ("a", "c", "b")):
            copies = [copy.copy(c), copy.deepcopy(c)]
            copies += [pickle.loads(pickle.dumps(c, protocol)) for protocol in range(6)]
            for d in copies:
                assert type(d) is Clause and d == c and repr(d) == repr(c)
                assert hash(d) == hash(c) and type(d.body) is frozenset


class TestPayoffs:
    def test_goal_payoff(self):
        p = GoalPayoff(frozenset({"a", "b"}))
        assert p.holds(frozenset({"a", "b", "c"}))
        assert not p.holds(frozenset({"a"}))
        assert p.events() == frozenset({"a", "b"})

    def test_goal_is_coerced_to_frozenset(self):
        p = GoalPayoff({"a", "b"})
        assert type(p.goal) is frozenset
        assert hash(p) == hash(GoalPayoff(frozenset({"b", "a"})))

    def test_a_string_goal_is_refused(self):
        # frozenset("ab") would be the goal {"a", "b"}.
        with pytest.raises(TypeError, match="goal"):
            GoalPayoff("ab")

    def test_empty_goal_always_holds(self):
        assert GoalPayoff(frozenset()).holds(frozenset())

    def test_offer_request_truth_table(self):
        fs = frozenset
        p = OfferRequestPayoff(((fs({"a"}), fs({"b"})), (fs({"c"}), fs({"d"}))))
        # no offer honoured, no request complete: unsatisfied
        assert not p.holds(fs())
        # offer honoured but its request is not: unsatisfied
        assert not p.holds(fs({"a"}))
        # one exchange completed in full
        assert p.holds(fs({"a", "b"}))
        assert p.holds(fs({"c", "d"}))
        # a request may be honoured without its offer
        assert p.holds(fs({"b"}))
        # completing one exchange does not excuse welching on the other
        assert not p.holds(fs({"a", "c", "d"}))
        assert p.holds(fs({"a", "b", "c", "d"}))

    def test_offer_request_without_pairs_never_holds(self):
        assert not OfferRequestPayoff(()).holds(frozenset({"a"}))

    def test_a_string_offer_or_request_is_refused(self):
        fs = frozenset
        with pytest.raises(TypeError, match="offer"):
            OfferRequestPayoff((("ab", fs("c")),))
        with pytest.raises(TypeError, match="request"):
            OfferRequestPayoff(((fs("a"), fs("b")), (fs("c"), "de")))

    def test_a_string_of_pairs_is_refused(self):
        with pytest.raises(TypeError, match="^OfferRequestPayoff.pairs is a string"):
            OfferRequestPayoff("ab")

    def test_pairs_are_canonicalized(self):
        fs = frozenset
        p1 = OfferRequestPayoff(((fs({"a"}), fs({"b"})), (fs({"c"}), fs({"d"}))))
        p2 = OfferRequestPayoff(
            ((fs({"c"}), fs({"d"})), (fs({"a"}), fs({"b"})), (fs({"a"}), fs({"b"})))
        )
        assert p1 == p2
        assert p1.events() == fs({"a", "b", "c", "d"})

    def test_pair_events_are_collected_from_offers_and_requests(self):
        fs = frozenset
        p = OfferRequestPayoff(((fs({"a"}), fs({"b", "c"})), (fs(), fs({"d"})), (fs({"e"}), fs())))
        assert p.events() == fs("abcde")
        q = OfferRequestPayoff(p.pairs)
        assert p == q and hash(p) == hash(q) and "_events" not in repr(p)

    def test_loaded_and_generated_pairs_are_kept_as_the_constructor_builds_them(self):
        # The loader and the generator skip the constructor's checks: each
        # payoff they build must equal the constructor's from plain lists.
        loaded = parse(read("or_payoffs.ces")).payoffs
        built = [*loaded.values(), *shy_dancers(3).payoffs.values()]
        assert len(built) == 11
        for payoff in built:
            rebuilt = OfferRequestPayoff([(list(o), list(r)) for o, r in payoff.pairs])
            assert type(payoff.pairs) is frozenset
            assert rebuilt == payoff and hash(rebuilt) == hash(payoff)
            assert {type(side) for pair in rebuilt.pairs for side in pair} == {frozenset}
            assert rebuilt.events() == payoff.events()
        pairs = frozenset({(frozenset("a"), frozenset("bc"))})
        assert OfferRequestPayoff._trusted(pairs).pairs is pairs
        with pytest.raises(TypeError, match="request"):
            OfferRequestPayoff([(["a"], "bc")])


class TestContractSpec:
    def test_of_derives_events_and_participants(self):
        spec = two_party(std("a"), std("b", "a"))
        assert spec.events == frozenset({"a", "b"})
        assert spec.participants == frozenset({"A", "B"})
        assert spec.owned_by("A") == frozenset({"a"})
        assert spec.owned_by("nobody") == frozenset()

    def test_owned_by_reads_one_index_per_value(self):
        spec = ContractSpec.of(
            owner={f"e{k}": f"P{k % 7}" for k in range(40)}, participants=["judge"]
        )
        for p in sorted(spec.participants) + ["nobody"]:
            assert spec.owned_by(p) == {e for e, q in spec.owner.items() if q == p}, p
        assert spec.owned_by("P0") is spec.owned_by("P0")
        assert spec.owned_by("judge") == frozenset()
        assert "_owned_index" not in repr(spec)
        assert dataclasses.replace(spec).owned_by("P0") == spec.owned_by("P0")

    def test_observer_participants_are_kept(self):
        spec = ContractSpec.of(owner={"a": "A"}, participants=["judge"])
        assert spec.participants == frozenset({"A", "judge"})

    def test_conflicts_and_compatibility(self):
        spec = e5()
        assert spec.conflicts
        assert spec.compatible({"a", "b"})
        assert spec.compatible({"b"})
        assert not spec.compatible({"b", "c"})
        assert not c1().conflicts

    def test_values_are_hashable_and_equal_values_collapse(self):
        assert len({c1(), c1(), c3()}) == 2
        spec = ContractSpec.of(owner={"a": "A"}, payoffs={"A": GoalPayoff(frozenset({"a"}))})
        assert spec == ContractSpec(
            events=frozenset({"a"}),
            participants=frozenset({"A"}),
            owner={"a": "A"},
            clauses=frozenset(),
            payoffs={"A": GoalPayoff(frozenset({"a"}))},
        )

    def test_hand_built_set_fields_become_frozensets(self):
        events, clauses = {"a", "b"}, {std("b", "a")}
        spec = ContractSpec(
            events=events,
            participants=["A", "B"],
            owner={"a": "A", "b": "B"},
            clauses=clauses,
            conflicts=[("a", "b")],
            payoffs={"A": GoalPayoff({"b"})},
        )
        for value in (spec.events, spec.participants, spec.clauses, spec.conflicts):
            assert type(value) is frozenset
        assert spec.conflicts == {frozenset({"a", "b"})}
        with pytest.raises(AttributeError):
            spec.events.add("zz")
        clauses.add(std("a"))
        events.add("zz")
        assert spec.clauses == {std("b", "a")} and spec.events == {"a", "b"}
        assert spec == ContractSpec.of(
            owner={"a": "A", "b": "B"},
            clauses=[std("b", "a")],
            conflicts=[("b", "a")],
            payoffs={"A": GoalPayoff(frozenset({"b"}))},
        )
        assert len({spec, dataclasses.replace(spec)}) == 1

    @pytest.mark.parametrize("pair", [(), ("a",), ("a", "b", "c"), ("a", "a")])
    def test_a_conflict_of_other_than_two_events_is_refused(self, pair):
        owner = {"a": "A", "b": "A", "c": "A"}
        message = f"conflict must involve exactly two events, got {sorted(set(pair))}"
        for build in (
            lambda: ContractSpec(frozenset(owner), {"A"}, owner, frozenset(), [pair]),
            lambda: ContractSpec.of(owner, conflicts=[("a", "b"), pair]),
            lambda: dataclasses.replace(ContractSpec.of(owner), conflicts=[pair]),
        ):
            with pytest.raises(InvalidSpecError) as err:
                build()
            assert isinstance(err.value, ValueError)
            assert [(d.code, d.message) for d in err.value.diagnostics] == [
                ("bad-conflict", message)
            ]

    # Each string would be split into characters: frozenset("Ann") is
    # {"A", "n"}, and the whole spec would be accepted, by validate too.
    @pytest.mark.parametrize(
        "field, build",
        [
            (
                "ContractSpec.events",
                lambda: ContractSpec("ab", {"T"}, {"a": "T", "b": "T"}, frozenset()),
            ),
            (
                "ContractSpec.participants",
                lambda: ContractSpec({"a"}, "T", {"a": "T"}, frozenset()),
            ),
            (
                "ContractSpec.conflicts",
                lambda: ContractSpec({"a", "b"}, {"T"}, {"a": "T", "b": "T"}, (), "ab"),
            ),
            (
                "a pair of ContractSpec.conflicts",
                lambda: ContractSpec.of({"a": "T", "b": "T"}, conflicts=["ab"]),
            ),
            (
                "the participants argument",
                lambda: ContractSpec.of({"a": "Tom"}, participants="Ann"),
            ),
            (
                "ContractSpec.clauses",
                lambda: ContractSpec({"a"}, {"T"}, {"a": "T"}, "a"),
            ),
            ("ContractSpec.clauses", lambda: ContractSpec.of({"a": "T"}, clauses="a")),
        ],
        ids=[
            "events",
            "participants",
            "conflicts",
            "conflict-pair",
            "of-participants",
            "clauses",
            "of-clauses",
        ],
    )
    def test_a_string_set_field_is_refused(self, field, build):
        with pytest.raises(TypeError, match=f"^{field} is a string"):
            build()

    def test_mappings_are_read_only_copies(self):
        owner = {"a": "A", "b": "B"}
        spec = ContractSpec.of(owner=owner, payoffs={"A": GoalPayoff(frozenset({"b"}))})
        owner["a"] = "B"
        assert spec.owner["a"] == "A"
        with pytest.raises(TypeError):
            spec.owner["a"] = "B"
        with pytest.raises(TypeError):
            del spec.payoffs["A"]
        with pytest.raises(TypeError):
            spec.payoffs["B"] = GoalPayoff(frozenset())
        assert spec.owned_by("A") == frozenset({"a"})


class TestValidate:
    def test_clean_specs_have_no_findings(self):
        for spec in (c1(), c3(), e5()):
            assert validate(spec) == []

    def test_bad_identifier(self):
        spec = ContractSpec.of(owner={"9a": "A"})
        assert "bad-identifier" in codes(validate(spec))

    def test_reserved_identifier(self):
        assert is_reserved_name("R$a")
        assert is_reserved_name("U$a")
        assert is_reserved_name("x!y")
        assert not is_reserved_name("Ua")
        spec = ContractSpec.of(owner={"U$a": "A"})
        assert "reserved-identifier" in codes(validate(spec))

    def test_unowned_event(self):
        spec = ContractSpec(
            events=frozenset({"a", "b"}),
            participants=frozenset({"A"}),
            owner={"a": "A"},
            clauses=frozenset(),
        )
        assert "unowned-event" in codes(validate(spec))

    def test_owner_of_undeclared_event(self):
        spec = ContractSpec(
            events=frozenset({"a"}),
            participants=frozenset({"A"}),
            owner={"a": "A", "ghost": "A"},
            clauses=frozenset(),
        )
        assert "unknown-event" in codes(validate(spec))

    def test_owner_by_undeclared_participant(self):
        spec = ContractSpec(
            events=frozenset({"a"}),
            participants=frozenset({"A"}),
            owner={"a": "Z"},
            clauses=frozenset(),
        )
        assert "unknown-participant" in codes(validate(spec))

    def test_clause_over_undeclared_events(self):
        spec = ContractSpec.of(owner={"a": "A"}, clauses=[std("a", "zz")])
        assert "unknown-event" in codes(validate(spec))
        spec = ContractSpec.of(owner={"a": "A"}, clauses=[std("zz", "a")])
        assert "unknown-event" in codes(validate(spec))

    def test_clause_body_violating_a_conflict(self):
        spec = ContractSpec.of(
            owner={"a": "A", "b": "A", "c": "A"},
            clauses=[std("a", "b", "c")],
            conflicts=[("b", "c")],
        )
        assert "conflicting-clause" in codes(validate(spec))
        # the head itself may conflict with a body event; only the body matters
        spec = ContractSpec.of(
            owner={"a": "A", "b": "A"},
            clauses=[std("a", "b")],
            conflicts=[("a", "b")],
        )
        assert validate(spec) == []

    def test_malformed_conflict_pair(self):
        # The constructor refuses it, so validate never meets one.
        with pytest.raises(InvalidSpecError) as err:
            ContractSpec(
                events=frozenset({"a"}),
                participants=frozenset({"A"}),
                owner={"a": "A"},
                clauses=frozenset(),
                conflicts=frozenset({frozenset({"a"})}),
            )
        assert codes(err.value.diagnostics) == {"bad-conflict"}

    def test_payoff_problems(self):
        spec = ContractSpec.of(
            owner={"a": "A"}, payoffs={"Z": GoalPayoff(frozenset({"a"}))}
        )
        assert "unknown-participant" in codes(validate(spec))
        spec = ContractSpec.of(
            owner={"a": "A"}, payoffs={"A": GoalPayoff(frozenset({"zz"}))}
        )
        assert "unknown-event" in codes(validate(spec))

    def test_a_payoff_of_no_payoff_form_is_refused(self):
        owner = {"a": "A"}
        goal = GoalPayoff(frozenset({"a"}))
        odd = {"Z": "win big", "A": "always", "B": goal}
        message = "payoff for {!r} is not a recognised reachability payoff"
        for build in (
            lambda: ContractSpec(frozenset(owner), {"A", "B"}, owner, {std("a")}, (), odd),
            lambda: ContractSpec.of(owner, clauses=[std("a")], payoffs=odd),
            lambda: dataclasses.replace(ContractSpec.of(owner), payoffs=odd),
        ):
            with pytest.raises(InvalidSpecError) as err:
                build()
            assert [(d.code, d.message) for d in err.value.diagnostics] == [
                ("bad-payoff", message.format("A")),
                ("bad-payoff", message.format("Z")),
            ]

    def test_offer_request_payoff_without_pairs_is_a_bad_payoff(self):
        # The DSL has no line for it, so printing would drop the payoff.
        fs = frozenset
        one_pair = OfferRequestPayoff(((fs({"a"}), fs({"b"})),))
        spec = dataclasses.replace(c1(), payoffs={**c1().payoffs, "A": one_pair})
        assert validate(spec) == []
        assert parse(print_spec(spec)) == spec
        spec = dataclasses.replace(spec, payoffs={**spec.payoffs, "A": OfferRequestPayoff(())})
        assert [(d.code, d.message) for d in validate(spec)] == [
            ("bad-payoff", "payoff for 'A' has no offers/requests pair")
        ]

    def test_the_clause_order_puts_circular_before_standard_for_equal_heads(self):
        # Findings, the theory's refusals, the natural-deduction search and
        # encode --json all read this one order.
        clauses = [std("b"), std("a", "c"), circ("a", "d"), std("a", "b"), circ("a")]
        want = [circ("a"), circ("a", "d"), std("a", "b"), std("a", "c"), std("b")]
        assert sorted(clauses, key=_clause_key) == want
        spec = ContractSpec.of(owner={"a": "A"}, clauses=[std("a", "x"), circ("a", "y")])
        assert [d.message for d in validate(spec)] == [
            "clause for 'a' uses undeclared event 'y'",
            "clause for 'a' uses undeclared event 'x'",
        ]


class TestPlays:
    def test_check_play_accepts_credit_plays(self):
        # enabling order is not checked here: b before a is a legal play
        assert check_play(c1(), ["b", "a"]) == ("b", "a")
        assert check_play(c1(), ()) == ()

    def test_check_play_rejects_unknown_repeat_conflict(self):
        with pytest.raises(InvalidPlayError, match="position 1"):
            check_play(c1(), ["a", "zz"])
        with pytest.raises(InvalidPlayError, match="repeated"):
            check_play(c1(), ["a", "b", "a"])
        with pytest.raises(InvalidPlayError, match="conflicts"):
            check_play(e5(), ["a", "b", "c"])

    @pytest.mark.parametrize(
        "spec, play, message",
        [
            (c1(), ["a", "zz", "b"], "position 1: 'zz' is not an event of the contract"),
            (c1(), ["a", "b", "a"], "position 2: event 'a' repeated"),
            (e5(), ["a", "b", "c"], "position 2: event 'c' conflicts with an earlier event"),
            (e5(), ["c", "b", "c"], "position 1: event 'b' conflicts with an earlier event"),
        ],
    )
    def test_check_play_names_the_first_offending_position(self, spec, play, message):
        with pytest.raises(InvalidPlayError) as err:
            check_play(spec, play)
        assert str(err.value) == message

    def test_no_spec_holds_the_empty_conflict_pair(self):
        # It would lie in every play, the empty one included.
        with pytest.raises(InvalidSpecError, match=r"got \[\]"):
            dataclasses.replace(c1(), conflicts=frozenset({frozenset()}))
        assert check_play(e5(), []) == ()

    def test_check_event_set(self):
        assert check_event_set(e5(), ["a", "b"]) == frozenset({"a", "b"})
        with pytest.raises(PreconditionError, match="unknown"):
            check_event_set(e5(), ["zz"])
        with pytest.raises(PreconditionError, match="conflicting"):
            check_event_set(e5(), ["b", "c"])

    def test_a_string_play_is_refused(self):
        # tuple("ab") is ("a", "b"), a play of c1's two events.
        with pytest.raises(TypeError, match="string"):
            check_play(c1(), "ab")

    def test_a_string_event_set_is_refused(self):
        with pytest.raises(TypeError, match="string"):
            check_event_set(e5(), "ab")


def test_strategy_offers_coerces_to_frozenset():
    strat = Strategy("A", lambda play: {"a"} if not play else set())
    assert strat.offers(()) == frozenset({"a"})
    assert strat.offers(("a",)) == frozenset()


def test_diagnostic_render_variants():
    assert Diagnostic("code", "msg").render() == "[code] msg"
    assert Diagnostic("code", "msg", 3).render() == "line 3: [code] msg"
    assert Diagnostic("code", "msg", 3, 7).render() == "line 3, col 7: [code] msg"
