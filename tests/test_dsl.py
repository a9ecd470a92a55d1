import hashlib
import random

import pytest

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    OfferRequestPayoff,
    ParseError,
    analyze,
    circ,
    dsl,
    encode_urgency,
    parse,
    print_spec,
    shy_dancers,
    spec_of,
    std,
    validate,
)

from helpers import (
    DATA,
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
    print_spec_reference,
    random_spec,
    random_theory,
    read,
    star_spec,
)


def diag_codes(text):
    spec, diags = analyze(text)
    assert spec is None
    return {d.code for d in diags}


class TestDataFiles:
    def test_contract_files_parse_to_the_reference_values(self):
        assert parse(read("c1.ces")) == c1()
        assert parse(read("c2.ces")) == c2()
        assert parse(read("c3.ces")) == c3()
        assert parse(read("c4.ces")) == c4()
        assert parse(read("e5.ces")) == e5()
        assert parse(read("star.ces")) == star_spec()
        assert parse(read("or_payoffs.ces")) == or_payoffs_spec()
        assert parse(read("delta2_contract.ces")) == delta2_contract()

    def test_theory_files_parse_to_the_reference_theories(self):
        assert parse(read("delta1.ces")) == spec_of(delta1())
        assert parse(read("delta2.ces")) == spec_of(delta2())
        assert parse(read("delta3.ces")) == spec_of(delta3())
        assert parse(read("delta4.ces")) == spec_of(delta4())

    def test_broken_file_reports_every_problem(self):
        assert diag_codes(read("broken.ces")) == {
            "unknown-directive",
            "self-conflict",
            "undeclared-event",
            "unknown-participant",
        }

    def test_parse_error_carries_diagnostics(self):
        with pytest.raises(ParseError) as err:
            parse(read("broken.ces"))
        assert any(d.code == "self-conflict" for d in err.value.diagnostics)
        assert "self-conflict" in str(err.value)


class TestClauseSyntax:
    def test_empty_body_spellings_agree(self):
        for body in ("", " <-", " <- true"):
            spec = parse(f"agent A\nclause a{body}\n")
            assert spec.clauses == frozenset({std("a")})

    def test_circular_arrow_and_its_alias(self):
        by_arrow = parse("agent A\nclause a <<- b\nclause b <- a\n")
        by_alias = parse("agent A\nclause a ↠ b\nclause b <- a\n")
        assert by_arrow == by_alias
        assert by_arrow.clauses == frozenset({circ("a", "b"), std("b", "a")})

    def test_multi_event_bodies_use_commas(self):
        spec = parse("agent A\nclause a <- b, c\nclause b\nclause c\n")
        assert std("a", "b", "c") in spec.clauses

    def test_whitespace_comments_crlf_and_bom(self):
        text = (
            "\ufeff# a header comment\r\n"
            "agent\tA owns a\r\n"
            "\r\n"
            "clause a   # trailing note\r\n"
        )
        spec = parse(text)
        assert spec == ContractSpec.of(owner={"a": "A"}, clauses=[std("a")])


class TestOwnership:
    def test_heads_default_to_the_enclosing_agent_block(self):
        spec = parse("agent A\nclause x\nagent B\nclause y <- x\n")
        assert spec.owner == {"x": "A", "y": "B"}

    def test_explicit_owns_beats_a_later_block(self):
        spec = parse("agent A owns x\nagent B\nclause x\n")
        assert spec.owner == {"x": "A"}
        # With a head no 'owns' list names, the blocks are read too.
        spec = parse("agent A owns x\nagent B\nclause x\nclause y\n")
        assert spec.owner == {"x": "A", "y": "B"}

    def test_agent_line_without_clauses_still_declares(self):
        spec = parse("agent A owns a\nagent Observer\nclause a\n")
        assert spec.participants == frozenset({"A", "Observer"})


class TestDiagnostics:
    def test_bad_agent(self):
        assert "bad-agent" in diag_codes("agent\n")
        assert "bad-agent" in diag_codes("agent A owns\n")
        assert "bad-agent" in diag_codes("agent A holds x\n")

    def test_bad_clause(self):
        assert "bad-clause" in diag_codes("agent A\nclause\n")
        assert "bad-clause" in diag_codes("agent A\nclause a b <- c\n")
        assert "bad-clause" in diag_codes("agent A\nclause a <- b,,c\n")

    def test_bad_conflict(self):
        assert "bad-conflict" in diag_codes("agent A owns a\nconflict a\n")

    def test_self_conflict(self):
        assert "self-conflict" in diag_codes("agent A owns a\nconflict a a\n")

    def test_bad_payoff(self):
        assert "bad-payoff" in diag_codes("agent A owns a\npayoff A\n")
        assert "bad-payoff" in diag_codes("agent A owns a\npayoff A goal a\n")
        assert "bad-payoff" in diag_codes("agent A owns a\npayoff A offers {a}\n")

    def test_unknown_directive(self):
        assert "unknown-directive" in diag_codes("decree a\n")

    def test_ownership_conflict(self):
        assert "ownership-conflict" in diag_codes(
            "agent A owns x\nagent B owns x\n"
        )

    def test_no_active_agent(self):
        assert "no-active-agent" in diag_codes("clause a\n")

    def test_undeclared_event(self):
        assert "undeclared-event" in diag_codes("agent A\nclause a <- zz\n")
        assert "undeclared-event" in diag_codes("agent A owns a\nconflict a z\n")
        assert "undeclared-event" in diag_codes("agent A owns a\npayoff A goal {z}\n")

    def test_duplicate_clause(self):
        assert "duplicate-clause" in diag_codes(
            "agent A\nclause a <- b\nclause b\nclause a <- b\n"
        )

    def test_mixed_and_duplicate_payoffs(self):
        assert "mixed-payoff" in diag_codes(
            "agent A owns a\npayoff A goal {a}\npayoff A offers {a} requests {a}\n"
        )
        assert "duplicate-goal" in diag_codes(
            "agent A owns a\npayoff A goal {a}\npayoff A goal {}\n"
        )

    def test_unknown_participant(self):
        assert "unknown-participant" in diag_codes("agent A owns a\npayoff Z goal {a}\n")

    def test_bad_and_reserved_identifiers(self):
        assert "bad-identifier" in diag_codes("agent 9fingers\n")
        assert "reserved-identifier" in diag_codes("agent A owns R$a\n")
        assert "reserved-identifier" in diag_codes("agent A\nclause a!\n")

    def test_true_names_no_event_or_participant(self):
        for text in (
            "agent true\n",
            "agent A owns true a\nclause a <- true\n",
            "agent A\nclause true\n",
            "agent A owns a\nclause a <<- a, true\n",
            "agent A owns a\npayoff A goal {true}\n",
            "agent A owns a b\nconflict a true\n",
        ):
            assert diag_codes(text) == {"reserved-identifier"}, text
        for owner, participants in (({"true": "A"}, ()), ({"a": "true"}, ()), ({}, ("true",))):
            spec = ContractSpec.of(owner, participants=participants)
            assert [d.code for d in validate(spec)] == ["reserved-identifier"], spec

    def test_residual_structural_check_runs_after_parsing(self):
        text = "agent A owns a b c\nclause a <- b, c\nconflict b c\n"
        assert diag_codes(text) == {"conflicting-clause"}

    def test_each_distinct_name_is_checked_once(self, monkeypatch):
        # A bad name in every kind of line, good names repeated: each
        # distinct token meets NAME_RE once, and each bad occurrence is
        # still reported at its own line (and column, for a line's first name).
        text = (
            "agent A owns a b\n"
            "clause a <- b\n"
            "clause b <<- a, 9x\n"
            "agent 9x owns c\n"
            "clause 9x <- a, b\n"
            "conflict a 9x\n"
            "payoff A offers {a b} requests {a 9x}\n"
            "payoff A offers {a b} requests {b c}\n"
            "agent B owns c\n"
        )
        checked = []
        name_re = dsl.NAME_RE

        class Counted:
            def match(self, token):
                checked.append(token)
                return name_re.match(token)

        monkeypatch.setattr(dsl, "NAME_RE", Counted())
        _, diags = analyze(text)
        assert sorted(checked) == ["9x", "A", "B", "a", "b", "c"]
        assert [(d.code, d.message, d.line, d.column) for d in diags] == [
            ("bad-identifier", "'9x' is not a valid name", line, column)
            for line, column in ((3, None), (4, 7), (5, 8), (6, None), (7, None))
        ]

    def test_diagnostics_carry_line_numbers(self):
        _, diags = analyze("agent A owns a\n\nwidget q\n")
        assert [(d.code, d.line) for d in diags] == [("unknown-directive", 3)]


class TestPrinter:
    def test_golden_two_party_contract(self):
        assert print_spec(c3()) == (
            "agent A owns a\n"
            "agent B owns b\n"
            "clause a <<- b\n"
            "clause b <- a\n"
            "payoff A goal {b}\n"
            "payoff B goal {a}\n"
        )

    def test_golden_conflicted_contract(self):
        assert print_spec(e5()) == (
            "agent A owns a\n"
            "agent B owns b c\n"
            "clause a <- c\n"
            "clause a <<- b\n"
            "clause b <- a\n"
            "clause c <- a\n"
            "conflict b c\n"
        )

    def test_pair_payoffs_print_one_line_per_pair(self):
        lines = print_spec(or_payoffs_spec()).splitlines()
        assert lines[-4:] == [
            "payoff A offers {a0} requests {b0 b2}",
            "payoff A offers {a0 a1} requests {b1}",
            "payoff B offers {b0} requests {a0}",
            "payoff B offers {b2} requests {a0 a2}",
        ]

    def test_empty_body_keeps_its_kind(self):
        spec = ContractSpec.of(owner={"c": "A"}, clauses=[circ("c")])
        assert "clause c <<- true" in print_spec(spec)
        assert parse(print_spec(spec)) == spec

    def test_empty_goal_prints_and_parses(self):
        spec = ContractSpec.of(
            owner={"a": "A"}, payoffs={"A": GoalPayoff(frozenset())}
        )
        assert "payoff A goal {}" in print_spec(spec)
        assert parse(print_spec(spec)) == spec

    # SHA-256 of print_spec(shy_dancers(n, cells)) as the printer wrote it when
    # payoff pairs were a sorted tuple; the printer now sorts them itself.
    # perfbench writes its grid inputs this way.
    GRID_DIGESTS = {
        (6, "corner"): "d5c984ab3c9c9afca1c2cd6865f058711bbf16b26ba93f0fe9ef05131b0d58ce",
        (6, "standard"): "c7b0b0d69e1f24c22b04a6ed059643b14c4109040dda2d7bce1c31ed503e9f45",
        (10, "corner"): "4b3b91087d2ad2b882b8d82d99dbdd90f75b6222d5268a696cfc6fa3df881a5a",
        (10, "standard"): "9345a2003237f97083d77e7ab2fd2dd1f4dd0dec3dbc9c795743ad5189229f4a",
        (14, "corner"): "5f299660f99a42e9503406471de02414b36412d7b99ba3449cd1588a11bf6d48",
        (14, "standard"): "d2d6e4f44e0ecfa5e07813091960f9392c05f370ec2753fd08155c460517c54c",
    }
    CELLS = {"corner": [(1, 1), (1, 2), (2, 1), (2, 2)], "standard": []}

    @pytest.mark.parametrize("n, cells", sorted(GRID_DIGESTS))
    def test_printed_grids_keep_their_bytes(self, n, cells):
        text = print_spec(shy_dancers(n, self.CELLS[cells]))
        assert hashlib.sha256(text.encode()).hexdigest() == self.GRID_DIGESTS[n, cells]

    def test_shuffled_pair_lines_parse_equal_and_print_the_same_bytes(self):
        text = print_spec(shy_dancers(6, self.CELLS["corner"]))
        lines = text.splitlines()
        pair_lines = [line for line in lines if line.startswith("payoff")]
        random.Random(24).shuffle(pair_lines)
        shuffled = "\n".join(
            [line for line in lines if not line.startswith("payoff")] + pair_lines
        ) + "\n"
        assert shuffled != text
        assert parse(shuffled) == parse(text)
        assert print_spec(parse(shuffled)) == text


class TestPrinterMatchesTheReference:
    """``print_spec`` sorts each distinct set once and each head's bodies as
    texts; ``helpers.print_spec_reference`` sorts ``(head, kind, sorted
    body)`` tuples.  Both write the same bytes."""

    def assert_same(self, spec):
        assert print_spec(spec) == print_spec_reference(spec), spec

    def test_fixtures_and_random_specs_with_conflicts(self):
        for path in sorted(DATA.glob("*.ces")):
            if path.name != "broken.ces":
                self.assert_same(parse(read(path.name)))
        for spec in (c1(), c2(), c3(), c4(), e5(), star_spec(), or_payoffs_spec(),
                     delta2_contract(), spec_of(delta3())):
            self.assert_same(spec)
        rng = random.Random(2611)
        specs = [random_spec(rng, max_events=7, allow_conflicts=True) for _ in range(2_000)]
        assert sum(bool(spec.conflicts) for spec in specs) > 500
        for spec in specs:
            self.assert_same(spec)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_grids(self, n):
        for cells in ([], [(1, 1), (1, 2), (2, 1), (2, 2)], None):
            self.assert_same(shy_dancers(n, cells))

    def test_urgency_encodings(self):
        # Their names hold "!" and "$", which sort below ", ".  No such name
        # here is another's prefix, so the order that a ", " key would break
        # is pinned by the hand-written spec below.
        rng = random.Random(2612)
        for _ in range(300):
            self.assert_same(spec_of(encode_urgency(random_theory(rng, max_atoms=7))))

    def test_empty_bodies_goals_and_pair_payoffs(self):
        fs = frozenset
        owner = {e: "A" for e in ("a", "a_b", "c", "d")} | {"a!b": "B", "a$c": "B"}
        spec = ContractSpec.of(
            owner=owner,
            clauses=[
                std("a"), circ("a"), std("a", "c"), circ("a", "c", "d"), circ("a", "d"),
                std("c", "a", "d"), std("c", "a!b"), std("c", "a_b"), std("c", "a$c", "d"),
                circ("d"), std("d", "a"),
            ],
            payoffs={
                "A": GoalPayoff(fs()),
                "B": OfferRequestPayoff((
                    (fs({"a", "d"}), fs({"c"})), (fs({"a!b"}), fs()), (fs({"a"}), fs({"d"})),
                    (fs({"a"}), fs({"c", "d"})), (fs(), fs({"a$c"})),
                )),
                "C": GoalPayoff(fs({"d", "a!b", "a"})),
            },
        )
        text = print_spec(spec)
        # Sorted as lists of names, {a, d} comes before {a!b}: "a, d" would not.
        assert "clause c <- a, d\nclause c <- a!b\nclause c <- a$c, d\nclause c <- a_b\n" in text
        assert "clause a\nclause a <- c\nclause a <<- true\nclause a <<- c, d\n" in text
        assert text == print_spec_reference(spec)


class TestRoundTrip:
    def test_named_specs_round_trip(self):
        for spec in (
            c1(),
            c2(),
            c3(),
            c4(),
            e5(),
            star_spec(),
            or_payoffs_spec(),
            delta2_contract(),
            spec_of(delta3()),
        ):
            back = parse(print_spec(spec))
            assert back == spec
            assert hash(back) == hash(spec)
            assert len({back, spec}) == 1

    def test_keyword_and_random_names_round_trip(self):
        """Names drawn from every word of the language and from random
        identifiers: every spec ``validate`` accepts prints and parses back
        equal, and a spec using ``true`` as a name is refused."""
        keywords = ("agent", "owns", "clause", "conflict", "payoff", "goal", "offers",
                    "requests", "true")
        rng = random.Random(6)
        letters = "abcdefghijklmnopqrstuvwxyz_"
        refused = 0
        for _ in range(3_000):
            pool = sorted(set(rng.sample(keywords, rng.randint(1, 5))) | {
                rng.choice(letters) + "".join(rng.choices(letters + "0123456789", k=rng.randint(0, 4)))
                for _ in range(3)
            })
            events = rng.sample(pool, rng.randint(1, len(pool)))
            parties = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            owner = {e: rng.choice(parties) for e in events}
            clauses = {
                Clause(rng.choice(events), rng.sample(events, rng.randint(0, min(2, len(events)))),
                       rng.choice((STANDARD, CIRCULAR)))
                for _ in range(rng.randint(0, 4))
            }
            def some():
                return rng.sample(events, rng.randint(0, min(2, len(events))))

            payoffs = {
                p: GoalPayoff(some()) if rng.random() < 0.5
                else OfferRequestPayoff(tuple((some(), some()) for _ in range(rng.randint(1, 2))))
                for p in parties if rng.random() < 0.7
            }
            spec = ContractSpec.of(owner, clauses, payoffs=payoffs, participants=parties)
            if "true" in spec.events | spec.participants:
                assert "reserved-identifier" in {d.code for d in validate(spec)}, spec
                refused += 1
                continue
            assert validate(spec) == [], spec
            back = parse(print_spec(spec))
            assert back == spec and hash(back) == hash(spec), spec
        assert 500 < refused < 2_500

    def test_random_specs_round_trip(self):
        rng = random.Random(1729)
        for _ in range(10_000):
            spec = random_spec(rng, allow_conflicts=True)
            back = parse(print_spec(spec))
            assert back == spec and hash(back) == hash(spec)
