import dataclasses

import pytest

from pacta import (
    CIRCULAR,
    STANDARD,
    Clause,
    HornTheory,
    InvalidSpecError,
    PreconditionError,
    circ,
    encode_urgency,
    is_proof_trace,
    iter_proof_traces,
    proof_traces,
    provable_atoms,
    prudent_events,
    spec_of,
    std,
    theory_of,
    urgent_atoms,
)
from pacta.logic import interleave, mark_done, mark_reachable, mark_urgent

from helpers import c3, delta1, delta2, delta3, delta4, e5, star_theory


class TestHornTheory:
    def test_of_derives_alphabet(self):
        th = HornTheory.of([std("b", "a"), circ("c", "b")])
        assert th.atoms == frozenset({"a", "b", "c"})

    def test_of_keeps_isolated_atoms(self):
        th = HornTheory.of([std("a")], atoms=["z"])
        assert th.atoms == frozenset({"a", "z"})

    def test_theories_are_hashable(self):
        assert len({delta3(), delta3(), delta4()}) == 2

    def test_hand_built_theories_hold_frozensets(self):
        atoms, clauses = {"a", "b"}, {std("b", "a")}
        th = HornTheory(atoms, clauses)
        assert type(th.atoms) is frozenset and type(th.clauses) is frozenset
        clauses.add(std("a"))
        assert th == HornTheory.of([std("b", "a")])
        assert hash(th) == hash(HornTheory.of([std("b", "a")]))
        assert provable_atoms(th) == frozenset()

    def test_clauses_outside_the_atoms_are_refused(self):
        # Before the check, provable_atoms answered {a, b} for this theory
        # while is_proof_trace refused b as unknown.
        with pytest.raises(InvalidSpecError) as err:
            HornTheory(atoms={"a"}, clauses={std("a"), std("b", "a"), circ("a", "c", "d")})
        assert [(d.code, d.message) for d in err.value.diagnostics] == [
            ("unknown-event", "clause for 'a' names atoms outside the theory: c, d"),
            ("unknown-event", "clause for 'b' names atoms outside the theory: b"),
        ]
        assert HornTheory(atoms={"a", "b"}, clauses={std("a"), std("b", "a")}).atoms == {"a", "b"}
        bad_spec = dataclasses.replace(c3(), clauses=c3().clauses | {std("a", "zz")})
        with pytest.raises(InvalidSpecError, match="'a' names atoms outside the theory: zz"):
            theory_of(bad_spec)

    def test_theory_of_drops_owners(self):
        th = theory_of(c3())
        assert th == delta3()

    def test_theory_of_rejects_conflicts(self):
        with pytest.raises(PreconditionError):
            theory_of(e5())

    def test_spec_of_wraps_single_participant(self):
        spec = spec_of(delta1(), "T")
        assert spec.participants == frozenset({"T"})
        assert spec.owner == {"a": "T", "b": "T"}
        assert theory_of(spec) == delta1()


class TestProvability:
    def test_fixture_theories(self):
        assert provable_atoms(delta1()) == frozenset({"a", "b"})
        assert provable_atoms(delta2()) == frozenset()
        assert provable_atoms(delta3()) == frozenset({"a", "b"})
        assert provable_atoms(delta4()) == frozenset({"a", "b"})

    def test_star_theory_is_fully_provable(self):
        assert provable_atoms(star_theory()) == star_theory().atoms

    def test_self_loops(self):
        # a circular clause may discharge its own head; a standard one cannot
        assert provable_atoms(HornTheory.of([circ("a", "a")])) == frozenset({"a"})
        assert provable_atoms(HornTheory.of([std("a", "a")])) == frozenset()


class TestInterleave:
    def test_worked_example(self):
        assert interleave("aba", "ca") == frozenset(
            {("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")}
        )

    def test_empty_operand_squeezes_the_other(self):
        assert interleave((), ("a", "b", "a")) == frozenset({("a", "b")})

    def test_shared_element_can_move_left(self):
        assert interleave(("b", "a"), ("a",)) == frozenset(
            {("b", "a"), ("a", "b")}
        )

    def test_results_are_duplicate_free_merges(self):
        for merged in interleave("abc", "bd"):
            assert len(set(merged)) == len(merged)
            assert set(merged) == set("abcd")
        assert interleave("ab", "cd") == interleave("cd", "ab")

    def test_long_operand_does_not_exhaust_the_stack(self):
        left = tuple(f"a{i}" for i in range(1_200))
        assert interleave(left, ("z",)) == frozenset(
            left[:i] + ("z",) + left[i:] for i in range(1_201)
        )


class TestProofTraces:
    def test_fixture_trace_sets(self):
        ab = ("a", "b")
        ba = ("b", "a")
        assert proof_traces(delta1()) == frozenset({(), ("a",), ab})
        assert proof_traces(delta2()) == frozenset({()})
        assert proof_traces(delta3()) == frozenset({(), ab})
        assert proof_traces(delta4()) == frozenset({(), ab, ba})

    def test_credit_step_alone_is_not_a_trace(self):
        # a may fire on credit mid-play, but a trace must repay it: ("a",)
        # appears for delta1 (a is a fact) and not for delta3 (a needs b)
        assert is_proof_trace(delta1(), ("a",))
        assert not is_proof_trace(delta3(), ("a",))
        assert not is_proof_trace(delta3(), ("b", "a"))
        assert is_proof_trace(delta3(), ("a", "b"))
        assert is_proof_trace(delta3(), ())

    def test_is_proof_trace_rejects_unknown_atoms(self):
        with pytest.raises(PreconditionError, match="unknown"):
            is_proof_trace(delta3(), ("a", "zz"))

    def test_is_proof_trace_refuses_a_string(self):
        # tuple("ab") is ("a", "b"), a proof trace of delta3.
        with pytest.raises(TypeError, match="string"):
            is_proof_trace(delta3(), "ab")

    def test_iteration_is_shortlex(self):
        assert list(iter_proof_traces(delta4())) == [(), ("a", "b"), ("b", "a")]

    def test_max_count_truncates_in_shortlex_order(self):
        assert proof_traces(delta4(), max_count=2) == frozenset({(), ("a", "b")})
        assert proof_traces(delta4(), max_count=0) == frozenset()
        assert proof_traces(delta4(), max_count=99) == proof_traces(delta4())
        with pytest.raises(PreconditionError):
            proof_traces(delta4(), max_count=-1)

    def test_traces_cover_exactly_the_provable_atoms(self):
        for th in (delta1(), delta2(), delta3(), delta4(), star_theory()):
            atoms_in_traces = frozenset(
                a for t in proof_traces(th) for a in t
            )
            assert atoms_in_traces == provable_atoms(th)


class TestUrgencyEncoding:
    def test_tag_spellings(self):
        assert mark_done("a") == "!a"
        assert mark_reachable("a") == "R$a"
        assert mark_urgent("a") == "U$a"

    def test_encoding_shape_for_a_circular_theory(self):
        enc = encode_urgency(delta3())
        fs = frozenset
        assert enc.clauses == fs(
            {
                Clause("U$b", fs({"!a"}), STANDARD),
                Clause("R$b", fs({"R$a"}), STANDARD),
                Clause("U$a", fs({"R$b"}), CIRCULAR),
                Clause("U$a", fs({"!a"}), STANDARD),
                Clause("R$a", fs({"U$a"}), STANDARD),
                Clause("U$b", fs({"!b"}), STANDARD),
                Clause("R$b", fs({"U$b"}), STANDARD),
            }
        )
        assert enc.atoms == fs({"!a", "!b", "R$a", "R$b", "U$a", "U$b"})

    def test_encoded_provability_answers_urgency(self):
        enc = encode_urgency(delta3())
        assert provable_atoms(enc) & {"U$a", "U$b"} == {"U$a"}
        with_a_done = HornTheory(
            enc.atoms, enc.clauses | {Clause("!a", frozenset(), STANDARD)}
        )
        assert "U$b" in provable_atoms(with_a_done)

    def test_encoding_rejects_reserved_atoms(self):
        with pytest.raises(PreconditionError, match="tag namespace"):
            encode_urgency(HornTheory.of([std("U$a")]))

    def test_urgent_atoms_tables(self):
        th = delta1()
        assert urgent_atoms(th, ()) == frozenset({"a"})
        assert urgent_atoms(th, ("a",)) == frozenset({"b"})
        assert urgent_atoms(th, ("b",)) == frozenset({"a"})
        assert urgent_atoms(th, ("a", "b")) == frozenset()
        th = delta3()
        assert urgent_atoms(th, ()) == frozenset({"a"})
        assert urgent_atoms(th, ("a",)) == frozenset({"b"})
        assert urgent_atoms(th, ("b",)) == frozenset({"a"})
        assert urgent_atoms(delta2(), ()) == frozenset()

    def test_urgent_atoms_rejects_unknown_atoms(self):
        with pytest.raises(PreconditionError, match="unknown"):
            urgent_atoms(delta1(), ("zz",))

    def test_urgent_atoms_refuses_a_string(self):
        with pytest.raises(TypeError, match="string"):
            urgent_atoms(delta3(), "a")

    def test_reach_atoms(self):
        # The reachable atoms are the provable ones, and the R$ tags mark them.
        for th, expected in (
            (delta3(), {"a", "b"}),
            (delta2(), set()),
            (HornTheory.of([std("a", "b")]), set()),
            (star_theory(), star_theory().atoms),
        ):
            assert provable_atoms(th) == expected
            tags = provable_atoms(encode_urgency(th))
            assert {a for a in th.atoms if mark_reachable(a) in tags} == expected

    def test_urgency_queries_answer_on_tag_namespace_atoms(self):
        # urgent_atoms/provable_atoms read the game fixpoint and never encode,
        # so only encode_urgency objects to atoms in the tag namespace.
        th = HornTheory.of([std("U$x"), circ("b", "U$x"), std("c", "b")])
        spec = spec_of(th)
        assert urgent_atoms(th, ()) == frozenset({"U$x", "b"})
        for past in ((), ("U$x",), ("b",), ("U$x", "b")):
            assert urgent_atoms(th, past) == prudent_events(spec, past)
        assert provable_atoms(th) == th.atoms
        with pytest.raises(PreconditionError, match="tag namespace"):
            encode_urgency(th)
