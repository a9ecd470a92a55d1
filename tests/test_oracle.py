"""The brute-force arbiters, and small-scale equivalence with the fast paths."""

import itertools
import random

import pytest

from pacta import (
    CIRCULAR,
    Clause,
    Derivation,
    HornTheory,
    PreconditionError,
    analyze,
    check_derivation,
    circ,
    nd_derivation,
    nd_provable,
    oracle,
    proof_traces,
    provable_atoms,
    prudence_bruteforce,
    prudence_table,
    prudent_events,
    spec_of,
    std,
    theory_of,
    traces_bruteforce,
)
from pacta.logic import interleave
from pacta.model import InvalidPlayError
from pacta.oracle import _insertions, nd_derivable

from helpers import (
    DATA,
    budget,
    c1,
    c2,
    c3,
    c4,
    circular_chain,
    delta1,
    delta2,
    delta3,
    delta4,
    e5,
    prudence_by_play,
    prudence_table_reference,
    random_spec,
    random_theory,
    single_slot_family,
    sparse_family,
    star_theory,
    traces_bruteforce_reference,
)


class TestNdProvable:
    def test_fixture_theories(self):
        for th, expected in (
            (delta1(), {"a", "b"}),
            (delta2(), set()),
            (delta3(), {"a", "b"}),
            (delta4(), {"a", "b"}),
            (star_theory(), set(star_theory().atoms)),
        ):
            assert {a for a in th.atoms if nd_provable(th, a)} == expected

    def test_assumptions_are_respected(self):
        th = delta2()
        assert not nd_provable(th, "b")
        assert nd_provable(th, "b", frozenset({"a"}))
        assert nd_provable(th, "a", frozenset({"a"}))

    def test_standard_self_loop_does_not_fire(self):
        assert not nd_provable(HornTheory.of([std("a", "a")]), "a")
        assert nd_provable(HornTheory.of([circ("a", "a")]), "a")

    def test_one_search_derives_what_the_atom_queries_prove(self):
        rng = random.Random(6061)
        for _ in range(100):
            th = random_theory(rng, 2, 5)
            assumed = frozenset(rng.sample(sorted(th.atoms), rng.randint(0, 2)))
            for scope in (frozenset(), assumed):
                want = {a for a in th.atoms if nd_provable(th, a, scope)}
                assert nd_derivable(th, scope) == want | scope, (th, scope)

    def test_size_guard(self):
        at_bound = theory_of(circular_chain(12)[0])
        assert nd_provable(at_bound, "x1")
        assert check_derivation(at_bound, nd_derivation(at_bound, "x1"))
        over = theory_of(circular_chain(13)[0])
        with pytest.raises(PreconditionError, match="12 atoms"):
            nd_provable(over, "x13")
        with pytest.raises(PreconditionError, match="12 atoms"):
            nd_derivable(over)
        with pytest.raises(PreconditionError, match="12 atoms"):
            nd_derivation(over, "x13")


def chain_derivation(n, bottom):
    """The theory ``x0, x1 <- x0, …, xn <- x(n-1)`` and a proof of ``xn`` n+1
    nodes deep whose leaf applies the clause *bottom* for ``x0``."""
    th = HornTheory.of([std("x0")] + [std(f"x{k}", f"x{k - 1}") for k in range(1, n + 1)])
    rule = "CArrowE" if bottom.kind == CIRCULAR else "ArrowE"
    node = Derivation("x0", rule, frozenset(), (), bottom)
    for k in range(1, n + 1):
        node = Derivation(f"x{k}", "ArrowE", frozenset(), (node,), std(f"x{k}", f"x{k - 1}"))
    return th, node


def diamond_ladder(levels):
    """A theory whose proof of ``b<levels>`` has 3 * levels + 1 distinct nodes
    but 2 ** levels paths: ``l_i`` and ``r_i`` each rest on the one node for
    ``b_(i-1)``, and ``b_i`` on both."""
    th = HornTheory.of(
        [std("b0")]
        + [
            c
            for i in range(1, levels + 1)
            for c in (
                std(f"l{i}", f"b{i - 1}"),
                std(f"r{i}", f"b{i - 1}"),
                std(f"b{i}", f"l{i}", f"r{i}"),
            )
        ]
    )
    node = Derivation("b0", "ArrowE", frozenset(), (), std("b0"))
    for i in range(1, levels + 1):
        sides = tuple(
            Derivation(f"{s}{i}", "ArrowE", frozenset(), (node,), std(f"{s}{i}", f"b{i - 1}"))
            for s in "lr"
        )
        node = Derivation(f"b{i}", "ArrowE", frozenset(), sides, std(f"b{i}", f"l{i}", f"r{i}"))
    return th, node


class TestNdDerivation:
    def test_underivable_goal_gives_none(self):
        assert nd_derivation(delta2(), "a") is None

    def test_circular_derivation_shape(self):
        th = delta3()
        tree = nd_derivation(th, "a")
        fs = frozenset
        assert tree == Derivation(
            goal="a",
            rule="CArrowE",
            assumptions=fs(),
            premises=(
                Derivation(
                    goal="b",
                    rule="ArrowE",
                    assumptions=fs({"a"}),
                    premises=(Derivation("a", "Id", fs({"a"})),),
                    clause=std("b", "a"),
                ),
            ),
            clause=circ("a", "b"),
        )

    def test_generated_derivations_check_out(self):
        rng = random.Random(4242)
        for _ in range(200):
            th = random_theory(rng, 2, 4)
            for atom in sorted(th.atoms):
                tree = nd_derivation(th, atom)
                if tree is None:
                    assert not nd_provable(th, atom)
                else:
                    assert check_derivation(th, tree)

    def test_tampered_trees_are_rejected(self):
        th = delta3()
        good = nd_derivation(th, "a")
        assert check_derivation(th, good)

        relabeled = Derivation(good.goal, "AndI", good.assumptions, good.premises, good.clause)
        assert not check_derivation(th, relabeled)

        wrong_kind = Derivation(good.goal, "ArrowE", good.assumptions, good.premises, good.clause)
        assert not check_derivation(th, wrong_kind)

        foreign = Derivation(good.goal, "CArrowE", good.assumptions, good.premises, circ("a", "b", "b2"))
        assert not check_derivation(th, foreign)

        bare_id = Derivation("a", "Id", frozenset())
        assert not check_derivation(th, bare_id)

    def test_premise_order_must_match_the_sorted_body(self):
        th = HornTheory.of([std("c", "a", "b"), std("a"), std("b")])
        tree = nd_derivation(th, "c")
        assert tuple(p.goal for p in tree.premises) == ("a", "b")
        assert check_derivation(th, tree)
        flipped = Derivation(
            tree.goal, tree.rule, tree.assumptions, tree.premises[::-1], tree.clause
        )
        assert not check_derivation(th, flipped)

    def test_a_deep_chain_checks_without_recursion(self):
        th, top = chain_derivation(5_000, std("x0"))
        assert check_derivation(th, top)
        foreign_bottom = chain_derivation(5_000, circ("x0"))[1]
        assert not check_derivation(th, foreign_bottom)

    def test_a_deep_chain_compares_hashes_and_prints_without_recursion(self):
        top = chain_derivation(5_000, std("x0"))[1]
        with budget(1):
            assert top == chain_derivation(5_000, std("x0"))[1]
            assert top != chain_derivation(5_000, circ("x0"))[1]
        assert hash(top) == hash(chain_derivation(5_000, std("x0"))[1])
        assert repr(top) == "Derivation('x5000', 'ArrowE', ['x4999'])"

    def test_a_shared_subproof_is_compared_once(self):
        with budget(1):
            assert diamond_ladder(40)[1] == diamond_ladder(40)[1]
        # One node on the left against two different nodes on the right, in
        # both orders: a pair is keyed by both nodes, not by the left one.
        a, copy, b = (Derivation(g, "ArrowE", frozenset(), (), std(g)) for g in "aab")
        shared = Derivation("c", "ArrowE", frozenset(), (a, a), std("c", "a"))
        for premises in ((copy, b), (b, copy), (copy,)):
            assert shared != Derivation("c", "ArrowE", frozenset(), premises, std("c", "a"))

    def test_a_shared_subproof_is_checked_once(self):
        th, top = diamond_ladder(40)
        with budget(1):
            assert check_derivation(th, top)

    def test_premise_scope_is_audited(self):
        th = delta3()
        tree = nd_derivation(th, "a")
        leaked = Derivation(
            tree.goal,
            tree.rule,
            tree.assumptions,
            tuple(
                Derivation(p.goal, p.rule, frozenset(), p.premises, p.clause)
                for p in tree.premises
            ),
            tree.clause,
        )
        assert not check_derivation(th, leaked)


class TestTracesBruteforce:
    def test_fixture_theories(self):
        for th in (delta1(), delta2(), delta3(), delta4()):
            assert traces_bruteforce(th) == proof_traces(th)

    def test_conflict_free_reading_of_the_conflicted_fixture(self):
        th = HornTheory.of(e5().clauses)
        assert traces_bruteforce(th) == proof_traces(th)

    def test_random_theories(self):
        rng = random.Random(20240917)
        for _ in range(150):
            th = random_theory(rng, 2, 4)
            assert traces_bruteforce(th) == proof_traces(th)

    def test_one_atom_insertions_are_the_interleavings(self):
        # Traces have no repeats; the atom may already be in the trace.
        rng = random.Random(7919)
        atoms = "abcdefgh"
        for _ in range(2_000):
            tau = tuple(rng.sample(atoms, rng.randint(0, 7)))
            atom = rng.choice(atoms)
            assert _insertions(tau, atom) == interleave(tau, (atom,)), (tau, atom)

    def test_a_fact_insertion_commutes_with_a_circular_one(self):
        # The step the referee's skip of circular clauses whose head is a
        # fact rests on: putting h into a trace that had c put in gives a
        # trace that putting c into one with h put in gives too.
        for n in range(5):
            for tau in itertools.permutations("abcde", n):
                for h, c in itertools.permutations("abcde", 2):
                    h_last = set().union(*(_insertions(s, h) for s in _insertions(tau, c)))
                    c_last = set().union(*(_insertions(s, c) for s in _insertions(tau, h)))
                    assert h_last <= c_last, (tau, h, c)

    def test_size_guard(self):
        th = HornTheory(frozenset("abcdefghi"), frozenset())
        with pytest.raises(PreconditionError, match="8 atoms"):
            traces_bruteforce(th)
        with pytest.raises(PreconditionError, match="8 atoms"):
            traces_bruteforce_reference(th)

    def test_matches_the_naive_saturation_it_replaced(self):
        # A stride of 17, prime to the 5 choices of each single-slot theory's
        # slots, so every slot takes every choice.
        families = itertools.chain(single_slot_family(), sparse_family())
        stride = list(itertools.islice(families, 0, None, 17))
        rng = random.Random(2929)
        drawn = [random_theory(rng, 4, 5) for _ in range(40)]
        chains = [theory_of(circular_chain(n)[0]) for n in range(1, 6)]
        specs = [analyze(p.read_text(encoding="utf-8"))[0] for p in sorted(DATA.glob("*.ces"))]
        # Their conflict-free reading, as for the conflicted fixture above.
        fixtures = [HornTheory(s.events, s.clauses) for s in specs if s is not None]
        assert len(stride) == 1_648 and len(fixtures) == 12
        assert max(len(th.atoms) for th in fixtures) == 8
        for th in stride + drawn + chains + fixtures:
            assert traces_bruteforce(th) == traces_bruteforce_reference(th), th

    @pytest.mark.parametrize("n, calls_made, found", [(3, 39, 10), (4, 482, 34), (5, 6_484, 154)])
    def test_each_trace_meets_each_circular_clause_once(self, monkeypatch, n, calls_made, found):
        # Each trace of each saturation is inserted into once per circular
        # clause whose body it holds and whose head is not a fact there, so
        # the count is fixed.  The naive saturation inserted into the traces
        # of a finished subtheory on every pass: 165 to 171, about 2,300 and
        # about 37,000 calls, as the set order falls.  A circular clause whose
        # head is a fact is not applied: it would only find traces again.
        calls = []

        def counted(tau, atom):
            calls.append(atom)
            return _insertions(tau, atom)

        monkeypatch.setattr(oracle, "_insertions", counted)
        assert len(traces_bruteforce(theory_of(circular_chain(n)[0]))) == found
        assert len(calls) == calls_made


class TestPrudenceTable:
    def test_the_table_is_keyed_by_states(self):
        # c4 (a <<- b, b <<- a): one event alone is on credit, and both
        # plays of {a, b} end with an empty ledger, so they share a state.
        fs = frozenset
        assert prudence_table(c4()) == {
            (fs(), fs()): fs("ab"),
            (fs("a"), fs("a")): fs("b"),
            (fs("b"), fs("b")): fs("a"),
            (fs("ab"), fs()): fs(),
        }

    def test_two_event_tables(self):
        e, a, b = (), ("a",), ("b",)
        fs = frozenset
        assert prudence_by_play(c1()) == {
            e: fs("a"), a: fs("b"), b: fs("a"), ("a", "b"): fs(), ("b", "a"): fs()
        }
        assert prudence_by_play(c2()) == {
            e: fs(), a: fs("b"), b: fs("a"), ("a", "b"): fs(), ("b", "a"): fs()
        }
        assert prudence_by_play(c3()) == {
            e: fs("a"), a: fs("b"), b: fs("a"), ("a", "b"): fs(), ("b", "a"): fs()
        }
        assert prudence_by_play(c4()) == {
            e: fs("ab"), a: fs("b"), b: fs("a"), ("a", "b"): fs(), ("b", "a"): fs()
        }

    def test_conflicted_fixture_table(self):
        # nothing is safe to start: answering a with c strands a's credit
        fs = frozenset
        assert prudence_by_play(e5()) == {
            (): fs(),
            ("a",): fs("bc"),
            ("b",): fs("a"),
            ("c",): fs("a"),
            ("a", "b"): fs(),
            ("a", "c"): fs(),
            ("b", "a"): fs(),
            ("c", "a"): fs(),
        }

    def test_bruteforce_lookup_matches_the_table(self):
        # The lookup solves only the states below its play, the table every
        # state from the empty play: they must agree on every play.
        rng = random.Random(2121)
        multi = [random_spec(rng, max_events=6, allow_conflicts=True) for _ in range(40)]
        single = [spec_of(random_theory(rng, 3, 6)) for _ in range(12)]
        assert any(s.conflicts for s in multi)
        assert any(len(s.participants) == 3 for s in multi)
        assert any(len(s.events) == 6 for s in multi) and any(len(s.events) == 6 for s in single)
        for spec in [e5()] + multi + single:
            for play, entry in prudence_by_play(spec).items():
                assert prudence_bruteforce(spec, play) == entry, (spec, play)
            first = sorted(spec.events)[0]
            with pytest.raises(InvalidPlayError):
                prudence_bruteforce(spec, (first, first))
        with pytest.raises(InvalidPlayError):
            prudence_bruteforce(e5(), ("b", "c"))

    def test_agrees_with_the_fast_path_on_random_conflict_free_specs(self):
        rng = random.Random(77)
        for _ in range(120):
            th = random_theory(rng, 2, 4)
            spec = spec_of(th)
            for play, entry in prudence_by_play(spec).items():
                assert entry == prudent_events(spec, frozenset(play)), (th, play)

    def test_size_guard(self):
        spec = spec_of(HornTheory(frozenset("abcdefg"), frozenset()))
        with pytest.raises(PreconditionError, match="6 events"):
            prudence_table(spec)
        with pytest.raises(PreconditionError, match="6 events"):
            prudence_table_reference(spec)

    def test_matches_the_replaced_referee(self):
        fixtures = [analyze(p.read_text(encoding="utf-8"))[0] for p in DATA.glob("*.ces")]
        small = [s for s in fixtures if s is not None and len(s.events) <= 6]
        rng = random.Random(1313)
        multi = [random_spec(rng, max_events=6, allow_conflicts=True) for _ in range(100)]
        single = [spec_of(random_theory(rng, 3, 6)) for _ in range(40)]
        single += [spec_of(random_theory(rng, 6, 6)) for _ in range(10)]
        bare = spec_of(HornTheory(frozenset("abcdef"), frozenset()))
        # Conflicts, three owners and payoffs left out; some multi-party
        # specs drop entries after the first pass, so a referee that skips
        # an entry it must judge again fails here.
        assert len(small) == 11
        assert any(s.conflicts for s in multi)
        assert any(len(s.participants) == 3 for s in multi)
        assert any(set(s.payoffs) != s.participants for s in multi)
        with budget(20):
            for spec in small + multi + single + [bare]:
                assert prudence_by_play(spec) == prudence_table_reference(spec), spec
        # Without clauses every event stays on credit, so the ledger is the
        # event set: one state per set, 2^6, for 1,957 plays.
        assert len(prudence_by_play(bare)) == 1_957
        assert len(prudence_table(bare)) == 64


def test_nd_matches_the_fixpoint_on_random_theories():
    rng = random.Random(5150)
    for _ in range(400):
        th = random_theory(rng)
        fast = provable_atoms(th)
        slow = frozenset(a for a in th.atoms if nd_provable(th, a))
        assert fast == slow, th
