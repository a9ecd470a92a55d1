from itertools import combinations

import pytest

from pacta import (
    CIRCULAR,
    STANDARD,
    OfferRequestPayoff,
    PreconditionError,
    agreement,
    parse,
    print_spec,
    provable_events,
    shy_dancers,
    validate,
)
from pacta import gen
from pacta.gen import MAX_SHY_DANCERS_N, _neighbours


class TestNeighbourhoods:
    def test_corner_edge_and_interior_sizes(self):
        assert len(_neighbours((1, 1), 3)) == 3
        assert len(_neighbours((1, 2), 3)) == 5
        assert len(_neighbours((2, 2), 3)) == 8

    def test_neighbourhood_excludes_the_cell_itself(self):
        assert (2, 2) not in _neighbours((2, 2), 4)

    def test_neighbourhood_is_symmetric(self):
        n = 4
        cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for c in cells:
            for d in _neighbours(c, n):
                assert c in _neighbours(d, n)


class TestShyDancers:
    def test_grid_shape_and_naming(self):
        spec = shy_dancers(2)
        assert spec.events == frozenset({"e1_1", "e1_2", "e2_1", "e2_2"})
        assert spec.participants == frozenset({"g1_1", "g1_2", "g2_1", "g2_2"})
        assert spec.owner["e1_2"] == "g1_2"
        assert not spec.conflicts

    def test_one_clause_per_neighbour_pair(self):
        spec = shy_dancers(3)
        for i in range(1, 4):
            for j in range(1, 4):
                head = f"e{i}_{j}"
                mine = {c for c in spec.clauses if c.head == head}
                k = len(_neighbours((i, j), 3))
                assert len(mine) == k * (k - 1) // 2
                bodies = {frozenset(c.body) for c in mine}
                expected = {
                    frozenset({f"e{p}_{q}", f"e{r}_{s}"})
                    for (p, q), (r, s) in combinations(_neighbours((i, j), 3), 2)
                }
                assert bodies == expected

    def test_payoffs_ask_for_a_neighbour_pair_per_dance(self):
        spec = shy_dancers(2)
        payoff = spec.payoffs["g1_1"]
        assert isinstance(payoff, OfferRequestPayoff)
        assert len(payoff.pairs) == 3
        neighbour_events = {f"e{i}_{j}" for i, j in _neighbours((1, 1), 2)}
        for offers, requests in payoff.pairs:
            assert offers == requests
            assert len(requests) == 2 and requests <= neighbour_events

    def test_everyone_promises_by_default_and_nobody_with_an_empty_list(self):
        assert {c.kind for c in shy_dancers(3).clauses} == {CIRCULAR}
        assert {c.kind for c in shy_dancers(3, circular=[]).clauses} == {STANDARD}

    def test_listing_every_cell_is_the_default(self):
        cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        assert shy_dancers(3, circular=cells) == shy_dancers(3)

    def test_circular_cells_promise_their_dance(self):
        spec = shy_dancers(3, circular=[(1, 1), (2, 3)])
        kinds = {c.head: {x.kind for x in spec.clauses if x.head == c.head} for c in spec.clauses}
        assert kinds["e1_1"] == {CIRCULAR}
        assert kinds["e2_3"] == {CIRCULAR}
        assert kinds["e2_2"] == {STANDARD}

    def test_generated_specs_are_valid_and_round_trip(self):
        for n in (2, 3, 4):
            spec = shy_dancers(n)
            assert validate(spec) == []
            assert parse(print_spec(spec)) == spec

    def test_rejects_degenerate_grids_and_stray_cells(self):
        with pytest.raises(PreconditionError):
            shy_dancers(1)
        with pytest.raises(PreconditionError, match=r"outside the 3x3 grid: \[\(0, 2\)\]"):
            shy_dancers(3, circular=[(0, 2)])
        with pytest.raises(PreconditionError):
            shy_dancers(3, circular=[(1, 4)])

    def test_an_oversized_grid_is_refused_before_anything_is_built(self, monkeypatch):
        # The grid's first allocation is its list of cells, built with range.
        def built(*_):
            raise AssertionError("the grid was being built")

        monkeypatch.setattr(gen, "range", built, raising=False)
        with pytest.raises(PreconditionError, match=f"n <= {MAX_SHY_DANCERS_N}, got 100000000"):
            shy_dancers(100_000_000)
        with pytest.raises(PreconditionError, match=f"n <= {MAX_SHY_DANCERS_N}, got"):
            shy_dancers(MAX_SHY_DANCERS_N + 1)
        with pytest.raises(AssertionError, match="being built"):
            shy_dancers(MAX_SHY_DANCERS_N)  # the cap itself is built


class TestPartyDynamics:
    def test_a_fully_bold_party_dances(self):
        spec = shy_dancers(2)
        assert provable_events(spec) == spec.events
        assert agreement(spec)

    def test_a_fully_shy_party_never_starts(self):
        spec = shy_dancers(3, circular=[])
        assert provable_events(spec) == frozenset()
        assert not agreement(spec)

    def test_a_lone_bold_guest_cannot_start_the_party(self):
        spec = shy_dancers(2, circular=[(1, 1)])
        assert provable_events(spec) == frozenset()
        assert not agreement(spec)

    def test_two_bold_guests_in_one_neighbourhood_suffice(self):
        spec = shy_dancers(3, circular=[(1, 1), (1, 2)])
        assert agreement(spec)
        assert provable_events(spec) == spec.events
