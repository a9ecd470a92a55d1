"""Generated contract families for experiments and stress tests.

Currently one family: *shy dancers*.  Guests stand on an n×n grid and each
will only step onto the dance floor once at least two of their (Chebyshev)
neighbours are dancing.  A guest's willingness can be standard — the
neighbours must actually be dancing first — or circular — a promise to dance
provided two neighbours are guaranteed to dance eventually.  Each guest is
satisfied exactly when two of their neighbours end up dancing, expressed as
one offers/requests pair per neighbour pair.

Whether the party happens at all is then a question about how the circular
guests are placed; a lone circular guest can never bootstrap the floor.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import Iterable

from .model import (
    CIRCULAR,
    STANDARD,
    Clause,
    ContractSpec,
    OfferRequestPayoff,
    PreconditionError,
)

Cell = tuple[int, int]

# The largest grid side ``shy_dancers`` builds: 10,000 guests and 272,844
# clauses, which ``pacta gen shy-dancers --n 100`` generates and prints
# (26 MB of text) in 1.5–1.7 s on a 2-core x86-64 VM.  A larger n is refused
# before anything is built, so an oversized request cannot run without bound.
MAX_SHY_DANCERS_N = 100


def _event(cell: Cell) -> str:
    return f"e{cell[0]}_{cell[1]}"


def _guest(cell: Cell) -> str:
    return f"g{cell[0]}_{cell[1]}"


def _neighbours(cell: Cell, n: int) -> list[Cell]:
    i, j = cell
    out = []
    for x in range(max(1, i - 1), min(n, i + 1) + 1):
        for y in range(max(1, j - 1), min(n, j + 1) + 1):
            if (x, y) != (i, j):
                out.append((x, y))
    return out


def shy_dancers(n: int, circular: Iterable[Cell] | None = None) -> ContractSpec:
    """The n×n shy-dancers contract.

    *circular* lists the grid cells (1-based) whose guests promise on credit;
    ``None`` makes every guest circular.  *n* runs from 2 to
    :data:`MAX_SHY_DANCERS_N`.
    """
    if n < 2:
        raise PreconditionError("shy_dancers needs n >= 2")
    if n > MAX_SHY_DANCERS_N:
        raise PreconditionError(f"shy_dancers takes n <= {MAX_SHY_DANCERS_N}, got {n}")
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if circular is None:
        circular_cells = set(cells)
    else:
        circular_cells = set(circular)
        stray = sorted(circular_cells.difference(cells))
        if stray:
            raise PreconditionError(f"cells outside the {n}x{n} grid: {stray}")

    event = {c: _event(c) for c in cells}
    owner = {event[c]: _guest(c) for c in cells}
    clauses: list[Clause] = []
    payoffs: dict[str, OfferRequestPayoff] = {}
    for cell in cells:
        head = event[cell]
        kind = CIRCULAR if cell in circular_cells else STANDARD
        neighbour_events = sorted(map(event.__getitem__, _neighbours(cell, n)))
        # One frozenset per pair, shared by the clause and the payoff pair.
        pairs = list(map(frozenset, combinations(neighbour_events, 2)))
        # Built as the loader builds clauses: the kind is one of the two and
        # each body a frozenset, so Clause.__new__ has nothing to check.
        clauses += map(tuple.__new__, repeat(Clause), zip(repeat(head), pairs, repeat(kind)))
        payoffs[owner[head]] = OfferRequestPayoff(frozenset(zip(pairs, pairs)))
    return ContractSpec.of(owner=owner, clauses=clauses, payoffs=payoffs)
