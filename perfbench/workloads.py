"""The four workloads: seeded inputs on disk, a fixed query list, and the
expected answer of every query.

A query is one ``pacta`` command line.  Its expected exit code and JSON
output come from the closed-form facts in :mod:`families` or, for the small
random and fixture contracts, from the brute-force referees in
``pacta.oracle``; never from the fast path being timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pacta import dsl, gen, oracle
from pacta.logic import HornTheory
from pacta.model import Clause as PClause
from pacta.model import ContractSpec, GoalPayoff, OfferRequestPayoff

import families as fam
from families import Contract

DATA = Path(__file__).parent / "data"

# Size ladders.  The headline family of each workload is the one whose
# largest query gives ``top_ms`` and whose ladder gives ``time_exp``.
CASCADE_M = (8, 12, 16, 20, 24, 32, 40, 48, 56, 64)
CASCADE_PROVE_M = (8, 16, 24, 32, 48)
#: Run once by the traced run for its baseline counts, outside the timed
#: list: at 1 to 1.5 s a query, too few repeats fit in a run to time it.
CASCADE_PROBE_M = 80
GRID_AGREE_N = (6, 8, 10, 12, 14)
GRID_PROVE_N = (6, 8, 10, 12)
STANDARD_GRID_N = (8, 12)
SIMULATE_N = (4, 6, 8)
CREDITS_N = (50, 71, 100, 141, 200, 283, 400)
REPLAY_N = (50, 100, 200)
CASCADE_PLAY_M = (25, 50)
PREFIX_CHAIN_N = 100
PREFIX_SAMPLES = 6
URGENT_N = 24
CHECK_STANDARD_N = (40, 80, 160)
CHECK_CIRCULAR_N = (3, 4, 5)
TRACES_N = (40, 57, 80, 113, 160)
ENCODE_N = (40, 160)
ORACLE_TRACES_MAX_N = 4
RANDOM_THEORIES = 120
RANDOM_SPECS = 60
BROKEN_SHARE = 0.15
VALIDATE_N = (16, 64, 256, 1024, 4096)

HEADLINE = {
    "agree-ladder": "agree on the withdrawal cascade",
    "play-replay": "credits on the in-order circular chain",
    "trace-logic": "traces --max 10 on the standard chain",
    "small-files": "validate on a standard chain file",
}

Expect = dict | Callable[[dict], bool] | None


@dataclass(frozen=True)
class Query:
    """One command line with its expected exit code and JSON output.

    ``payload`` is a dict of keys the output must equal, a predicate over
    the parsed output, or None when the command must print nothing (errors
    go to stderr).  ``family``/``size`` place the query on the headline ladder.
    """

    qid: str
    argv: tuple[str, ...]
    code: int
    payload: Expect = None
    family: str | None = None
    size: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def check(query: Query, code: int, stdout: str) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if code != query.code:
        return f"exit {code}, expected {query.code}"
    if query.payload is None:
        return None if not stdout else "unexpected output on stdout"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if callable(query.payload):
        return None if query.payload(out) else "wrong answer"
    for key, want in query.payload.items():
        if out.get(key) != want:
            return f"wrong {key}"
    return None


class Inputs:
    """Writes the generated contract files of one workload."""

    def __init__(self, directory: Path, rng: random.Random):
        self.directory = directory
        self.rng = rng
        directory.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = self.directory / f"{name}.ces"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def contract(self, name: str, contract: Contract) -> str:
        return self.write(name, fam.to_ces(contract))


def _csv(events) -> str:
    return ",".join(events)


# --- agree-ladder ------------------------------------------------------------------


def _agree_ladder(io: Inputs) -> list[Query]:
    qs: list[Query] = []
    for m in CASCADE_M:
        cas = fam.Cascade.make(m)
        path = io.contract(f"cascade{m}", cas.contract)
        qs.append(Query(f"agree cascade m={m}", ("agree", "--json", path), 1,
                        {"agreement": False, "provable": cas.provable}, "headline", m))
        if m in CASCADE_PROVE_M:
            qs.append(Query(f"prove cascade m={m}", ("prove", "--json", path), 0,
                            {"provable": cas.provable}))
    for n in sorted(set(GRID_AGREE_N) | set(GRID_PROVE_N)):
        corner = [(1, 1), (1, 2), (2, 1), (2, 2)]
        path = io.write(f"grid{n}", dsl.print_spec(gen.shy_dancers(n, corner)))
        every = sorted(f"e{a}_{b}" for a in range(1, n + 1) for b in range(1, n + 1))
        if n in GRID_AGREE_N:
            qs.append(Query(f"agree corner grid n={n}", ("agree", "--json", path), 0,
                            {"agreement": True, "provable": every}))
        if n in GRID_PROVE_N:
            qs.append(Query(f"prove corner grid n={n}", ("prove", "--json", path), 0,
                            {"provable": every}))
    for n in STANDARD_GRID_N:
        path = io.write(f"stdgrid{n}", dsl.print_spec(gen.shy_dancers(n, [])))
        qs.append(Query(f"agree standard grid n={n}", ("agree", "--json", path), 1,
                        {"agreement": False, "provable": []}))
        qs.append(Query(f"prove standard grid n={n}", ("prove", "--json", path), 0,
                        {"provable": []}))
    return qs


# --- play-replay -----------------------------------------------------------------


def _all_win(participants: list[str]) -> Callable[[dict], bool]:
    row = {"innocent": True, "credit_free": True, "wins": True}
    return lambda out: out.get("participants") == {p: row for p in participants}


def _ledger(per_prefix: list[list[str]]) -> dict:
    return {"per_prefix": per_prefix, "final": per_prefix[-1]}


def _play_replay(io: Inputs) -> list[Query]:
    qs: list[Query] = []
    for n in SIMULATE_N:
        path = io.write(f"dancers{n}", dsl.print_spec(gen.shy_dancers(n)))
        guests = [f"g{a}_{b}" for a in range(1, n + 1) for b in range(1, n + 1)]
        qs.append(Query(f"simulate dancers n={n}", ("simulate", "--json", path),
                        0, _all_win(guests)))
    for n in sorted(set(CREDITS_N) | set(REPLAY_N) | {PREFIX_CHAIN_N}):
        chain = fam.CircularChain.make(n)
        path = io.contract(f"circ{n}", chain.contract)
        forward, backward = _csv(chain.x), _csv(reversed(chain.x))
        if n in CREDITS_N:
            qs.append(Query(f"credits circular n={n}", ("credits", "--json", "--play", forward, path),
                            0, _ledger(chain.ledger(reverse=False)), "headline", n))
        if n in REPLAY_N:
            qs.append(Query(f"credits reversed circular n={n}",
                            ("credits", "--json", "--play", backward, path),
                            0, _ledger(chain.ledger(reverse=True))))
            for label, play in (("", forward), ("reversed ", backward)):
                qs.append(Query(f"verdict {label}circular n={n}",
                                ("verdict", "--json", "--play", play, path),
                                0, {"participants": chain.verdict()}))
        if n == PREFIX_CHAIN_N:
            qs += _prefix_queries(f"circular n={n}", path, chain.x, chain.prudent_after,
                                  chain.contract)
    for m in CASCADE_PLAY_M:
        cas = fam.Cascade.make(m)
        path = io.contract(f"cascadeplay{m}", cas.contract)
        play = _csv(cas.play)
        qs.append(Query(f"credits cascade play m={m}", ("credits", "--json", "--play", play, path),
                        0, _ledger(cas.ledger())))
        qs.append(Query(f"verdict cascade play m={m}", ("verdict", "--json", "--play", play, path),
                        0, {"participants": cas.verdict()}))
        if m == max(CASCADE_PLAY_M):
            qs += _prefix_queries(f"cascade m={m}", path, cas.play, cas.prudent_after,
                                  cas.contract)
    return qs


def _prefix_queries(label, path, play, prudent_after, contract) -> list[Query]:
    """``prudent --past`` and ``strategy --past`` at evenly spaced prefixes."""
    qs = []
    for i in range(PREFIX_SAMPLES):
        k = round(i * len(play) / (PREFIX_SAMPLES - 1))
        past = _csv(play[:k])
        prudent = prudent_after(k)
        qs.append(Query(f"prudent {label} k={k}", ("prudent", "--json", "--past", past, path),
                        0, {"prudent": prudent}))
        p = contract.participants[i % len(contract.participants)]
        offers = sorted(set(prudent) & contract.owned_by(p))
        qs.append(Query(f"strategy {p} {label} k={k}",
                        ("strategy", "--json", "--participant", p, "--past", past, path),
                        0, {"offers": offers}))
    return qs


# --- trace-logic -----------------------------------------------------------------


def to_theory(contract: Contract) -> HornTheory:
    return HornTheory(frozenset(contract.owner), frozenset(_clauses(contract)))


def _clauses(contract: Contract) -> list[PClause]:
    return [PClause(h, frozenset(b), k) for h, b, k in contract.clauses]


def _trace_logic(io: Inputs) -> list[Query]:
    qs: list[Query] = []
    std = fam.StandardChain.make(URGENT_N)
    circ = fam.CircularChain.make(URGENT_N)
    std_path = io.contract(f"urgent-std{URGENT_N}", std.contract)
    circ_path = io.contract(f"urgent-circ{URGENT_N}", circ.contract)
    for k in range(URGENT_N + 1):
        qs.append(Query(f"urgent standard n={URGENT_N} k={k}",
                        ("urgent", "--json", "--past", _csv(std.s[:k]), std_path),
                        0, {"urgent": std.urgent_after(k)}))
        qs.append(Query(f"urgent circular n={URGENT_N} k={k}",
                        ("urgent", "--json", "--past", _csv(circ.x[:k]), circ_path),
                        0, {"urgent": circ.prudent_after(k)}))
    for n in sorted(set(CHECK_STANDARD_N) | set(TRACES_N) | set(ENCODE_N)):
        chain = fam.StandardChain.make(n)
        path = io.contract(f"std{n}", chain.contract)
        if n in CHECK_STANDARD_N:
            qs += _check_pair(f"standard n={n}", path, chain.s, chain.non_trace, True, False)
        if n in TRACES_N:
            qs.append(Query(f"traces standard n={n}", ("traces", "--json", "--max", "10", path),
                            0, {"traces": chain.traces(10)}, "headline", n))
        if n in ENCODE_N:
            qs.append(Query(f"encode standard n={n}", ("encode", "--json", path),
                            0, fam.expected_encoding(chain.contract)))
    for n in CHECK_CIRCULAR_N:
        chain = fam.CircularChain.make(n)
        path = io.contract(f"circ{n}", chain.contract)
        yes, no = True, False
        if n <= ORACLE_TRACES_MAX_N:
            traces = oracle.traces_bruteforce(to_theory(chain.contract))
            yes, no = chain.x in traces, chain.non_trace in traces
        qs += _check_pair(f"circular n={n}", path, chain.x, chain.non_trace, yes, no)
    qs.append(Query(f"encode circular n={URGENT_N}", ("encode", "--json", circ_path),
                    0, fam.expected_encoding(circ.contract)))
    return qs


def _check_pair(label, path, yes_trace, no_trace, yes, no) -> list[Query]:
    return [
        Query(f"check-trace {label} {name}", ("check-trace", "--json", "--trace", _csv(seq), path),
              0 if ok else 1, {"is_trace": ok})
        for name, seq, ok in (("yes", yes_trace, yes), ("no", no_trace, no))
    ]


# --- small-files -----------------------------------------------------------------


def to_spec(contract: Contract) -> ContractSpec:
    payoffs = {}
    for p, payoff in contract.payoffs.items():
        if payoff[0] == "goal":
            payoffs[p] = GoalPayoff(frozenset(payoff[1]))
        else:
            payoffs[p] = OfferRequestPayoff(
                tuple((frozenset(o), frozenset(r)) for o, r in payoff[1])
            )
    return ContractSpec.of(contract.owner, _clauses(contract), contract.conflicts,
                           payoffs, contract.participants)


class References:
    """Oracle answers for one small contract, computed on demand."""

    def __init__(self, spec: ContractSpec, payoffs: dict):
        self.spec = spec
        self.payoffs = payoffs
        self.conflicted = bool(spec.conflicts)
        self.theory = HornTheory(spec.events, spec.clauses)
        self._traces = None

    def provable(self, assumed: frozenset[str] = frozenset()) -> list[str]:
        return sorted(
            a for a in self.theory.atoms - assumed if oracle.nd_provable(self.theory, a, assumed)
        )

    def prudent(self, past: tuple[str, ...], single_owner: bool = False) -> list[str]:
        spec = self.spec
        if single_owner:
            spec = ContractSpec.of({e: "T" for e in spec.events}, spec.clauses)
        return sorted(oracle.prudence_bruteforce(spec, past))

    def traces(self) -> list[tuple[str, ...]]:
        if self._traces is None:
            self._traces = sorted(oracle.traces_bruteforce(self.theory), key=lambda t: (len(t), t))
        return self._traces

    def agreement(self) -> tuple[int, dict | None]:
        if self.conflicted or set(self.spec.participants) - set(self.payoffs):
            return 3, None
        provable = self.provable()
        yes = all(fam.payoff_holds(self.payoffs[p], frozenset(provable))
                  for p in self.spec.participants)
        return (0 if yes else 1), {"agreement": yes, "provable": provable}


def _small_queries(label: str, path: str, refs: References, commands, rng) -> list[Query]:
    qs = []
    events = sorted(refs.spec.events)
    past = tuple(rng.sample(events, rng.randint(0, len(events) - 1)))
    for command in commands:
        qid = f"{command} {label}"
        if command == "validate":
            qs.append(Query(qid, ("validate", "--json", path), 0, {"ok": True, "diagnostics": []}))
        elif refs.conflicted:
            # Every command but validate needs a conflict-free contract.
            argv = {"prudent": ("--past", _csv(past)), "reachable": ("--past", _csv(past)),
                    "urgent": ("--past", _csv(past)), "check-trace": ("--trace", _csv(past)),
                    "traces": ("--max", "5")}.get(command, ())
            qs.append(Query(qid, (command, "--json", *argv, path), 3))
        elif command == "prove":
            qs.append(Query(qid, ("prove", "--json", path), 0, {"provable": refs.provable()}))
        elif command == "agree":
            code, payload = refs.agreement()
            qs.append(Query(qid, ("agree", "--json", path), code, payload))
        elif command in ("prudent", "urgent", "reachable"):
            if command == "reachable":
                want = refs.provable(frozenset(past))
            else:  # urgent asks the Horn theory, a contract with a single owner
                want = refs.prudent(past, single_owner=command == "urgent")
            qs.append(Query(f"{qid} past={_csv(past)}",
                            (command, "--json", "--past", _csv(past), path), 0, {command: want}))
        elif command == "traces":
            want = [list(t) for t in refs.traces()[:5]]
            qs.append(Query(qid, ("traces", "--json", "--max", "5", path), 0, {"traces": want}))
        elif command == "check-trace":
            traces = refs.traces()
            candidates = {rng.choice(traces), tuple(rng.sample(events, rng.randint(1, len(events))))}
            for seq in sorted(candidates):
                ok = seq in traces
                qs.append(Query(f"{qid} trace={_csv(seq)}",
                                ("check-trace", "--json", "--trace", _csv(seq), path),
                                0 if ok else 1, {"is_trace": ok}))
        elif command == "encode":
            contract = fam.Contract(("T",), {e: "T" for e in events},
                                    tuple((c.head, tuple(sorted(c.body)), c.kind)
                                          for c in refs.spec.clauses))
            qs.append(Query(qid, ("encode", "--json", path), 0, fam.expected_encoding(contract)))
        else:
            raise ValueError(command)
    return qs


THEORY_COMMANDS = ("prove", "urgent", "encode")
SPEC_COMMANDS = ("validate", "prudent", "reachable", "agree")
FIXTURE_COMMANDS = ("validate", "prove", "agree", "encode", "reachable")
ORACLE_COMMANDS = ("prudent", "urgent", "traces", "check-trace")
TRACE_COMMANDS = ("traces", "check-trace")
# ``prudence_bruteforce`` is guarded at 6 events.  ``traces_bruteforce``
# shares nothing between subtheories: up to 1.4 s on a random 4-atom theory
# and 5.7 s on the 8-atom star fixture, so set-up asks it only about fixtures
# of at most 6 events and random theories of at most 2 atoms.  On 3 atoms
# the program's own trace saturation already takes up to 15 ms, and how many
# such theories a seed drew decided this workload's tail; trace-logic is
# where that cost is measured.
ORACLE_MAX_EVENTS = 6
ORACLE_TRACES_MAX_ATOMS = 2


def _payoff_data(spec: ContractSpec) -> dict:
    return {
        p: ("goal", tuple(pay.goal)) if isinstance(pay, GoalPayoff) else ("pairs", pay.pairs)
        for p, pay in spec.payoffs.items()
    }


def _small_files(io: Inputs) -> list[Query]:
    rng = io.rng
    qs: list[Query] = []
    for fixture in sorted(DATA.glob("*.ces")):
        text = fixture.read_text(encoding="utf-8")
        path = io.write(f"fixture-{fixture.stem}", text)
        spec, diags = dsl.analyze(text)
        if spec is None:
            codes = sorted({d.code for d in diags})
            qs.append(Query(f"validate fixture {fixture.stem}", ("validate", "--json", path), 1,
                            lambda out, codes=codes: not out["ok"] and sorted(
                                {d["code"] for d in out["diagnostics"]}) == codes))
            qs.append(Query(f"prove fixture {fixture.stem}", ("prove", "--json", path), 2))
            continue
        commands = FIXTURE_COMMANDS
        if len(spec.events) <= ORACLE_MAX_EVENTS:
            commands += ORACLE_COMMANDS
        qs += _small_queries(f"fixture {fixture.stem}", path, References(spec, _payoff_data(spec)),
                             commands, rng)
    for i in range(RANDOM_THEORIES):
        contract = fam.random_theory(rng)
        path = io.contract(f"theory{i}", contract)
        commands = THEORY_COMMANDS
        if len(contract.owner) <= ORACLE_TRACES_MAX_ATOMS:
            commands += TRACE_COMMANDS
        qs += _small_queries(f"theory{i}", path, References(to_spec(contract), {}), commands, rng)
    for i in range(RANDOM_SPECS):
        contract = fam.random_spec(rng)
        text = fam.to_ces(contract)
        if rng.random() < BROKEN_SHARE:
            text, code = fam.broken_text(text, contract, rng)
            path = io.write(f"broken{i}", text)
            qs.append(Query(f"validate broken{i}", ("validate", "--json", path), 1,
                            lambda out, code=code: not out["ok"] and code in {
                                d["code"] for d in out["diagnostics"]}))
            qs.append(Query(f"agree broken{i}", ("agree", "--json", path), 2))
            continue
        path = io.write(f"spec{i}", text)
        qs += _small_queries(f"spec{i}", path, References(to_spec(contract), contract.payoffs),
                             SPEC_COMMANDS, rng)
    for n in VALIDATE_N:
        chain = fam.StandardChain.make(n)
        path = io.contract(f"validate{n}", chain.contract)
        qs.append(Query(f"validate standard n={n}", ("validate", "--json", path), 0,
                        {"ok": True, "diagnostics": []}, "headline", n))
    return qs


BUILDERS = {
    "agree-ladder": _agree_ladder,
    "play-replay": _play_replay,
    "trace-logic": _trace_logic,
    "small-files": _small_files,
}


def probes(workload: str, directory: Path) -> list[Query]:
    """Extra queries whose call counts the traced run reports."""
    if workload != "agree-ladder":
        return []
    io = Inputs(directory, random.Random("probes"))
    cas = fam.Cascade.make(CASCADE_PROBE_M)
    path = io.contract(f"cascade{CASCADE_PROBE_M}", cas.contract)
    return [Query(f"agree cascade m={CASCADE_PROBE_M}", ("agree", "--json", path), 1,
                  {"agreement": False, "provable": cas.provable})]


def build(workload: str, seed: int, directory: Path) -> list[Query]:
    """Write the workload's inputs under *directory* and return its queries."""
    io = Inputs(directory, random.Random(f"{workload}:{seed}"))
    return BUILDERS[workload](io)
