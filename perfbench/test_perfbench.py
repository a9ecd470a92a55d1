"""Tests of the benchmark itself.

Run with ``python -m pytest perfbench -q`` from the repository root.  The
closed-form facts the workloads check answers against are pinned here to
``pacta.oracle`` at every size the oracles reach: contracts of at most six
events for the game-tree prudence table, chains of at most four atoms for
trace enumeration.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pacta import cli, game, gen, oracle
from pacta.model import ContractSpec

import families as fam
import run
import tracer
import workloads
from families import CIRCULAR, STANDARD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def nd_provable_set(contract) -> list[str]:
    theory = workloads.to_theory(contract)
    return sorted(a for a in theory.atoms if oracle.nd_provable(theory, a))


def prudent(contract, past, single_owner=False) -> list[str]:
    spec = workloads.to_spec(contract)
    if single_owner:
        spec = ContractSpec.of({e: "T" for e in spec.events}, spec.clauses)
    return sorted(oracle.prudence_bruteforce(spec, tuple(past)))


def ledger_by_definition(contract, play) -> list[list[str]]:
    """An event is on credit after a prefix unless a standard clause's body
    precedes it or a circular clause's body lies inside the prefix."""
    out = []
    for i in range(len(play) + 1):
        whole = set(play[:i])
        pending = []
        for j, e in enumerate(play[:i]):
            past = set(play[:j])
            justified = any(
                h == e and set(b) <= (past if k == STANDARD else whole)
                for h, b, k in contract.clauses
            )
            if not justified:
                pending.append(e)
        out.append(sorted(pending))
    return out


def verdict_by_definition(contract, play) -> dict:
    """Innocent: no prudent owned event left (game-tree oracle); credit-free:
    nothing owned on credit; wins: innocent and either someone else is
    culpable or the payoff holds credit-free."""
    pending = set(prudent(contract, play))
    final = set(ledger_by_definition(contract, play)[-1])
    done = frozenset(play)
    rows = {}
    innocent = {p: not (pending & contract.owned_by(p)) for p in contract.participants}
    for p in contract.participants:
        cf = not (final & contract.owned_by(p))
        others = any(not innocent[q] for q in contract.participants if q != p)
        won = innocent[p] and (others or (fam.payoff_holds(contract.payoffs[p], done) and cf))
        rows[p] = {"innocent": innocent[p], "credit_free": cf, "wins": won}
    return rows


def shortlex(traces) -> list[tuple[str, ...]]:
    return sorted(traces, key=lambda t: (len(t), t))


# --- closed-form facts against the oracles ----------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cascade_proves_exactly_the_standard_chain(m):
    cas = fam.Cascade.make(m)
    provable = nd_provable_set(cas.contract)
    assert provable == cas.provable
    done = frozenset(provable)
    assert not all(fam.payoff_holds(pay, done) for pay in cas.contract.payoffs.values())


@pytest.mark.parametrize("m", [1, 2])
def test_cascade_play_never_discharges(m):
    cas = fam.Cascade.make(m)
    assert ledger_by_definition(cas.contract, cas.play) == cas.ledger()
    for k in range(m + 1):
        assert prudent(cas.contract, cas.play[:k]) == cas.prudent_after(k)
    assert verdict_by_definition(cas.contract, cas.play) == cas.verdict()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_standard_chain_facts(n):
    chain = fam.StandardChain.make(n)
    assert nd_provable_set(chain.contract) == sorted(chain.s)
    for k in range(n + 1):
        assert prudent(chain.contract, chain.s[:k], single_owner=True) == chain.urgent_after(k)
    if n <= 4:
        traces = oracle.traces_bruteforce(workloads.to_theory(chain.contract))
        assert [list(t) for t in shortlex(traces)] == chain.traces(n + 1)
        assert chain.traces(10) == [list(t) for t in shortlex(traces)[:10]]
        assert chain.non_trace not in traces


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_circular_chain_facts(n):
    chain = fam.CircularChain.make(n)
    contract = chain.contract
    assert nd_provable_set(contract) == sorted(chain.x)
    for k in range(n + 1):
        assert prudent(contract, chain.x[:k]) == chain.prudent_after(k)
        assert prudent(contract, chain.x[:k], single_owner=True) == chain.prudent_after(k)
    for reverse in (False, True):
        play = chain.x[::-1] if reverse else chain.x
        assert ledger_by_definition(contract, play) == chain.ledger(reverse)
        assert verdict_by_definition(contract, play) == chain.verdict()
    if n <= 4:
        traces = oracle.traces_bruteforce(workloads.to_theory(contract))
        assert chain.x in traces
        assert chain.non_trace not in traces


def _grid(n, circular):
    spec = gen.shy_dancers(n, circular)
    theory = workloads.HornTheory(spec.events, spec.clauses)
    return spec, sorted(a for a in theory.atoms if oracle.nd_provable(theory, a))


@pytest.mark.parametrize("corner", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_a_circular_corner_makes_every_dancer_provable(corner):
    i, j = corner
    spec, provable = _grid(3, [(i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)])
    assert provable == sorted(spec.events)
    assert all(pay.holds(frozenset(provable)) for pay in spec.payoffs.values())


@pytest.mark.parametrize("n", [2, 3])
def test_grids_all_standard_prove_nothing_all_circular_prove_everything(n):
    spec, provable = _grid(n, [])
    assert provable == []
    spec, provable = _grid(n, None)
    assert provable == sorted(spec.events)
    assert all(pay.holds(frozenset(provable)) for pay in spec.payoffs.values())


def test_expected_encoding_follows_the_definition():
    contract = fam.Contract(("T",), {"a": "T", "b": "T"},
                            (fam.clause("a", "b", kind=CIRCULAR), fam.clause("b", "a")))
    clauses = [(c["head"], c["body"], c["kind"]) for c in fam.expected_encoding(contract)["clauses"]]
    assert sorted(clauses) == sorted([
        ("U$a", ["R$b"], CIRCULAR),
        ("U$b", ["!a"], STANDARD),
        ("R$b", ["R$a"], STANDARD),
        ("U$a", ["!a"], STANDARD),
        ("U$b", ["!b"], STANDARD),
        ("R$a", ["U$a"], STANDARD),
        ("R$b", ["U$b"], STANDARD),
    ])


# --- workloads ---------------------------------------------------------------------


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BUILDERS)


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_the_same_seed_gives_the_same_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    second = workloads.build(workload, 7, tmp_path / "b")
    assert [q.qid for q in first] == [q.qid for q in second]
    assert len({q.qid for q in first}) == len(first)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text() for f in files)
    assert any(q.family == "headline" for q in first)


def test_the_seed_draws_the_random_contracts(tmp_path):
    workloads.build("small-files", 7, tmp_path / "a")
    workloads.build("small-files", 8, tmp_path / "b")

    def texts(directory):
        return [p.read_text() for p in sorted(directory.glob("theory*.ces"))]

    assert texts(tmp_path / "a") != texts(tmp_path / "b")


def test_expected_no_answers_count_as_correct():
    query = workloads.Query("q", ("agree",), 1, {"agreement": False})
    assert workloads.check(query, 1, '{"agreement": false}') is None
    assert workloads.check(workloads.Query("q", ("prove",), 3), 3, "") is None
    assert workloads.check(query, 0, '{"agreement": false}') == "exit 0, expected 1"
    assert workloads.check(query, 1, '{"agreement": true}') == "wrong agreement"


def test_an_exception_escaping_the_cli_is_a_failure_and_the_run_goes_on(tmp_path, monkeypatch):
    chain = fam.CircularChain.make(3)
    path = tmp_path / "c.ces"
    path.write_text(fam.to_ces(chain.contract))
    query = workloads.Query("verdict", ("verdict", "--json", "--play", ",".join(chain.x), str(path)),
                            0, {"participants": chain.verdict()})

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(game, "verdict", broken)
    outcomes = run.Outcomes()
    for _ in range(2):
        _, reason = run.run_query(cli, workloads, query)
        outcomes.record(query.qid, reason)
    assert (outcomes.attempted, outcomes.failed) == (2, 2)
    assert "RuntimeError: boom" in outcomes.reasons["verdict"]
    monkeypatch.undo()
    assert run.run_query(cli, workloads, query)[1] is None


def test_tail_and_slope():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)
    assert run.slope([1, 2, 4], [3, 12, 48]) == pytest.approx(2.0)


# --- tracing ---------------------------------------------------------------------------


def traced_counts(query) -> dict:
    t = tracer.Tracer()
    with tracer.instrument(t):
        t.qid = query.qid
        assert run.run_query(cli, workloads, query)[1] is None
    return tracer.call_counts(t.spans)


def test_traced_counts_reproduce_the_cascade_and_dancer_baselines(tmp_path):
    io = workloads.Inputs(tmp_path, workloads.random.Random(0))
    cas = fam.Cascade.make(80)
    agree = workloads.Query("agree", ("agree", "--json", io.contract("cascade", cas.contract)), 1,
                            {"agreement": False, "provable": cas.provable})
    counts = traced_counts(agree)
    assert counts[("agree", "game.provable")] == 2
    assert counts[("agree", "game.credit_closure")] == 162
    assert counts[("agree", "game.closure")] == 13_122
    assert traced_counts(agree) == counts

    path = io.write("dancers", workloads.dsl.print_spec(gen.shy_dancers(8)))
    sim = workloads.Query("sim", ("simulate", "--json", path), 0,
                          lambda out: all(r["wins"] for r in out["participants"].values()))
    assert traced_counts(sim)[("sim", "game.next_events")] == 4161


INTERLEAVE_COUNT = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import families as fam, workloads, tracer, run
from pacta import cli
chain = fam.CircularChain.make(4)
io = workloads.Inputs(workloads.Path({tmp!r}), workloads.random.Random(0))
q = workloads.Query("q", ("check-trace", "--json", "--trace", ",".join(chain.x),
                         io.contract("c", chain.contract)), 0, {{"is_trace": True}})
t = tracer.Tracer()
with tracer.instrument(t):
    t.qid = "q"
    assert run.run_query(cli, workloads, q)[1] is None
print(tracer.call_counts(t.spans)[("q", "logic.interleave")])
"""


def test_interleave_count_is_fixed_by_the_hash_seed(tmp_path):
    """Trace saturation iterates over sets of strings, so its interleave
    count on one input depends on string hashing (2,295 to 2,371 calls seen
    on 4-event circular chains).  A pinned hash seed makes it repeat."""
    script = INTERLEAVE_COUNT.format(src=str(ROOT / "src"), here=str(HERE), tmp=str(tmp_path))

    def count(hash_seed: str) -> int:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return int(done.stdout)

    for hash_seed in ("0", "5"):
        first = count(hash_seed)
        assert count(hash_seed) == first
        assert 2_200 < first < 2_500


# --- the command ----------------------------------------------------------------------


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_untraced_run_prints_every_end_to_end_metric():
    done = run_bench("--workload", "play-replay", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_traced_run_prints_every_per_layer_metric():
    done = run_bench("--workload", "play-replay", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert "simulate dancers n=8: game.next_events 4161" in done.stdout


def test_without_the_program_the_benchmark_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("--workload", "small-files", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
