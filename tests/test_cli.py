import dataclasses
import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pacta import GoalPayoff, cli, game, oracle, parse, print_spec, shy_dancers, spec_of
from pacta.cli import main
from pacta.gen import MAX_SHY_DANCERS_N

from helpers import DATA, circular_chain, standard_chain, withdrawal_cascade


def path(name):
    return str(DATA / name)


@pytest.fixture
def run(capsys, monkeypatch):
    def invoke(*argv, stdin=None):
        """Run the CLI; *stdin*, text or bytes, is fed as a C or C.UTF-8
        locale hands it to Python: undecodable bytes become surrogates."""
        if stdin is not None:
            data = stdin if isinstance(stdin, bytes) else stdin.encode()
            wrapper = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
            monkeypatch.setattr("sys.stdin", wrapper)
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestValidate:
    def test_clean_file_prints_ok(self, run):
        code, out, err = run("validate", path("c1.ces"))
        assert (code, out, err) == (0, "ok\n", "")

    def test_broken_file_lists_findings_and_exits_one(self, run):
        code, out, err = run("validate", path("broken.ces"))
        assert code == 1
        assert err == ""
        assert "line 3: [unknown-directive]" in out
        assert "line 4: [self-conflict]" in out
        assert "[undeclared-event]" in out
        assert "[unknown-participant]" in out

    def test_json_report(self, run):
        code, out, _ = run("validate", path("broken.ces"), "--json")
        assert code == 1
        payload = json.loads(out)
        assert {d["code"] for d in payload["diagnostics"]} == {
            "unknown-directive",
            "self-conflict",
            "undeclared-event",
            "unknown-participant",
        }
        assert all({"line", "column", "message"} <= d.keys() for d in payload["diagnostics"])


class TestProve:
    def test_lists_provable_atoms(self, run):
        assert run("prove", path("delta3.ces")) == (0, "a\nb\n", "")

    def test_json(self, run):
        code, out, _ = run("prove", path("delta3.ces"), "--json")
        assert code == 0
        assert json.loads(out) == {"provable": ["a", "b"]}

    def test_reads_stdin_with_dash(self, run):
        code, out, _ = run("prove", "-", stdin="agent A\nclause a\n")
        assert (code, out) == (0, "a\n")

    def test_global_json_flag_position_is_irrelevant(self, run):
        first = run("--json", "prove", path("delta3.ces"))
        second = run("prove", path("delta3.ces"), "--json")
        assert first == second


class TestTraces:
    def test_one_trace_per_line_shortest_first(self, run):
        code, out, _ = run("traces", path("delta4.ces"))
        assert code == 0
        assert out == "(empty)\na b\nb a\n"

    def test_max_caps_the_enumeration(self, run):
        _, out, _ = run("traces", path("delta4.ces"), "--max", "2")
        assert out == "(empty)\na b\n"

    def test_json(self, run):
        _, out, _ = run("traces", path("delta4.ces"), "--json")
        assert json.loads(out) == {"traces": [[], ["a", "b"], ["b", "a"]]}

    def test_negative_max_is_a_precondition_error(self, run):
        code, _, err = run("traces", path("delta4.ces"), "--max", "-1")
        assert code == 3
        assert err.startswith("error:")


class TestCheckTrace:
    def test_yes_and_no(self, run):
        assert run("check-trace", path("delta3.ces"), "--trace", "a,b") == (0, "yes\n", "")
        assert run("check-trace", path("delta3.ces"), "--trace", "b,a") == (1, "no\n", "")

    def test_empty_trace_is_always_a_trace(self, run):
        assert run("check-trace", path("delta3.ces"), "--trace", "")[0] == 0

    def test_json(self, run):
        _, out, _ = run("check-trace", path("delta3.ces"), "--trace", "b,a", "--json")
        assert json.loads(out) == {"is_trace": False}

    def test_unknown_atoms_exit_three(self, run):
        message = "error: position 1: 'zz' is not an event of the contract\n"
        assert run("check-trace", path("delta3.ces"), "--trace", "a,zz") == (3, "", message)
        # Named as urgent, prudent and reachable name an unknown --past event.
        assert run("urgent", path("delta3.ces"), "--past", "a,zz") == (3, "", message)
        # An unknown event is refused even after a repeat.
        message = "error: position 2: 'zz' is not an event of the contract\n"
        assert run("check-trace", path("delta3.ces"), "--trace", "a,a,zz") == (3, "", message)

    def test_a_repeated_event_is_a_clean_no(self, run):
        assert run("check-trace", path("delta3.ces"), "--trace", "a,b,a") == (1, "no\n", "")


class TestSetValuedCommands:
    def test_urgent_defaults_to_the_empty_past(self, run):
        assert run("urgent", path("delta1.ces")) == (0, "a\n", "")
        assert run("urgent", path("delta1.ces"), "--past", "a") == (0, "b\n", "")

    def test_prudent_and_reachable(self, run):
        assert run("prudent", path("c3.ces")) == (0, "a\n", "")
        assert run("reachable", path("c3.ces")) == (0, "a\nb\n", "")

    def test_empty_entry_in_an_event_list_is_a_precondition_error(self, run):
        for argv in (
            ("prudent", path("c3.ces"), "--past", "a,"),
            ("urgent", path("delta1.ces"), "--past", ","),
            ("check-trace", path("delta3.ces"), "--trace", "a,,a"),
        ):
            code, out, err = run(*argv)
            assert (code, out) == (3, "")
            assert err == f"error: empty entry in the event list {argv[-1]!r}\n"
        assert run("prudent", path("c3.ces"), "--past", "") == (0, "a\n", "")

    def test_conflicted_spec_is_a_precondition_error_for_prudent(self, run):
        code, _, err = run("prudent", path("e5.ces"))
        assert code == 3
        assert "conflict-free" in err

    @pytest.mark.parametrize("past", ["a,a", "b,a,b", "zz", "a,zz"])
    @pytest.mark.parametrize("command", ["prudent", "reachable", "urgent", "strategy"])
    def test_a_bad_past_is_refused_as_oracle_prudence_refuses_it(self, run, command, past):
        want = run("oracle", "prudence", path("c3.ces"), "--past", past)
        assert want[:2] == (3, "") and want[2].startswith("error: position ")
        extra = ("--participant", "A") if command == "strategy" else ()
        assert run(command, path("c3.ces"), "--past", past, *extra) == want

    def test_a_repeated_atom_is_still_a_no_for_check_trace(self, run):
        assert run("check-trace", path("c3.ces"), "--trace", "a,a") == (1, "no\n", "")


class TestCredits:
    def test_per_prefix_ledger(self, run):
        code, out, _ = run("credits", path("c3.ces"), "--play", "b,a")
        assert code == 0
        assert out == "after (empty): (empty)\nafter b: b\nafter b,a: b\n"

    def test_json(self, run):
        _, out, _ = run("credits", path("c3.ces"), "--play", "b,a", "--json")
        assert json.loads(out) == {
            "play": ["b", "a"],
            "per_prefix": [[], ["b"], ["b"]],
            "final": ["b"],
        }

    def test_invalid_play_exits_three(self, run):
        assert run("credits", path("c3.ces"), "--play", "a,a")[0] == 3


class TestVerdictAndAgree:
    def test_verdict_rows(self, run):
        code, out, _ = run("verdict", path("c3.ces"), "--play", "b,a")
        assert code == 0
        assert out == (
            "A: innocent=yes credit_free=yes wins=yes\n"
            "B: innocent=yes credit_free=no wins=no\n"
        )

    def test_agree_yes(self, run):
        assert run("agree", path("c1.ces")) == (0, "agreement: yes\nprovable: a b\n", "")

    def test_agree_no(self, run):
        assert run("agree", path("c2.ces")) == (1, "agreement: no\nprovable: (empty)\n", "")

    def test_agree_json(self, run):
        code, out, _ = run("--json", "agree", path("c2.ces"))
        assert code == 1
        assert json.loads(out) == {"agreement": False, "provable": []}

    def test_conflicted_spec_exits_three(self, run):
        assert run("agree", path("e5.ces"))[0] == 3


class TestStrategyAndSimulate:
    def test_offers_one_per_line_and_nothing_when_empty(self, run):
        assert run("strategy", path("c3.ces"), "--participant", "A") == (0, "a\n", "")
        assert run("strategy", path("c3.ces"), "--participant", "A", "--past", "a") == (0, "", "")

    def test_strategy_json(self, run):
        _, out, _ = run("strategy", path("c3.ces"), "--participant", "A", "--json")
        assert json.loads(out) == {"participant": "A", "past": [], "offers": ["a"]}

    def test_unknown_participant_exits_three(self, run):
        assert run("strategy", path("c3.ces"), "--participant", "Z")[0] == 3

    def test_simulate_plays_the_whole_contract(self, run):
        code, out, _ = run("simulate", path("c1.ces"))
        assert code == 0
        assert out.splitlines()[0] == "play: a,b"
        assert all("wins=yes" in line for line in out.splitlines()[1:])

    def test_simulate_is_reproducible_per_seed(self, run):
        first = run("simulate", path("or_payoffs.ces"), "--seed", "7")
        second = run("simulate", path("or_payoffs.ces"), "--seed", "7")
        assert first == second

    def test_simulate_json(self, run):
        _, out, _ = run("simulate", path("c1.ces"), "--json")
        payload = json.loads(out)
        assert payload["play"] == ["a", "b"]
        assert payload["seed"] == 0
        assert payload["participants"]["B"]["wins"] is True

    def test_simulate_needs_total_payoffs(self, run):
        code, _, err = run("simulate", path("delta1.ces"))
        assert code == 3
        assert "payoff" in err


class TestEncode:
    def test_prints_the_tag_theory_as_a_spec(self, run):
        code, out, _ = run("encode", path("delta3.ces"))
        assert code == 0
        assert out == (
            "agent T owns !a !b R$a R$b U$a U$b\n"
            "clause R$a <- U$a\n"
            "clause R$b <- R$a\n"
            "clause R$b <- U$b\n"
            "clause U$a <- !a\n"
            "clause U$a <<- R$b\n"
            "clause U$b <- !a\n"
            "clause U$b <- !b\n"
        )

    def test_json_carries_atoms_and_clauses(self, run):
        _, out, _ = run("encode", path("delta3.ces"), "--json")
        payload = json.loads(out)
        assert payload["atoms"] == ["!a", "!b", "R$a", "R$b", "U$a", "U$b"]
        assert len(payload["clauses"]) == 7
        assert {"head", "body", "kind"} == payload["clauses"][0].keys()


class TestGen:
    def test_shy_dancers_text_parses_back(self, run):
        code, out, _ = run("gen", "shy-dancers", "--n", "2")
        assert code == 0
        assert parse(out) == shy_dancers(2)

    def test_circular_cells_flag(self, run):
        _, out, _ = run("gen", "shy-dancers", "--n", "3", "--circular", "1.1,2.3")
        assert parse(out) == shy_dancers(3, circular=[(1, 1), (2, 3)])

    def test_json_wraps_the_text(self, run):
        _, out, _ = run("gen", "shy-dancers", "--n", "2", "--json")
        assert parse(json.loads(out)["text"]) == shy_dancers(2)

    def test_bad_cell_and_tiny_grid_exit_three(self, run):
        assert run("gen", "shy-dancers", "--n", "3", "--circular", "zz")[0] == 3
        assert run("gen", "shy-dancers", "--n", "1")[0] == 3

    def test_an_oversized_grid_exits_three(self, run):
        n = MAX_SHY_DANCERS_N + 1
        assert run("gen", "shy-dancers", "--n", str(n)) == (
            3,
            "",
            f"error: shy_dancers takes n <= {MAX_SHY_DANCERS_N}, got {n}\n",
        )

    def test_empty_cell_is_named_as_a_bad_cell(self, run):
        assert run("gen", "shy-dancers", "--n", "3", "--circular", "1.1,") == (
            3,
            "",
            "error: bad cell ''; expected row.col like 2.3\n",
        )


class TestOracle:
    def test_oracle_prove_matches_the_fast_command(self, run):
        for name in ("delta1.ces", "delta2.ces", "delta3.ces", "delta4.ces"):
            assert run("oracle", "prove", path(name)) == run("prove", path(name))

    def test_oracle_prove_runs_one_search(self, run, monkeypatch):
        built = []

        class Counted(oracle._NdSearch):
            def __init__(self, theory):
                built.append(theory)
                super().__init__(theory)

        monkeypatch.setattr(oracle, "_NdSearch", Counted)
        for name in ("delta1.ces", "star.ces"):
            built.clear()
            code, out, _ = run("oracle", "prove", path(name))
            assert (code, len(built)) == (0, 1)
        assert out == "".join(f"e{i}\n" for i in range(8))

    def test_oracle_traces_matches_the_fast_command(self, run):
        for name in ("delta3.ces", "delta4.ces"):
            assert run("oracle", "traces", path(name)) == run("traces", path(name))

    def test_oracle_prudence_handles_conflicted_specs(self, run):
        assert run("oracle", "prudence", path("e5.ces"), "--past", "a") == (0, "b\nc\n", "")

    def test_oracle_prudence_refuses_large_specs(self, run):
        code, _, err = run("oracle", "prudence", path("star.ces"))
        assert code == 3
        assert "at most 6 events" in err

    def test_oracle_prove_refuses_a_long_chain_without_a_traceback(self, run):
        text = print_spec(circular_chain(1200)[0])
        code, out, err = run("oracle", "prove", "-", stdin=text)
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: natural-deduction search supports at most 12 atoms"]


class TestErrorChannel:
    def test_missing_file(self, run):
        code, out, err = run("prove", "nope.ces")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_non_utf8_file_is_unreadable_input(self, run, tmp_path):
        """A path and ``-`` are refused alike: the same exit and error line,
        the source's name aside, for a bad byte in a name or in a comment."""
        bad = tmp_path / "bad.ces"
        for data in (b"agent A\nclause a \xff\n", b"agent A owns a\n# caf\xe9\nclause a\n"):
            bad.write_bytes(data)
            for command in ("validate", "prove"):
                code, out, err = run(command, str(bad))
                assert (code, out) == (2, "")
                [line] = err.splitlines()
                assert line.startswith(f"error: {str(bad)!r} is not UTF-8 text:")
                from_stdin = err.replace(repr(str(bad)), "standard input")
                assert run(command, "-", stdin=data) == (2, "", from_stdin)

    def test_a_path_and_stdin_read_the_same(self, run, tmp_path):
        """Every fixture, and a CRLF and a BOM copy of one, answers alike
        through its path and through ``-``; the copies answer as the
        original does."""
        files = {p.name: p.read_bytes() for p in sorted(DATA.glob("*.ces"))}
        original = files["broken.ces"]
        copies = {
            "crlf.ces": original.replace(b"\n", b"\r\n"),
            "bom.ces": b"\xef\xbb\xbf" + original,
        }
        for name, data in copies.items():
            (tmp_path / name).write_bytes(data)
        for command in ("validate", "prove"):
            for name, data in {**files, **copies}.items():
                file = tmp_path / name if name in copies else DATA / name
                answer = run("--json", command, str(file))
                assert run("--json", command, "-", stdin=data) == answer, (command, name)
                if name in copies:
                    assert answer == run("--json", command, path("broken.ces")), (command, name)

    def test_a_failed_write_exits_two(self, capsys, monkeypatch):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError("No space left on device")

        monkeypatch.setattr("sys.stdout", FullDisk())
        for argv in (["prove", path("delta3.ces")], ["--json", "prove", path("delta3.ces")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: No space left on device\n"

    def test_parse_failure_reports_diagnostics_on_stderr(self, run):
        code, out, err = run("prove", path("broken.ces"))
        assert code == 2
        assert out == ""
        assert "[undeclared-event]" in err

    def test_unknown_command(self, run):
        assert run("nonsense")[0] == 2

    def test_missing_required_argument(self, run):
        assert run("check-trace", path("delta3.ces"))[0] == 2

    def test_no_arguments_at_all(self, run):
        assert run()[0] == 2


# One argv per subcommand; between them they answer yes, no and a precondition error.
EVERY_COMMAND = [
    ("validate", path("broken.ces")),
    ("prove", path("delta3.ces")),
    ("traces", path("delta4.ces"), "--max", "2"),
    ("check-trace", path("delta3.ces"), "--trace", "b,a"),
    ("urgent", path("delta1.ces"), "--past", "a"),
    ("prudent", path("c3.ces")),
    ("reachable", path("c3.ces")),
    ("credits", path("c3.ces"), "--play", "b,a"),
    ("verdict", path("c3.ces"), "--play", "b,a"),
    ("agree", path("c2.ces")),
    ("strategy", path("c3.ces"), "--participant", "A"),
    ("simulate", path("or_payoffs.ces"), "--seed", "3"),
    ("encode", path("delta3.ces")),
    ("gen", "shy-dancers", "--n", "2"),
    ("oracle", "prove", path("delta2.ces")),
    ("oracle", "traces", path("delta4.ces")),
    ("oracle", "prudence", path("e5.ces"), "--past", "a"),
    ("oracle", "prudence", path("star.ces")),
]


class TestOutputModes:
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda a: " ".join(a[:2]))
    def test_every_command_answers_alike_in_text_and_both_json_positions(self, run, argv):
        text = run(*argv)
        front = run("--json", *argv)
        back = run(*argv, "--json")
        assert text[0] == front[0] == back[0]
        assert front == back
        code, out, err = front
        if code == 3:
            assert text == front and out == "" and err.startswith("error:")
        else:
            assert err == "" and text[2] == ""
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_json_builds_no_text(self, run, monkeypatch):
        def no_text(*_):
            raise AssertionError("text built in --json mode")

        monkeypatch.setattr("pacta.cli._fmt_play", no_text)
        monkeypatch.setattr("pacta.cli._fmt_set", no_text)
        for argv, code in (
            (("credits", path("c3.ces"), "--play", "b,a"), 0),
            (("verdict", path("c3.ces"), "--play", "b,a"), 0),
            (("agree", path("c1.ces")), 0),
            (("agree", path("c2.ces")), 1),
            (("simulate", path("c1.ces")), 0),
        ):
            got, out, err = run(*argv, "--json")
            assert (got, err) == (code, "")
            assert json.loads(out)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda a: " ".join(a[:2]))
def test_a_command_builds_at_most_one_index(run, monkeypatch, argv):
    builds = []
    build = game.RuleIndex.__init__

    def counted(self, clauses):
        builds.append(clauses)
        build(self, clauses)

    monkeypatch.setattr(game.RuleIndex, "__init__", counted)
    run(*argv)
    assert len(builds) <= 1


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector switched on or off for one test, then restored."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (("prove", path("delta3.ces")), 0),  # an answer
            (("--help",), 0),  # SystemExit from argparse
            (("nonsense",), 2),  # a usage error, SystemExit too
            (("prove", path("broken.ces")), 2),  # ParseError
            (("prudent", path("e5.ces")), 3),  # SpecError
        ],
        ids=["answer", "help", "usage", "parse-error", "spec-error"],
    )
    def test_main_runs_paused_and_leaves_the_collector_as_it_found_it(
        self, run, monkeypatch, collector, argv, code
    ):
        seen = []
        build = cli.build_parser

        def watched():
            seen.append(gc.isenabled())
            return build()

        monkeypatch.setattr(cli, "build_parser", watched)
        assert run(*argv)[0] == code
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_an_escaping_exception_propagates_unchanged(self, monkeypatch, collector):
        boom = RuntimeError("boom")
        seen = []

        def broken(*_):
            seen.append(gc.isenabled())
            raise boom

        monkeypatch.setattr(game, "verdict", broken)
        with pytest.raises(RuntimeError) as raised:
            main(["verdict", "--play", "b,a", path("c3.ces")])
        assert raised.value is boom
        assert seen == [False]
        assert gc.isenabled() is collector


def _with_goals(spec):
    """The spec with each participant wanting every event it owns."""
    goals = {p: GoalPayoff(spec.owned_by(p)) for p in spec.participants}
    return dataclasses.replace(spec, payoffs=goals)


# Each family with a small and a large member.
FAMILIES = {
    "shy dancers": (shy_dancers, (3, 6)),
    "circular chain": (lambda n: _with_goals(circular_chain(n)[0]), (4, 20)),
    "standard chain": (lambda n: _with_goals(spec_of(standard_chain(n))), (4, 200)),
    "cascade": (lambda m: withdrawal_cascade(m)[0], (4, 64)),
}


@pytest.mark.parametrize("collector", [False], indirect=True, ids=["collector-off"])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_command_leaves_as_much_cyclic_garbage_whatever_the_input_size(
    tmp_path, collector, family
):
    """``main`` pauses the collector, so what it cannot free by reference
    counting waits for the next collection; that must not grow with the
    contract, or a paused command holds back more than its argparse tree."""
    make, sizes = FAMILIES[family]
    found = {}
    for n in sizes:
        spec = make(n)
        file = tmp_path / f"{n}.ces"
        file.write_text(print_spec(spec))
        events = sorted(spec.events)
        play, past = ",".join(events), ",".join(events[: len(events) // 2])
        for argv in (
            ("agree",),
            ("prove",),
            ("credits", "--play", play),
            ("verdict", "--play", play),
            ("simulate",),
            ("traces", "--max", "10"),
            ("check-trace", "--trace", play),
            ("urgent", "--past", past),
        ):
            sink = io.StringIO()
            gc.collect()
            with redirect_stdout(sink), redirect_stderr(sink):
                assert main([*argv, str(file)]) in (0, 1), (argv[0], n)
            found.setdefault(argv[0], []).append(gc.collect())
    for command, (small, large) in found.items():
        assert small == large, command
