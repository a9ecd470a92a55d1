"""The contract loader and the conflict checks against the versions they replaced.

``analyze_reference``, ``validate_reference``, ``compatible_reference`` and
``check_play_reference`` in ``helpers`` are the earlier parser, validator,
conflict test and play check, kept verbatim.  The current ones must return
the same spec and the same diagnostics: same codes, messages, lines, columns
and order.  The corpus is
every fixture, the printed form of seeded random specs, seeded line mutations
of both, payoff lines of several pairs, large printed files and their
mutations, and hand-built specs that no file can express.
"""

import random

from pacta import (
    CIRCULAR,
    InvalidPlayError,
    STANDARD,
    Clause,
    ContractSpec,
    GoalPayoff,
    OfferRequestPayoff,
    analyze,
    check_play,
    parse,
    print_spec,
    shy_dancers,
    spec_of,
    validate,
)

from helpers import (
    DATA,
    analyze_reference,
    budget,
    check_play_reference,
    compatible_reference,
    random_spec,
    standard_chain,
    validate_reference,
)

FIXTURES = sorted(p.read_text(encoding="utf-8") for p in DATA.glob("*.ces"))

PARSER_CODES = {
    "bad-agent",
    "bad-clause",
    "bad-conflict",
    "bad-identifier",
    "bad-payoff",
    "conflicting-clause",
    "duplicate-clause",
    "duplicate-goal",
    "mixed-payoff",
    "no-active-agent",
    "ownership-conflict",
    "reserved-identifier",
    "self-conflict",
    "undeclared-event",
    "unknown-directive",
    "unknown-participant",
}

VALIDATE_CODES = {
    "bad-conflict",
    "bad-identifier",
    "bad-payoff",
    "conflicting-clause",
    "reserved-identifier",
    "unknown-event",
    "unknown-participant",
    "unowned-event",
}


def same_analysis(text: str) -> list:
    got = analyze(text)
    assert got == analyze_reference(text), text
    return got[1]


# --- line mutations -----------------------------------------------------------


def _char_edit(rng, line):
    if not line:
        return line
    i = rng.randrange(len(line))
    return line[:i] + line[i + 1:] if rng.random() < 0.5 else line[:i] + line[i] + line[i:]


def _blank_edit(rng, line):
    spaces = [i for i, ch in enumerate(line) if ch == " "]
    if not spaces:
        return "\t" + line
    i = rng.choice(spaces)
    return line[:i] + rng.choice(("\t", "\u00a0", " ", "  ")) + line[i + 1:]


def _comment(rng, line):
    i = rng.randrange(len(line) + 1)
    return line[:i] + rng.choice(("# note", " #", "#x <- y")) + line[i:]


def _arrow(rng, line):
    for old in ("<<-", "↠", "<-"):
        if old in line:
            return line.replace(old, rng.choice(("<<-", "↠", "<-", "<- <-", "")), 1)
    return line + rng.choice((" <- true", " <<- true", " <-", " <- a, a"))


def _body(rng, line):
    head, arrow, body = line.partition("<-")
    if not arrow:
        return line
    items = [b.strip() for b in body.split(",")]
    choice = rng.randrange(4)
    if choice == 0:
        items = ["true"] if rng.random() < 0.5 else items + ["true"]
    elif choice == 1:
        items.append(rng.choice(items))
    elif choice == 2:
        items.insert(rng.randrange(len(items) + 1), "")
    else:
        items.append(rng.choice(("zz", "q9", "a")))
    return head + arrow + " " + ", ".join(items)


def _rename(rng, line):
    words = line.split()
    if len(words) < 2:
        return line
    i = rng.randrange(1, len(words))
    words[i] = rng.choice(("R$a", "U$b", "a!b", "9x", "x-y", "zz", "A", "Bee", "true"))
    return " ".join(words)


EDITS = (_char_edit, _blank_edit, _comment, _arrow, _body, _rename)

EXTRA_LINES = (
    "decree a",
    "agent",
    "agent Z",
    "agent A owns",
    "agent A holds a",
    "agent B owns a",
    "agent C owns zz zz",
    "clause",
    "clause a b <- c",
    "clause zz <- a",
    "clause a <- zz, yy, zz",
    "clause a <- ,",
    "conflict a",
    "conflict a a",
    "conflict a b",
    "conflict a zz",
    "payoff A",
    "payoff A goal a",
    "payoff A goal {a}",
    "payoff A goal {zz a yy}",
    "payoff A offers {a} requests {b}",
    "payoff A offers {zz} requests {b yy}",
    "payoff B offers {a}",
    "payoff Z goal {a}",
    "payoff A goal {R$a}",
)


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op == 0 and lines:
            i = rng.randrange(len(lines))
            lines[i] = rng.choice(EDITS)(rng, lines[i])
        elif op == 1 and lines:
            del lines[rng.randrange(len(lines))]
        elif op == 2 and lines:
            i = rng.randrange(len(lines))
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 3 and len(lines) > 1:
            i, j = rng.sample(range(len(lines)), 2)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(EXTRA_LINES))
    out = "\n".join(lines) + rng.choice(("\n", ""))
    if rng.random() < 0.1:
        out = out.replace("\n", "\r\n")
    if rng.random() < 0.1:
        out = "\ufeff" + out
    return out


# --- parser -------------------------------------------------------------------


def test_fixtures_match_the_reference():
    for text in FIXTURES:
        same_analysis(text)


def test_printed_random_specs_match_the_reference():
    rng = random.Random(4242)
    for _ in range(2_000):
        assert same_analysis(print_spec(random_spec(rng, allow_conflicts=True))) == []


def test_mutated_files_match_the_reference():
    rng = random.Random(2718)
    seen = set()
    for k in range(6_000):
        base = FIXTURES[k % len(FIXTURES)] if k % 3 == 0 else print_spec(
            random_spec(rng, allow_conflicts=True)
        )
        seen |= {d.code for d in same_analysis(mutate(rng, base))}
    # Every finding the parser can make came up, so no branch went unchecked.
    assert seen == PARSER_CODES


# --- payoff lines with several pairs --------------------------------------------
#
# The printer writes one pair per line, so neither the fixtures nor printed
# specs reach the branch that reads the second and later pairs of a line.

BAD_NAMES = ("9x", "R$a", "U$b", "a!b", "x-y")


def _pair_text(rng: random.Random, offers, requests) -> str:
    a, b, c = (rng.choice(("", " ", "  ", "\t")) for _ in range(3))
    return f"offers{a}{{{' '.join(offers)}}}{b}requests{c}{{{' '.join(requests)}}}"


def multi_pair_file(rng: random.Random) -> str:
    """A printed random spec whose payoffs are rewritten as lines of 2-4
    pairs, some with a bad name in a later pair, an undeclared event, a goal
    line for the same participant or a broken last pair."""
    spec = random_spec(rng, allow_conflicts=True)
    lines = [line for line in print_spec(spec).splitlines() if not line.startswith("payoff")]
    events = sorted(spec.events)
    payoff_lines = []
    for p in sorted(spec.participants):
        pairs = [
            [rng.sample(events, rng.randint(0, 2)), rng.sample(events, rng.randint(0, 2))]
            for _ in range(rng.randint(2, 4))
        ]
        fault = rng.randrange(6)
        if fault == 0:
            pairs[1][rng.randrange(2)].append(rng.choice(BAD_NAMES))
        elif fault == 1:
            pairs[rng.randrange(len(pairs))][rng.randrange(2)].insert(0, "zz")
        elif fault == 2:
            goal = f"payoff {p} goal {{{' '.join(rng.sample(events, 1))}}}"
            payoff_lines.append(goal)
        texts = [_pair_text(rng, offers, requests) for offers, requests in pairs]
        if fault == 3:
            texts.append(rng.choice(("offers {a}", "requests {a}", "offers {a} requests")))
        payoff_lines.append(f"payoff {p} " + rng.choice(("", " ", "\t")).join(texts))
        if rng.random() < 0.3:
            payoff_lines.append(f"payoff {p} " + _pair_text(rng, events[:1], events[-1:]))
    rng.shuffle(payoff_lines)
    return "\n".join(lines + payoff_lines) + "\n"


def test_payoff_lines_with_several_pairs_match_the_reference():
    rng = random.Random(5150)
    seen = set()
    several = 0
    for _ in range(2_000):
        text = multi_pair_file(rng)
        seen |= {d.code for d in same_analysis(text)}
        spec, _ = analyze(text)
        if spec is not None:
            several += any(len(p.pairs) > 1 for p in spec.payoffs.values())
    assert {
        "bad-identifier",
        "reserved-identifier",
        "undeclared-event",
        "mixed-payoff",
        "bad-payoff",
    } <= seen
    assert several > 100


# --- files at size ------------------------------------------------------------
#
# The loader's gains are on files of thousands of lines, where names repeat
# across lines; the fixtures and random specs above hold at most 5 events.


def large_files():
    for n in range(4, 11):
        yield print_spec(shy_dancers(n))
        yield print_spec(shy_dancers(n, [(1, 1), (1, 2), (2, 1), (2, 2)]))
    yield print_spec(spec_of(standard_chain(4_096), "T"))


def test_large_files_match_the_reference_as_printed_and_mutated():
    rng = random.Random(8128)
    for text in large_files():
        assert same_analysis(text) == []
        for _ in range(3):
            same_analysis(mutate(rng, text))


# --- validate -----------------------------------------------------------------

NAMES = ("a", "b", "c", "d", "R$a", "9x", "a!")
PARTIES = ("A", "B", "U$P", "")


def hand_built_spec(rng: random.Random) -> ContractSpec:
    events = rng.sample(NAMES, rng.randint(0, 5))
    participants = rng.sample(PARTIES, rng.randint(0, 3))
    owner = {e: rng.choice(PARTIES) for e in rng.sample(NAMES, rng.randint(0, 5))}
    clauses = {
        Clause(
            rng.choice(NAMES),
            rng.sample(NAMES, rng.randint(0, 3)),
            rng.choice((STANDARD, CIRCULAR)),
        )
        for _ in range(rng.randint(0, 6))
    }
    conflicts = [rng.sample(NAMES, rng.choice((0, 1, 2, 2, 2, 3))) for _ in range(rng.randint(0, 4))]
    payoffs = {}
    for p in rng.sample(PARTIES, rng.randint(0, 3)):
        form = rng.randrange(3)
        if form == 0:
            payoffs[p] = GoalPayoff(rng.sample(NAMES, rng.randint(0, 3)))
        elif form == 1:
            payoffs[p] = OfferRequestPayoff(
                ((rng.sample(NAMES, 1), rng.sample(NAMES, rng.randint(0, 2))),)
            )
        else:
            payoffs[p] = "goal {a}"
    return ContractSpec(events, participants, owner, clauses, conflicts, payoffs)


def test_validate_matches_the_reference_on_hand_built_specs():
    rng = random.Random(31337)
    seen = set()
    for _ in range(5_000):
        spec = hand_built_spec(rng)
        found = validate(spec)
        assert found == validate_reference(spec), spec
        seen |= {d.code for d in found}
    assert seen == VALIDATE_CODES


def test_validate_keeps_the_meaning_of_odd_sized_pairs():
    owner = {"a": "A", "b": "A", "c": "A"}
    clauses = [Clause("a", ()), Clause("b", ("a",)), Clause("c", ("a", "b"))]
    for pairs in ([()], [("a",)], [("a", "b", "c")], [("a", "b", "c"), ("b",)], [()] * 2):
        spec = ContractSpec.of(owner, clauses, conflicts=pairs)
        found = validate(spec)
        assert found == validate_reference(spec)
        assert [d.code for d in found].count("conflicting-clause") == sum(
            not compatible_reference(spec, c.body) for c in spec.clauses
        )


def test_compatible_matches_the_reference_on_hand_built_specs():
    rng = random.Random(16180)
    for _ in range(5_000):
        spec = hand_built_spec(rng)
        for _ in range(4):
            done = rng.sample(NAMES, rng.randint(0, 5))
            assert spec.compatible(done) == compatible_reference(spec, done), (spec, done)


def play_outcome(check, spec: ContractSpec, play: list[str]):
    try:
        return check(spec, play)
    except InvalidPlayError as err:
        return str(err)


def test_check_play_matches_the_reference_on_hand_built_specs():
    rng = random.Random(27182)
    for _ in range(5_000):
        spec = hand_built_spec(rng)
        play = rng.sample(NAMES, rng.randint(1, len(NAMES)))
        for _ in range(rng.randint(0, 2)):
            play.insert(rng.randrange(len(play) + 1), rng.choice((*NAMES, "zz")))
        assert play_outcome(check_play, spec, play) == play_outcome(
            check_play_reference, spec, play
        ), (spec, play)


# --- cost ---------------------------------------------------------------------


def test_ten_thousand_clauses_and_conflicts_load_in_linear_time():
    # Every clause body holds the hub, which conflicts with 5,000 events, so
    # a check of each body against every pair costs 10^8 subset tests.
    n = 5_000
    lines = ["agent A owns hub", "clause x0 <- hub"]
    lines += [f"clause x{i} <- x{i - 1}, hub" for i in range(1, n)]
    lines += [f"clause y{i}" for i in range(n)]
    lines += [f"conflict hub y{i}" for i in range(n)]
    lines += [f"conflict x{i} y{i}" for i in range(n)]
    text = "\n".join(lines) + "\n"
    with budget(2.0):
        spec = parse(text)
    assert (len(spec.clauses), len(spec.conflicts)) == (2 * n, 2 * n)


def test_a_long_invalid_play_is_rejected_in_near_linear_time():
    # A conflict test per step would copy and scan a growing prefix 4,000 times.
    n = 4_000
    owner = {f"{side}{i}": "A" for side in "xy" for i in range(n)}
    spec = ContractSpec.of(owner, conflicts=[(f"x{i}", f"y{i}") for i in range(n)])
    xs = [f"x{i}" for i in range(n)]
    with budget(0.5):
        assert play_outcome(check_play, spec, [*xs, "x0"]) == f"position {n}: event 'x0' repeated"
        assert play_outcome(check_play, spec, [*xs, "y7"]) == (
            f"position {n}: event 'y7' conflicts with an earlier event"
        )
