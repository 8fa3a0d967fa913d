"""Goal parsing and minimal-change framework revision."""

import random

import pytest

from argent import (
    ATT_ONLY,
    ATT_WEIGHTED,
    And,
    ArgumentationFramework,
    AttAccVocabulary,
    DALAL,
    Not,
    ParseError,
    ResourceLimitError,
    TRUE,
    UnknownArgumentError,
    Var,
    canonical_model,
    format_formula,
    format_outcome,
    mode_weights,
    outcome_to_dict,
    parse_goal,
    revise_af,
    satisfies_theory,
    theory_models,
)
from argent import encoding
from conftest import oracle_acceptance, oracle_revision_solutions


@pytest.fixture(scope="module")
def enc5(request):
    return AttAccVocabulary(("x", "y", "z", "t", "u"))


def test_parse_goal_atoms(enc5):
    assert parse_goal("acc(u)", enc5) == Var("acc_u")
    f = parse_goal("att(t,u) & att(z,u)", enc5)
    assert f == parse_goal("att(t,u)&att(z,u)", enc5)
    assert parse_goal("!acc(u)", enc5) == Not(Var("acc_u"))


def test_parse_goal_errors(enc5):
    with pytest.raises(UnknownArgumentError):
        parse_goal("acc(nope)", enc5)
    with pytest.raises(ParseError):
        parse_goal("u", enc5)
    with pytest.raises(ParseError):
        parse_goal("acc(u", enc5)


def test_mode_weights():
    assert mode_weights(DALAL, 5) == (1, 1)
    assert mode_weights(ATT_WEIGHTED, 5) == (6, 1)
    assert mode_weights(ATT_ONLY, 5) == (1, 0)
    # one att flip outweighs flipping every acc variable
    w_att, w_acc = mode_weights(ATT_WEIGHTED, 5)
    assert w_att > 5 * w_acc
    with pytest.raises(ValueError):
        mode_weights("nope", 3)


def test_free_att_guard_matches_theory_models():
    args = tuple(f"a{i}" for i in range(6))
    af = ArgumentationFramework(args, frozenset())
    with pytest.raises(ResourceLimitError) as from_revision:
        revise_af(af, parse_goal("acc(a0)", AttAccVocabulary(args)))
    with pytest.raises(ResourceLimitError) as from_theory:
        next(theory_models(args, TRUE))
    message = "2^36 candidate frameworks over 36 free att variables exceed the limit of 2^25"
    assert str(from_revision.value) == str(from_theory.value) == message


def test_goal_already_satisfied(f2):
    enc = AttAccVocabulary(f2.arguments)
    out = revise_af(f2, parse_goal("acc(u)", enc), mode=ATT_ONLY)
    assert len(out) == 1
    entry = out.entries[0]
    assert entry.af == f2
    assert entry.total_weight == 0
    assert not entry.att_added and not entry.att_removed and not entry.acc_changed


def test_f1_constrained_revision(f1, f2):
    enc = AttAccVocabulary(f1.arguments)
    goal = parse_goal("acc(u)", enc)
    constraint = parse_goal("att(t,u) & att(z,u)", enc)
    dalal_out = revise_af(f1, goal, constraint, mode=DALAL)
    att_only_out = revise_af(f1, goal, constraint, mode=ATT_ONLY)
    assert f2.attacks in dalal_out.attack_sets()
    assert f2.attacks in att_only_out.attack_sets()
    for out in (dalal_out, att_only_out):
        for entry in out:
            assert len(entry.att_added) + len(entry.att_removed) == 2
            assert ("t", "u") in entry.af.attacks and ("z", "u") in entry.af.attacks
            assert "u" in entry.accepted


def test_media_a1_single_result():
    a1 = ArgumentationFramework(("a", "b", "c"), frozenset({("a", "b"), ("a", "c")}))
    enc = AttAccVocabulary(a1.arguments)
    out = revise_af(a1, parse_goal("acc(c)", enc), mode=ATT_ONLY)
    assert len(out) == 1
    entry = out.entries[0]
    assert entry.att_removed == {("a", "c")}
    assert not entry.att_added


def test_unsatisfiable_goal_constraint():
    af = ArgumentationFramework(("a",), frozenset())
    enc = AttAccVocabulary(af.arguments)
    out = revise_af(af, parse_goal("att(a,a) & !att(a,a)", enc))
    assert len(out) == 0 and not out


def test_goal_unreachable_under_filter():
    # acc(a) with a forced self-attack: no framework with an extension fits
    af = ArgumentationFramework(("a",), frozenset())
    enc = AttAccVocabulary(af.arguments)
    out = revise_af(af, parse_goal("acc(a) & att(a,a)", enc), require_extension=True)
    assert len(out) == 0
    relaxed = revise_af(af, parse_goal("acc(a) & att(a,a)", enc), require_extension=False)
    assert len(relaxed) == 1
    assert relaxed.entries[0].vacuous


def test_success_and_theory_on_every_entry(f1):
    enc = AttAccVocabulary(f1.arguments)
    goal = parse_goal("acc(u)", enc)
    constraint = parse_goal("att(t,u) & att(z,u)", enc)
    for mode in (DALAL, ATT_WEIGHTED, ATT_ONLY):
        for entry in revise_af(f1, goal, constraint, mode=mode):
            m = canonical_model(entry.af)
            assert satisfies_theory(m)
            assert m.satisfies(goal) and m.satisfies(constraint)


def test_att_weighted_refines_att_only():
    a3 = ArgumentationFramework(("a", "b", "c"), frozenset({("b", "c")}))
    enc = AttAccVocabulary(a3.arguments)
    goal = parse_goal("acc(c)", enc)
    att_only = revise_af(a3, goal, mode=ATT_ONLY).attack_sets()
    weighted = revise_af(a3, goal, mode=ATT_WEIGHTED).attack_sets()
    assert weighted <= att_only
    assert weighted == {frozenset()}  # removing (b,c) flips one acc; adding (a,b) flips two


def test_entries_canonically_ordered(f1):
    enc = AttAccVocabulary(f1.arguments)
    goal = parse_goal("acc(u)", enc)
    constraint = parse_goal("att(t,u) & att(z,u)", enc)
    out = revise_af(f1, goal, constraint, mode=ATT_ONLY)
    keys = []
    for entry in out:
        flipped = entry.att_added | entry.att_removed
        keys.append(tuple(sorted(enc.pair_position(x, y) for x, y in flipped)))
    assert keys == sorted(keys)


def test_outcome_serialization(f1, f2):
    enc = AttAccVocabulary(f1.arguments)
    out = revise_af(
        f1,
        parse_goal("acc(u)", enc),
        parse_goal("att(t,u) & att(z,u)", enc),
        mode=DALAL,
    )
    text = format_outcome(out)
    assert text.startswith("entries: 1")
    assert "att_added: {(x,z),(y,t)}" in text
    assert "att_removed: {}" in text
    assert "acc_changed: {u}" in text
    assert "weight: 3" in text
    data = outcome_to_dict(out)
    assert data["entries"][0]["att_added"] == [["x", "z"], ["y", "t"]]
    assert data["entries"][0]["weight"] == 3


def test_random_instances_match_oracle():
    rng = random.Random(909090)
    for _ in range(12):
        args = ("a", "b", "c")
        attacks = frozenset(
            (args[rng.randrange(3)], args[rng.randrange(3)])
            for _ in range(rng.randrange(4))
        )
        af = ArgumentationFramework(args, attacks)
        enc = AttAccVocabulary(args)
        target = rng.choice(args)
        positive = rng.random() < 0.5
        goal_text = f"acc({target})" if positive else f"!acc({target})"
        goal = parse_goal(goal_text, enc)

        def admits(atts, accepted, vacuous):
            return (target in accepted) == positive

        out = revise_af(af, goal, mode=ATT_ONLY)
        solutions = oracle_revision_solutions(af, admits, max_radius=2)
        if not solutions:
            continue  # oracle radius too small to certify; skip
        best_radius = min(r for r, _, _ in solutions)
        if out:
            entry_flips = {
                len(e.att_added) + len(e.att_removed) for e in out
            }
            assert entry_flips == {best_radius}
            assert out.attack_sets() == {
                atts for r, atts, _ in solutions if r == best_radius
            }
        else:
            assert not solutions


def _random_goal(rng, args, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return f"acc({rng.choice(args)})"
        return f"att({rng.choice(args)},{rng.choice(args)})"
    if rng.random() < 0.2:
        return f"!{_random_goal(rng, args, depth - 1)}"
    op = rng.choice(["&", "|", "->", "<->"])
    return f"({_random_goal(rng, args, depth - 1)} {op} {_random_goal(rng, args, depth - 1)})"


def test_chunk_size_does_not_change_outcomes(monkeypatch):
    """The candidate scan tests a chunk of candidates per kernel call; cutting
    the levels into chunks of 1 or 3 gives the same outcomes in the same order."""
    rng = random.Random(4242)
    cases = []
    for _ in range(16):
        args = ("a", "b", "c", "d")[: rng.choice((3, 4))]
        enc = AttAccVocabulary(args)
        attacks = frozenset(p for p in enc.pairs if rng.random() < 0.3)
        free = set(rng.sample(range(len(enc.pairs)), rng.randrange(2, 7)))
        pins = [
            f"{'' if rng.random() < 0.3 else '!'}att({x},{y})"
            for p, (x, y) in enumerate(enc.pairs)
            if p not in free
        ]
        constraint = parse_goal(" & ".join(pins), enc)
        goal = parse_goal(_random_goal(rng, args, 3), enc)
        cases.append((ArgumentationFramework(args, attacks), goal, constraint))

    def run_all():
        found = []
        for af, goal, constraint in cases:
            for mode in (DALAL, ATT_WEIGHTED, ATT_ONLY):
                for require_extension in (True, False):
                    found.append(revise_af(af, goal, constraint, mode, require_extension))
            found.append(list(theory_models(af.arguments, constraint)))
            found.append(list(theory_models(af.arguments, And((goal, constraint)))))
        return found

    default = run_all()
    assert any(len(outcome) > 1 for outcome in default)
    for size in (1, 3):
        monkeypatch.setattr(encoding, "_CHUNK", size)
        assert run_all() == default


# Explicit cases for the scan's first chunk: the original framework rides in
# it, as a candidate that cannot pass when pins flip its attacks (every case
# with a constraint), and acc0 is read from it (an odd cycle in the third, so
# acc0 is vacuous).  Each `admits` is the goal and constraint written out.
PINNED_CASES = [
    ({("a", "b"), ("b", "c")}, "!acc(b)", "!att(a,b) & att(c,a)",
     lambda att, acc: ("a", "b") not in att and ("c", "a") in att and "b" not in acc),
    ({("a", "b"), ("b", "a"), ("b", "c")}, "acc(c) | att(c,c)", "att(a,a)",
     lambda att, acc: ("a", "a") in att and ("c" in acc or ("c", "c") in att)),
    ({("a", "b"), ("b", "c"), ("c", "a")}, "acc(a) & !acc(c)", "!att(c,a) & !att(b,b)",
     lambda att, acc: ("c", "a") not in att and ("b", "b") not in att
     and "a" in acc and "c" not in acc),
    (set(), "!acc(a) & !acc(b)", None,
     lambda att, acc: "a" not in acc and "b" not in acc),
    ({("a", "b"), ("b", "c")}, "acc(b)", "!att(a,b)",  # the pins alone reach the goal
     lambda att, acc: ("a", "b") not in att and "b" in acc),
]


def test_scan_matches_oracle_with_pinned_flips(monkeypatch):
    """Every mode, with and without the extension filter, at the default
    chunk size and at 3, where dalal's levels span several chunks."""
    args, radius = ("a", "b", "c"), 5
    enc = AttAccVocabulary(args)
    for attacks, goal, constraint, admits in PINNED_CASES:
        af = ArgumentationFramework(args, frozenset(attacks))
        acc0, _ = oracle_acceptance(args, attacks)
        goal_f = parse_goal(goal, enc)
        constraint_f = parse_goal(constraint, enc) if constraint else None
        for require_extension in (True, False):
            solutions = oracle_revision_solutions(
                af, lambda att, acc, _: admits(att, acc), radius, require_extension
            )
            for mode in (DALAL, ATT_WEIGHTED, ATT_ONLY):
                w_att, w_acc = mode_weights(mode, len(args))
                weighed = [(w_att * r + w_acc * len(acc ^ acc0), att, acc)
                           for r, att, acc in solutions]
                best = min(w for w, _, _ in weighed)
                assert best < w_att * (radius + 1)  # no lighter model lies beyond the radius
                want = {(att, acc) for w, att, acc in weighed if w == best}
                for size in (encoding._CHUNK, 3):
                    monkeypatch.setattr(encoding, "_CHUNK", size)
                    out = revise_af(af, goal_f, constraint_f, mode, require_extension)
                    assert {(e.af.attacks, e.accepted) for e in out} == want
                    assert {e.total_weight for e in out} == {best}
                    monkeypatch.undo()


def test_one_kernel_run_reaches_level_one(monkeypatch):
    """The original framework, level 0 and level 1 share one kernel run, and
    revise_af reads acc0 from it instead of calling acceptance_mask."""
    from argent import kernels

    runs = []
    columns = kernels.acceptance_columns

    def counting(*args):
        runs.append(args[1])
        return columns(*args)

    def refuse(*args):
        raise AssertionError("acceptance_mask called")

    monkeypatch.setattr(kernels, "acceptance_columns", counting)
    monkeypatch.setattr(kernels, "acceptance_mask", refuse)
    af = ArgumentationFramework(("a", "b"), frozenset({("a", "b")}))
    enc = AttAccVocabulary(af.arguments)
    for constraint, baseline in ((None, 0), (parse_goal("att(b,a)", enc), 1)):
        for mode in (ATT_ONLY, ATT_WEIGHTED):
            runs.clear()
            out = revise_af(af, parse_goal("acc(b)", enc), constraint, mode)
            assert out
            assert {len(e.att_added | e.att_removed) for e in out} == {baseline + 1}
            assert runs == [2]


def test_unsatisfiable_goal_over_the_guard_is_empty():
    # The goal has no unit literal, so all 36 att variables stay free, past
    # FREE_ATT_LIMIT; it has no model at all, so the outcome is empty rather
    # than a refusal.
    args = tuple(f"a{i}" for i in range(6))
    goal = parse_goal("(acc(a0) | acc(a1)) & !acc(a0) & !acc(a1)", AttAccVocabulary(args))
    assert len(revise_af(ArgumentationFramework(args, frozenset()), goal)) == 0


def test_precheck_runs_only_past_level_one(monkeypatch):
    """The goal's satisfiability is tested only when levels 0 and 1 found no
    model, just before level 2."""
    from argent import afrev

    calls = []
    satisfiable = afrev.satisfiable

    def counting(formulas):
        calls.append(formulas)
        return satisfiable(formulas)

    monkeypatch.setattr(afrev, "satisfiable", counting)
    af = ArgumentationFramework(("a", "b", "c"), frozenset())
    enc = AttAccVocabulary(af.arguments)
    for goal, level, checks in (
        ("!acc(b)", 1, 0),                      # one attack on b
        ("!acc(a) & !acc(b)", 2, 1),            # two attacks
        ("(acc(a) | acc(b)) & !acc(a) & !acc(b)", None, 1),  # no model
    ):
        calls.clear()
        out = revise_af(af, parse_goal(goal, enc), mode=ATT_ONLY)
        assert {e.total_weight for e in out} == ({level} if level else set())
        assert len(calls) == checks


def test_wide_goal_is_tested_first(monkeypatch):
    """Only a goal over more than ENUMERATION_LIMIT variables can make the
    satisfiability test refuse; such a goal is tested before the scan, so it
    is refused even when the original framework is a model."""
    from argent import prop

    monkeypatch.setattr(prop, "SPLIT_NODE_LIMIT", 0)
    args = ("a", "b", "c", "d", "e")
    af = ArgumentationFramework(args, frozenset())
    enc = AttAccVocabulary(args)
    pairs = [(x, y) for x in args for y in args]
    # acc(a) adds one variable to the second goal of each width
    for width in (prop.ENUMERATION_LIMIT - 1, prop.ENUMERATION_LIMIT + 1):
        text = " | ".join(f"!att({x},{y})" for x, y in pairs[:width])
        for goal in (text, f"({text}) & acc(a) & !acc(a)"):
            formula = parse_goal(goal, enc)
            if width > prop.ENUMERATION_LIMIT:
                with pytest.raises(ResourceLimitError):
                    revise_af(af, formula)
            else:
                # the original framework is the only level-0 model
                out = revise_af(af, formula)
                assert [e.total_weight for e in out] == ([0] if "&" not in goal else [])


def test_flip_levels_honour_the_chunk_size(monkeypatch):
    """Deeper levels come from cached column blocks keyed on _CHUNK: a
    smaller chunk makes more kernel runs and the same outcome."""
    from math import ceil, comb

    from argent import kernels

    runs = []
    columns = kernels.acceptance_columns

    def counting(*args):
        runs.append(args[2].bit_length())
        return columns(*args)

    monkeypatch.setattr(kernels, "acceptance_columns", counting)
    af = ArgumentationFramework(("a", "b", "c"), frozenset())
    goal = parse_goal("!acc(a) & !acc(b)", AttAccVocabulary(af.arguments))
    found = {}
    for size in (encoding._CHUNK, 3):
        monkeypatch.setattr(encoding, "_CHUNK", size)
        runs.clear()
        found[size] = revise_af(af, goal, mode=DALAL)
        # levels 0-1 (10 candidates), then levels 2 to 4 over 9 free att
        # variables: the best total is 2 att flips + 2 acc flips
        assert {e.total_weight for e in found[size]} == {4}
        want = ceil(10 / size) + sum(ceil(comb(9, k) / size) for k in (2, 3, 4))
        assert len(runs) == want and max(runs) == min(size, comb(9, 4))
    assert found[3] == found[encoding._CHUNK]
    assert len(found[3]) > 1


# Each goal's error (or formula) exactly as the token-by-token scanner gave
# it before well-formed atoms were scanned whole.
GOAL_TEXTS = [
    ("acc (x)", "acc_x"),
    ("acc(x # c\n)", "acc_x"),
    ("acc(\nx)", "acc_x"),
    ("acc(x,y)", "ParseError: line 1, col 6: expected ')'"),
    ("att(x)", "ParseError: line 1, col 6: expected ','"),
    ("acc(q)", "UnknownArgumentError: unknown argument 'q' at line 1, col 5"),
    ("att(x,q)", "UnknownArgumentError: unknown argument 'q' at line 1, col 7"),
    ("att(q,x)", "UnknownArgumentError: unknown argument 'q' at line 1, col 5"),
    ("acc(x) &\n  att(y,q)", "UnknownArgumentError: unknown argument 'q' at line 2, col 9"),
    ("acc(x", "ParseError: line 1, col 6: expected ')'"),
    ("accx(x)", "ParseError: line 1, col 1: expected an acc(...) or att(...,...) atom"),
    ("!" * 101 + "acc(x)", "ParseError: line 1, col 101: nesting deeper than 100 levels"),
    ("acc(true)", "ParseError: line 1, col 5: expected an argument identifier"),
    ("acc(acc(x))", "ParseError: line 1, col 8: expected ')'"),
    ("att(x,att(y,z))", "ParseError: line 1, col 10: expected ')'"),
    ("acc(x) acc(y)", "ParseError: line 1, col 8: unexpected 'acc'"),
    ("acc(x) & # c", "ParseError: line 1, col 10: unexpected end of input"),
    ("acc(x) & $", "ParseError: line 1, col 10: unexpected character '$'"),
]


@pytest.mark.parametrize("text, want", GOAL_TEXTS, ids=[repr(t)[:24] for t, _ in GOAL_TEXTS])
def test_goal_errors_are_unchanged(text, want):
    enc = AttAccVocabulary(("x", "y", "z"))
    try:
        got = format_formula(parse_goal(text, enc))
    except (ParseError, UnknownArgumentError) as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == want
