"""Formula parsing, printing, models, entailment, minimal conflicts."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from argent import (
    And,
    Const,
    FALSE,
    Iff,
    Implies,
    Interpretation,
    Not,
    Or,
    ParseError,
    ResourceLimitError,
    TRUE,
    Var,
    Vocabulary,
    VocabularyMismatchError,
    entails,
    evaluate,
    format_formula,
    format_interpretation,
    is_consistent,
    minimal_conflict_subsets,
    models,
    parse_formula,
    parse_formula_lines,
)
import argent.prop as prop
from argent.prop import MAX_NESTING
from conftest import oracle_minimal_conflicts

p = parse_formula


def test_parse_conjunction_with_negation():
    assert p("beta & !gamma") == And((Var("beta"), Not(Var("gamma"))))


def test_parse_constants():
    assert p("true") == TRUE
    assert p("false") == FALSE


def test_parse_phi_core():
    f = p("(a & b) | (!a & c) | !(b | (a & c))")
    assert isinstance(f, Or)
    assert len(f.children) == 3


def test_precedence_and_associativity():
    assert p("a -> b -> c") == Implies(Var("a"), Implies(Var("b"), Var("c")))
    assert p("a <-> b <-> c") == Iff(Iff(Var("a"), Var("b")), Var("c"))
    assert p("a & b | c") == Or((And((Var("a"), Var("b"))), Var("c")))
    assert p("!a & b") == And((Not(Var("a")), Var("b")))
    assert p("a | b -> c") == Implies(Or((Var("a"), Var("b"))), Var("c"))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        p("a &\n& b")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        p("a b")
    with pytest.raises(ParseError):
        p("(a")
    with pytest.raises(ParseError):
        p("A & b")  # uppercase start is not an identifier


def test_nesting_limit():
    limit = MAX_NESTING
    at_limit = [
        "(" * limit + "a" + ")" * limit,
        "!" * limit + "a",
        " -> ".join(["a"] * (limit + 1)),
        " <-> ".join(["a"] * (limit + 1)),
    ]
    for text in at_limit:
        f = p(text)
        assert p(format_formula(f)) == f
        assert evaluate(f, {"a"})
    # one level more fails at the operator that crosses the limit
    over = [
        ("(" * (limit + 1) + "a" + ")" * (limit + 1), limit + 1),
        ("!" * (limit + 1) + "a", limit + 1),
        (" -> ".join(["a"] * (limit + 2)), 3 + 5 * limit),
        (" <-> ".join(["a"] * (limit + 2)), 3 + 6 * limit),
    ]
    for text, col in over:
        with pytest.raises(ParseError, match="nesting deeper than") as err:
            p(text)
        assert (err.value.line, err.value.col) == (1, col)
    with pytest.raises(ParseError) as err:
        p("!" * limit + "\n(a)")
    assert (err.value.line, err.value.col) == (2, 1)


def test_nesting_counts_every_operator_layer():
    # Each group nests its first operand under And, Or and Implies nodes too;
    # the deepest accepted formula still compares, hashes and prints.
    text = "a"
    while True:
        deeper = f"({text} & a | b -> c)"
        try:
            p(deeper)
        except ParseError:
            break
        text = deeper
    f, g = p(text), p(text)
    assert f == g and hash(f) == hash(g)
    assert p(format_formula(f)) == f


def test_comments_ignored():
    assert p("a & b # trailing comment") == And((Var("a"), Var("b")))


def test_parse_formula_lines():
    fs = parse_formula_lines("a -> b\n\n# comment only\n!b\n")
    assert fs == (Implies(Var("a"), Var("b")), Not(Var("b")))


def test_parse_formula_lines_error_columns_count_from_line_start():
    # the end of `  c -> (d` is column 10 of line 3, blanks before it included
    with pytest.raises(ParseError) as info:
        parse_formula_lines("a\n\n  c -> (d\n")
    assert str(info.value) == "line 3, col 10: expected ')'"
    with pytest.raises(ParseError) as info:
        parse_formula_lines("\t x & $ # note")
    assert str(info.value) == "line 1, col 7: unexpected character '$'"


# Characters that `str.splitlines` breaks at and the scanner rejects.
LINE_SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("sep", LINE_SEPARATORS, ids=map(repr, LINE_SEPARATORS))
def test_parse_formula_lines_splits_at_newlines_only(sep):
    # lines end where the scanner's do, so one text gives one error position
    with pytest.raises(ParseError) as info:
        parse_formula_lines(f"a{sep}b")
    assert str(info.value) == f"line 1, col 2: unexpected character {sep!r}"
    with pytest.raises(ParseError) as info:
        parse_formula_lines(f"a{sep}\nb &")
    assert str(info.value) == "line 2, col 4: unexpected end of input"


def test_parse_formula_lines_carriage_returns():
    assert parse_formula_lines("a -> b\r\n\r\n!b # note\r\n") == (p("a -> b"), p("!b"))
    # a lone `\r` is a blank, as in `scan`, not a line break
    with pytest.raises(ParseError) as info:
        parse_formula_lines("a\rb")
    assert str(info.value) == "line 1, col 3: unexpected 'b'"
    assert parse_formula_lines("a # note\rb") == (p("a"),)


# Each text's formula or error, with the line and column the scanner gives;
# goals share the scanner (test_goal_errors_are_unchanged in test_afrev).
FORMULA_TEXTS = [
    ("a # c", "a"),
    ("a &# c", "line 1, col 4: unexpected end of input"),
    ("a &\n# c\n  ", "line 3, col 3: unexpected end of input"),
    ("\r\ta\r&\t$", "line 1, col 7: unexpected character '$'"),
    ("a\n  b", "line 2, col 3: unexpected 'b'"),
    ("a\n\n  -> b", "a -> b"),
    ("a - b", "line 1, col 3: unexpected character '-'"),
    ("a <- b", "line 1, col 3: unexpected character '<'"),
    ("(a", "line 1, col 3: expected ')'"),
    ("a &\n\n", "line 3, col 1: unexpected end of input"),
    ("A", "line 1, col 1: unexpected character 'A'"),
    ("a & true false", "line 1, col 10: unexpected 'false'"),
    ("a,b", "line 1, col 2: unexpected ','"),
    ("x1 | _y", "line 1, col 6: unexpected character '_'"),
]


@pytest.mark.parametrize("text, want", FORMULA_TEXTS, ids=[repr(t) for t, _ in FORMULA_TEXTS])
def test_scan_positions(text, want):
    try:
        got = format_formula(parse_formula(text))
    except ParseError as exc:
        got = str(exc)
    assert got == want


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_random_formula(rng, names, depth - 1))
    if kind == 1:
        width = rng.randrange(2, 4)
        return And(tuple(_random_formula(rng, names, depth - 1) for _ in range(width)))
    if kind == 2:
        width = rng.randrange(2, 4)
        return Or(tuple(_random_formula(rng, names, depth - 1) for _ in range(width)))
    if kind == 3:
        return Implies(
            _random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1)
        )
    return Iff(_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1))


def test_print_parse_roundtrip_random():
    rng = random.Random(20240501)
    for _ in range(400):
        f = _random_formula(rng, ["a", "b", "c", "d"], 4)
        assert p(format_formula(f)) == f


def test_models_phi_includes_empty_interpretation():
    phi = p("((a & b) | (!a & c) | !(b | (a & c))) & !d")
    v = Vocabulary.of("a", "b", "c", "d")
    found = {frozenset(m.true_set) for m in models(phi, v)}
    assert found == {
        frozenset(),
        frozenset({"a"}),
        frozenset({"c"}),
        frozenset({"a", "b"}),
        frozenset({"b", "c"}),
        frozenset({"a", "b", "c"}),
    }


def test_models_alpha():
    v = Vocabulary.of("a", "b", "c", "d")
    found = {frozenset(m.true_set) for m in models(p("a & !b & c"), v)}
    assert found == {frozenset({"a", "c"}), frozenset({"a", "c", "d"})}


def test_models_false_and_canonical_order():
    v = Vocabulary.of("a", "b")
    assert models(FALSE, v) == []
    ordered = [format_interpretation(m) for m in models(TRUE, v)]
    assert ordered == ["{}", "{b}", "{a}", "{a,b}"]


def test_models_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        models(p("a & e"), Vocabulary.of("a", "b"))


def test_is_consistent():
    assert is_consistent([p("delta"), p("delta -> (beta & !gamma)")])
    assert not is_consistent([p("gamma"), p("beta & !gamma")])
    assert is_consistent([])


def test_entails():
    assert entails([p("alpha"), p("alpha -> beta"), p("beta -> gamma")], p("gamma"))
    assert entails([p("eta")], TRUE)
    assert not entails([], p("a"))


def test_entails_matches_model_enumeration():
    rng = random.Random(99)
    v = Vocabulary.of("a", "b", "c")
    for _ in range(150):
        fs = [_random_formula(rng, ["a", "b", "c"], 3) for _ in range(2)]
        goal = _random_formula(rng, ["a", "b", "c"], 3)
        expected = all(
            evaluate(goal, m.true_set)
            for m in models(And(tuple(fs)), v)
        )
        assert entails(fs, goal) == expected


def test_minimal_conflicts_first_example():
    candidates = [p("alpha"), p("alpha -> beta"), p("beta -> gamma"), p("gamma")]
    context = [p("delta"), p("delta -> (beta & !gamma)"), p("beta & !gamma")]
    result = minimal_conflict_subsets(candidates, context)
    assert result == [(p("beta -> gamma"),), (p("gamma"),)]


def test_minimal_conflicts_second_example():
    candidates = [p("lambda"), p("kappa"), p("kappa -> lambda")]
    context = [p("nu"), p("nu -> !lambda"), p("!lambda")]
    result = minimal_conflict_subsets(candidates, context)
    assert result == [(p("lambda"),), (p("kappa"), p("kappa -> lambda"))]


def test_minimal_conflicts_consistent_pair_empty():
    assert minimal_conflict_subsets([p("a")], [p("b")]) == []


def test_minimal_conflicts_inconsistent_context():
    assert minimal_conflict_subsets([p("a")], [p("b"), p("!b")]) == [()]


def test_minimal_conflicts_properties_random():
    rng = random.Random(7)
    for _ in range(60):
        candidates = [_random_formula(rng, ["a", "b"], 2) for _ in range(4)]
        context = [_random_formula(rng, ["a", "b"], 2) for _ in range(2)]
        result = minimal_conflict_subsets(candidates, context)
        as_sets = {frozenset(s) for s in result}
        assert as_sets == oracle_minimal_conflicts(candidates, context)
        for subset in result:
            assert not is_consistent(list(subset) + context)
            for i in range(len(subset)):
                reduced = list(subset[:i]) + list(subset[i + 1:])
                assert is_consistent(reduced + context)
        assert bool(result) != is_consistent(list(candidates) + list(context))


def test_large_vocabulary_uses_splitting_search():
    # 26 variables forces the unit-propagation/splitting path
    chain = [Var("v0a")] + [
        Implies(Var(f"v{i}a"), Var(f"v{i + 1}a")) for i in range(25)
    ]
    assert entails(chain, Var("v25a"))
    assert not entails(chain, Not(Var("v25a")))
    assert is_consistent(chain)
    assert not is_consistent(chain + [Not(Var("v25a"))])


def test_splitting_search_depth_is_not_python_recursion():
    # 200 clauses a_i | b_i take 200 nested splits; they must not need 200
    # Python frames.
    clauses = [Or((Var(f"a{i}"), Var(f"b{i}"))) for i in range(200)]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert is_consistent(clauses)
    finally:
        sys.setrecursionlimit(limit)


def _pigeonhole(pigeons, holes):
    """Each pigeon in some hole, no hole holding two: unsatisfiable."""
    lines = [" | ".join(f"p{i}_{j}" for j in range(holes)) for i in range(pigeons)]
    lines += [f"!p{i}_{j} | !p{k}_{j}" for j in range(holes)
              for i in range(pigeons) for k in range(i + 1, pigeons)]
    return [p(t) for t in lines]


def test_splitting_search_node_budget(monkeypatch):
    # PHP(6,5) needs exactly 651 split nodes over its 30 atoms: the order of
    # the conjunct lists and the split rule fix every node the search visits.
    from argent import prop

    monkeypatch.setattr(prop, "SPLIT_NODE_LIMIT", 650)
    with pytest.raises(ResourceLimitError, match=r"over 30 atoms exceeds the limit of 650 split"):
        is_consistent(_pigeonhole(6, 5))
    monkeypatch.setattr(prop, "SPLIT_NODE_LIMIT", 651)
    assert is_consistent(_pigeonhole(6, 5)) is False


# Counts the `substitute` calls of one splitting search over 22 variables.
_SPLIT_WORK = """
import random
from argent import prop
rng = random.Random(7)
names = [f"x{i}" for i in range(22)]
calls = 0
substitute = prop.substitute
def counting(f, assignment):
    global calls
    calls += 1
    return substitute(f, assignment)
prop.substitute = counting
clauses = [prop.disj(prop.Var(v) if rng.random() < 0.5 else prop.Not(prop.Var(v))
                     for v in rng.sample(names, 3)) for _ in range(95)]
print(prop.satisfiable(clauses), calls)
"""


def test_splitting_search_work_ignores_hash_seed():
    # The split variable must not come from set order, which follows the
    # per-process string hash seed: the same input must cost the same work.
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _SPLIT_WORK], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs


_PICKLED_TEXT = "(a -> b & !c) <-> (d | true) & e"

# Unpickles a formula from stdin and compares it with a fresh parse.
_UNPICKLE = f"""
import pickle, sys
from argent import parse_formula
f = pickle.loads(sys.stdin.buffer.read())
fresh = parse_formula({_PICKLED_TEXT!r})
assert f == fresh and hash(f) == hash(fresh), (hash(f), hash(fresh))
"""


def test_pickled_formula_hashes_structurally_in_another_process():
    # String hashes differ between processes, so no hash may travel in a pickle.
    src = str(Path(__file__).resolve().parents[1] / "src")
    f = p(_PICKLED_TEXT)
    hash(f)
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _UNPICKLE], env=env, input=pickle.dumps(f),
                          capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


def test_models_width_guard():
    names = tuple(f"v{i}" for i in range(26))
    with pytest.raises(ResourceLimitError, match=r"2\^26 assignments"):
        models(p(" | ".join(names)), Vocabulary(names))
    # only variables left free by the unit literals count
    pinned = p(" & ".join(names[:20]) + " & (" + " | ".join(names[20:]) + ")")
    assert len(models(pinned, Vocabulary(names))) == 2**6 - 1


def test_minimal_conflicts_resource_guard():
    many = [Var(f"v{i}a") for i in range(17)]
    message = "131072 supports over 17 formulas exceed the limit of 4096"
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        minimal_conflict_subsets(many, [])


def test_conflict_search_guard_fires_before_any_test(monkeypatch):
    # 13 candidates over 13 atoms: 2^13 supports, refused before the joint
    # consistency test; 12 candidates: 4096, the limit, searched.
    many = [Var(f"q{i}") for i in range(13)]
    original = prop.satisfiable
    calls = []
    monkeypatch.setattr(prop, "satisfiable", lambda fs: calls.append(fs) or original(fs))
    message = "8192 supports over 13 formulas exceed the limit of 4096"
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        minimal_conflict_subsets(many, [p(" | ".join(f"!q{i}" for i in range(13)))])
    assert calls == []
    context = [p(" | ".join(f"!q{i}" for i in range(12)))]
    assert minimal_conflict_subsets(many[:12], context) == [tuple(many[:12])]


def test_vocabulary_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        Vocabulary.of("a", "a")
    with pytest.raises(ValueError):
        Vocabulary.of("Bad")


def test_interpretation_validates_true_set():
    v = Vocabulary.of("a", "b")
    with pytest.raises(VocabularyMismatchError):
        Interpretation(v, frozenset({"c"}))


def test_table_models_checks_names_once_per_table():
    from argent.prop import table_models

    v = Vocabulary.of("a", "b")
    with pytest.raises(VocabularyMismatchError, match=r"\['c'\]"):
        table_models(0b0001, v, ("a", "c"))
    with pytest.raises(VocabularyMismatchError, match=r"\['c'\]"):
        table_models(0b01, v, ("a",), ["c"])
    assert table_models(0, v, ("a", "c"), ["c"]) == []


@pytest.mark.parametrize(
    "text", ["a & !b & c", "!a & (b | d)", "(a -> b) & c & !d", "a | b | c | d", "false", "true"]
)
def test_models_match_constructed_interpretations(text):
    v = Vocabulary.of("d", "a", "c", "b")
    found = models(p(text), v)
    built = [Interpretation(v, m.true_set) for m in found]
    assert found == built
    assert list(map(hash, found)) == list(map(hash, built))
    assert list(map(str, found)) == list(map(str, built))
    assert all(type(m.true_set) is frozenset for m in found)


def test_table_path_matches_splitting_search():
    # Every width up to ENUMERATION_LIMIT goes through the one table path.
    from argent.prop import ENUMERATION_LIMIT, _split_search, satisfiable
    from argent.prop import disj, variables

    rng = random.Random(2024)
    answers = set()
    for width in range(1, ENUMERATION_LIMIT + 1):
        names = [f"x{i}" for i in range(width)]
        for _ in range(3):
            clauses = [
                disj(rng.choice((Var(v), Not(Var(v)))) for v in rng.sample(names, min(width, 3)))
                for _ in range(round(4.26 * width))
            ]
            assert len(set().union(*map(variables, clauses))) == width
            expected = _split_search([(c, variables(c)) for c in clauses])
            assert satisfiable(clauses) == expected
            answers.add(expected)
    assert answers == {True, False}


def test_substitute_folds_biconditionals():
    from argent.prop import substitute

    a, b, c = Var("a"), Var("b"), Var("c")
    assert substitute(Iff(a, b), {"a": True}) == b
    assert substitute(Iff(a, b), {"a": False}) == Not(b)
    assert substitute(Iff(a, b), {"b": True}) == a
    assert substitute(Iff(a, b), {"b": False}) == Not(a)
    assert substitute(Iff(a, b), {"a": True, "b": False}) == FALSE
    assert substitute(Iff(a, b), {"a": False, "b": False}) == TRUE
    assert substitute(Iff(a, b), {"c": True}) == Iff(a, b)
    assert substitute(Iff(Iff(a, b), c), {"a": True}) == Iff(b, c)
    assert substitute(Iff(And((a, b)), c), {"b": False}) == Not(c)
