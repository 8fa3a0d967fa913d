"""Deductive validation, defeaters, exhaustive graphs, enthymeme handling."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import argent.prop as prop
from argent import (
    ATT_ONLY,
    And,
    CertaintyMap,
    Not,
    ParseError,
    ResourceLimitError,
    StructuredArgument,
    TRUE,
    Var,
    acceptable_afs,
    added_support_is_tight,
    classify_attacks,
    complete_enthymeme,
    constraint_certain,
    entails,
    exhaustive_graph,
    is_consistent,
    is_defeater,
    is_enthymeme_for,
    make_enthymeme,
    minimal_conflict_subsets,
    parse_formula,
    parse_formula_lines,
    revise_eaf,
    validate_deductive,
)
from argent.prop import conj, neg
from argent.structured import completion_walk
from conftest import DATA

p = parse_formula

D1 = StructuredArgument.deductive(
    "d1", (p("delta"), p("delta -> (beta & !gamma)")), p("beta & !gamma")
)
D2 = StructuredArgument.deductive("d2", (p("epsilon"), p("epsilon -> !delta")), p("!delta"))
E1 = StructuredArgument.enthymeme(
    "e1", (p("alpha"),), p("gamma"), (p("alpha -> beta"), p("beta -> gamma")), p("gamma")
)
E2 = StructuredArgument.enthymeme(
    "e2", (p("eta"),), TRUE, (p("eta -> !epsilon"),), p("!epsilon")
)


def test_validate_deductive_passes():
    base = [p("delta"), p("delta -> (beta & !gamma)"), p("other")]
    report = validate_deductive(D1.fixed_support, D1.fixed_claim, base)
    assert report.ok


def test_validate_deductive_inconsistent_support():
    report = validate_deductive([p("r"), p("!r")], p("q"), [p("r"), p("!r")])
    assert not report.consistent
    assert not report.ok


def test_validate_deductive_non_minimal():
    support = [p("r"), p("r -> u"), p("l")]
    report = validate_deductive(support, p("u"), support)
    assert report.consistent and report.entails_claim
    assert not report.minimal
    assert report.redundant == (p("l"),)


def test_validate_deductive_base_membership():
    report = validate_deductive([p("a")], p("a"), [p("b")])
    assert not report.in_base
    assert report.missing_from_base == (p("a"),)


def test_defeater_examples():
    assert is_defeater(D2, D1)          # claim !delta vs support delta
    assert not is_defeater(D1, D2)      # beta & !gamma consistent with d2's support
    a = StructuredArgument.deductive("a", (p("a"),), p("a"))
    b = StructuredArgument.deductive("b", (p("b"),), p("b"))
    assert not is_defeater(a, b)
    assert is_defeater(E1, D1)          # completed claim gamma refutes d1's support
    assert is_defeater(D1, E1)


def test_defeater_equals_subset_refutation_random():
    rng = random.Random(2718)
    names = ["a", "b", "c"]

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.4:
            return Var(rng.choice(names))
        k = rng.randrange(3)
        if k == 0:
            return Not(rand_formula(depth - 1))
        return And((rand_formula(depth - 1), rand_formula(depth - 1)))

    for _ in range(80):
        support = [rand_formula(2) for _ in range(rng.randrange(1, 7))]
        claim = rand_formula(2)
        attacker = StructuredArgument.deductive("x", (claim,), claim)
        target = StructuredArgument.enthymeme("y", tuple(support), TRUE)
        direct = is_defeater(attacker, target)
        by_subsets = any(
            entails([claim], neg(conj(subset)))
            for r in range(1, len(support) + 1)
            for subset in combinations(support, r)
        )
        assert direct == by_subsets


def test_exhaustive_graph_rebuttal():
    base = [p("a"), p("!a")]
    pool = [p("a"), p("!a")]
    af, table = exhaustive_graph(base, pool)
    assert len(af.arguments) == 2
    supports = {tuple(arg.support) for arg in table.values()}
    assert supports == {(p("a"),), (p("!a"),)}
    assert len(af.attacks) == 2  # mutual rebuttal


def test_exhaustive_graph_modus_ponens():
    base = [p("a"), p("a -> b"), p("!b")]
    pool = [p("b"), p("!b")]
    af, table = exhaustive_graph(base, pool)
    contents = {(tuple(a.support), a.full_claim) for a in table.values()}
    assert contents == {
        ((p("a"), p("a -> b")), p("b")),
        ((p("!b"),), p("!b")),
    }
    assert len(af.attacks) == 2  # mutual defeat


def test_exhaustive_graph_empty_base():
    af, table = exhaustive_graph([], [p("a")])
    assert af.arguments == () and not table


def test_exhaustive_graph_attacks_equal_defeater_closure():
    base = [p("a"), p("a -> b"), p("!b"), p("c")]
    pool = [p("b"), p("!b"), p("c")]
    af, table = exhaustive_graph(base, pool)
    expected = {
        (x.id, y.id)
        for x in table.values()
        for y in table.values()
        if is_defeater(x, y)
    }
    assert af.attacks == expected


def test_exhaustive_graph_guard():
    base = [Var(f"v{i}a") for i in range(13)]
    message = "8192 supports over 13 formulas exceed the limit of 4096"
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        exhaustive_graph(base, [p("a")])


def walk_satisfiable_calls(monkeypatch, run, within=prop.subset_walk.__code__):
    """The `prop.satisfiable` calls made by `run()` inside the frames of the
    code object `within` (by default `prop.subset_walk`), or anywhere when
    `within` is None."""
    original = prop.satisfiable
    inside = []

    def counting(formulas):
        frame = sys._getframe(1)
        while within is not None and frame is not None and frame.f_code is not within:
            frame = frame.f_back
        if frame is not None:
            inside.append(formulas)
        return original(formulas)

    monkeypatch.setattr(prop, "satisfiable", counting)
    run()
    monkeypatch.undo()
    return inside


def test_subset_walk_proves_supports_on_tables(f3, monkeypatch):
    # Up to 12 atoms the walk tests each support on truth tables it compiled
    # once, with no satisfiable call; wider, it calls satisfiable.
    base = parse_formula_lines((DATA / "beliefs_completion.txt").read_text())
    pool = parse_formula_lines((DATA / "claims_completion.txt").read_text())
    e1 = next(a for a in f3.arguments if a.id == "e1")
    found = []

    def narrow():
        exhaustive_graph(base, pool)
        found.append(list(completion_walk(e1, base, pool, 3)))
        found.append(minimal_conflict_subsets([p("a"), p("a -> b"), p("!b"), p("b")]))

    assert walk_satisfiable_calls(monkeypatch, narrow) == []
    assert all(found)
    wide = [p(" | ".join(f"v{i}" for i in range(13))), p("!v0")]
    assert walk_satisfiable_calls(monkeypatch, lambda: exhaustive_graph(wide, [p("!v0")]))


def test_enthymeme_calls_prove_on_tables(f3, monkeypatch):
    # Each public call of the enthymeme pipeline compiles its formulas once;
    # on inputs within 12 atoms only the revision that acceptable_afs reads
    # calls satisfiable.
    base = parse_formula_lines((DATA / "beliefs_completion.txt").read_text())
    pool = parse_formula_lines((DATA / "claims_completion.txt").read_text())
    outcome = revise_eaf(f3, "acc(e1)", "deductive", ATT_ONLY)
    found = []

    def run():
        found.append(classify_attacks(f3))
        found.append(constraint_certain(f3))
        found.append(exhaustive_graph(base, pool))
        found.append(acceptable_afs(f3, outcome, base, pool))

    assert walk_satisfiable_calls(monkeypatch, run, within=None) == []
    assert all(found)


def test_completion_walk_guard_fires_before_any_support(monkeypatch):
    # 13 formulas, up to 12 added: 2^13 - 1 supports; 12 formulas: 4096, the limit.
    e = StructuredArgument.enthymeme("e", (p("a"),), p("a"))
    base = [p(f"!a & b{i}") for i in range(13)]
    original = prop.satisfiable
    calls = []
    monkeypatch.setattr(prop, "satisfiable", lambda fs: calls.append(fs) or original(fs))
    with pytest.raises(ResourceLimitError, match=r"^8191 supports over 13 formulas exceed the limit of 4096$"):
        list(completion_walk(e, base, [], 12))
    assert calls == []
    assert list(completion_walk(e, base[:12], [], 12)) == [((), p("a"), True)]
    assert list(completion_walk(e, base[:12], [], 10**12)) == [((), p("a"), True)]
    with pytest.raises(ResourceLimitError):
        complete_enthymeme(e, base, [], max_added=12)


def test_make_enthymeme_threshold():
    arg = StructuredArgument.deductive(
        "john", (p("rain_predicted"), p("rain_predicted -> take_umbrella")), p("take_umbrella")
    )
    certainty = CertaintyMap({p("rain_predicted -> take_umbrella"): Fraction(9, 10)})
    enth = make_enthymeme(arg, certainty, Fraction(1, 2))
    assert enth.fixed_support == (p("rain_predicted"),)
    assert enth.fixed_claim == p("take_umbrella")
    assert enth.kind == "enthymeme" and not enth.is_completed
    # threshold above every certainty keeps everything
    assert make_enthymeme(arg, certainty, Fraction(11, 10)).fixed_support == arg.fixed_support
    # threshold zero strips everything
    assert make_enthymeme(arg, certainty, Fraction(0)).fixed_support == ()


def test_make_enthymeme_monotone_in_tau():
    arg = StructuredArgument.deductive("a1", (p("x1"), p("x2"), p("x3")), p("x1"))
    certainty = CertaintyMap({p("x1"): Fraction(1, 4), p("x2"): Fraction(3, 4)})
    previous = set()
    for tau in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(2)):
        kept = set(make_enthymeme(arg, certainty, tau).fixed_support)
        assert previous <= kept
        previous = kept


def test_make_enthymeme_requires_deductive():
    with pytest.raises(ValueError):
        make_enthymeme(E1, CertaintyMap(), Fraction(1, 2))


def test_certainty_map_range_checked():
    with pytest.raises(ValueError):
        CertaintyMap({p("a"): Fraction(3, 2)})


def test_certainty_map_range_message_omits_the_value():
    # a value too long to print as an integer
    with pytest.raises(ValueError) as raised:
        CertaintyMap({Var("a"): Fraction(10) ** 4300})
    assert "certainty of a outside [0,1]" in str(raised.value)
    assert "digits" not in str(raised.value)


def test_certainty_map_parse():
    cm = CertaintyMap.parse("0.9 : rain -> umbrella\n# note\n1/4 : rain\n")
    assert cm.value_of(p("rain -> umbrella")) == Fraction(9, 10)
    assert cm.value_of(p("rain")) == Fraction(1, 4)
    assert cm.value_of(p("other")) == 0


def test_certainty_map_parse_error_positions():
    # columns count from the start of the file's line, colon and blanks included
    with pytest.raises(ParseError) as info:
        CertaintyMap.parse("1 : a\n# note\n0.5 : a &\n")
    assert str(info.value) == "line 3, col 10: unexpected end of input"
    with pytest.raises(ParseError) as info:
        CertaintyMap.parse("\n  1/2: (a | $\n")
    assert str(info.value) == "line 2, col 13: unexpected character '$'"


def test_certainty_map_line_errors_point_at_their_text():
    # a bad rational and a line without `:` are raised where the line's text starts
    with pytest.raises(ParseError) as info:
        CertaintyMap.parse("1 : a\n  1/0 : b\n")
    assert str(info.value) == "line 2, col 3: bad rational '1/0'"
    with pytest.raises(ParseError) as info:
        CertaintyMap.parse("1 : a\n\t b\n")
    assert str(info.value) == "line 2, col 3: expected '<rational> : <formula>'"
    # the formula is stripped of the blanks a belief line is
    assert CertaintyMap.parse("1 :\x0ca\x0c\n").values == {p("a"): Fraction(1)}


@pytest.mark.parametrize("sep", ("\x0c", "\x85", "\u2028"), ids=repr)
def test_certainty_map_splits_at_newlines_only(sep):
    with pytest.raises(ParseError) as info:
        CertaintyMap.parse(f"1 : a{sep}b\n")
    assert str(info.value) == f"line 1, col 6: unexpected character {sep!r}"
    with pytest.raises(ParseError) as info:
        CertaintyMap.parse(f"1 : a{sep}\n1/2 : b &\n")
    assert str(info.value) == "line 2, col 10: unexpected end of input"


def test_certainty_map_carriage_returns():
    cm = CertaintyMap.parse("0.9 : rain -> umbrella\r\n# note\r\n1/4 : rain\r\n")
    assert cm.values == {p("rain -> umbrella"): Fraction(9, 10), p("rain"): Fraction(1, 4)}
    # a lone `\r` is a blank, as in `scan`: it ends no comment
    assert CertaintyMap.parse("1 : a # note\r0.5 : b\n").values == {p("a"): Fraction(1)}


def test_is_enthymeme_for():
    completed_e1 = StructuredArgument.deductive(
        "e1", (p("alpha"), p("alpha -> beta"), p("beta -> gamma")), p("gamma")
    )
    assert is_enthymeme_for(((p("alpha"),), p("gamma")), completed_e1)
    completed_e2 = StructuredArgument.deductive(
        "e2", (p("eta"), p("eta -> !epsilon")), p("!epsilon")
    )
    assert is_enthymeme_for(((p("eta"),), TRUE), completed_e2)
    assert not is_enthymeme_for(
        (completed_e1.fixed_support, completed_e1.fixed_claim), completed_e1
    )


def test_complete_enthymeme_e2():
    bare = StructuredArgument.enthymeme("e2", (p("eta"),), TRUE)
    found = complete_enthymeme(bare, [p("eta -> iota")], [p("iota")])
    contents = {(c.support, c.full_claim) for c in found}
    assert ((p("eta"), p("eta -> iota")), p("iota")) in contents
    for c in found:
        assert is_consistent(list(c.support))
        assert entails(list(c.support), c.full_claim)
        assert entails([c.full_claim], c.fixed_claim)


def test_complete_enthymeme_e1():
    bare = StructuredArgument.enthymeme("e1", (p("alpha"),), p("gamma"))
    found = complete_enthymeme(
        bare, [p("alpha -> beta"), p("beta -> gamma")], [], max_added=3
    )
    contents = {(c.support, c.full_claim) for c in found}
    assert ((p("alpha"), p("alpha -> beta"), p("beta -> gamma")), p("gamma")) in contents


def test_complete_enthymeme_trivial_identity():
    bare = StructuredArgument.enthymeme("e", (p("a"),), p("a"))
    found = complete_enthymeme(bare, [], [])
    assert [(c.added_support, c.full_claim) for c in found] == [((), p("a"))]


def test_complete_enthymeme_ordering_and_completions_are_enthymemes():
    bare = StructuredArgument.enthymeme("e2", (p("eta"),), TRUE)
    base = [p("alpha -> theta"), p("eta -> iota")]
    found = complete_enthymeme(bare, base, [p("iota")])
    sizes = [len(c.added_support) for c in found]
    assert sizes == sorted(sizes)
    for c in found:
        if c.added_support:
            assert is_enthymeme_for((c.fixed_support, c.fixed_claim), c)


def test_complete_enthymeme_strict_flag():
    bare = StructuredArgument.enthymeme("e2", (p("eta"),), TRUE)
    base = [p("alpha -> theta"), p("eta -> iota")]
    strict = complete_enthymeme(bare, base, [p("iota")], strict=True)
    for c in strict:
        for i in range(len(c.support)):
            reduced = list(c.support[:i]) + list(c.support[i + 1:])
            assert not entails(reduced, c.full_claim)


def test_added_support_is_tight():
    loose = StructuredArgument.enthymeme("e", (p("eta"),), TRUE, (p("alpha -> theta"),), TRUE)
    assert not added_support_is_tight(loose)
    tight = StructuredArgument.enthymeme(
        "e", (p("eta"),), TRUE, (p("eta -> iota"),), p("iota")
    )
    assert added_support_is_tight(tight)


def test_structured_argument_invariants():
    with pytest.raises(ValueError):
        StructuredArgument.deductive("bad id", (p("a"),), p("a"))
    with pytest.raises(ValueError):
        # full claim fails to entail the transmitted claim
        StructuredArgument.enthymeme("e", (p("a"),), p("b"), (p("a"),), p("a"))
    with pytest.raises(ValueError):
        # completed support inconsistent
        StructuredArgument.enthymeme("e", (p("a"),), TRUE, (p("!a"),), TRUE)
    with pytest.raises(ValueError):
        # completed support does not entail the full claim
        StructuredArgument.enthymeme("e", (p("a"),), TRUE, (p("b"),), p("c"))
