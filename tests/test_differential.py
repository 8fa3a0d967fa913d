"""Differential tests of argument construction and framework revision.

`subset_walk`, `exhaustive_graph`, `complete_enthymeme`,
`added_support_is_tight` and `minimal_conflict_subsets` are checked against
plain subset enumeration with `is_consistent` and `entails`, the
acceptability witness candidates against their definition through
`complete_enthymeme`, and `revise_af` against the set-based
`oracle_revision_solutions`.  `classify_attacks`, `exhaustive_graph` and
`acceptable_afs` on compiled truth tables are checked against the same calls
made with every test an `is_consistent` or `entails` call.
"""

import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import argent.prop as prop
from argent import (
    ATT_ONLY,
    ATT_WEIGHTED,
    And,
    ArgumentationFramework,
    AttAccVocabulary,
    DALAL,
    EnthymemeAF,
    FALSE,
    Iff,
    Implies,
    Not,
    Or,
    RevisionEntry,
    RevisionOutcome,
    StructuredArgument,
    TRUE,
    UnknownArgumentError,
    Var,
    acceptable_afs,
    added_support_is_tight,
    classify_attacks,
    complete_enthymeme,
    entails,
    evaluate,
    exhaustive_graph,
    is_consistent,
    minimal_conflict_subsets,
    parse_eaf,
    parse_formula_lines,
    parse_goal,
    revise_af,
)
from argent.eaf import _witness_candidates
from argent.prop import _CACHED_WIDTH, neg, subset_walk
from conftest import (
    DATA,
    oracle_acceptability,
    oracle_acceptance,
    oracle_classification,
    oracle_completions,
    oracle_revision_solutions,
    oracle_tight,
)

# ---------------------------------------------------------------------------
# Argument construction
# ---------------------------------------------------------------------------

ATOMS = ("p", "q", "r", "s", "t")
P, Q, R, S = (Var(name) for name in ATOMS[:4])


def literals(atoms=ATOMS):
    return st.tuples(st.sampled_from(atoms), st.booleans()).map(
        lambda nb: Var(nb[0]) if nb[1] else Not(Var(nb[0]))
    )


def formulas(atoms=ATOMS):
    """Literals and rules between literals, which make entailments common,
    and small trees over every connective."""
    literal = literals(atoms)
    tree = st.recursive(
        st.one_of(literal, st.just(TRUE)),
        lambda c: st.one_of(
            c.map(Not),
            st.tuples(c, c).map(And),
            st.tuples(c, c).map(Or),
            st.tuples(c, c).map(lambda lr: Implies(*lr)),
            st.tuples(c, c).map(lambda lr: Iff(*lr)),
        ),
        max_leaves=3,
    )
    rule = st.tuples(literal, literal).map(lambda lr: Implies(*lr))
    return st.one_of(literal, rule, literal, rule, tree)


@st.composite
def bases_and_pools(draw):
    """A base of up to 7 formulas over 2 to 5 atoms, and a claim pool that
    often reuses or negates base formulas."""
    atoms = ATOMS[: draw(st.integers(2, 5))]
    base = draw(st.lists(formulas(atoms), min_size=3, max_size=7))
    claim = st.one_of(st.sampled_from(base), st.sampled_from(base).map(neg), literals(atoms))
    return base, draw(st.lists(claim, min_size=1, max_size=3))


def tautology(width):
    """A formula true everywhere that mentions the atoms v0 .. v<width - 1>."""
    return Or(tuple(x for i in range(width) for x in (Var(f"v{i}"), Not(Var(f"v{i}")))))


V0, V1, V2 = (Var(f"v{i}") for i in range(3))


@st.composite
def walk_cases(draw):
    """`subset_walk` inputs over 2 to 4 atoms whose formulas repeat one
    another and the constants."""
    atoms = tuple(f"v{i}" for i in range(draw(st.integers(2, 4))))
    distinct = draw(st.lists(formulas(atoms), min_size=1, max_size=4)) + [TRUE, FALSE]
    item = st.sampled_from(distinct)
    fixed = draw(st.lists(item, max_size=2))
    extra = draw(st.lists(item, max_size=4))
    claims = draw(st.lists(st.one_of(item, item.map(neg)), max_size=3))
    return fixed, extra, claims, draw(st.integers(0, 4))


def oracle_walk(fixed, extra, claims, max_size):
    """What `subset_walk` yields, by its definition: every support, by size
    then position, whose leave-one-out subsets are all consistent; None for an
    inconsistent one, and for a consistent one each claim it entails, minimal
    when no leave-one-out subset entails it."""
    def support(combo):
        return [*fixed, *(extra[i] for i in combo)]

    found = []
    for r in range(min(max_size, len(extra)) + 1):
        for combo in combinations(range(len(extra)), r):
            subsets = [support(combo[:i] + combo[i + 1:]) for i in range(r)]
            if not all(is_consistent(s) for s in subsets):
                continue
            chosen = tuple(extra[i] for i in combo)
            whole = support(combo)
            if not is_consistent(whole):
                found.append((chosen, None))
                continue
            found.append((chosen, [
                (c, not any(entails(s, c) for s in subsets)) for c in claims if entails(whole, c)
            ]))
    return found


@settings(max_examples=25)
@given(walk_cases())
@example(([V0, Not(V0)], [V1, Not(V1)], [V1], 2))
@example(([FALSE], [V0], [V0], 1))
@example(([], [], [], 3))
@example(([], [TRUE, FALSE, V0, Not(V0)], [TRUE, FALSE, V0], 4))
@example(([V0], [Implies(V0, V1), V1, Implies(V1, V2)], [V0, V1, V2], 3))
@example(([], [V0, V0, Implies(V0, V1), Not(V1)], [V1, V1], 4))
def test_subset_walk_matches_subset_enumeration(case):
    """On both sides of the truth-table width: a tautology over
    _CACHED_WIDTH or one more atoms joins the fixed formulas."""
    fixed, extra, claims, max_size = case
    for width in (_CACHED_WIDTH, _CACHED_WIDTH + 1):
        walk = ([*fixed, tautology(width)], extra, claims, max_size)
        assert list(subset_walk(*walk)) == oracle_walk(*walk)


def oracle_arguments(base, pool):
    """(support, claim) of every deductive argument, by size then position:
    consistent supports entailing the claim with no entailing proper subset."""
    base = list(dict.fromkeys(base))
    pool = list(dict.fromkeys(pool))
    found = []
    for r in range(len(base) + 1):
        for support in combinations(base, r):
            if not is_consistent(support):
                continue
            for claim in pool:
                if not entails(support, claim):
                    continue
                if any(c == claim and set(s) < set(support) for s, c in found):
                    continue
                found.append((support, claim))
    return found


@settings(max_examples=100)
@given(bases_and_pools())
@example(([P, Implies(P, Q), Q], [Q, P]))
@example(([P, Not(P), TRUE], [TRUE, P]))
@example(([P, Implies(P, Q), Not(Q)], [Q, Not(P)]))
@example(([], [TRUE]))
@example((
    [P, Implies(P, Q), Not(Q), Implies(Q, R),
     Not(P), R, Or((P, S))],
    [Q, Not(Q), P, Not(P), R],
))
def test_exhaustive_graph_matches_subset_enumeration(base_pool):
    base, pool = base_pool
    af, table = exhaustive_graph(base, pool)
    expected = oracle_arguments(base, pool)
    assert af.arguments == tuple(f"a{i}" for i in range(1, len(expected) + 1))
    assert [(table[a].support, table[a].full_claim) for a in af.arguments] == expected
    assert all(table[a].kind == "deductive" for a in af.arguments)
    args = [table[a] for a in af.arguments]
    assert af.attacks == {
        (x.id, y.id)
        for x in args
        for y in args
        if not is_consistent([x.full_claim, *y.support])
    }


@settings(max_examples=100)
@given(
    st.lists(formulas(), max_size=2),
    st.one_of(st.just(TRUE), literals(), formulas()),
    bases_and_pools(),
    st.integers(0, 3),
    st.booleans(),
)
@example([P], R, ([Implies(P, Q), Implies(Q, R), P], [R, Q]), 3, False)
@example([P, P], P, ([Q], []), 1, True)
@example([P], TRUE, ([P, Implies(P, Q), Q], [Q]), 2, True)
def test_complete_enthymeme_matches_subset_enumeration(fixed, claim, base_pool, max_added, strict):
    base, pool = base_pool
    e = StructuredArgument.enthymeme("e", fixed, claim)
    found = complete_enthymeme(e, base, pool, max_added=max_added, strict=strict)
    expected = oracle_completions(e, base, pool, max_added, strict)
    assert [(c.added_support, c.full_claim) for c in found] == expected
    for c in found:
        assert (c.id, c.kind, c.fixed_support) == ("e", "enthymeme", e.fixed_support)
        assert c.fixed_claim == claim
        tight = oracle_tight(c.fixed_support, c.added_support, c.full_claim)
        assert added_support_is_tight(c) == tight


def oracle_witness_candidates(arg, base, pool, max_added):
    """The current argument, then every proper, tight recompletion of its
    transmitted pair other than the current one."""
    bare = StructuredArgument.enthymeme(arg.id, arg.fixed_support, arg.fixed_claim)
    return [arg] + [
        c
        for c in complete_enthymeme(bare, base, pool, max_added)
        if (c.added_support or c.full_claim != c.fixed_claim)
        and (c.added_support, c.full_claim) != (arg.added_support, arg.full_claim)
        and added_support_is_tight(c)
    ]


@settings(max_examples=50)
@given(
    st.lists(formulas(), max_size=2),
    st.one_of(st.just(TRUE), literals(), formulas()),
    bases_and_pools(),
    st.integers(0, 3),
    st.integers(0, 20),
)
@example([P], R, ([Implies(P, Q), Implies(Q, R), P, Implies(P, R)], [R, Q]), 3, 1)
@example([P], TRUE, ([P, Implies(P, Q), Q], [Q]), 2, 2)
def test_witness_candidates_match_definition(fixed, claim, base_pool, max_added, pick):
    base, pool = base_pool
    bare = StructuredArgument.enthymeme("e", fixed, claim)
    # The current completion is the bare pair or one of its completions.
    current = [bare, *complete_enthymeme(bare, base, pool, max_added)]
    arg = current[pick % len(current)]
    expected = oracle_witness_candidates(arg, base, pool, max_added)
    assert _witness_candidates(arg, base, pool, max_added) == expected


# ---------------------------------------------------------------------------
# Compiled truth tables against satisfiability calls
# ---------------------------------------------------------------------------

def flipped_outcome(eaf, flips):
    """A revision outcome with one entry per set of pairs in `flips`: the
    declared framework with those attacks toggled (acceptable_afs reads only
    the frameworks)."""
    entries = []
    for pairs in flips:
        attacks = eaf.declared_attacks ^ frozenset(pairs)
        entries.append(RevisionEntry(
            ArgumentationFramework(eaf.ids, attacks), frozenset(), False,
            attacks - eaf.declared_attacks, eaf.declared_attacks - attacks, frozenset(),
            len(pairs),
        ))
    return RevisionOutcome(tuple(entries))


def assert_tables_match_wide_path(eaf, base, pool, flips, max_added):
    """classify_attacks, exhaustive_graph and acceptable_afs answer the same
    on compiled tables as with _CACHED_WIDTH at 0, where every test is an
    is_consistent or entails call."""
    outcome = flipped_outcome(eaf, flips)

    def run():
        return (
            classify_attacks(eaf),
            exhaustive_graph(base, pool),
            acceptable_afs(eaf, outcome, base, pool, max_added),
        )

    on_tables = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prop, "_CACHED_WIDTH", 0)
        assert run() == on_tables


@pytest.mark.parametrize("name", ["f3", "f6", "media_a1", "media_a2", "media_a3"])
@pytest.mark.parametrize("beliefs", ["completion", "rebuttal"])
def test_tables_match_wide_path_on_data(name, beliefs):
    eaf = parse_eaf((DATA / f"{name}.eaf").read_text())
    base = parse_formula_lines((DATA / f"beliefs_{beliefs}.txt").read_text())
    pool = parse_formula_lines((DATA / f"claims_{beliefs}.txt").read_text())
    flips = [[(x, y)] for x in eaf.ids for y in eaf.ids]
    assert_tables_match_wide_path(eaf, base, pool, flips, 3)


EAF_ATOMS = ATOMS + ("u",)


@st.composite
def enthymeme_frameworks(draw):
    """Up to 6 arguments over up to 6 atoms, about half of them enthymemes
    with a transmitted claim that is often `true`, completed when the drawn
    completion is valid; declared attacks, a belief base, a claim pool and
    single-pair flips for the revision entries."""
    atoms = EAF_ATOMS[: draw(st.integers(1, 6))]
    formula = formulas(atoms)
    args = []
    for i in range(draw(st.integers(1, 6))):
        support = draw(st.lists(formula, max_size=2))
        if draw(st.booleans()):
            args.append(StructuredArgument.deductive(f"a{i}", support, draw(formula)))
            continue
        claim = draw(st.one_of(st.just(TRUE), formula))
        added = draw(st.lists(formula, max_size=2))
        full = draw(st.one_of(st.none(), st.sampled_from(support + added + [claim])))
        try:
            args.append(StructuredArgument.enthymeme(f"a{i}", support, claim, added, full))
        except ValueError:
            args.append(StructuredArgument.enthymeme(f"a{i}", support, claim))
    ids = [a.id for a in args]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    eaf = EnthymemeAF(tuple(args), frozenset(draw(st.sets(pair, max_size=len(ids) + 2))))
    flips = draw(st.lists(pair.map(lambda p: [p]), max_size=3))
    return eaf, draw(st.lists(formula, max_size=4)), draw(st.lists(formula, max_size=2)), flips


@settings(max_examples=40)
@given(enthymeme_frameworks(), st.integers(0, 2))
def test_tables_match_wide_path(case, max_added):
    eaf, base, pool, flips = case
    assert_tables_match_wide_path(eaf, base, pool, flips, max_added)


# ---------------------------------------------------------------------------
# Classification and acceptability against their definitions
# ---------------------------------------------------------------------------

NOTE = re.compile(r"attack \((\w+),(\w+)\): certain via fixed-part conflict \{.*\} of (\w+); ")


def assert_classification_matches_oracle(eaf):
    cls = classify_attacks(eaf)
    certain, questionable, core, warnings, noted = oracle_classification(eaf)
    assert (cls.certain, cls.questionable, cls.deductive_core) == (certain, questionable, core)
    assert list(cls.warnings) == warnings
    assert [NOTE.match(note).groups() for note in cls.notes] == noted


def assert_acceptability_matches_oracle(eaf, base, pool, flips, max_added):
    outcome = flipped_outcome(eaf, flips)
    results = acceptable_afs(eaf, outcome, base, pool, max_added)
    got = [
        (r.acceptable, {aid: (c.added_support, c.full_claim) for aid, c in r.witness.items()})
        for r in results
    ]
    assert got == [
        oracle_acceptability(eaf, entry.af.attacks, base, pool, max_added)
        for entry in outcome.entries
    ]
    assert all((r.reason is None) == r.acceptable for r in results)


@pytest.mark.parametrize("name", ["f3", "f6", "media_a1", "media_a2", "media_a3"])
@pytest.mark.parametrize("beliefs", ["completion", "rebuttal"])
def test_classification_and_acceptability_match_definitions_on_data(name, beliefs):
    eaf = parse_eaf((DATA / f"{name}.eaf").read_text())
    base = parse_formula_lines((DATA / f"beliefs_{beliefs}.txt").read_text())
    pool = parse_formula_lines((DATA / f"claims_{beliefs}.txt").read_text())
    assert_classification_matches_oracle(eaf)
    flips = [[(x, y)] for x in eaf.ids for y in eaf.ids]
    assert_acceptability_matches_oracle(eaf, base, pool, flips, 3)


# A certain attack whose enthymeme also conflicts outside its fixed part (by
# its full claim), which carries a note; drawn frameworks seldom have one.
NOTED = EnthymemeAF(
    (
        StructuredArgument.enthymeme("e", [P], TRUE, [Implies(P, Not(Q))], Not(Q)),
        StructuredArgument.deductive("d", [Q, Not(P)], Q),
    ),
    frozenset({("e", "d"), ("d", "e")}),
)


@settings(max_examples=60)
@given(enthymeme_frameworks())
@example((NOTED, [], [], []))
def test_classify_attacks_matches_definition(case):
    assert_classification_matches_oracle(case[0])


@settings(max_examples=40)
@given(enthymeme_frameworks(), st.integers(0, 2))
def test_acceptable_afs_matches_definition(case, max_added):
    eaf, base, pool, flips = case
    # Negated contents in the base, claimed by the pool, let recompletions
    # make and break conflicts.  Every pair is flipped alone, and the drawn
    # pairs all at once, so that several enthymemes can need a witness.
    base = base + [neg(f) for a in eaf.arguments for f in a.content][:3]
    pool = pool + base[-3:]
    flips = [[(x, y)] for x in eaf.ids for y in eaf.ids] + [[p for pairs in flips for p in pairs]]
    assert_acceptability_matches_oracle(eaf, base, pool, flips, max_added)


# ---------------------------------------------------------------------------
# Minimal conflicts
# ---------------------------------------------------------------------------

def oracle_conflicts(candidates, context):
    """Every subset of the distinct candidates that is inconsistent with the
    context and has no inconsistent proper subset, by size then position."""
    cand = list(dict.fromkeys(candidates))
    found = []
    for r in range(len(cand) + 1):
        for combo in combinations(cand, r):
            if is_consistent([*combo, *context]):
                continue
            if not any(set(prev) < set(combo) for prev in found):
                found.append(combo)
    return found


@st.composite
def conflict_cases(draw):
    """Up to 7 candidates, repeats allowed, and a context of up to 3 formulas,
    over 1 to 5 atoms."""
    atoms = ATOMS[: draw(st.integers(1, 5))]
    distinct = draw(st.lists(formulas(atoms), min_size=1, max_size=7))
    candidates = draw(st.lists(st.sampled_from(distinct), max_size=7))
    return candidates, draw(st.lists(formulas(atoms), max_size=3))


@settings(max_examples=50)
@given(conflict_cases())
@example(([P, Q, P], [Not(P), Implies(Q, P)]))
@example(([P, Implies(P, Q), Not(Q), Q], [R, Not(R)]))
@example(([P, Implies(P, Q), Not(Q), Or((Not(P), Not(Q))), Q, Not(P), P], [Implies(Q, R)]))
@example(([], [Not(TRUE)]))
def test_minimal_conflict_subsets_match_subset_enumeration(case):
    candidates, context = case
    assert minimal_conflict_subsets(candidates, context) == oracle_conflicts(candidates, context)


# ---------------------------------------------------------------------------
# Framework revision
# ---------------------------------------------------------------------------

ARGS = ("a", "b", "c", "d")


@st.composite
def goal_texts(draw, arguments):
    """Goal text over acc/att atoms with every connective of the grammar."""
    atom = st.one_of(
        st.sampled_from(arguments).map(lambda x: f"acc({x})"),
        st.tuples(st.sampled_from(arguments), st.sampled_from(arguments)).map(
            lambda xy: f"att({xy[0]},{xy[1]})"
        ),
    )
    return draw(
        st.recursive(
            atom,
            lambda c: st.one_of(
                c.map(lambda g: f"!{g}"),
                st.tuples(c, st.sampled_from(["&", "|", "->", "<->"]), c).map(
                    lambda t: f"({t[0]} {t[1]} {t[2]})"
                ),
            ),
            max_leaves=4,
        )
    )


@st.composite
def revision_cases(draw):
    n = draw(st.integers(1, 4))
    arguments = ARGS[:n]
    pairs = [(x, y) for x in arguments for y in arguments]
    attacks = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=n + 1)))
    goal = draw(goal_texts(arguments))
    constraint = draw(st.none() | goal_texts(arguments))
    return ArgumentationFramework(arguments, attacks), goal, constraint


def _weight(mode, n, radius, acc_flips):
    if mode == ATT_ONLY:
        return radius
    return (1 if mode == DALAL else n + 1) * radius + acc_flips


@settings(max_examples=60)
@given(revision_cases())
@example((ArgumentationFramework(("a", "b"), {("a", "b")}), "acc(b) | att(b,a)", None))
@example((ArgumentationFramework(("a", "b", "c"), ()), "acc(a) -> !acc(b)", "att(c,a) <-> acc(c)"))
@example((ArgumentationFramework(("a",), ()), "att(a,a)", None))
def test_revise_af_matches_oracle(case):
    af, goal_text, constraint_text = case
    n = len(af.arguments)
    enc = AttAccVocabulary(af.arguments)
    goal = parse_goal(goal_text, enc)
    constraint = parse_goal(constraint_text, enc) if constraint_text else None
    combined = And((goal, constraint)) if constraint else goal

    def admits(attacks, accepted, vacuous):
        true_names = {enc.att_var(x, y) for x, y in attacks} | {enc.acc_var(x) for x in accepted}
        return evaluate(combined, true_names)

    radius = n * n if n <= 3 else 3
    acc0, _ = oracle_acceptance(af.arguments, af.attacks)
    for require_extension in (True, False):
        solutions = oracle_revision_solutions(af, admits, radius, require_extension)
        for mode in (ATT_ONLY, DALAL, ATT_WEIGHTED):
            out = revise_af(af, goal, constraint, mode=mode, require_extension=require_extension)
            got = [(e.af.attacks, e.accepted, e.total_weight) for e in out]
            scored = [
                (_weight(mode, n, r, len(acc ^ acc0)), atts, acc) for r, atts, acc in solutions
            ]
            best = min((w for w, _, _ in scored), default=None)
            # Outside the radius only heavier solutions can exist, except for
            # dalal, whose acceptance flips add up to n on top of the radius.
            certified = radius == n * n or (best is not None and (mode != DALAL or best <= radius))
            if not certified:
                assert all(admits(*g[:2], None) for g in got)
                continue
            expected = {(atts, acc, w) for w, atts, acc in scored if w == best}
            assert len(got) == len(set(got))
            assert set(got) == expected
            flips = [
                sorted(enc.pair_position(*pair) for pair in e.att_added | e.att_removed)
                for e in out
            ]
            assert flips == sorted(flips)


def test_revise_af_foreign_variable():
    af = ArgumentationFramework(("a", "b"), frozenset({("a", "b")}))
    with pytest.raises(UnknownArgumentError, match="variable 'foo' is not an att/acc variable"):
        revise_af(af, And((Var("acc_a"), Var("foo"))))
    with pytest.raises(UnknownArgumentError, match="'foo'"):
        revise_af(af, Or((Var("acc_b"), Var("foo"))), mode=DALAL)
    # The variables are checked before any work: before the satisfiability
    # test and before the free-att guard, which this goal would trip.
    with pytest.raises(UnknownArgumentError, match="'foo'"):
        revise_af(af, And((Var("foo"), Not(Var("foo")))))
    wide = ArgumentationFramework(tuple(f"x{i}" for i in range(6)), frozenset())
    with pytest.raises(UnknownArgumentError, match="'zz'"):
        revise_af(wide, Var("zz"))
