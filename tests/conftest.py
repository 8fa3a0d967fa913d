"""Shared fixtures, independent oracles, and acceptance-suite reporting."""

import json
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import settings

from argent import (
    ArgumentationFramework,
    entails,
    is_consistent,
    parse_af,
    parse_eaf,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

# Property tests draw the same examples on every run and have no time limit
# per example, so the suite stays deterministic.
settings.register_profile("argent", derandomize=True, deadline=None, database=None)
settings.load_profile("argent")

_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter):
    if _acceptance_results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, ok in _acceptance_results:
            terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'} {name}")


def run_fresh(code: str):
    """The JSON value that `code`, run in a fresh interpreter with this
    checkout's `argent` first on the path, prints on its last line; the
    child's `loaded()` lists the argent modules it has imported."""
    prelude = (
        f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'argent')\n"
    )
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def conflict_eaf(n: int) -> str:
    """An eaf file of two deductive arguments: x with the `n` formulas q0, ...,
    q(n-1), and y, whose claim conflicts with all of them together and with
    no fewer.  Classifying the file walks all 2^n subsets of x's content."""
    atoms = [f"q{i}" for i in range(n)]
    neg = " | ".join(f"!{q}" for q in atoms)
    return (f"deductive x {{ support: {' ; '.join(atoms)}  claim: q0 }}\n"
            f"deductive y {{ support: {neg}  claim: {neg} }}\natt(y,x).\n")


@pytest.fixture(scope="session")
def f1():
    return parse_af((DATA / "f1.apx").read_text())


@pytest.fixture(scope="session")
def f2():
    return parse_af((DATA / "f2.apx").read_text())


@pytest.fixture(scope="session")
def f3():
    return parse_eaf((DATA / "f3.eaf").read_text())


@pytest.fixture(scope="session")
def f6():
    return parse_eaf((DATA / "f6.eaf").read_text())


# ---------------------------------------------------------------------------
# Independent oracles: plain set arithmetic, no bitmask kernels, no search code.
# ---------------------------------------------------------------------------

def oracle_stable_sets(arguments, attacks):
    """Stable extensions by direct enumeration of all argument subsets."""
    result = []
    attacks = set(attacks)
    for r in range(len(arguments) + 1):
        for combo in combinations(arguments, r):
            s = set(combo)
            if any((x, y) in attacks for x in s for y in s):
                continue
            if all(
                any((x, y) in attacks for x in s)
                for y in arguments
                if y not in s
            ):
                result.append(frozenset(s))
    return result


def oracle_acceptance(arguments, attacks):
    """Skeptical acceptance with the vacuous convention."""
    sets = oracle_stable_sets(arguments, attacks)
    if not sets:
        return frozenset(arguments), True
    acc = set(arguments)
    for s in sets:
        acc &= s
    return frozenset(acc), False


def oracle_revision_solutions(
    af: ArgumentationFramework,
    admits,
    max_radius: int,
    require_extension: bool = True,
):
    """All attack relations within `max_radius` flips admitted by `admits`.

    `admits(attacks, accepted, vacuous)` is a hand-written predicate covering
    goal, constraint, and anything else the scenario requires.  Returns a list
    of (radius, attacks, accepted) triples.
    """
    pairs = [(x, y) for x in af.arguments for y in af.arguments]
    solutions = []
    for radius in range(max_radius + 1):
        for flips in combinations(pairs, radius):
            attacks = set(af.attacks)
            for pair in flips:
                if pair in attacks:
                    attacks.remove(pair)
                else:
                    attacks.add(pair)
            accepted, vacuous = oracle_acceptance(af.arguments, attacks)
            if require_extension and vacuous:
                continue
            if admits(frozenset(attacks), accepted, vacuous):
                solutions.append((radius, frozenset(attacks), accepted))
    return solutions


def oracle_minimal_conflicts(candidates, context):
    """Subset-minimal conflicting subsets by plain lattice enumeration."""
    cands = []
    for f in candidates:
        if f not in cands:
            cands.append(f)
    found = []
    for r in range(len(cands) + 1):
        for combo in combinations(range(len(cands)), r):
            subset = [cands[i] for i in combo]
            if is_consistent(subset + list(context)):
                continue
            if any(set(prev) <= set(combo) for prev in found):
                continue
            found.append(combo)
    return {frozenset(cands[i] for i in combo) for combo in found}


def oracle_completions(e, base, pool, max_added, strict):
    """(added, full claim) of every completion, by added size then position,
    pool claims before the transmitted one."""
    fixed = list(e.fixed_support)
    extra = [f for f in dict.fromkeys(base) if f not in fixed]
    claims = list(dict.fromkeys([*pool, e.fixed_claim]))
    found = []
    for r in range(min(max_added, len(extra)) + 1):
        for added in combinations(extra, r):
            support = fixed + list(added)
            if not is_consistent(support):
                continue
            for claim in claims:
                if not (entails(support, claim) and entails([claim], e.fixed_claim)):
                    continue
                if strict and any(
                    entails(support[:i] + support[i + 1:], claim) for i in range(len(support))
                ):
                    continue
                found.append((added, claim))
    return found


def oracle_tight(fixed, added, claim):
    """No proper subset of the added support, with the transmitted support,
    still entails the full claim."""
    return not any(
        entails(tuple(fixed) + sub, claim)
        for r in range(len(added))
        for sub in combinations(added, r)
    )


def oracle_classification(eaf):
    """(certain, questionable, deductive core, warnings, noted) for the
    declared attacks of `eaf`, from the definitions.  The involved parts of
    an endpoint are the minimal parts of its content inconsistent with the
    other endpoint's content.  An attack with none on either side has no
    logical conflict: it is questionable and warned about.  Otherwise it is
    certain when each endpoint has an involved part inside its fixed part
    (transmitted support and claim), and questionable when not.  `noted`
    lists, in order, the (attacker, target, enthymeme) of each certain
    attack whose enthymeme endpoint also has an involved part outside its
    fixed part.  Defeaters (a full claim inconsistent with a support) that
    are not declared are warned about last, in argument order."""
    args = {a.id: a for a in eaf.arguments}
    certain, questionable, warnings, noted = set(), set(), [], []
    for x, y in sorted(eaf.declared_attacks, key=eaf.pair_key):
        parts = {
            x: oracle_minimal_conflicts(args[x].content, args[y].content),
            y: oracle_minimal_conflicts(args[y].content, args[x].content),
        }
        if not parts[x] and not parts[y]:
            warnings.append(f"declared attack ({x},{y}) has no logical conflict")
            questionable.add((x, y))
            continue
        fixed = {aid: {*args[aid].fixed_support, args[aid].fixed_claim} for aid in (x, y)}
        if not all(any(part <= fixed[aid] for part in parts[aid]) for aid in (x, y)):
            questionable.add((x, y))
            continue
        certain.add((x, y))
        noted += [
            (x, y, aid) for aid in (x, y)
            if args[aid].kind == "enthymeme" and any(not part <= fixed[aid] for part in parts[aid])
        ]
    warnings += [
        f"undeclared defeater ({a.id},{b.id})"
        for a in eaf.arguments
        for b in eaf.arguments
        if (a.id, b.id) not in eaf.declared_attacks
        and not is_consistent([a.full_claim, *b.support])
    ]
    deductive = set(eaf.deductive_ids)
    core = {p for p in certain if p[0] in deductive and p[1] in deductive}
    return certain, questionable, core, warnings, noted


def oracle_acceptability(eaf, attacks, base, pool, max_added):
    """(acceptable, witness) for the revised attack relation `attacks` of
    `eaf`, from the definition.  Each changed pair touching an enthymeme
    must be justified: a present attack by jointly inconsistent contents, an
    absent one by jointly consistent contents.  Each enthymeme in such a pair
    keeps its current completion or takes another tight, proper completion
    of its transmitted pair (see :func:`oracle_completions`); assignments
    are tried in order, current completion first.  The witness maps each
    enthymeme whose completion changed to its (added support, full claim)."""
    args = {a.id: a for a in eaf.arguments}
    enth = set(eaf.enthymeme_ids)
    changed = [p for p in eaf.declared_attacks ^ attacks if p[0] in enth or p[1] in enth]
    involved = [aid for aid in eaf.ids if aid in enth and any(aid in p for p in changed)]
    choices = []
    for aid in involved:
        arg = args[aid]
        current = (arg.added_support, arg.full_claim)
        choices.append([current] + [
            (added, claim)
            for added, claim in oracle_completions(arg, base, pool, max_added, False)
            if (added or claim != arg.fixed_claim)
            and (added, claim) != current
            and oracle_tight(arg.fixed_support, added, claim)
        ])
    for choice in product(*choices):
        content = {aid: list(a.content) for aid, a in args.items()}
        for aid, (added, claim) in zip(involved, choice):
            content[aid] = [*args[aid].fixed_support, *added, claim]
        if all(is_consistent(content[x] + content[y]) == ((x, y) not in attacks)
               for x, y in changed):
            return True, {
                aid: completion
                for aid, completion in zip(involved, choice)
                if completion != (args[aid].added_support, args[aid].full_claim)
            }
    return False, {}
