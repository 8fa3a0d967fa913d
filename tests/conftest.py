"""Shared fixtures, independent oracles, and acceptance-suite reporting."""

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

from argent import (
    ArgumentationFramework,
    is_consistent,
    parse_af,
    parse_eaf,
)

DATA = Path(__file__).parent / "data"

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
