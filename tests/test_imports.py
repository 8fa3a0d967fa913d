"""The package namespace is lazy: `import argent` loads no layer, and each
public name or layer loads its module on first use.  Each check runs in a
fresh interpreter, since this one has imported every layer already."""

import subprocess
import sys

import pytest
from conftest import DATA, SRC, run_fresh

# Every name the package has exported since it imported its layers eagerly,
# by the module that defines it.
PUBLIC = {
    "af": (
        "AcceptanceReport", "ArgumentationFramework", "ExtensionSet", "format_af",
        "is_stable", "parse_af", "skeptical_accepted", "stable_extensions",
    ),
    "afrev": (
        "ATT_ONLY", "ATT_WEIGHTED", "DALAL", "MODES", "RevisionEntry", "RevisionOutcome",
        "format_outcome", "mode_weights", "outcome_to_dict", "parse_goal", "revise_af",
    ),
    "eaf": (
        "AcceptabilityResult", "AttackClassification", "EnthymemeAF", "acceptable_afs",
        "classify_attacks", "constraint_certain", "constraint_deductive", "fixed_part",
        "involved_parts", "parse_eaf", "revise_eaf",
    ),
    "encoding": (
        "AttAccVocabulary", "canonical_model", "decode", "decoded_acceptance",
        "emit_stable_encoding", "satisfies_theory", "stable_fixpoint_formula",
        "theory_models",
    ),
    "errors": (
        "ArgentError", "ParseError", "ResourceLimitError", "UnknownArgumentError",
        "VocabularyMismatchError",
    ),
    "prop": (
        "And", "Const", "FALSE", "Formula", "Iff", "Implies", "Interpretation", "Not",
        "Or", "TRUE", "Var", "Vocabulary", "entails", "evaluate", "format_formula",
        "format_interpretation", "is_consistent", "minimal_conflict_subsets", "models",
        "parse_formula", "parse_formula_lines", "variables",
    ),
    "revision": ("dalal_revise", "hamming"),
    "structured": (
        "CertaintyMap", "DeductiveReport", "StructuredArgument", "added_support_is_tight",
        "complete_enthymeme", "exhaustive_graph", "is_defeater", "is_enthymeme_for",
        "make_enthymeme", "validate_deductive",
    ),
}


def test_each_entry_point_loads_only_its_layers():
    steps = run_fresh(
        "import argent\n"
        "steps = [loaded()]\n"
        "argent.parse_af('arg(a). arg(b). att(a,b).')\n"
        "steps.append(loaded())\n"
        "argent.parse_formula('a & !b')\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    assert steps == [
        ["argent"],
        ["argent", "argent.af", "argent.errors", "argent.kernels"],
        ["argent", "argent.af", "argent.errors", "argent.kernels", "argent.prop"],
    ]


def test_every_public_name_is_its_defining_modules_object():
    expected = {name: module for module, names in PUBLIC.items() for name in names}
    expected.update((layer, None) for layer in (*PUBLIC, "kernels"))  # layers are public too
    found, listed, not_starred = run_fresh(
        "import importlib, argent\n"
        f"expected = {expected!r}\n"
        "listed = set(dir(argent))\n"
        "found = {}\n"
        "for name, module in expected.items():\n"
        "    value = getattr(argent, name)\n"
        "    defined = importlib.import_module('argent.' + (module or name))\n"
        "    found[name] = [value is (defined if module is None else getattr(defined, name)),\n"
        "                   vars(argent).get(name) is value, name in listed]\n"
        "ns = {}\n"
        "exec('from argent import *', ns)\n"
        "print(json.dumps([found, sorted(argent.__all__),\n"
        "                  [n for n in argent.__all__ if ns.get(n) is not getattr(argent, n)]]))\n"
    )
    # same object as its module's, kept in the package after the first read,
    # and listed by dir() before it
    assert {name: [True, True, True] for name in expected} == found
    assert listed == sorted(expected)
    assert not_starred == []


def test_star_import_layers_and_errors_on_a_bare_import():
    starred, backend, error = run_fresh(
        "import argent\n"
        "ns = {}\n"
        "exec('from argent import *', ns)\n"
        "starred = sorted(name for name in ns if not name.startswith('__'))\n"
        "backend = argent.kernels.BACKEND\n"
        "try:\n"
        "    argent.no_such_name\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps([starred, backend, error]))\n"
    )
    assert starred == sorted([*(n for names in PUBLIC.values() for n in names), *PUBLIC, "kernels"])
    assert backend == "python"
    assert error == "module 'argent' has no attribute 'no_such_name'"


def test_importtime_names_the_lazily_loaded_layers():
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import argent; "
         "argent.parse_af('arg(a). arg(b). att(a,b).')"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    # lines read "import time: <self> | <cumulative> | <indented module>"
    logged = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert {"argent", "argent.af", "argent.kernels"} <= logged


@pytest.mark.parametrize("entry", [
    "import argent.cli",
    "import argent; argent.parse_af('arg(a). arg(b). att(a,b).')",
    "import argent; argent.parse_formula('a & !b')",
    f"import argent; argent.parse_eaf(open({str(DATA / 'f3.eaf')!r}).read())",
], ids=["cli", "parse_af", "parse_formula", "parse_eaf"])
def test_no_entry_point_imports_dataclasses_or_inspect(entry):
    # Both cost a fresh process milliseconds of imports; the records are
    # plain classes (errors.Record).
    assert run_fresh(
        f"{entry}\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))\n"
    ) == []
