"""Enthymeme-aware abstract argumentation and minimal-change revision.

Layers, bottom up: propositional logic (`prop`), model-based revision
(`revision`), abstract frameworks with stable semantics (`af`), the att/acc
propositional encoding (`encoding`), framework revision (`afrev`), deductive
arguments and enthymemes (`structured`), enthymeme-based frameworks with
attack classification and acceptability (`eaf`), and the command line (`cli`).

Importing the package loads none of them (PEP 562): each public name, and
each layer read as an attribute (`argent.kernels.BACKEND`), imports its
module on first use and is then an ordinary attribute of the package.  So
`argent.parse_af` loads only `af`, `errors` and `kernels`, and
`argent.parse_formula` adds `prop`.
"""

import sys

__version__ = "0.1.0"

# The layers served as attributes; `cli` is imported by name (`argent.cli`).
_LAYERS = ("af", "afrev", "eaf", "encoding", "errors", "kernels", "prop", "revision",
           "structured")

# Each public name, by the module that defines it.
_EXPORTS = {
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
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNER, *_LAYERS])


def _layer(module):
    # `__import__` rather than `importlib.import_module`, whose path
    # `python -X importtime` does not log: import profiles name each layer.
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name):
    if name in _OWNER:
        value = getattr(_layer(_OWNER[name]), name)
    elif name in _LAYERS:
        value = _layer(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads are plain attribute hits
    return value


def __dir__():
    return sorted({*globals(), *__all__})
