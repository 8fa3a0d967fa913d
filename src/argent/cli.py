"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 parse/validation error, 3 empty
result, 4 resource guard tripped.  Identical invocations produce identical
output; all randomness lives in the test suite, not here.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import afrev, eaf as eaf_mod
from .af import (
    format_af,
    format_extension,
    format_pair_set,
    parse_af,
    skeptical_accepted,
    stable_extensions,
)
from .afrev import MODES, RevisionOutcome, format_outcome, outcome_to_dict, parse_goal, revise_af
from .encoding import AttAccVocabulary
from .errors import ArgentError, ResourceLimitError
from .prop import (
    Vocabulary,
    _decode_bits,
    _model_table,
    format_formula,
    parse_formula,
    parse_formula_lines,
    parse_list,
    parse_span,
    variables,
)
from .revision import _dalal_table
from .structured import (
    CertaintyMap,
    StructuredArgument,
    exhaustive_graph,
    make_enthymeme,
    parse_rational,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_RESOURCE = 4


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    """The text of the file at `path`, line ends untranslated, so that the
    parsers see what they would be given as a string."""
    with open(path, newline="") as f:
        return f.read()


def _vocab(vocab_flag, *formulas):
    """The `--vocab` order when the flag is given (`""` is the empty
    vocabulary), else the formulas' variables in sorted order."""
    if vocab_flag is not None:
        names = vocab_flag.split(",") if vocab_flag else ()
        return Vocabulary(tuple(s.strip() for s in names))
    return Vocabulary(tuple(sorted(frozenset().union(*map(variables, formulas)))))


def _json_names(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(map(json.dumps, names))


def _print_models(table, vocabulary, order, fixed_true, emit_structured) -> None:
    """Print the models of a truth table straight from its set bits: one
    ``{a,b}`` line each, names in vocabulary order, or the JSON object of
    their sorted name lists.  That object is joined from names quoted once
    per half of the table's order, byte for byte what ``json.dumps`` gives;
    quoted identifiers sort as the names do."""
    if emit_structured:
        found = _decode_bits(table, vocabulary, order, fixed_true, _json_names)
        in_order = list(vocabulary.names) == sorted(vocabulary.names)
        arrays = [
            "[" + ", ".join(high + low if in_order else sorted(high + low)) + "]"
            for high, low in found
        ]
        print('{"models": [' + ", ".join(arrays) + "]}")
    else:
        found = _decode_bits(table, vocabulary, order, fixed_true)
        sys.stdout.write("".join(["{" + ",".join(high + low) + "}\n" for high, low in found]))


def cmd_models(ns) -> int:
    f = parse_formula(ns.formula)
    _print_models(*_model_table(f, _vocab(ns.vocab, f)), ns.emit_structured)
    return EXIT_OK


def cmd_revise_formula(ns) -> int:
    phi = parse_formula(ns.phi)
    alpha = parse_formula(ns.alpha)
    table, vocabulary, order, fixed_true = _dalal_table(phi, alpha, _vocab(ns.vocab, phi, alpha))
    _print_models(table, vocabulary, order, fixed_true, ns.emit_structured)
    return EXIT_OK if table else EXIT_EMPTY


def cmd_stable(ns) -> int:
    af = parse_af(_read(ns.af))
    exts = stable_extensions(af)
    report = skeptical_accepted(af)
    if ns.emit_structured:
        print(
            json.dumps(
                {
                    "extensions": [sorted(e) for e in exts],
                    "skeptical": sorted(report.accepted),
                    "vacuous": report.vacuous,
                }
            )
        )
        return EXIT_OK
    print(f"extensions: {len(exts)}")
    for ext in exts:
        print(format_extension(af, ext))
    print(f"skeptical: {format_extension(af, report.accepted)}")
    print(f"vacuous: {'true' if report.vacuous else 'false'}")
    return EXIT_OK


def _print_outcome(outcome: RevisionOutcome, emit_structured: bool) -> int:
    if emit_structured:
        print(json.dumps(outcome_to_dict(outcome)))
    else:
        print(format_outcome(outcome))
    return EXIT_OK if outcome else EXIT_EMPTY


def cmd_revise_af(ns) -> int:
    af = parse_af(_read(ns.af))
    enc = AttAccVocabulary(af.arguments)
    goal = parse_goal(ns.goal, enc)
    constraint = parse_goal(ns.constraint, enc) if ns.constraint else None
    outcome = revise_af(
        af,
        goal,
        constraint,
        mode=ns.mode,
        require_extension=not ns.allow_empty_semantics,
    )
    return _print_outcome(outcome, ns.emit_structured)


def cmd_eaf(ns) -> int:
    framework = eaf_mod.parse_eaf(_read(ns.eaf))
    if ns.action == "classify":
        cls = eaf_mod.classify_attacks(framework)
        af = framework.to_af()
        if ns.emit_structured:
            print(
                json.dumps(
                    {
                        "deductive": list(framework.deductive_ids),
                        "enthymemes": list(framework.enthymeme_ids),
                        "certain": [list(p) for p in sorted(cls.certain, key=framework.pair_key)],
                        "questionable": [
                            list(p) for p in sorted(cls.questionable, key=framework.pair_key)
                        ],
                        "deductive_core": [
                            list(p) for p in sorted(cls.deductive_core, key=framework.pair_key)
                        ],
                        "warnings": list(cls.warnings),
                        "notes": list(cls.notes),
                    }
                )
            )
            return EXIT_OK
        print(f"deductive: {format_extension(af, framework.deductive_ids)}")
        print(f"enthymemes: {format_extension(af, framework.enthymeme_ids)}")
        print(f"certain: {format_pair_set(af, cls.certain)}")
        print(f"questionable: {format_pair_set(af, cls.questionable)}")
        print(f"deductive_core: {format_pair_set(af, cls.deductive_core)}")
        for w in cls.warnings:
            print(f"warning: {w}")
        for note in cls.notes:
            print(f"note: {note}")
        return EXIT_OK
    outcome = eaf_mod.revise_eaf(
        framework,
        ns.goal,
        constraint_mode=ns.constraint_mode,
        mode=ns.mode,
        require_extension=not ns.allow_empty_semantics,
    )
    if ns.action == "revise":
        return _print_outcome(outcome, ns.emit_structured)
    base = parse_formula_lines(_read(ns.beliefs))
    pool = parse_formula_lines(_read(ns.claims)) if ns.claims else ()
    results = eaf_mod.acceptable_afs(framework, outcome, base, pool, max_added=ns.max_added)
    if ns.emit_structured:
        print(
            json.dumps(
                {
                    "entries": [
                        {
                            "attacks": [list(p) for p in r.entry.af.sorted_attacks()],
                            "acceptable": r.acceptable,
                            "witness": {
                                aid: {
                                    "support": [format_formula(f) for f in c.support],
                                    "claim": format_formula(c.full_claim),
                                }
                                for aid, c in r.witness.items()
                            },
                            "reason": r.reason,
                        }
                        for r in results
                    ]
                }
            )
        )
        return EXIT_OK if outcome else EXIT_EMPTY
    print(f"entries: {len(results)}")
    for idx, r in enumerate(results, start=1):
        print(f"entry {idx}:")
        print(format_af(r.entry.af))
        print(f"acceptable: {'yes' if r.acceptable else 'no'}")
        for aid in sorted(r.witness):
            print(f"witness {aid}: {r.witness[aid]}")
        if r.reason:
            print(f"reason: {r.reason}")
    return EXIT_OK if outcome else EXIT_EMPTY


def cmd_args(ns) -> int:
    if ns.action == "generate":
        base = parse_formula_lines(_read(ns.beliefs))
        pool = parse_formula_lines(_read(ns.claims))
        af, table = exhaustive_graph(base, pool)
        if ns.emit_structured:
            print(
                json.dumps(
                    {
                        "arguments": {
                            aid: {
                                "support": [format_formula(f) for f in arg.support],
                                "claim": format_formula(arg.full_claim),
                            }
                            for aid, arg in table.items()
                        },
                        "attacks": [list(p) for p in af.sorted_attacks()],
                    }
                )
            )
            return EXIT_OK
        print(f"arguments: {len(af.arguments)}")
        for aid in af.arguments:
            print(f"{aid}: {table[aid]}")
        for src, tgt in af.sorted_attacks():
            print(f"att({src},{tgt}).")
        return EXIT_OK
    support = parse_list(ns.support)
    claim = parse_span(ns.claim)
    certainty = (
        CertaintyMap.parse(_read(ns.certainty)) if ns.certainty else CertaintyMap()
    )
    arg = StructuredArgument.deductive("a1", support, claim)
    enth = make_enthymeme(arg, certainty, parse_rational(ns.tau))
    if ns.emit_structured:
        print(
            json.dumps(
                {
                    "support": [format_formula(f) for f in enth.fixed_support],
                    "claim": format_formula(enth.fixed_claim),
                }
            )
        )
    else:
        print(enth)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="argent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="enumerate the models of a formula")
    p.add_argument("formula")
    p.add_argument("--vocab", help="comma-separated variable order")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("revise-formula", help="Dalal revision of one formula by another")
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--vocab")
    p.set_defaults(func=cmd_revise_formula)

    p = sub.add_parser("stable", help="stable extensions and skeptical acceptance")
    p.add_argument("af", help="apx file")
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("revise-af", help="minimal-change revision of a framework")
    p.add_argument("--af", required=True, help="apx file")
    p.add_argument("--goal", required=True, help="formula over acc(x) / att(x,y)")
    p.add_argument("--constraint", help="integrity constraint formula")
    p.add_argument("--mode", choices=MODES, default=afrev.ATT_ONLY)
    p.add_argument(
        "--allow-empty-semantics",
        action="store_true",
        help="admit candidate frameworks without stable extensions",
    )
    p.set_defaults(func=cmd_revise_af)

    p = sub.add_parser("eaf", help="enthymeme-framework operations")
    p.add_argument("action", choices=("classify", "revise", "acceptable"))
    p.add_argument("--eaf", required=True, help="enthymeme-framework file")
    p.add_argument("--goal", help="formula over acc(x) / att(x,y)")
    p.add_argument("--constraint-mode", choices=("deductive", "certain", "none"), default="deductive")
    p.add_argument("--mode", choices=MODES, default=afrev.ATT_ONLY)
    p.add_argument("--beliefs", help="belief-base file (one formula per line)")
    p.add_argument("--claims", help="claim-pool file (one formula per line)")
    p.add_argument("--max-added", type=int, default=3)
    p.add_argument("--allow-empty-semantics", action="store_true")
    p.set_defaults(func=cmd_eaf)

    p = sub.add_parser("args", help="deductive-argument tooling")
    p.add_argument("action", choices=("generate", "encode"))
    p.add_argument("--beliefs", help="belief-base file")
    p.add_argument("--claims", help="claim-pool file")
    p.add_argument("--support", help="';'-separated support formulas (encode)")
    p.add_argument("--claim", help="claim formula (encode)")
    p.add_argument("--certainty", help="certainty-map file: '<rational> : <formula>' lines")
    p.add_argument("--tau", default="1", help="certainty threshold (rational)")
    p.set_defaults(func=cmd_args)

    for p in sub.choices.values():
        p.add_argument("--emit-structured", action="store_true")
    return parser


def _validate(ns, parser) -> None:
    if ns.command == "eaf":
        if ns.action in ("revise", "acceptable") and not ns.goal:
            parser.error(f"eaf {ns.action} requires --goal")
        if ns.action == "acceptable" and not ns.beliefs:
            parser.error("eaf acceptable requires --beliefs")
    if ns.command == "args":
        if ns.action == "generate" and not (ns.beliefs and ns.claims):
            parser.error("args generate requires --beliefs and --claims")
        if ns.action == "encode" and not (ns.support and ns.claim):
            parser.error("args encode requires --support and --claim")


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged, and
    importing the module stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        ns = parser.parse_args(argv)
        _validate(ns, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return ns.func(ns)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ArgentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
