"""Workload `enthymeme`: CLI callers running the paper's pipeline in-process
through `argent.cli.main --emit-structured`.

One agent, one vocabulary: a fixed world of 8 atoms p0..p7 in which each atom
has 4 rules `p -> l` (l a literal on another atom, negative 3 times in 4).
Every argument is a modus-ponens pair built from a premise atom and one of
its rules, so the same formulas recur across all queries of a run.  The
world is the same for every seed (a per-seed world moved throughput by 30%
between seeds); the seed draws the frameworks, goals and belief bases.
Deductive arguments carry both; enthymemes transmit the premise (and the claim
or `true`) and carry the rule as their decoded added support.  Declared
attacks are the defeater pairs with one pair touching an enthymeme flipped,
the model of a mistaken decoding.

A round builds four frameworks, of 4 arguments (2 deductive), 5 (2), 5 (3)
and 6 (4), and runs on each `eaf classify`, `eaf revise` in the deductive
constraint mode, and `eaf acceptable` with a belief base of 6 world rules and
a claim pool of 3 literals; `eaf revise` in the certain mode runs on the
three smaller frameworks only.  Then `args generate` on belief bases of 5,
6, 7 and 8 formulas and two `args encode`: 21 queries.  The first round of
an untraced run also runs the README's commands on `tests/data`.

The certain mode is left out at 6 arguments because there its constraint
pins 18 to 21 att variables, and the `satisfiable` precheck of `revise_af`
then scans up to 2^21 assignments: 1.3 s at the median, 3.8 s at worst.

Goals are built around a target framework: the declared one with one or two
attacks touching an enthymeme flipped (never a certain one), whose acceptance
differs from the declared acceptance.  The goal holds in the target and not in
the declared framework, so both constraint modes admit a revision.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import logic as L
import oracle as O

ATOMS = tuple(f"p{i}" for i in range(8))
SHAPES = ((4, 2), (5, 2), (5, 3), (6, 4))  # (arguments, deductive)
BASE_SIZES = (5, 6, 7, 8)
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
ROUNDS_PER_SECOND = 1.35  # reference speed, see run.round_count


def world() -> dict:
    rng = random.Random("enthymeme-world")
    rules = {}
    for a in ATOMS:
        others = rng.sample([b for b in ATOMS if b != a], 4)
        rules[a] = [L.imp(L.var(a), L.literal(b, i == 0)) for i, b in enumerate(others)]
    return rules


WORLD = world()


def _pair_key(ids):
    return lambda p: (ids.index(p[0]), ids.index(p[1]))


def _pairs_json(pairs, ids):
    return [list(p) for p in sorted(pairs, key=_pair_key(ids))]


def _render_eaf(args, declared) -> str:
    lines = []
    for a in args:
        lines.append(f"{a.kind} {a.id} {{")
        lines.append("  support: " + " ; ".join(L.render(f) for f in a.fixed_support))
        lines.append(f"  claim: {L.render(a.fixed_claim)}")
        if a.kind == "enthymeme":
            lines.append("  added_support: " + " ; ".join(L.render(f) for f in a.added))
            if a.full_claim != a.fixed_claim:
                lines.append(f"  full_claim: {L.render(a.full_claim)}")
        lines.append("}")
    ids = [a.id for a in args]
    lines += [f"att({s},{t})." for s, t in sorted(declared, key=_pair_key(ids))]
    return "\n".join(lines) + "\n"


def _args_json(args):
    return {a.id: {"support": [L.render(f) for f in a.support], "claim": L.render(a.full_claim)}
            for a in args}


class Framework:
    """An enthymeme framework with its oracle-side facts."""

    def __init__(self, args, declared):
        self.args = args
        self.declared = frozenset(declared)
        self.ids = tuple(a.id for a in args)
        self.text = _render_eaf(args, declared)
        self.certain, self.questionable, self.core, self.warnings = O.classification(
            args, self.declared)

    def pins(self, constraint_mode):
        return O.constraint_pins(self.args, self.declared, constraint_mode, self.certain)

    def revision(self, goal, constraint_mode):
        pins = self.pins(constraint_mode)
        pins.update(O.unit_att_pins(goal))
        formula = L.conj([goal] + [L.literal(f"att:{s}:{t}", v) for (s, t), v in pins.items()])
        return O.revision(self.ids, self.declared, formula, pins, "att-only")


class Query:
    def __init__(self, kind, argv, files, expect):
        self.kind = kind
        self.argv = argv
        self.files = files  # file name -> text, written before the round
        self.expect = expect  # oracle: output JSON -> problem or None

    def prepare(self, argent, workdir):
        for name, text in self.files.items():
            (workdir / name).write_text(text)
        self.argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in self.argv]

    def run(self, argent):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = argent.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def summary(result):
        return list(result)

    def check(self, result):
        code, out, err = result
        if code not in (0, 3):
            return f"exit {code}: {err.strip()}"
        problem = self.expect(code, json.loads(out))
        return f"{' '.join(self.argv[:2])}: {problem}" if problem else None


# ---------------------------------------------------------------------------
# Oracle-side expectations
# ---------------------------------------------------------------------------


def expect_classify(fw: Framework):
    ids = fw.ids

    def check(code, got):
        want = {
            "deductive": [a.id for a in fw.args if a.kind == "deductive"],
            "enthymemes": [a.id for a in fw.args if a.kind == "enthymeme"],
            "certain": _pairs_json(fw.certain, ids),
            "questionable": _pairs_json(fw.questionable, ids),
            "deductive_core": _pairs_json(fw.core, ids),
            "warnings": fw.warnings,
        }
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key} {got.get(key)}, oracle {value}"
        return None

    return check


def _entries_problem(code, got_entries, solutions, ids, declared, weight):
    if (code == 3) != (not solutions):
        return f"exit {code} with {len(solutions)} oracle entries"
    if len(got_entries) != len(solutions):
        return f"{len(got_entries)} entries, oracle {len(solutions)}"
    for e, (attacks, accepted, vacuous) in zip(got_entries, solutions):
        if e["attacks"] != _pairs_json(attacks, ids):
            return f"entry attacks {e['attacks']}, oracle {_pairs_json(attacks, ids)}"
        if "accepted" in e:
            if e["accepted"] != [a for a in ids if a in accepted] or e["vacuous"] != vacuous:
                return f"entry accepted {e['accepted']}, oracle {sorted(accepted)}"
            if e["weight"] != weight:
                return f"entry weight {e['weight']}, oracle {weight}"
            if e["att_added"] != _pairs_json(attacks - declared, ids) or \
                    e["att_removed"] != _pairs_json(declared - attacks, ids):
                return "entry change record differs"
    return None


def expect_revision(ids, declared, solve):
    def check(code, got):
        exact = solve()
        if exact is None:
            return "oracle budget exceeded"
        weight, solutions = exact
        return _entries_problem(code, got["entries"], solutions, ids, frozenset(declared), weight)

    return check


def expect_acceptable(fw: Framework, goal, base, pool):
    def check(code, got):
        exact = fw.revision(goal, "deductive")
        if exact is None:
            return "oracle budget exceeded"
        _, solutions = exact
        problem = _entries_problem(code, got["entries"], solutions, fw.ids, fw.declared, None)
        if problem:
            return problem
        for e, (attacks, _, _) in zip(got["entries"], solutions):
            ok, witness = O.acceptability(fw.args, fw.declared, attacks, base, pool)
            if e["acceptable"] != ok or (e["reason"] is None) != ok:
                return f"acceptable {e['acceptable']}, oracle {ok}"
            if e["witness"] != _args_json(witness.values()):
                return f"witness {e['witness']}, oracle {_args_json(witness.values())}"
        return None

    return check


def expect_graph(base, pool):
    def check(code, got):
        args, attacks = O.exhaustive_graph(base, pool)
        if got["arguments"] != _args_json(args):
            return f"{len(got['arguments'])} arguments, oracle {len(args)}"
        want = _pairs_json(attacks, [a.id for a in args])
        return None if got["attacks"] == want else f"attacks {got['attacks']}, oracle {want}"

    return check


def expect_json(want):
    return lambda code, got: None if got == want else f"{got}, oracle {want}"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _framework(rng, rules, n, d):
    premises = rng.sample(ATOMS, n)
    chosen = set(premises)
    kinds = ["deductive"] * d + ["enthymeme"] * (n - d)
    rng.shuffle(kinds)
    args, counts = [], {"deductive": 0, "enthymeme": 0}
    for p, kind in zip(premises, kinds):
        hitting = [r for r in rules[p] if r[2][0] == "n" and r[2][1][1] in chosen]
        rule = rng.choice(hitting if hitting and rng.random() < 0.8 else rules[p])
        claim = rule[2]
        counts[kind] += 1
        arg_id = f"{kind[0]}{counts[kind]}"
        if kind == "deductive":
            args.append(O.Arg(arg_id, kind, (L.var(p), rule), claim))
        elif rng.random() < 0.5:
            args.append(O.Arg(arg_id, kind, (L.var(p),), L.TRUE, (rule,), claim))
        else:
            args.append(O.Arg(arg_id, kind, (L.var(p),), claim, (rule,)))
    declared = O.defeater_pairs(args)
    enth = {a.id for a in args if a.kind == "enthymeme"}
    touching = [(x.id, y.id) for x in args for y in args
                if x.id != y.id and (x.id in enth or y.id in enth)]
    declared ^= {rng.choice(touching)}
    return Framework(args, declared)


def _goal(rng, fw: Framework):
    """A goal true in a nearby target framework and false in the declared one;
    None when the sampled targets leave the acceptance unchanged."""
    ids, n = fw.ids, len(fw.ids)
    enth = {a.id for a in fw.args if a.kind == "enthymeme"}
    movable = [(x, y) for x in ids for y in ids
               if (x in enth or y in enth) and (x, y) not in fw.certain]
    base = O.att_mask(ids, fw.declared)
    acc0, _ = O.acceptance(base, n)
    for _ in range(20):
        target = fw.declared ^ set(rng.sample(movable, rng.choice((1, 2))))
        acc_t, vacuous = O.acceptance(O.att_mask(ids, target), n)
        if vacuous or acc_t == acc0:
            continue
        differ = [i for i in range(n) if ((acc_t ^ acc0) >> i) & 1]
        i = rng.choice(differ)
        wanted = L.literal(f"acc:{ids[i]}", bool((acc_t >> i) & 1))
        same = [j for j in range(n) if not ((acc_t ^ acc0) >> j) & 1]
        # at 6 arguments a second goal atom would double the 2^17 precheck
        if same and n < 6 and rng.random() < 0.4:
            j = rng.choice(same)
            return L.conj([wanted, L.literal(f"acc:{ids[j]}", bool((acc_t >> j) & 1))])
        return wanted
    return None


def _belief_base(rng, rules, fw: Framework, size):
    """World rules from the framework's enthymeme premises first, then others."""
    premises = [a.fixed_support[0][1] for a in fw.args if a.kind == "enthymeme"]
    own = [r for p in premises for r in rules[p] if r not in [a.added[0] for a in fw.args
                                                              if a.kind == "enthymeme"]]
    rng.shuffle(own)
    rest = [r for p in ATOMS if p not in premises for r in rules[p]]
    rng.shuffle(rest)
    return (own + rest)[:size]


def _graph_base(rng, rules, size):
    facts = rng.sample(ATOMS, 2 if size < 7 else 3)
    pool_rules = [r for p in ATOMS for r in rules[p]]
    body = [r for r in pool_rules if r[1][1] in facts]
    rng.shuffle(body)
    rest = [r for r in pool_rules if r not in body]
    rng.shuffle(rest)
    base = [L.var(p) for p in facts] + (body + rest)[: size - len(facts)]
    rng.shuffle(base)
    claims = []
    for r in body[:6]:
        if r[2] not in claims:
            claims.append(r[2])
    return base, claims[:3] or [body[0][2]]


def make_round(key: str) -> list[Query]:
    rules = WORLD
    rng = random.Random(f"enthymeme:{key}")
    tag = re.sub(r"[^A-Za-z0-9]", "_", key)
    queries = []
    for k, (n, d) in enumerate(SHAPES):
        goal = None
        while goal is None:
            fw = _framework(rng, rules, n, d)
            goal = _goal(rng, fw)
        goal_text = L.render(goal)
        base = _belief_base(rng, rules, fw, 6)
        pool = []
        for r in rng.sample(base, len(base)):
            if r[2] not in pool and len(pool) < 3:
                pool.append(r[2])
        eaf, beliefs, claims = f"{tag}-{k}.eaf", f"{tag}-{k}.beliefs", f"{tag}-{k}.claims"
        files = {eaf: fw.text}
        queries.append(Query("eaf classify", ["eaf", "classify", "--eaf", f"@{eaf}",
                                              "--emit-structured"], files, expect_classify(fw)))
        for cmode in ("deductive", "certain") if n < 6 else ("deductive",):
            queries.append(Query(
                f"eaf revise {cmode}",
                ["eaf", "revise", "--eaf", f"@{eaf}", "--goal", goal_text,
                 "--constraint-mode", cmode, "--emit-structured"], {},
                expect_revision(fw.ids, fw.declared,
                                lambda fw=fw, goal=goal, cmode=cmode: fw.revision(goal, cmode))))
        files = {beliefs: "\n".join(L.render(f) for f in base) + "\n",
                 claims: "\n".join(L.render(f) for f in pool) + "\n"}
        queries.append(Query("eaf acceptable",
                             ["eaf", "acceptable", "--eaf", f"@{eaf}", "--goal", goal_text,
                              "--beliefs", f"@{beliefs}", "--claims", f"@{claims}",
                              "--emit-structured"], files,
                             expect_acceptable(fw, goal, base, pool)))
    for size in BASE_SIZES:
        base, pool = _graph_base(rng, rules, size)
        beliefs, claims = f"{tag}-g{size}.beliefs", f"{tag}-g{size}.claims"
        files = {beliefs: "\n".join(L.render(f) for f in base) + "\n",
                 claims: "\n".join(L.render(f) for f in pool) + "\n"}
        queries.append(Query("args generate",
                             ["args", "generate", "--beliefs", f"@{beliefs}",
                              "--claims", f"@{claims}", "--emit-structured"], files,
                             expect_graph(base, pool)))
    for k in range(2):
        p = rng.choice(ATOMS)
        rule = rng.choice(rules[p])
        support = [L.var(p), rule]
        certainty = {f: Fraction(rng.randrange(0, 11), 10) for f in support if rng.random() < 0.7}
        tau = Fraction(rng.randrange(1, 11), 10)
        cert = f"{tag}-c{k}.certainty"
        text = "".join(f"{v} : {L.render(f)}\n" for f, v in certainty.items())
        kept = O.abbreviate(support, certainty, tau)
        queries.append(Query("args encode",
                             ["args", "encode", "--support", " ; ".join(map(L.render, support)),
                              "--claim", L.render(rule[2]), "--certainty", f"@{cert}",
                              "--tau", str(tau), "--emit-structured"], {cert: text},
                             expect_json({"support": [L.render(f) for f in kept],
                                          "claim": L.render(rule[2])})))
    return queries


def probe_inputs(queries) -> dict:
    files = [(name, text) for q in queries for name, text in q.files.items()]
    return {
        "eaf": [t for n, t in files if n.endswith(".eaf")],
        "lines": [t for n, t in files if n.endswith((".beliefs", ".claims"))],
        "certainty": [t for n, t in files if n.endswith(".certainty")],
    }


# ---------------------------------------------------------------------------
# The README's commands on tests/data, checked by the same oracles
# ---------------------------------------------------------------------------

_BLOCK = re.compile(r"(deductive|enthymeme)\s+(\w+)\s*\{(.*?)\}", re.S)
_FIELD = re.compile(r"\b(support|claim|added_support|full_claim)\s*:")
_ATT = re.compile(r"att\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*\.")
_ARG = re.compile(r"arg\s*\(\s*(\w+)\s*\)\s*\.")


def _strip(text):
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def read_eaf(text) -> Framework:
    text = _strip(text)
    args = []
    for kind, arg_id, body in _BLOCK.findall(text):
        marks = list(_FIELD.finditer(body))
        fields = {m.group(1): body[m.end(): marks[i + 1].start() if i + 1 < len(marks) else None]
                  for i, m in enumerate(marks)}
        parts = {k: [L.parse(s) for s in v.split(";") if s.strip()] for k, v in fields.items()}
        claim = parts["claim"][0]
        full = parts["full_claim"][0] if "full_claim" in parts else None
        args.append(O.Arg(arg_id, kind, parts["support"], claim, parts.get("added_support", ()),
                          full))
    return Framework(args, set(_ATT.findall(_BLOCK.sub("", text))))


def readme_queries() -> list[Query]:
    d = DATA
    queries = []
    for text, vocab in (("a & !b", None),
                        ("((a & b) | (!a & c) | !(b | (a & c))) & !d", "a,b,c,d")):
        f = L.parse(text)
        names = vocab.split(",") if vocab else sorted(L.names_of(f))
        want = {"models": [sorted(m) for m in O.models(f, names, {})]}
        queries.append(Query("readme models", ["models", text] + (["--vocab", vocab] if vocab else [])
                             + ["--emit-structured"], {}, expect_json(want)))
    phi = "((a & b) | (!a & c) | !(b | (a & c))) & !d"
    alpha = "a & !b & c"
    names = ["a", "b", "c", "d"]
    want = {"models": [sorted(m) for m in O.dalal(L.parse(phi), L.parse(alpha), names, {}, {})]}
    queries.append(Query("readme revise-formula",
                         ["revise-formula", "--phi", phi, "--alpha", alpha, "--vocab", "a,b,c,d",
                          "--emit-structured"], {}, expect_json(want)))
    f1_text = _strip((d / "f1.apx").read_text())
    f1_args = tuple(_ARG.findall(f1_text))
    f1_att = frozenset(_ATT.findall(f1_text))
    n = len(f1_args)
    exts = O.stable_masks(O.att_mask(f1_args, f1_att), n)
    acc, vacuous = O.acceptance(O.att_mask(f1_args, f1_att), n)
    want = {"extensions": [sorted(O.mask_args(f1_args, m)) for m in exts],
            "skeptical": sorted(O.mask_args(f1_args, acc)), "vacuous": vacuous}
    queries.append(Query("readme stable", ["stable", str(d / "f1.apx"), "--emit-structured"], {},
                         expect_json(want)))
    goal = L.parse_goal("acc(u)")
    constraint = L.parse_goal("att(t,u) & att(z,u)")
    formula = L.conj([goal, constraint])
    queries.append(Query(
        "readme revise-af",
        ["revise-af", "--af", str(d / "f1.apx"), "--goal", "acc(u)",
         "--constraint", "att(t,u) & att(z,u)", "--mode", "dalal", "--emit-structured"], {},
        expect_revision(f1_args, f1_att, lambda: O.revision(
            f1_args, f1_att, formula, O.unit_att_pins(formula), "dalal"))))
    f3 = read_eaf((d / "f3.eaf").read_text())
    beliefs = L.parse_lines((d / "beliefs_completion.txt").read_text())
    claims = L.parse_lines((d / "claims_completion.txt").read_text())
    e1 = L.parse_goal("acc(e1)")
    f3_path = str(d / "f3.eaf")
    queries.append(Query("readme eaf classify", ["eaf", "classify", "--eaf", f3_path,
                                                 "--emit-structured"], {}, expect_classify(f3)))
    queries.append(Query("readme eaf revise",
                         ["eaf", "revise", "--eaf", f3_path, "--goal", "acc(e1)",
                          "--constraint-mode", "deductive", "--emit-structured"], {},
                         expect_revision(f3.ids, f3.declared,
                                         lambda: f3.revision(e1, "deductive"))))
    queries.append(Query("readme eaf acceptable",
                         ["eaf", "acceptable", "--eaf", f3_path, "--goal", "acc(e1)",
                          "--beliefs", str(d / "beliefs_completion.txt"),
                          "--claims", str(d / "claims_completion.txt"), "--emit-structured"], {},
                         expect_acceptable(f3, e1, beliefs, claims)))
    certainty = {}
    for line in (d / "umbrella.certainty").read_text().splitlines():
        if line.split("#", 1)[0].strip():
            value, _, formula_text = line.partition(":")
            certainty[L.parse(formula_text)] = Fraction(value.strip())
    support = [L.parse("rain_predicted"), L.parse("rain_predicted -> take_umbrella")]
    kept = O.abbreviate(support, certainty, Fraction("0.5"))
    queries.append(Query(
        "readme args encode",
        ["args", "encode", "--support", "rain_predicted ; rain_predicted -> take_umbrella",
         "--claim", "take_umbrella", "--certainty", str(d / "umbrella.certainty"), "--tau", "0.5",
         "--emit-structured"], {},
        expect_json({"support": [L.render(f) for f in kept], "claim": "take_umbrella"})))
    return queries
