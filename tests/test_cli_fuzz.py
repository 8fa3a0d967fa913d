"""Command-line fuzzing: generated argv and files through all nine commands,
in process.

Every call must exit with a documented code (0 to 4) within BUDGET seconds
and print no traceback, and calling it again must print the same bytes, as
quickly: `main` keeps its argument parser and memos of parsed files between
calls, and neither may show.  Inputs stay small (at most 4 atoms or
arguments), so each call is quick; the fixed calls are the resource guards,
each side of the support limit, and the `--tau 1/0` case.
"""

import contextlib
import io
import random
import time

from argent.cli import main
from conftest import DATA, conflict_eaf

ATOMS = ("a", "b", "c", "d")
ARGS = ("x", "y", "z", "u")
SOUP = ("a", "x", "(", ")", "!", "&", "|", "->", ";", ":", ",", "{", "#", "$", "\n", " ")
COMMANDS = (
    "models", "revise-formula", "stable", "revise-af",
    "classify", "revise", "acceptable", "generate", "encode",
)


class Inputs:
    """Random command-line inputs, mostly well formed, now and then token soup."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def soup(self):
        return "".join(self.rng.choices(SOUP, k=self.rng.randint(0, 6)))

    def formula(self, leaves=3):
        rng = self.rng
        if leaves <= 1 or rng.random() < 0.3:
            f = rng.choice(ATOMS + ("true",)) if rng.random() < 0.9 else "false"
            return f"!{f}" if rng.random() < 0.3 else f
        k = rng.randint(1, leaves - 1)
        op = rng.choice(("&", "|", "->", "<->", "&", "->"))
        return f"({self.formula(k)} {op} {self.formula(leaves - k)})"

    def text(self):
        return self.soup() if self.rng.random() < 0.05 else self.formula()

    def lines(self):
        return "\n".join(self.text() for _ in range(self.rng.randint(0, 5)))

    def arguments(self):
        return self.rng.sample(ARGS, self.rng.randint(1, 4))

    def attacks(self, args):
        rng = self.rng
        pool = list(args) if rng.random() < 0.9 else list(ARGS)
        return [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 5))]

    def goal(self, args):
        rng = self.rng
        if rng.random() < 0.05:
            return self.soup()
        pool = list(args) if rng.random() < 0.9 else list(ARGS)

        def atom():
            if rng.random() < 0.5:
                return f"acc({rng.choice(pool)})"
            return f"att({rng.choice(pool)},{rng.choice(pool)})"

        goal = atom() if rng.random() < 0.7 else f"!{atom()}"
        if rng.random() < 0.4:
            goal = f"{goal} {rng.choice(('&', '|', '->'))} {atom()}"
        return goal

    def apx(self, args):
        text = "".join(f"arg({a}). " for a in args)
        text += "".join(f"att({s},{t}). " for s, t in self.attacks(args))
        return text if self.rng.random() < 0.95 else self.soup()

    def eaf(self, args):
        rng = self.rng
        blocks = []
        for aid in args:
            support = " ; ".join(self.text() for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.5:
                blocks.append(f"deductive {aid} {{ support: {support}  claim: {self.text()} }}")
                continue
            if rng.random() < 0.9:  # a modus-ponens pair missing its rule, claim or both
                p, q = rng.sample(ATOMS, 2)
                q = rng.choice((q, f"!{q}"))
                claim, full = rng.choice(((q, None), ("true", q), ("true", None)))
                support, added = p, f"{p} -> {q}"
            else:
                claim, full, added = self.text(), self.text(), self.text()
            block = f"enthymeme {aid} {{\n  support: {support}\n  claim: {claim}\n"
            if rng.random() < 0.85:
                block += f"  added_support: {added}\n"
            if full and rng.random() < 0.85:
                block += f"  full_claim: {full}\n"
            blocks.append(block + "}")
        blocks += [f"att({s},{t})." for s, t in self.attacks(args)]
        return "\n".join(blocks)

    def call(self):
        """(argv, files): `@name` in argv stands for the file `name`."""
        rng = self.rng
        command = rng.choice(COMMANDS)
        modes = rng.choice(((), ("--mode", "dalal"), ("--mode", "att-weighted")))
        args = self.arguments()
        files = {}
        if command == "models":
            argv = ["models", self.text()]
            if rng.random() < 0.5:
                argv += ["--vocab", ",".join(ATOMS)]
        elif command == "revise-formula":
            argv = ["revise-formula", "--phi", self.text(), "--alpha", self.text()]
        elif command == "stable":
            files["f.apx"] = self.apx(args)
            argv = ["stable", "@f.apx"]
        elif command == "revise-af":
            files["f.apx"] = self.apx(args)
            argv = ["revise-af", "--af", "@f.apx", "--goal", self.goal(args), *modes]
            if rng.random() < 0.3:
                argv += ["--constraint", self.goal(args)]
            if rng.random() < 0.3:
                argv += ["--allow-empty-semantics"]
        elif command == "classify":
            files["f.eaf"] = self.eaf(args)
            argv = ["eaf", "classify", "--eaf", "@f.eaf"]
        elif command in ("revise", "acceptable"):
            files["f.eaf"] = self.eaf(args)
            argv = ["eaf", command, "--eaf", "@f.eaf", "--goal", self.goal(args), *modes,
                    "--constraint-mode", rng.choice(("deductive", "certain", "none"))]
            if command == "acceptable":
                files["beliefs.txt"], files["claims.txt"] = self.lines(), self.lines()
                argv += ["--beliefs", "@beliefs.txt", "--claims", "@claims.txt",
                         "--max-added", str(rng.randint(-1, 3))]
        elif command == "generate":
            files["beliefs.txt"], files["claims.txt"] = self.lines(), self.lines()
            argv = ["args", "generate", "--beliefs", "@beliefs.txt", "--claims", "@claims.txt"]
        else:
            support = " ; ".join(self.text() for _ in range(rng.randint(0, 3)))
            argv = ["args", "encode", "--support", support, "--claim", self.text(),
                    "--tau", rng.choice(("1", "1/2", "0", "1/0", "x"))]
            if rng.random() < 0.5:
                files["c.certainty"] = "\n".join(
                    f"{rng.choice(('1', '1/2', '0', '2', '1/0'))} : {self.text()}"
                    for _ in range(rng.randint(0, 3))
                )
                argv += ["--certainty", "@c.certainty"]
        if rng.random() < 0.3:
            argv.append("--emit-structured")
        if rng.random() < 0.03:
            argv.remove(rng.choice(argv[1:]))  # a usage error, now and then
        return argv, files


WIDE = " | ".join(f"v{i}" for i in range(26))
F3 = ["--eaf", str(DATA / "f3.eaf"), "--goal", "acc(e1)"]
# (argv, files, exit code)
FIXED = [
    (["args", "encode", "--support", "a ; a -> b", "--claim", "b", "--tau", "1/0"], {}, 2),
    (["models", WIDE], {}, 4),
    (["revise-formula", "--phi", "v0", "--alpha", WIDE], {}, 4),
    (["models", "!" * 3000 + "a"], {}, 2),
    (["stable", "@f.apx"], {"f.apx": "".join(f"arg(a{i}). " for i in range(23))}, 4),
    (["revise-af", "--af", "@f.apx", "--goal", "acc(a0)"],
     {"f.apx": "".join(f"arg(a{i}). " for i in range(6))}, 4),
    (["eaf", "acceptable", *F3, "--beliefs", "@beliefs.txt", "--claims", "@claims.txt",
      "--max-added", "4"],
     {"beliefs.txt": "\n".join(f"q{i}" for i in range(26)), "claims.txt": "gamma"}, 4),
    (["eaf", "acceptable", *F3, "--beliefs", str(DATA / "beliefs_completion.txt"),
      "--max-added", "-1"], {}, 2),
    (["eaf", "classify", "--eaf", "@f.eaf"],
     {"f.eaf": "deductive x { support: " + " ; ".join(f"q{i}" for i in range(17))
      + "  claim: q0 }\ndeductive y { support: !q0  claim: !q0 }\natt(y,x)."}, 4),
    (["args", "generate", "--beliefs", "@beliefs.txt", "--claims", "@claims.txt"],
     {"beliefs.txt": "\n".join(f"q{i}" for i in range(13)), "claims.txt": "q0"}, 4),
    (["eaf", "classify", "--eaf", "@f.eaf"], {"f.eaf": conflict_eaf(12)}, 0),
    (["eaf", "classify", "--eaf", "@f.eaf"], {"f.eaf": conflict_eaf(13)}, 4),
]
# Most seconds any one run of a call may take, first or repeat.
BUDGET = 2.0


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    took = time.perf_counter() - start
    assert took <= BUDGET, (argv, f"{took:.2f} s")
    return code, out.getvalue(), err.getvalue()


def test_cli_calls_exit_documented_codes_and_repeat(tmp_path):
    codes = set()
    calls = FIXED + [(*Inputs(seed).call(), None) for seed in range(500)]
    for argv, files, want in calls:
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        first = run(argv)
        assert first[0] in range(5), (argv, files, first)
        assert want is None or first[0] == want, (argv, first)
        assert "Traceback" not in first[1] + first[2], (argv, files)
        assert run(argv) == first, (argv, files)
        codes.add(first[0])
    assert codes == set(range(5))
