"""The benchmark's own propositional toolkit, independent of `argent`.

Formulas are nested tuples:

    ("v", name)          variable
    ("c", bool)          constant
    ("n", f)             negation
    ("a", (f, g, ...))   conjunction, at least two children
    ("o", (f, g, ...))   disjunction, at least two children
    ("i", f, g)          implication
    ("e", f, g)          biconditional

The generators build these structures, `render` turns them into the text the
program parses, and the oracles evaluate them through truth tables held as
Python ints (bit m of a table is the value under assignment m, in which
variable j is true iff bit j of m is set).  `parse` reads the program's input
syntax back into tuples; it is used for the fixed data files and the tests.
"""

from __future__ import annotations

import re

TRUE = ("c", True)
FALSE = ("c", False)


def var(name):
    return ("v", name)


def neg(f):
    return ("n", f)


def conj(items):
    items = tuple(items)
    if not items:
        return TRUE
    return items[0] if len(items) == 1 else ("a", items)


def disj(items):
    items = tuple(items)
    if not items:
        return FALSE
    return items[0] if len(items) == 1 else ("o", items)


def imp(f, g):
    return ("i", f, g)


def iff(f, g):
    return ("e", f, g)


def literal(name, positive):
    return ("v", name) if positive else ("n", ("v", name))


# ---------------------------------------------------------------------------
# Rendering: minimal parentheses by precedence, loosest first
# <->, ->, |, &, !.  The program prints formulas by the same rules, so a
# rendered formula reads back unchanged from the program's output.
# ---------------------------------------------------------------------------

_PREC = {"e": 1, "i": 2, "o": 3, "a": 4, "n": 5, "v": 6, "c": 6}


def _wrap(f, level):
    s = render(f)
    return f"({s})" if _PREC[f[0]] <= level else s


def render(f) -> str:
    tag = f[0]
    if tag == "v":
        # goal atoms are named "acc:x" and "att:x:y" and print as acc(x), att(x,y)
        kind, _, rest = f[1].partition(":")
        return f"{kind}({rest.replace(':', ',')})" if rest else f[1]
    if tag == "c":
        return "true" if f[1] else "false"
    if tag == "n":
        inner = render(f[1])
        return "!" + (inner if _PREC[f[1][0]] >= 5 else f"({inner})")
    if tag == "a":
        return " & ".join(_wrap(c, 4) for c in f[1])
    if tag == "o":
        return " | ".join(_wrap(c, 3) for c in f[1])
    if tag == "i":
        return f"{_wrap(f[1], 2)} -> {_wrap(f[2], 1)}"
    if tag == "e":
        return f"{_wrap(f[1], 0)} <-> {_wrap(f[2], 1)}"
    raise TypeError(f"not a formula: {f!r}")


def names_of(f, out=None) -> set:
    out = set() if out is None else out
    stack = [f]
    while stack:
        g = stack.pop()
        tag = g[0]
        if tag == "v":
            out.add(g[1])
        elif tag == "n":
            stack.append(g[1])
        elif tag in ("a", "o"):
            stack.extend(g[1])
        elif tag in ("i", "e"):
            stack.append(g[1])
            stack.append(g[2])
    return out


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

class Tables:
    """Variable columns over an ordered vocabulary; `fixed` maps names to
    constant values (those names take no column)."""

    def __init__(self, names, fixed=None):
        self.names = tuple(names)
        self.fixed = dict(fixed or {})
        w = len(self.names)
        self.size = 1 << w
        self.full = (1 << self.size) - 1
        self.cols = {}
        for j, name in enumerate(self.names):
            block = 1 << j
            col, length = ((1 << block) - 1) << block, 2 * block
            while length < self.size:
                col |= col << length
                length *= 2
            self.cols[name] = col

    def table(self, f) -> int:
        tag = f[0]
        if tag == "v":
            name = f[1]
            if name in self.fixed:
                return self.full if self.fixed[name] else 0
            return self.cols[name]
        if tag == "c":
            return self.full if f[1] else 0
        if tag == "n":
            return self.full ^ self.table(f[1])
        if tag == "a":
            t = self.full
            for c in f[1]:
                t &= self.table(c)
            return t
        if tag == "o":
            t = 0
            for c in f[1]:
                t |= self.table(c)
            return t
        if tag == "i":
            return (self.full ^ self.table(f[1])) | self.table(f[2])
        if tag == "e":
            return self.full ^ (self.table(f[1]) ^ self.table(f[2]))
        raise TypeError(f"not a formula: {f!r}")

    def true_sets(self, t: int) -> list[frozenset]:
        """The assignments in table `t`, as sets of true names (fixed ones
        included)."""
        base = {n for n, v in self.fixed.items() if v}
        out = []
        while t:
            low = t & -t
            m = low.bit_length() - 1
            t ^= low
            out.append(frozenset(base | {n for j, n in enumerate(self.names) if (m >> j) & 1}))
        return out


def consistent(formulas) -> bool:
    """Joint satisfiability over the formulas' own variables."""
    formulas = list(formulas)
    names = set()
    for f in formulas:
        names_of(f, names)
    tabs = Tables(sorted(names))
    t = tabs.full
    for f in formulas:
        t &= tabs.table(f)
        if not t:
            return False
    return True


def entails(premises, f) -> bool:
    return not consistent(list(premises) + [neg(f)])


def evaluate(f, true_names) -> bool:
    """Truth value of `f` under one assignment."""
    tag = f[0]
    if tag == "v":
        return f[1] in true_names
    if tag == "c":
        return f[1]
    if tag == "n":
        return not evaluate(f[1], true_names)
    if tag == "a":
        return all(evaluate(c, true_names) for c in f[1])
    if tag == "o":
        return any(evaluate(c, true_names) for c in f[1])
    if tag == "i":
        return (not evaluate(f[1], true_names)) or evaluate(f[2], true_names)
    return evaluate(f[1], true_names) == evaluate(f[2], true_names)


def canonical_key(true_set, vocabulary):
    """Sort key of an assignment: vocabulary order, false before true."""
    return tuple(name in true_set for name in vocabulary)


# ---------------------------------------------------------------------------
# Parsing the program's input syntax (used for fixed data files and tests)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<->|->|[()&|!,]|[a-z][a-zA-Z0-9_]*)")


def _tokens(text):
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    pos, out = 0, []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read formula text at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()


def parse(text, atom=None):
    """Read formula text into tuples.  `atom(tokens, i)` may read a
    multi-token atom (as the goal syntax does) and return (formula, next i)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r} in {text!r}")
        pos += 1
        return tok

    def p_iff():
        left = p_imp()
        while peek() == "<->":
            take()
            left = iff(left, p_imp())
        return left

    def p_imp():
        left = p_or()
        if peek() == "->":
            take()
            return imp(left, p_imp())
        return left

    def p_or():
        items = [p_and()]
        while peek() == "|":
            take()
            items.append(p_and())
        return disj(items)

    def p_and():
        items = [p_not()]
        while peek() == "&":
            take()
            items.append(p_not())
        return conj(items)

    def p_not():
        if peek() == "!":
            take()
            return neg(p_not())
        return p_atom()

    def p_atom():
        nonlocal pos
        tok = take()
        if tok == "(":
            f = p_iff()
            take(")")
            return f
        if tok in ("true", "false"):
            return ("c", tok == "true")
        if atom is not None:
            f, pos = atom(toks, pos - 1)
            return f
        return var(tok)

    f = p_iff()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return f


def parse_goal(text):
    """Read a goal over acc(x) / att(x,y) atoms into "acc:x" / "att:x:y" names."""

    def atom(toks, i):
        if toks[i] == "acc":
            return var(f"acc:{toks[i + 2]}"), i + 4
        return var(f"att:{toks[i + 2]}:{toks[i + 4]}"), i + 6

    return parse(text, atom)


def parse_lines(text):
    return [parse(line) for line in text.splitlines() if line.split("#", 1)[0].strip()]
