"""Propositional core: formula trees, parsing, models, entailment, minimal conflicts.

Grammar, loosest to tightest: ``<->`` (left-associative), ``->``
(right-associative), ``|``, ``&``, ``!``.  Atoms are identifiers matching
``[a-z][a-zA-Z0-9_]*``, the constants ``true`` / ``false``, or a parenthesized
formula.  ``#`` starts a comment running to the end of the line.  Belief-base
files hold one formula per line, blank lines ignored.  Nesting is bounded by
``MAX_NESTING`` levels (see :class:`FormulaParser`).

Formulas are immutable trees of records (``errors.Record``); equality,
hashing and set membership are structural, and a node keeps only its hash,
computed on the first call.

Input files repeat their formula texts: the premises, rules and claims of a
shared world come back in every framework, belief base, claim pool and
certainty map of an agent.  So the file-format parsers
(:func:`parse_formula_lines`, the fields of ``eaf.parse_eaf``,
``structured.CertaintyMap.parse`` and the command line's ``args encode``)
read each formula through :func:`parse_span` and its one bounded memo from
text to tree, and ``eaf.parse_eaf`` keeps whole framework files in another.
Errors are never kept.  :func:`parse_formula` and ``afrev.parse_goal`` stay
plain: the formulas and goals given to them one at a time rarely repeat, and
a memo there would cost memory and a lookup on every call for no hit.

Semantic questions are answered on truth tables: over an atom order of width
n, a formula compiles to one int of 2^n bits whose bit m is the formula's
value under assignment m (``order[0]`` is the most significant bit of m), so
``&``, ``|`` and ``^`` combine whole tables at once.  :func:`satisfiable`
ANDs the tables of its conjuncts, built afresh over one atom order for each
call; :func:`entails` goes through it; :func:`models` decodes the set
bits of one table in canonical order, from the names of two precomputed
halves of the atom order, and checks the names against the vocabulary once
per table.  Above ``ENUMERATION_LIMIT`` atoms :func:`satisfiable` falls
back to unit propagation and splitting, which keeps each conjunct next to
its variable set and substitutes only the conjuncts an assignment touches,
and :func:`models` refuses.

A call that asks many questions of the same formulas compiles them once
(:class:`_Compiled`): up to ``_CACHED_WIDTH`` atoms in all, each formula
becomes one table over their sorted union, consistency is a non-zero AND and
entailment an AND with no bit outside the claim's table; wider, each
question is a :func:`satisfiable` call.  One compiled set serves a whole
public call of the enthymeme pipeline: :func:`subset_walk` and
:func:`minimal_conflict_subsets` here, and the defeats, completion walks and
witness tests of ``structured`` and ``eaf``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from operator import is_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ID_PATTERN,
    IDENT,
    MutableRecord,
    ParseError,
    Record,
    ResourceLimitError,
    VocabularyMismatchError,
    line_col,
)

# Widest truth table built, in atoms (a table over n atoms is an int of 2^n
# bits); beyond it `satisfiable` switches to unit propagation and splitting,
# and `models` and `dalal_revise` refuse.
ENUMERATION_LIMIT = 20

# Widest order whose atom columns are kept, one set per width (2^12 bits,
# 512 bytes a column): wider columns would make the cache hold megabytes.  It
# is also the widest set of formulas that `_Compiled` answers on tables.
_CACHED_WIDTH = 12

# Deepest nesting the parser accepts (see FormulaParser); it keeps every
# recursive walk over a parsed formula (evaluate, truth_table, substitute,
# format_formula, structural equality and hashing) inside Python's default
# recursion limit.
MAX_NESTING = 100

# Most split nodes (conjunct lists searched) one `satisfiable` call above
# ENUMERATION_LIMIT atoms may visit.
SPLIT_NODE_LIMIT = 2**13

# Most supports one subset walk may test (see `check_supports`): building a
# base's arguments, completing an enthymeme or searching minimal conflicts.
SUPPORT_LIMIT = 2**12


class Formula(Record):
    """Base class for formula nodes.  Nodes are records (`errors.Record`), so
    they are immutable, and equality and hashing are structural."""

    _hash = None

    def __hash__(self):
        # Parsed nodes are shared across queries and hashed again by each
        # (argument contents, conflict sets); a node keeps its hash, that
        # of its fields, after the first call.
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return format_formula(self)


class Var(Formula):
    _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Const(Formula):
    _fields = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", value)


class Not(Formula):
    _fields = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)


class And(Formula):
    _fields = ("children",)

    def __init__(self, children: tuple[Formula, ...]):
        object.__setattr__(self, "children", children)
        if len(children) < 2:
            raise ValueError("And nodes need at least two children; use conj()")


class Or(Formula):
    _fields = ("children",)

    def __init__(self, children: tuple[Formula, ...]):
        object.__setattr__(self, "children", children)
        if len(children) < 2:
            raise ValueError("Or nodes need at least two children; use disj()")


class Implies(Formula):
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Iff(Formula):
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


TRUE = Const(True)
FALSE = Const(False)


def conj(items: Iterable[Formula]) -> Formula:
    """N-ary conjunction; empty -> true, singleton -> the item itself."""
    parts = tuple(items)
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(items: Iterable[Formula]) -> Formula:
    parts = tuple(items)
    if not parts:
        return FALSE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def neg(f: Formula) -> Formula:
    if isinstance(f, Const):
        return Const(not f.value)
    return Not(f)


# ---------------------------------------------------------------------------
# Scanner / parser
# ---------------------------------------------------------------------------

_PUNCT = {"(": "lparen", ")": "rparen", "&": "and", "|": "or", "!": "not", ",": "comma"}
_OPERATORS = {"<->": "iff", "->": "implies", **_PUNCT}


class Token(MutableRecord):
    __slots__ = _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


class AtomToken(Token):
    """A whole atom scanned as one token (see :func:`token_pattern`): kind and
    text are those of its leading identifier, and `atom` is its full text."""

    __slots__ = ("atom",)


@lru_cache(maxsize=None)
def token_pattern(atom: str = "(?!)") -> re.Pattern:
    """The pattern :func:`scan` matches at each position: blanks, then one
    token or the end of the text.  Text matching `atom`, a regex without
    groups of its own that is tried first, becomes one :class:`AtomToken`; it
    must begin with an identifier and `(`.  By default nothing does.
    Compiled on first use."""
    return re.compile(
        rf"[ \t\r]*(?:({atom})|(\n)|(#[^\n]*)|(<->|->|[()&|!,])|({IDENT})|\Z)"
    )


_ATOM, _NEWLINE, _COMMENT, _OPERATOR, _WORD = range(1, 6)  # token_pattern groups


def scan(text: str, pattern: re.Pattern | None = None) -> list[Token]:
    """The tokens of `text`, with 1-based lines and columns, closed by an eof
    token; the eof token of a text ending in a comment sits at the `#`.
    `pattern` is a :func:`token_pattern`, by default the formula one."""
    match = (pattern or token_pattern()).match
    tokens = []
    pos, line, line_start, n = 0, 1, 0, len(text)
    tail = 0  # where the eof token goes
    while pos < n:
        m = match(text, pos)
        if m is None:
            pos = n - len(text[pos:].lstrip(" \t\r"))
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        group = m.lastindex
        tail = pos = m.end()
        if group is None:  # blanks to the end
            break
        word = m.group(group)
        col = pos - len(word) - line_start + 1
        if group == _WORD:
            tokens.append(Token("const" if word in ("true", "false") else "ident", word, line, col))
        elif group == _OPERATOR:
            tokens.append(Token(_OPERATORS[word], word, line, col))
        elif group == _ATOM:
            tok = AtomToken("ident", word[: word.index("(")], line, col)
            tok.atom = word
            tokens.append(tok)
        elif group == _NEWLINE:
            line += 1
            line_start = pos
        elif group == _COMMENT:
            tail -= len(word)
    tokens.append(Token("eof", "", line, tail - line_start + 1))
    return tokens


_NESTING_OPS = ("iff", "implies", "or", "and")


def _group_levels(tokens: list[Token]) -> dict[int, list[Token]]:
    """The operators that nest each parenthesized group's operands, keyed by
    the index of the group's first token (0 for the whole input): every `<->`
    and `->` at the group's top level, and its first `|` and first `&`."""
    levels: dict[int, list[Token]] = {}
    seen: set[tuple[int, str]] = set()
    starts = [0]
    for i, tok in enumerate(tokens):
        kind = tok.kind
        if kind == "lparen":
            starts.append(i + 1)
        elif kind == "rparen":
            if len(starts) > 1:
                starts.pop()
        elif kind in _NESTING_OPS:
            key = (starts[-1], kind)
            if kind == "iff" or kind == "implies" or key not in seen:
                seen.add(key)
                levels.setdefault(key[0], []).append(tok)
    return levels


class FormulaParser:
    """Recursive-descent parser over scanned tokens.

    `(` and `!` each add a nesting level, as does every `->` and `<->` at the
    top level of a parenthesized group (or of the whole input), and the
    group's first `|` and first `&`.  The count bounds the height of the
    parsed tree; past MAX_NESTING levels parsing stops with a
    :class:`ParseError` at the offending token.

    Subclasses may override :meth:`ident_atom` to give identifiers a different
    meaning (the goal-formula parser does).
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        # Each nesting level needs a token of its own, so a stream of at most
        # MAX_NESTING tokens cannot nest too deep.
        self._levels = _group_levels(tokens) if len(tokens) > MAX_NESTING else {}

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return tok

    def _nest(self, tok: Token) -> None:
        """Enter one nesting level at `tok`; the caller decrements `_depth` on leaving."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)
        return f

    def iff(self) -> Formula:
        levels = self._levels.get(self._pos, ())
        for tok in levels:
            self._nest(tok)
        left = self.implies()
        while self.peek().kind == "iff":
            self.advance()
            left = Iff(left, self.implies())
        self._depth -= len(levels)
        return left

    def implies(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "implies":
            self.advance()
            return Implies(left, self.implies())
        return left

    def disj(self) -> Formula:
        items = [self.conj()]
        while self.peek().kind == "or":
            self.advance()
            items.append(self.conj())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conj(self) -> Formula:
        items = [self.unary()]
        while self.peek().kind == "and":
            self.advance()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Formula:
        if self.peek().kind == "not":
            self._nest(self.advance())
            f = Not(self.unary())
            self._depth -= 1
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lparen":
            self._nest(self.advance())
            f = self.iff()
            self.expect("rparen", "')'")
            self._depth -= 1
            return f
        if tok.kind == "const":
            self.advance()
            return Const(tok.text == "true")
        if tok.kind == "ident":
            return self.ident_atom()
        raise ParseError(
            f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
            tok.line,
            tok.col,
        )

    def ident_atom(self) -> Formula:
        return Var(self.advance().text)


def parse_formula(text: str) -> Formula:
    """Parse a formula; raises :class:`ParseError` with line/column on bad input."""
    return FormulaParser(scan(text)).parse()


# Formula texts kept by `_parse_shared`: the premises, rules and claims that a
# shared world repeats across one agent's frameworks, belief bases, claim
# pools and certainty maps.
_SHARED_FORMULAS = 256


@lru_cache(maxsize=_SHARED_FORMULAS)
def _parse_shared(text: str) -> Formula:
    """:func:`parse_formula` for the formula texts of input files, parsed once
    per process.  Trees are immutable, so every hit hands out the same one;
    an error is raised afresh on every call, since `lru_cache` keeps none,
    with its position in `text`."""
    return parse_formula(text)


def parse_span(text: str, start: int = 0, stop: int | None = None) -> Formula:
    """The formula `text[start:stop]`, stripped of blanks and read through the
    shared memo; an error is raised at its line and column in `text`."""
    part = text[start:stop]
    body = part.strip()
    try:
        return _parse_shared(body)
    except ParseError as exc:
        at = start + len(part) - len(part.lstrip())  # where `body` starts
        for _ in range(exc.line - 1):
            at = text.index("\n", at) + 1
        raise ParseError(exc.message, *line_col(text, at + exc.col - 1)) from None


def parse_list(text: str, start: int = 0, stop: int | None = None) -> tuple[Formula, ...]:
    """The `;`-separated formulas of `text[start:stop]`, blank items skipped."""
    out = []
    for part in text[start:stop].split(";"):
        if part.strip():
            out.append(parse_span(text, start, start + len(part)))
        start += len(part) + 1
    return tuple(out)


def text_lines(text: str) -> list[tuple[int, int]]:
    """The spans of the non-blank lines of `text`, each cut at its `#` comment
    and stripped of blanks.  Lines end at `\\n` only, as they do for
    :func:`scan`."""
    spans = []
    start = 0
    for line in text.split("\n"):
        body = line.split("#", 1)[0]
        stripped = body.strip()
        if stripped:
            at = start + len(body) - len(body.lstrip())
            spans.append((at, at + len(stripped)))
        start += len(line) + 1
    return spans


def parse_formula_lines(text: str) -> tuple[Formula, ...]:
    """Parse a belief-base style file: one formula per line, blanks ignored."""
    return tuple(parse_span(text, start, stop) for start, stop in text_lines(text))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5, Var: 6, Const: 6}


def _prec(f: Formula) -> int:
    return _PREC[type(f)]


def _wrap(f: Formula, level: int) -> str:
    s = format_formula(f)
    return f"({s})" if _prec(f) <= level else s


def format_formula(f: Formula) -> str:
    """Print with minimal parentheses; parsing the result restores `f` exactly."""
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        inner = format_formula(f.child)
        return "!" + (inner if _prec(f.child) >= 5 else f"({inner})")
    if isinstance(f, And):
        return " & ".join(_wrap(c, 4) for c in f.children)
    if isinstance(f, Or):
        return " | ".join(_wrap(c, 3) for c in f.children)
    if isinstance(f, Implies):
        left = _wrap(f.left, 2)
        right = _wrap(f.right, 1)
        return f"{left} -> {right}"
    if isinstance(f, Iff):
        left = _wrap(f.left, 0)
        right = _wrap(f.right, 1)
        return f"{left} <-> {right}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

def variables(f: Formula) -> frozenset[str]:
    """The variable names of `f`."""
    names = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            names.add(g.name)
        elif isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.extend(g.children)
        elif not isinstance(g, Const):
            stack += (g.left, g.right)
    return frozenset(names)


def evaluate(f: Formula, true_names) -> bool:
    """Truth value under the assignment sending exactly `true_names` to true."""
    if isinstance(f, Var):
        return f.name in true_names
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.child, true_names)
    if isinstance(f, And):
        return all(evaluate(c, true_names) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(c, true_names) for c in f.children)
    if isinstance(f, Implies):
        return (not evaluate(f.left, true_names)) or evaluate(f.right, true_names)
    if isinstance(f, Iff):
        return evaluate(f.left, true_names) == evaluate(f.right, true_names)
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, assignment: Mapping[str, bool]) -> Formula:
    """Replace assigned variables by constants, folding constants away.  A
    subformula that comes back unchanged is returned as the same object."""
    if isinstance(f, Var):
        if f.name in assignment:
            return TRUE if assignment[f.name] else FALSE
        return f
    if isinstance(f, Const):
        return f
    if isinstance(f, Not):
        child = substitute(f.child, assignment)
        return f if child is f.child and not isinstance(child, Const) else neg(child)
    if isinstance(f, And):
        parts = []
        for c in f.children:
            s = substitute(c, assignment)
            if not isinstance(s, Const):
                parts.append(s)
            elif not s.value:
                return FALSE
        return f if _unchanged(parts, f.children) else conj(parts)
    if isinstance(f, Or):
        parts = []
        for c in f.children:
            s = substitute(c, assignment)
            if not isinstance(s, Const):
                parts.append(s)
            elif s.value:
                return TRUE
        return f if _unchanged(parts, f.children) else disj(parts)
    if isinstance(f, Implies):
        left = substitute(f.left, assignment)
        right = substitute(f.right, assignment)
        if isinstance(left, Const):
            return right if left.value else TRUE
        if isinstance(right, Const):
            return TRUE if right.value else neg(left)
        return f if left is f.left and right is f.right else Implies(left, right)
    if isinstance(f, Iff):
        left = substitute(f.left, assignment)
        right = substitute(f.right, assignment)
        if isinstance(left, Const):
            return right if left.value else neg(right)
        if isinstance(right, Const):
            return left if right.value else neg(left)
        return f if left is f.left and right is f.right else Iff(left, right)
    raise TypeError(f"not a formula: {f!r}")


def _unchanged(parts: list[Formula], children: tuple[Formula, ...]) -> bool:
    return len(parts) == len(children) and all(map(is_, parts, children))


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

def check_width(width: int) -> None:
    """Refuse a truth table over more than ENUMERATION_LIMIT atoms."""
    if width > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"2^{width} assignments over {width} free variables exceed the limit "
            f"of 2^{ENUMERATION_LIMIT}"
        )


def _build_columns(n: int) -> tuple[int, ...]:
    """Atom columns over an order of width n: bit m of column i is set iff
    atom i is true in assignment m.  Each column is built by doubling, n
    shifts however wide it is."""
    size = 1 << n
    cols = []
    for i in range(n):
        span = 1 << (n - 1 - i)
        col = ((1 << span) - 1) << span
        width = span << 1
        while width < size:
            col |= col << width
            width <<= 1
        cols.append(col)
    return tuple(cols)


_small_columns = lru_cache(maxsize=None)(_build_columns)


def atom_tables(
    order: Sequence[str], fixed: Mapping[str, bool] | None = None
) -> tuple[dict[str, int], int]:
    """The truth table of each atom over `order`, and the all-true table.

    Bit m of a table over `order` is its formula's value under assignment m,
    in which `order[0]` is the most significant bit.  Names in `fixed` get
    the constant table of their value.
    """
    n = len(order)
    full = (1 << (1 << n)) - 1
    cols = dict(zip(order, _small_columns(n) if n <= _CACHED_WIDTH else _build_columns(n)))
    for name, value in (fixed or {}).items():
        cols[name] = full if value else 0
    return cols, full


def truth_table(f: Formula, cols: Mapping[str, int], full: int) -> int:
    """Truth table of `f` from the tables of its atoms (see :func:`atom_tables`)."""
    if isinstance(f, Var):
        return cols[f.name]
    if isinstance(f, Not):
        return full ^ truth_table(f.child, cols, full)
    if isinstance(f, And):
        t = full
        for c in f.children:
            t &= truth_table(c, cols, full)
            if not t:
                break
        return t
    if isinstance(f, Or):
        t = 0
        for c in f.children:
            t |= truth_table(c, cols, full)
        return t
    if isinstance(f, Implies):
        return (full ^ truth_table(f.left, cols, full)) | truth_table(f.right, cols, full)
    if isinstance(f, Iff):
        return full ^ truth_table(f.left, cols, full) ^ truth_table(f.right, cols, full)
    if isinstance(f, Const):
        return full if f.value else 0
    raise TypeError(f"not a formula: {f!r}")


def _subset_names(
    names: Sequence[str], fixed: Iterable[str], position: Mapping[str, int]
) -> list[tuple[str, ...]]:
    """The names true in each assignment index over `names`, names[0] most
    significant, with every name of `fixed` true as well.  Each fixed name
    comes just before the first of `names` that follows it in `position`."""
    out: list[tuple[str, ...]] = [()]
    pending = sorted(fixed, key=position.__getitem__)
    for name in reversed(names):
        while pending and position[pending[-1]] > position[name]:
            head = (pending.pop(),)
            out = [head + t for t in out]
        out += [(name,) + t for t in out]
    if pending:
        head = tuple(pending)
        out = [head + t for t in out]
    return out


def _decode_bits(
    table: int,
    vocabulary: Vocabulary,
    order: Sequence[str],
    fixed_true: Iterable[str],
    part=tuple,
) -> Iterator[tuple]:
    """For each set bit of a truth table over `order`, in ascending bit
    order, the names true under it as a pair ``(part(high), part(low))``.

    `order` splits into a high and a low half, and the subsets of each half
    are named once, so a bit costs two lookups.  The names of `fixed_true`
    are true under every bit; each joins the half it falls in by vocabulary
    position, so that with `order` in vocabulary order ``high + low`` lists
    the true names in vocabulary order.  Every name must be in the
    vocabulary.
    """
    position = {name: i for i, name in enumerate(vocabulary.names)}
    fixed = tuple(fixed_true)
    low = len(order) // 2
    high_names, low_names = order[: len(order) - low], order[len(order) - low:]
    cut = position[low_names[0]] if low else len(position)
    highs = [
        part(t) for t in _subset_names(high_names, [f for f in fixed if position[f] < cut], position)
    ]
    lows = [
        part(t) for t in _subset_names(low_names, [f for f in fixed if position[f] >= cut], position)
    ]
    mask = (1 << low) - 1
    bits = bin(table)[:1:-1]
    m = bits.find("1")
    while m >= 0:
        yield highs[m >> low], lows[m & mask]
        m = bits.find("1", m + 1)


# ---------------------------------------------------------------------------
# Vocabularies and interpretations
# ---------------------------------------------------------------------------

class Vocabulary(Record):
    """Ordered, duplicate-free variable names; the order fixes model enumeration."""

    _fields = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        object.__setattr__(self, "names", names)
        seen = set()
        for name in names:
            if not ID_PATTERN.match(name):
                raise ValueError(f"bad variable name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "name_set", frozenset(seen))

    @classmethod
    def of(cls, *names: str) -> "Vocabulary":
        return cls(tuple(names))

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    def __contains__(self, name):
        return name in self.names

    def index(self, name: str) -> int:
        return self.names.index(name)


class Interpretation(Record):
    """Truth assignment over a vocabulary, given by its set of true variables."""

    __slots__ = _fields = ("vocabulary", "true_set")

    def __init__(self, vocabulary: Vocabulary, true_set: Iterable[str]):
        true_set = frozenset(true_set)
        object.__setattr__(self, "vocabulary", vocabulary)
        object.__setattr__(self, "true_set", true_set)
        if not true_set <= vocabulary.name_set:
            extra = true_set - vocabulary.name_set
            raise VocabularyMismatchError(
                f"true set mentions variables outside the vocabulary: {sorted(extra)}"
            )

    def satisfies(self, f: Formula) -> bool:
        return evaluate(f, self.true_set)

    def __str__(self) -> str:
        return format_interpretation(self)


def format_interpretation(i: Interpretation) -> str:
    members = [name for name in i.vocabulary.names if name in i.true_set]
    return "{" + ",".join(members) + "}"


def models(f: Formula, vocabulary: Vocabulary) -> list[Interpretation]:
    """All interpretations over `vocabulary` satisfying `f`, in canonical order.

    Canonical order is lexicographic over the vocabulary order with false
    before true.  Top-level unit literals are fixed before the table is built,
    so formulas that pin most variables stay cheap; more than ENUMERATION_LIMIT
    variables left free trips the resource guard.
    """
    return table_models(*_model_table(f, vocabulary))


def _model_table(f: Formula, vocabulary: Vocabulary):
    """The models of `f` as ``(table, vocabulary, order, fixed_true)``, the
    arguments of :func:`table_models`: a truth table over the names that
    the unit literals of `f` leave free, in vocabulary order, and the names
    they pin to true."""
    units = pinned_literals(f, vocabulary)
    if units is None:
        return 0, vocabulary, (), ()
    free = tuple(name for name in vocabulary.names if name not in units)
    fixed_true = [name for name, value in units.items() if value]
    return truth_table(f, *atom_tables(free, units)), vocabulary, free, fixed_true


def pinned_literals(f: Formula, vocabulary: Vocabulary):
    """Unit literals of `f`, checked for a truth table over `vocabulary`;
    None when they show that `f` has no model.

    Raises VocabularyMismatchError when `f` mentions names outside the
    vocabulary, and ResourceLimitError when more than ENUMERATION_LIMIT
    vocabulary names stay free.
    """
    extra = variables(f) - vocabulary.name_set
    if extra:
        raise VocabularyMismatchError(
            f"formula uses variables outside the vocabulary: {sorted(extra)}"
        )
    units = unit_literals([f])
    if units is None:
        return None
    width = len(vocabulary) - len(units)
    if width > ENUMERATION_LIMIT:
        if substitute(f, units) == FALSE:
            return None
        check_width(width)
    return units


def table_models(
    table: int,
    vocabulary: Vocabulary,
    order: Sequence[str],
    fixed_true: Iterable[str] = (),
) -> list[Interpretation]:
    """The interpretations over `vocabulary` of the set bits of a truth table
    over `order`, in ascending bit order; the names in `fixed_true` are true
    in each.  With `order` a subsequence of the vocabulary order the result is
    in canonical order.

    The names of `order` and `fixed_true` are checked against the vocabulary
    once per table (VocabularyMismatchError when one is outside it and the
    table is not 0), so each interpretation is built without the
    constructor's check.
    """
    if not table:
        return []
    fixed_true = tuple(fixed_true)
    extra = frozenset(order).union(fixed_true) - vocabulary.name_set
    if extra:
        raise VocabularyMismatchError(
            f"true set mentions variables outside the vocabulary: {sorted(extra)}"
        )
    new = object.__new__
    set_vocabulary = Interpretation.vocabulary.__set__
    set_true_set = Interpretation.true_set.__set__
    out = []
    for high, low in _decode_bits(table, vocabulary, order, fixed_true, frozenset):
        i = new(Interpretation)
        set_vocabulary(i, vocabulary)
        set_true_set(i, high | low)
        out.append(i)
    return out


def unit_literals(formulas: Iterable[Formula]):
    """Unit literals of a top-level conjunction; None when they contradict."""
    units: dict[str, bool] = {}
    stack = list(formulas)
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.extend(g.children)
        elif isinstance(g, Var):
            if units.get(g.name) is False:
                return None
            units[g.name] = True
        elif isinstance(g, Not) and isinstance(g.child, Var):
            if units.get(g.child.name) is True:
                return None
            units[g.child.name] = False
    return units


# ---------------------------------------------------------------------------
# Satisfiability, consistency, entailment
# ---------------------------------------------------------------------------

def _top_conjuncts(formulas: Iterable[Formula]) -> list[Formula] | None:
    """The top-level conjuncts of `formulas`, with `&` opened and `true`
    dropped, in the order a stack pops them; None when one is `false`."""
    flat = []
    stack = list(formulas)
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.extend(g.children)
        elif not isinstance(g, Const):
            flat.append(g)
        elif not g.value:
            return None
    return flat


def satisfiable(formulas: Sequence[Formula]) -> bool:
    """Joint satisfiability of a set of formulas over their own vocabulary."""
    flat = _top_conjuncts(formulas)
    if flat is None:
        return False
    if not flat:
        return True
    sets = [variables(g) for g in flat]
    names = frozenset().union(*sets)
    if len(names) > ENUMERATION_LIMIT:
        return _split_search(list(zip(flat, sets)))
    cols, full = atom_tables(sorted(names))
    t = full
    for g in flat:
        t &= truth_table(g, cols, full)
        if not t:
            return False
    return True


_Conjuncts = list[tuple[Formula, frozenset[str]]]


def _assign(conjuncts: _Conjuncts, assignment: Mapping[str, bool]) -> _Conjuncts | None:
    """The conjunct list after `assignment`, in reverse order; None when a
    conjunct folds to false.  Conjuncts are (formula, variable set) pairs.
    Only those whose variable set meets the assignment are substituted, then
    folded and flattened; the others are kept as they are.  An empty
    assignment folds every conjunct.  The order picks the split variable,
    so it fixes the nodes the search visits, and with them its budget."""
    out = []
    for pair in reversed(conjuncts):
        g, names = pair
        if assignment and names.isdisjoint(assignment):
            out.append(pair)
            continue
        s = substitute(g, assignment)
        if s is g:
            out.append(pair)
            continue
        parts = _top_conjuncts([s])
        if parts is None:
            return None
        out += [(h, variables(h)) for h in parts]
    return out


def _split_search(conjuncts: _Conjuncts) -> bool:
    """Unit propagation plus variable splitting on folded conjunct lists,
    depth first with the True branch first, splitting on the least name of
    the first conjunct.  A split or a round of unit literals substitutes
    only the conjuncts whose variable set it meets, so a node costs the
    conjuncts it touches.  Each conjunct list searched is a split node; past
    SPLIT_NODE_LIMIT nodes the search refuses."""
    root = _assign(conjuncts, {})
    if root is None:
        return False
    stack = [(root, None)]
    nodes = 0
    while stack:
        flat, split = stack.pop()
        if split is not None:
            flat = _assign(flat, split)
            if flat is None:
                continue
        if not flat:
            return True
        nodes += 1
        if nodes > SPLIT_NODE_LIMIT:
            width = len(frozenset().union(*(names for _, names in root)))
            raise ResourceLimitError(
                f"splitting search over {width} atoms exceeds the limit of "
                f"{SPLIT_NODE_LIMIT} split nodes"
            )
        units = unit_literals([g for g, _ in flat])
        if units is None:
            continue
        if units:
            flat = _assign(flat, units)
            if flat is None:
                continue
            if not flat:
                return True
        var = min(flat[0][1])  # not set order, which follows the string hash seed
        stack.append((flat, {var: False}))
        stack.append((flat, {var: True}))
    return False


def is_consistent(formulas: Sequence[Formula]) -> bool:
    """True iff the conjunction of `formulas` has at least one model."""
    return satisfiable(list(formulas))


def entails(formulas: Sequence[Formula], f: Formula) -> bool:
    """True iff `formulas` together with the negation of `f` are inconsistent."""
    return not satisfiable(list(formulas) + [neg(f)])


class _Compiled:
    """The formulas of one public call, compiled once; it owns the width
    cut-over between truth tables and satisfiability calls.

    Built from every formula the call will ask about.  When they span at
    most _CACHED_WIDTH atoms, the state of a set of formulas is the AND of
    their truth tables over the sorted union of those atoms: a state is
    consistent when it is not 0, and entails another when it has no bit
    outside it.  Each node's table is compiled once and kept by node
    identity, next to the node itself so that the identity stays its own.
    Wider, a state is the list of its formulas, tested with
    :func:`is_consistent` and :func:`entails`.  Callers hold states and never
    look inside them.  One object serves one call and is dropped with it.
    """

    __slots__ = ("_cols", "_full", "_memo")

    def __init__(self, formulas: Iterable[Formula]):
        names = frozenset().union(*map(variables, formulas))
        self._cols = None
        if len(names) <= _CACHED_WIDTH:
            self._cols, self._full = atom_tables(tuple(sorted(names)))
            self._memo: dict[int, tuple[Formula, int]] = {}

    def of(self, formulas: Iterable[Formula]):
        """The state of the conjunction of `formulas`."""
        if self._cols is None:
            return list(formulas)
        memo = self._memo
        t = self._full
        for f in formulas:
            hit = memo.get(id(f))
            if hit is None:
                hit = memo[id(f)] = (f, truth_table(f, self._cols, self._full))
            t &= hit[1]
        return t

    def meet(self, a, b):
        """The state of two states' formulas together."""
        return a + b if self._cols is None else a & b

    def consistent(self, state) -> bool:
        return is_consistent(state) if self._cols is None else state != 0

    def entails(self, state, claim) -> bool:
        """Whether `state` entails every formula of the state `claim`."""
        if self._cols is None:
            return entails(state, conj(claim))
        return (state & claim) == state


def check_supports(n: int, max_size: int) -> None:
    """Refuse, with a ResourceLimitError, a walk over `n` distinct formulas
    choosing at most `max_size` of them that could test more than
    SUPPORT_LIMIT supports: the sum of C(n, k) over k up to `max_size`, which
    is 2^n when `max_size` is at least `n`."""
    count = 1 << n if max_size >= n else sum(comb(n, k) for k in range(max_size + 1))
    if count > SUPPORT_LIMIT:
        raise ResourceLimitError(
            f"{count} supports over {n} formulas exceed the limit of {SUPPORT_LIMIT}"
        )


def subset_walk(
    fixed: Sequence[Formula],
    extra: Sequence[Formula],
    claims: Sequence[Formula],
    max_size: int,
    *,
    compiled: _Compiled | None = None,
) -> Iterator[tuple[tuple[Formula, ...], list[tuple[Formula, bool]] | None]]:
    """Walk the supports `fixed` + `chosen`, with up to `max_size` formulas
    chosen from `extra`, by size and then by position.  Yields
    ``(chosen, None)`` for each minimally inconsistent support and
    ``(chosen, [(claim, minimal), ...])`` for each consistent one, with the
    `claims` it entails in order; `minimal` says that no chosen formula can
    be dropped.

    This is the pruned subset search of Efstathiou & Hunter (IJAR 2011).  A
    leave-one-out subset of a consistent support is consistent and was
    visited one level earlier, so the walk reads off that level's records,
    with no satisfiability test, that a support with an inconsistent such
    subset is inconsistent (and passes over it) and that a claim one of them
    entails is entailed, but not minimally.  Only the previous level's
    records are kept, keyed by the bitmask of their chosen positions; the
    walk ends at a level with no consistent support.

    Each support is tested on the states of `compiled` (see
    :class:`_Compiled`), built from `fixed`, `extra` and `claims` when not
    given: a support's state is that of its leave-one-out subset without
    the last chosen formula, met with the state of that formula.  Up to
    _CACHED_WIDTH atoms that is one AND of compiled truth tables, and the
    walk makes no :func:`satisfiable` call.
    """
    if compiled is None:
        compiled = _Compiled([*fixed, *extra, *claims])
    consistent, proves = compiled.consistent, compiled.entails
    adds = [(f, compiled.of((f,))) for f in extra]
    targets = [compiled.of((c,)) for c in claims]
    # level 0 is the support `fixed` alone
    candidates = [(0, 0, compiled.of(fixed), (), ())]
    for _ in range(min(max_size, len(extra)) + 1):
        # consistent support's positions as a bitmask -> (bitmask of the
        # claims it entails, its state, its positions, its chosen formulas)
        level: dict[int, tuple] = {}
        for key, below, state, combo, chosen in candidates:
            if not consistent(state):
                yield chosen, None
                continue
            entailed = below
            for j, target in enumerate(targets):
                if not below >> j & 1 and proves(state, target):
                    entailed |= 1 << j
            level[key] = (entailed, state, combo, chosen)
            yield chosen, [
                (claim, not below >> j & 1)
                for j, claim in enumerate(claims)
                if entailed >> j & 1
            ]
        if not level:
            return
        candidates = _next_level(level, adds, compiled.meet)


def _next_level(level, adds, meet):
    """The supports one formula larger than those of `level` all of whose
    leave-one-out subsets are in it, by position, as ``(key, bitmask of the
    claims those subsets entail, state, positions, chosen formulas)``.  Each
    extends the record of its subset without its last position."""
    for prefix, (below, state, combo, chosen) in level.items():
        for i in range(prefix.bit_length(), len(adds)):
            key = prefix | 1 << i
            entailed = below
            for j in combo:
                record = level.get(key ^ 1 << j)
                if record is None:  # that subset is inconsistent, so this one is too
                    break
                entailed |= record[0]
            else:
                f, add = adds[i]
                yield key, entailed, meet(state, add), combo + (i,), chosen + (f,)


def minimal_conflict_subsets(
    candidates: Sequence[Formula], context: Sequence[Formula] = ()
) -> list[tuple[Formula, ...]]:
    """All subset-minimal sets of `candidates` inconsistent with `context`.

    Candidates are deduplicated structurally; results keep candidate order and
    are listed by size, then lexicographically by candidate position: they
    are the minimally inconsistent supports of :func:`subset_walk` over the
    context.  If `context` alone is inconsistent the empty set is the unique
    answer.  A search that could test more than SUPPORT_LIMIT supports, over
    more than 12 distinct candidates, is refused before any test (see
    :func:`check_supports`).
    """
    return _minimal_conflicts(list(dict.fromkeys(candidates)), list(context))


def _minimal_conflicts(candidates, context, compiled: _Compiled | None = None):
    """:func:`minimal_conflict_subsets` of distinct `candidates`, tested on
    `compiled` when it is given; it must have been built from every
    candidate and context formula."""
    check_supports(len(candidates), len(candidates))
    joint = [*candidates, *context]
    if compiled is None:
        compiled = _Compiled(joint)
    if compiled.consistent(compiled.of(joint)):
        return []
    walk = subset_walk(context, candidates, (), len(candidates), compiled=compiled)
    return [chosen for chosen, hits in walk if hits is None]


def format_formula_set(formulas: Iterable[Formula]) -> str:
    return "{" + "; ".join(format_formula(f) for f in formulas) + "}"
