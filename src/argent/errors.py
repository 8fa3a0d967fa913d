"""Exception types shared across the library, and the lexical pieces every
input format uses to name and place things: the identifier pattern and the
line and column of an offset."""

import re

IDENT = r"[a-z][a-zA-Z0-9_]*"
ID_PATTERN = re.compile(IDENT + r"\Z")


def line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset `pos` in `text`."""
    line = text.count("\n", 0, pos) + 1
    last = text.rfind("\n", 0, pos)
    return line, pos - last


class ArgentError(Exception):
    """Base class for all library errors; one found in input text carries
    its line/column position."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self):
        if self.line is None:
            return self.message
        return f"line {self.line}, col {self.col}: {self.message}"


class ParseError(ArgentError):
    """Malformed input text; carries a line/column position when known."""


class VocabularyMismatchError(ArgentError):
    """A formula or interpretation refers to variables outside its vocabulary."""


class UnknownArgumentError(ArgentError):
    """An argument identifier is not declared in the framework at hand."""


class ResourceLimitError(ArgentError):
    """A combinatorial search exceeded its configured size guard."""
