"""Exception types shared across the library, the lexical pieces every
input format uses to name and place things (the identifier pattern and the
line and column of an offset), and `Record`, the base of the library's
record classes."""

import re
from operator import attrgetter

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


class Record:
    """Base of the library's record classes: a class names its fields in
    `_fields` and sets them in its own `__init__`, after which the record is
    immutable.  Records are equal when they are of the same class with equal
    fields, hash as the tuple of their fields, print as
    `Name(field=value, ...)`, match by position (`case Implies(left, right)`)
    and pickle by calling the class on their fields.  Field values are read
    through one `operator.attrgetter` per class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__ = cls._fields
        if not fields:
            return
        get = attrgetter(*fields)
        # Equality and hashing are closures over `get` rather than methods
        # that look it up: formula nodes are compared and hashed on every query.
        if len(fields) == 1:
            def values(record):
                return (get(record),)

            def __hash__(self):
                return hash((get(self),))
        else:
            values = get

            def __hash__(self):
                return hash(get(self))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return self is other or get(self) == get(other)
            return NotImplemented

        cls._values = staticmethod(values)
        cls.__eq__ = __eq__
        if cls.__hash__ is object.__hash__:  # not unhashable, nor hashed by a base
            cls.__hash__ = __hash__

    @classmethod
    def _trusted(cls, *values):
        """The record with fields `values`, built without the checks of
        `__init__`: for parts already known to be valid."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(record, name, value)
        return record

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class MutableRecord(Record):
    """A record whose fields may be assigned; unhashable, as its value can
    change."""

    __slots__ = ()
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __reduce__ = object.__reduce__
