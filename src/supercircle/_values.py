"""Immutable value bases for the package's slotted value classes, and the
JSON shape check of the package's decoders.

A subclass lists its fields in ``__slots__`` and sets them once, in its
constructor or an unchecked builder, through ``object.__setattr__``.
``GaussianRational`` does not use these bases; its docstring says why.

Each value class has one checked public constructor and at most one
unchecked private builder, for results whose inputs are known to be valid.
``Section._of`` builds the sections that ``harmonic`` computes; its decoder
calls its constructor.

A ``*_from_json`` decoder checks with :func:`expect` only the shapes it reads
itself and leaves every check of a value to the constructor it calls.  A
message quotes a decoded value through :func:`_brief`.
"""

from typing import Optional


class Frozen:
    """A value whose fields are set once, by its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Record(Frozen):
    """A Frozen value that is the sequence of its fields in slot order: equal
    to a record of its own type with equal fields, unhashable, printed as
    ``Name(field, ...)`` and serialized as ``{slot: field.to_json()}``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(map(repr, self._fields())))

    def to_json(self) -> dict:
        return {name: getattr(self, name).to_json() for name in self.__slots__}


_NOUNS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _fits(value, kind: type) -> bool:
    """isinstance(value, kind), but False for a bool; the exact-type test
    first keeps the common case to one comparison."""
    return type(value) is kind or (
        isinstance(value, kind) and not isinstance(value, bool))


def expect(value, kind: type, what: str, items: Optional[type] = None):
    """value, if it has the JSON shape kind (a dict, list or str, or an int
    that is not a bool) and, with items given, each of its entries has the
    shape items; otherwise a ValueError saying what shape ``what`` needs."""
    if _fits(value, kind) and (
            items is None or all(_fits(x, items) for x in value)):
        return value
    noun = (_NOUNS[kind] if items is None
            else "a list of %ss" % _NOUNS[items].split()[1])
    raise ValueError("%s must be %s" % (what, noun))


def _brief(value) -> str:
    """repr(value), cut to at most 100 characters for an error message."""
    text = repr(value)
    return text if len(text) <= 100 else text[:97] + "..."
