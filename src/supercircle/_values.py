"""Immutable value bases for the package's slotted value classes.

A subclass lists its fields in ``__slots__`` and sets them once, in its
constructor or an unchecked builder, through ``object.__setattr__``.
``GaussianRational`` does not use these bases; its docstring says why.
"""


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
