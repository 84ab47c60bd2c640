"""Immutable value classes without ``dataclasses``.

Importing ``dataclasses`` costs a fresh interpreter about 10 ms (it
pulls in ``inspect``, ``ast`` and ``dis``), and each frozen dataclass
about 1 ms more to generate its methods, on every command.
:class:`Frozen` gives a ``__slots__`` class the same behaviour from its
slot names alone.
"""

from __future__ import annotations


def _values(obj: Frozen) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__slots__)


class Frozen:
    """Base of an immutable class whose fields are its ``__slots__``.

    ``__init__`` sets the fields from values given in slot order; a
    subclass whose constructor checks or converts its arguments does
    that first and then calls it.  Assigning or deleting a field raises
    ``AttributeError``.  An instance equals only an instance of the
    same type with equal fields, hashes by its fields and prints as a
    dataclass would.  Pickling and copying rebuild an instance through
    its type's constructor, so they check the fields again.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), _values(self)
