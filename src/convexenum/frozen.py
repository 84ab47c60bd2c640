"""Immutable value classes without ``dataclasses``.

Importing ``dataclasses`` costs a fresh interpreter about 10 ms (it
pulls in ``inspect``, ``ast`` and ``dis``), and each frozen dataclass
about 1 ms more to generate its methods, on every command.
:class:`Frozen` gives a ``__slots__`` class the same behaviour, and the
same construction by position or by field name, from its slot names
alone.
"""

from __future__ import annotations


def _values(obj: Frozen) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__slots__)


def _in_slot_order(cls: type, values: tuple, fields: dict) -> list:
    """The fields of a ``cls`` built from ``values`` and ``fields``, in
    slot order.  They are bound as the arguments of a function named
    after ``cls`` with its slots as parameters, compiled here as
    ``collections.namedtuple`` compiles its ``__new__``, so Python's own
    binding names a field that is missing, unknown or given twice.  A
    record is built by name once per computation, so the compile (about
    40 us with Python 3.11 on x86-64) is not cached."""
    names = ", ".join(cls.__slots__)
    exec(f"def {cls.__name__}({names}): return [{names}]", scope := {})
    return scope[cls.__name__](*values, **fields)


class Frozen:
    """Base of an immutable class whose fields are its ``__slots__``.

    ``__init__`` sets the fields from values given in slot order, by
    field name, or both, as a dataclass's does, and raises
    ``TypeError`` for a field that is missing, unknown or given twice.
    A subclass whose constructor checks or converts its arguments does
    that first and then calls it.  Assigning or deleting a field raises
    ``AttributeError``.  An instance equals only an instance of the
    same type with equal fields, hashes by its fields and prints as a
    dataclass would.  Pickling and copying rebuild an instance through
    its type's constructor, so they check the fields again.
    """

    __slots__ = ()

    def __init__(self, *values, **fields):
        if fields or len(values) != len(self.__slots__):
            values = _in_slot_order(type(self), values, fields)
        for name, value in zip(self.__slots__, values):
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
