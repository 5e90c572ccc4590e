"""The base of the package's value classes.

A value class lists its fields in `__slots__` and sets them in its own
`__init__`, one assignment per field.  This base reads the fields off
`__slots__` once per class and gives every value class what a frozen
dataclass would: equality of two objects of the same class with equal
fields, a hash consistent with it, and the repr `Name(field=value, ...)`.
Writing the classes out instead of generating them keeps the package's
import free of generated code (`dataclasses` compiles each class's
methods at import, about 30 ms for the package's classes), and a
hand-written `__init__` of two fields runs in 0.18 µs against 0.41 µs for
a frozen dataclass's (CPython 3.11, one core of a 2-core x86-64 machine).

A value object is never changed after `__init__` (the one exception,
`pipeline.PipelineTrace`, has no hash): that is a convention, as for the
formula nodes of `ltl`, not enforced, since a frozen `__init__` costs
about twice as much.
"""

from __future__ import annotations

from operator import attrgetter


def _no_values(obj: object) -> tuple:
    return ()


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # every value class names its own fields, even when it has none
        cls._fields = fields = cls.__dict__["__slots__"]
        # the fields' values: the value itself for one field, a tuple else
        # (an attrgetter, unlike a function, does not bind to the instance)
        cls._values = attrgetter(*fields) if fields else staticmethod(_no_values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            mine, theirs = values(self), values(other)
            # a tuple compares its items by identity first; a lone field
            # is not in one
            return mine is theirs or mine == theirs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
