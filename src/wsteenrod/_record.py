"""Value semantics written once, for the library's value types.

A record's fields are the ``__slots__`` of its class and of its record
bases, base first.  Two records are equal when they are of the same class
and their fields are equal; a record never equals an instance of another
class.  A record hashes as the tuple of its fields and prints as
``Name(field=value, ...)``.  A mutable record sets ``__hash__ = None``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name
            for base in reversed(cls.__mro__)
            if issubclass(base, Record)
            for name in vars(base).get("__slots__", ())
        )

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
