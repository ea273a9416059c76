"""A base for small value classes over `__slots__`.

Subclasses list their fields in `__slots__` and take them, in that
order, as the arguments of `__init__`; the base adds `==`, `repr`,
copying and pickling over those fields.  It stands in for
`dataclasses`, whose import (with `inspect`, `ast` and `dis`) would
dominate the start-up of the command-line interface.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable unless a subclass says otherwise

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
