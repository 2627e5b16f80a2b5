"""Immutable slot records: the value semantics of a frozen dataclass.

A subclass names its two or more fields in ``__slots__`` and stores them in
its own ``__init__`` with ``object.__setattr__``.  It gets the ``repr``,
``==``, hash and immutability of ``@dataclass(frozen=True)`` without
importing ``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and
``tokenize``) or generating methods when the class is created.
"""

from __future__ import annotations

from operator import attrgetter


def _rebuild(cls, values):
    """A ``cls`` record holding ``values``, stored as they are: ``__init__``
    does not run again, so normalized fields keep every bit."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Record:
    """Base of the records; ``_values(record)`` is the tuple of field values."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)  # a tuple for two or more names

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle restore the fields, not the arguments
        return _rebuild, (type(self), self._values(self))
