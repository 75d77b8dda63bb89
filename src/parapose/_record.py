"""Immutable slotted values: the one base of every value type in the package.

A record's fields are its ``__slots__``, in order.  The base provides a
positional/keyword ``__init__`` with per-field defaults, a validation
hook, field-wise ``__eq__``, ``__hash__`` and ``__repr__``, pickling and
copying through ``__reduce__``, and ``replace``.  Subclasses declare:

``_defaults``  field -> default value (shared, so immutable values only)
``_hidden``    fields left out of ``__eq__``, ``__hash__`` and ``__repr__``

Every record refuses assignment and deletion; ``_check`` may still
coerce fields in place with ``object.__setattr__``.  A record hashes by
its compared fields, so one that holds a dict is unhashable.  Every
value type of the package is a record, the Q(i) numbers of ``gaussrat``
and the polynomials of ``multipoly`` included; their arithmetic builds
results that are normalised by construction past ``__init__``, through
the slot descriptors' ``__set__``.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}
    _hidden: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared = tuple(f for f in cls.__slots__ if f not in cls._hidden)
        # the compared field itself for one field, else their tuple
        cls._key = attrgetter(*cls._compared)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} positional "
                f"arguments but {len(args)} were given"
            )
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(
                    f"{type(self).__name__}() got multiple values for argument {name!r}"
                )
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(
                    f"{type(self).__name__}() missing required argument: {name!r}"
                )
            _set(self, name, value)
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected keyword argument "
                f"{next(iter(kwargs))!r}"
            )
        self._check()

    def _check(self):
        """Validation hook, run at the end of ``__init__``."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, f) for f in self.__slots__))

    def replace(self, **changes):
        """A copy with some fields changed; validation runs again."""
        values = {f: getattr(self, f) for f in self.__slots__}
        values.update(changes)
        return self.__class__(**values)
