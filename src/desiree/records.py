"""Plain record classes: equality, hashing and repr read from `__slots__`.

A record class lists its fields in `__slots__` and writes its own
`__init__`. Two records are equal when they are of the same class and
their fields are equal, and `repr` reads `Name(field=value, ...)`. A
`Record` is mutable and unhashable. A `Frozen` record refuses assignment,
so its `__init__` sets each field through `init_field`, and it hashes as
the tuple of its fields. A name in `__slots__` that starts with an
underscore, such as `__dict__`, is not a field.

A Frozen record that is hashed often can list `_hash` in its `__slots__`
and set it in `__init__` to the hash of its field tuple, built from
fields whose hashes are cached in turn; `hash` then reads the slot. The
description nodes do this, so hashing one costs the same at any depth.

This is what `dataclasses` generates, without compiling methods for each
class when the module is imported.
"""
from __future__ import annotations

from operator import attrgetter

# Sets a field of a Frozen record from its `__init__`.
init_field = object.__setattr__


class Record:
    """Base of mutable records; see the module docstring."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        # What equality compares: the tuple of the field values, the value
        # alone for one field, the class for none.
        cls._key = attrgetter(*(cls._fields or ("__class__",)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


# The hash of a Frozen record's field tuple: cached, or by number of fields.
def _hash_cached(record):
    return record._hash


_EMPTY_HASH = hash(())
_HASHES = (lambda record: _EMPTY_HASH,
           lambda record: hash((record._key(record),)),
           lambda record: hash(record._key(record)))


class Frozen(Record):
    """Base of immutable, hashable records; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_hash" in cls.__slots__:
            cls.__hash__ = _hash_cached
        else:
            cls.__hash__ = _HASHES[min(len(cls._fields), 2)]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
