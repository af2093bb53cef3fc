"""Exceptions shared across the toolkit, its size limits, its JSON reader,
and the base of its immutable records."""

import json
from operator import attrgetter

# the enumeration engine's work limit (see homs.profile_map), also the most
# entries a dense matrix built from one size parameter may have, and the most
# vertices plus edges a graph built from size parameters may have
ENUMERATION_GUARD = 10_000

# cut_norm's Gray-code sweep visits 2^n row subsets, verify_bowtie_structure
# all 2^v(H) vertex subsets
SWEEP_GUARD = 16


class UsageError(ValueError):
    """Caller violated an operation contract (bad parameters, malformed input)."""


class SizeGuardError(Exception):
    """An enumeration guard was exceeded; the computation is inconclusive, not wrong."""


def load_json(text: str, what: str):
    """The value of the JSON ``text``; malformed input, an over-long integer
    and deep nesting raise ``UsageError("bad <what> JSON: ...")``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"bad {what} JSON: {exc}") from exc


_set = object.__setattr__  # sets a slot past a record's own __setattr__


class Record:
    """An immutable record with named fields.

    A subclass lists its fields in order in ``__slots__``, and every slot
    is a field. Its ``__init__`` takes the fields as parameters in that
    order, with their defaults, checks them and hands them to ``_fill``.
    A record equals only a record of its own type with equal fields, hashes
    its fields (so one holding a dict is unhashable), prints as
    ``Name(field=value, ...)``, and pickles as the call that makes it.
    Assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        # the fields in order, a tuple for two or more: what == and hash read
        cls._key = attrgetter(*cls._fields)

    def _fill(self, *values):
        """Set the fields, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
