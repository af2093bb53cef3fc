"""Exceptions shared across the toolkit, its size limits, and the base of its
immutable records."""

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


_set = object.__setattr__  # sets a slot past a record's own __setattr__
_REQUIRED = object()  # stands for a field that has no default


class Record:
    """An immutable record with named fields.

    A subclass lists its fields in order in ``__slots__``, and every slot
    is a field. ``_defaults`` holds the defaults of the last fields, a
    class standing for a fresh instance of it. A record is made
    from positional or keyword arguments: each field is set once, then
    ``__post_init__`` checks them. It equals only a record of its own type
    with equal fields, hashes its fields (so one holding a dict is
    unhashable), prints as ``Name(field=value, ...)``, and pickles as the
    call that makes it. Assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        # the fields in order, a tuple for two or more: what == and hash read
        cls._key = attrgetter(*cls._fields)
        # what a call that leaves a field out gets: its default, or _REQUIRED
        cls._padding = (_REQUIRED,) * (len(cls._fields) - len(cls._defaults)) + cls._defaults

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """The field values of a call that does not give every field by
        position, bound as Python binds a signature with the fields as
        parameters and ``_defaults`` on the last of them."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field, default in zip(fields[len(args):], self._padding[len(args):]):
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif default is _REQUIRED:
                raise TypeError(f"{name}() missing required argument {field!r}")
            else:
                values.append(default() if isinstance(default, type) else default)
        for field in kwargs:
            if field in fields:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
        return values

    def __post_init__(self):
        pass

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
