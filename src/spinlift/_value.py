"""Immutable value types on ``__slots__``, and the one size limit.

The package's value types derive from :class:`Value`, which gives each of
them what a frozen record class needs from nothing but its ``__slots__``.
Generating such classes with the standard library's decorator would import
``inspect``, ``ast``, ``dis`` and ``tokenize`` and compile source for every
class, a large share of the start-up of a CLI command.
"""

from operator import attrgetter

#: Largest size the package accepts from input, refused before any work:
#: the weight of a fixtures record (powers p^(k-1)) and its primes (no
#: command writes a larger one), and the CLI's size arguments,
#: ``critical --k`` (its payload lists all K - 4 critical
#: integers, about 134 MB at K = 10^6), ``fixtures gen --prime-bound`` and
#: ``--order`` (1.5 s and 87 MB at 10^5), ``hodge solve --max`` (24 s and
#: 286 MB at 10^6) and ``cuspidality --k`` (powers p^(2k-3)).
MAX_SIZE = 10**5


class Value:
    """Base of an immutable value type.

    A subclass lists its fields in ``__slots__`` and writes them in its
    ``__init__`` through ``object.__setattr__``.  Equality (same class only),
    hashing and the ``Name(field=value, ...)`` repr follow the field order.
    A field named with a leading underscore is internal and takes part in
    none of them; one listed in ``_uncompared`` shows in repr but takes no
    part in equality or hashing.  A subclass whose public field is a property
    over an internal slot names its fields in ``__match_args__`` itself.
    """

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        # The tuple of compared fields (the field itself if there is only one).
        cls._key = attrgetter(*(f for f in cls.__match_args__ if f not in cls._uncompared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle hand the slots back as (None, {name: value}).
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
