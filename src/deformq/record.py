"""Value classes without `dataclasses`.

A value class derives from `Frozen` and names its fields, in constructor
order, as `__slots__`; every field is required.  `Frozen` gives every value
class the constructor, equality, hash and repr a frozen dataclass would
generate and forbids assignment and deletion, so its constructor sets the
fields with `object.__setattr__` and then calls `__post_init__`, which a
validating class overrides.  A dict-valued field is hashed by its items, so
a value holding a term dict (`Polynomial`, `PolyVector`, `MultiDiffOp`) is
hashable and equal values hash equal whatever order their dicts were filled in.

Importing `dataclasses` loads `inspect`, `ast` and `tokenize`, and each
decorated class execs generated methods; that cost lands on every CLI process.
"""


class Frozen:
    """Immutable value: equal to an instance of the same class with equal
    fields, hashed by its field tuple with each dict as its item set."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # the common call passes every field by position and binds nothing
        if kwargs or len(args) != len(self.__slots__):
            args = self._bind(args, kwargs)
        for name, value in zip(self.__slots__, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in slot order, of a call that does not pass every
        field by position."""
        slots, cls = self.__slots__, type(self).__qualname__
        if len(args) > len(slots):
            raise TypeError(f"{cls}() takes at most {len(slots)} positional arguments")
        values = dict(zip(slots, args))
        for name, value in kwargs.items():
            if name not in slots:
                raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [n for n in slots if n not in values]
        if missing:
            raise TypeError(f"{cls}() missing required arguments: {', '.join(missing)}")
        return [values[name] for name in slots]

    def __post_init__(self):
        """Validate or normalise the fields; the default does nothing."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(
            frozenset(value.items()) if isinstance(value, dict) else value
            for value in self._fields()
        ))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
