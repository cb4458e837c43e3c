"""Value classes without `dataclasses`.

A value class derives from `Frozen`, names its fields, in constructor order,
as `__slots__` and writes its own `__init__`.  `Frozen` adds the equality,
hash and repr a frozen dataclass would generate and forbids assignment and
deletion, so `__init__` sets the fields with `object.__setattr__`.
Validating classes keep the dataclass hook name `__post_init__`; a `{}`
default is shared safely only where `__post_init__` replaces it with a new
dict.

Importing `dataclasses` loads `inspect`, `ast` and `tokenize`, and each
decorated class execs generated methods; that cost lands on every CLI process.
"""


class Frozen:
    """Immutable value: equal to an instance of the same class with equal
    fields, hashed by its field tuple."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
