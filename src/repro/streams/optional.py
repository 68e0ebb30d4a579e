"""A faithful port of ``java.util.Optional``.

Stream terminal operations such as ``reduce`` without identity, ``min``,
``max`` and ``find_first`` return an :class:`Optional` rather than None so
that "absent" and "present-but-None" are distinguishable, matching the Java
API the paper's examples use.
"""

from __future__ import annotations

from typing import Callable, Generic, TypeVar

from repro.common import IllegalStateError

T = TypeVar("T")
U = TypeVar("U")

_ABSENT = object()


class Optional(Generic[T]):
    """A container that either holds a value or is empty."""

    __slots__ = ("_value",)

    def __init__(self, value: object = _ABSENT) -> None:
        self._value = value

    @classmethod
    def of(cls, value: T) -> "Optional[T]":
        """An Optional holding ``value`` (which may itself be None)."""
        return cls(value)

    @classmethod
    def empty(cls) -> "Optional[T]":
        """The empty Optional."""
        return cls()

    def is_present(self) -> bool:
        """True iff a value is held."""
        return self._value is not _ABSENT

    def is_empty(self) -> bool:
        """True iff no value is held."""
        return self._value is _ABSENT

    def get(self) -> T:
        """The held value.

        Raises:
            IllegalStateError: if empty (Java throws
                ``NoSuchElementException``).
        """
        if self._value is _ABSENT:
            raise IllegalStateError("Optional.get() on empty Optional")
        return self._value  # type: ignore[return-value]

    def or_else(self, default: T) -> T:
        """The held value, or ``default`` when empty."""
        return self.get() if self.is_present() else default

    def or_else_get(self, supplier: Callable[[], T]) -> T:
        """The held value, or ``supplier()`` when empty."""
        return self.get() if self.is_present() else supplier()

    def map(self, f: Callable[[T], U]) -> "Optional[U]":
        """Apply ``f`` to the held value, if any."""
        if self.is_present():
            return Optional.of(f(self.get()))
        return Optional.empty()

    def filter(self, predicate: Callable[[T], bool]) -> "Optional[T]":
        """Keep the value only if it satisfies ``predicate``."""
        if self.is_present() and predicate(self.get()):
            return self
        return Optional.empty()

    def if_present(self, action: Callable[[T], None]) -> None:
        """Run ``action`` on the value, if any."""
        if self.is_present():
            action(self.get())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Optional):
            return self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Optional", None if self.is_empty() else self._value))

    def __reduce__(self):
        # Rebuild by value: the ``_ABSENT`` sentinel would unpickle as a
        # new object, turning an empty Optional into a present one.
        if self.is_present():
            return type(self), (self._value,)
        return type(self), ()

    def __bool__(self) -> bool:
        return self.is_present()

    def __repr__(self) -> str:
        if self.is_present():
            return f"Optional.of({self._value!r})"
        return "Optional.empty()"
