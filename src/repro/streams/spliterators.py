"""Stock spliterator implementations over common sources.

These mirror the spliterators the JDK supplies for collections: a
random-access list spliterator that splits at the midpoint (the "linear
segments" default the paper likens to ``tie``), a range spliterator, a
batching iterator spliterator for sources of unknown size, and an empty
spliterator.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.common import NotPowerOfTwoError, check_range, is_power_of_two
from repro.streams.spliterator import (
    UNKNOWN_SIZE,
    Characteristics,
    Spliterator,
)

T = TypeVar("T")

_SIZED_FLAGS = (
    Characteristics.ORDERED
    | Characteristics.SIZED
    | Characteristics.SUBSIZED
)
# Each source's flag sets, OR-ed once here: ``IntFlag.__or__`` runs as
# Python code, and ``characteristics()`` is read on every traversal.
_LIST_FLAGS = _SIZED_FLAGS | Characteristics.IMMUTABLE
_LIST_POWER2_FLAGS = _LIST_FLAGS | Characteristics.POWER2
_RANGE_FLAGS = (
    _LIST_FLAGS
    | Characteristics.DISTINCT
    | Characteristics.SORTED
    | Characteristics.NONNULL
)
_RANGE_POWER2_FLAGS = _RANGE_FLAGS | Characteristics.POWER2


def slice_source(source: Sequence[T], lo: int, hi: int) -> Sequence[T]:
    """``source[lo:hi]`` for any random-access source.

    A PowerList view only slices to power-of-two lengths; any other slice
    is taken from its backing storage instead: a strided ndarray view
    (which still ships as a shared-memory descriptor) or one C-level list
    copy.
    """
    try:
        return source[lo:hi]
    except NotPowerOfTwoError:
        start, stride = source.start, source.stride
        return source.storage[start + lo * stride : start + hi * stride : stride]


class ListSpliterator(Spliterator[T]):
    """Spliterator over a random-access sequence slice ``[origin, fence)``.

    ``try_split`` hands off the first half, exactly like
    ``java.util.Spliterators.ArraySpliterator`` — a *tie*-style linear
    segmentation.  When the covered length is a power of two the
    ``POWER2`` characteristic is advertised (and preserved by splits,
    since halving an even power-of-two length yields powers of two).
    """

    __slots__ = ("_source", "_index", "_fence", "_extra")

    def __init__(
        self,
        source: Sequence[T],
        origin: int = 0,
        fence: int | None = None,
        extra_characteristics: Characteristics = Characteristics.NONE,
    ) -> None:
        if fence is None:
            fence = len(source)
        check_range(origin, fence, len(source))
        self._source = source
        self._index = origin
        self._fence = fence
        self._extra = extra_characteristics

    def try_advance(self, action: Callable[[T], None]) -> bool:
        if self._index < self._fence:
            item = self._source[self._index]
            self._index += 1
            action(item)
            return True
        return False

    def for_each_remaining(self, action: Callable[[T], None]) -> None:
        source = self._source
        for i in range(self._index, self._fence):
            action(source[i])
        self._index = self._fence

    def next_chunk(self, max_size: int) -> Sequence[T]:
        """One slice of the backing sequence — zero-copy for numpy arrays
        (a view), a single C-level copy for lists/tuples."""
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        lo = self._index
        hi = min(self._fence, lo + max_size)
        if lo >= hi:
            return ()
        self._index = hi
        return slice_source(self._source, lo, hi)

    def try_split(self) -> "ListSpliterator[T] | None":
        lo, hi = self._index, self._fence
        mid = (lo + hi) >> 1
        if lo >= mid:
            return None
        self._index = mid
        return ListSpliterator(self._source, lo, mid, self._extra)

    def estimate_size(self) -> int:
        return self._fence - self._index

    def get_exact_size_if_known(self) -> int:
        return self._fence - self._index

    def characteristics(self) -> Characteristics:
        if is_power_of_two(self._fence - self._index):
            flags = _LIST_POWER2_FLAGS
        else:
            flags = _LIST_FLAGS
        return flags | self._extra if self._extra else flags


class ArraySpliterator(ListSpliterator[T]):
    """Alias of :class:`ListSpliterator` for numpy arrays / array-likes.

    Provided for parity with Java's distinct ``ArraySpliterator``; numpy
    1-D arrays satisfy the same random-access protocol.
    """


class RangeSpliterator(Spliterator[int]):
    """Spliterator over a half-open integer interval ``[lo, hi)``.

    Equivalent to ``IntStream.range``'s ``RangeIntSpliterator``.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: int, hi: int) -> None:
        if hi < lo:
            raise ValueError(f"empty-range bounds reversed: [{lo}, {hi})")
        self._lo = lo
        self._hi = hi

    def try_advance(self, action: Callable[[int], None]) -> bool:
        if self._lo < self._hi:
            value = self._lo
            self._lo += 1
            action(value)
            return True
        return False

    def for_each_remaining(self, action: Callable[[int], None]) -> None:
        for value in range(self._lo, self._hi):
            action(value)
        self._lo = self._hi

    def next_chunk(self, max_size: int) -> Sequence[int]:
        """A ``range`` object — truly zero-copy; downstream bulk consumers
        (``map``/``extend``) iterate it at C speed."""
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        lo = self._lo
        hi = min(self._hi, lo + max_size)
        if lo >= hi:
            return range(0)
        self._lo = hi
        return range(lo, hi)

    def try_split(self) -> "RangeSpliterator | None":
        lo, hi = self._lo, self._hi
        mid = (lo + hi) >> 1
        if lo >= mid:
            return None
        self._lo = mid
        return RangeSpliterator(lo, mid)

    def estimate_size(self) -> int:
        return self._hi - self._lo

    def get_exact_size_if_known(self) -> int:
        return self._hi - self._lo

    def characteristics(self) -> Characteristics:
        if is_power_of_two(self._hi - self._lo):
            return _RANGE_POWER2_FLAGS
        return _RANGE_FLAGS


class IteratorSpliterator(Spliterator[T]):
    """Spliterator over an arbitrary iterator, of possibly unknown size.

    Like ``java.util.Spliterators.IteratorSpliterator``, ``try_split``
    materializes an arithmetically growing batch as a prefix — the only
    sound way to split a one-shot source.
    """

    BATCH_UNIT = 1 << 10
    MAX_BATCH = 1 << 25

    __slots__ = ("_iterator", "_size_estimate", "_batch")

    def __init__(self, iterator: Iterator[T], size_estimate: int = UNKNOWN_SIZE) -> None:
        self._iterator = iterator
        self._size_estimate = size_estimate
        self._batch = 0

    def try_advance(self, action: Callable[[T], None]) -> bool:
        try:
            item = next(self._iterator)
        except StopIteration:
            return False
        if self._size_estimate != UNKNOWN_SIZE and self._size_estimate > 0:
            self._size_estimate -= 1
        action(item)
        return True

    def for_each_remaining(self, action: Callable[[T], None]) -> None:
        for item in self._iterator:
            action(item)
        self._size_estimate = 0

    def next_chunk(self, max_size: int) -> Sequence[T]:
        """A buffered batch of up to ``max_size`` elements (``islice``)."""
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        buffer = list(itertools.islice(self._iterator, max_size))
        if self._size_estimate != UNKNOWN_SIZE:
            self._size_estimate = max(0, self._size_estimate - len(buffer))
        return buffer

    def try_split(self) -> "Spliterator[T] | None":
        batch_size = min(
            self._batch + self.BATCH_UNIT,
            self.MAX_BATCH,
            self._size_estimate
            if self._size_estimate != UNKNOWN_SIZE
            else self.MAX_BATCH,
        )
        buffer: list[T] = []
        for _ in range(batch_size):
            try:
                buffer.append(next(self._iterator))
            except StopIteration:
                break
        if not buffer:
            return None
        self._batch = len(buffer)
        if self._size_estimate != UNKNOWN_SIZE:
            self._size_estimate = max(0, self._size_estimate - len(buffer))
        return ListSpliterator(buffer)

    def estimate_size(self) -> int:
        return self._size_estimate

    def get_exact_size_if_known(self) -> int:
        size = self._size_estimate
        return -1 if size == UNKNOWN_SIZE else size

    def characteristics(self) -> Characteristics:
        if self._size_estimate != UNKNOWN_SIZE:
            return _SIZED_FLAGS
        return Characteristics.ORDERED


class EmptySpliterator(Spliterator[T]):
    """A spliterator over nothing."""

    def try_advance(self, action: Callable[[T], None]) -> bool:
        return False

    def try_split(self) -> None:
        return None

    def estimate_size(self) -> int:
        return 0

    def characteristics(self) -> Characteristics:
        return _SIZED_FLAGS


def spliterator_of(source: Iterable[T]) -> Spliterator[T]:
    """Create the natural spliterator for ``source``.

    Sequences get a random-access, midpoint-splitting
    :class:`ListSpliterator`; any other iterable falls back to a batching
    :class:`IteratorSpliterator`.
    """
    if isinstance(source, Spliterator):
        return source
    if hasattr(source, "__getitem__") and hasattr(source, "__len__"):
        return ListSpliterator(source)  # type: ignore[arg-type]
    if hasattr(source, "__len__"):
        return IteratorSpliterator(iter(source), len(source))  # type: ignore[arg-type]
    return IteratorSpliterator(iter(source))
