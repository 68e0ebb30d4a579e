"""``TieSpliterator`` and ``ZipSpliterator`` (paper Figure 1).

Both traverse a view ``(start, fence, incr)`` over a random-access source,
advertise ``POWER2`` when the covered count is a power of two, and differ
only in how ``try_split`` partitions:

* ``TieSpliterator``  — hands off the first half at the same stride
  (Java's default "linear segments" behaviour, the *tie* deconstructor);
* ``ZipSpliterator``  — hands off the even-indexed elements by doubling
  the stride (the *zip* deconstructor); the returned prefix starts at the
  current origin and ``self`` keeps the odd-indexed suffix, mirroring the
  paper's ``trySplit`` listing.

Descending-phase support.  The paper connects splitting-phase computation
to the collector through inner classes; Python has no implicit inner-class
capture, so the link is explicit: a spliterator may hold a reference to the
*function object* (the :class:`~repro.core.power_collector.PowerCollector`)
and calls its ``on_split(depth_stride)`` hook each time it splits, plus an
optional ``basic_case`` override used by ``for_each_remaining``.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.common import IllegalArgumentError, is_power_of_two
from repro.streams.spliterator import Characteristics, Spliterator

T = TypeVar("T")

_BASE_FLAGS = (
    Characteristics.ORDERED
    | Characteristics.SIZED
    | Characteristics.SUBSIZED
    | Characteristics.IMMUTABLE
)


class SpliteratorPower2(Spliterator[T]):
    """Base of the specialized spliterators: strided view + POWER2 flag.

    Args:
        source: random-access backing sequence.
        start: index of the first covered element.
        fence: one past the last covered *position count* is derived from
            ``count``; the view covers ``start, start+incr, …`` for
            ``count`` elements.
        incr: stride between covered elements.
        function_object: optional collector back-reference; its
            ``on_split`` hook fires on every split (Section V mechanism).
    """

    __slots__ = ("source", "start", "count", "incr", "function_object")

    def __init__(
        self,
        source: Sequence[T],
        start: int = 0,
        count: int | None = None,
        incr: int = 1,
        function_object=None,
    ) -> None:
        if count is None:
            count = len(source)
        if count < 0:
            raise IllegalArgumentError(f"count must be >= 0, got {count}")
        if incr < 1:
            raise IllegalArgumentError(f"incr must be >= 1, got {incr}")
        if count:
            last = start + (count - 1) * incr
            if not (0 <= start < len(source)) or last >= len(source):
                raise IllegalArgumentError(
                    f"view (start={start}, count={count}, incr={incr}) "
                    f"exceeds source of size {len(source)}"
                )
        self.source = source
        self.start = start
        self.count = count
        self.incr = incr
        self.function_object = function_object

    # -- traversal --------------------------------------------------------- #

    def try_advance(self, action: Callable[[T], None]) -> bool:
        if self.count <= 0:
            return False
        item = self.source[self.start]
        self.start += self.incr
        self.count -= 1
        action(item)
        return True

    def for_each_remaining(self, action: Callable[[T], None]) -> None:
        """Bulk-apply over the remaining strided view.

        When the connected function object defines ``basic_case``, the
        whole remaining sub-view is delegated to it — this is the paper's
        mechanism for specializing the leaf computation on non-singleton
        sublists (e.g. a sequential sub-FFT).
        """
        fo = self.function_object
        if fo is not None and getattr(fo, "basic_case", None) is not None:
            for item in self._consume_basic_case():
                action(item)
            return
        source, incr = self.source, self.incr
        idx = self.start
        for _ in range(self.count):
            action(source[idx])
            idx += incr
        self.start = idx
        self.count = 0

    def _consume_basic_case(self) -> list:
        """Apply the function object's ``basic_case`` to the whole
        remaining sub-view, consuming it."""
        view = [
            self.source[self.start + i * self.incr] for i in range(self.count)
        ]
        out = self.function_object.basic_case(view, self.incr)
        self.start += self.count * self.incr
        self.count = 0
        return out

    def next_chunk(self, max_size: int) -> Sequence[T]:
        """Bulk pull over the strided view.

        A leaf governed by a ``basic_case`` is semantically indivisible —
        the kernel must see the whole sub-view at once — so the entire
        remainder is returned as one chunk regardless of ``max_size``
        (mirroring :meth:`for_each_remaining` exactly).
        Otherwise a single strided slice of the source is returned: a
        zero-copy view for numpy arrays, one C-level copy for lists.
        """
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if self.count <= 0:
            return ()
        fo = self.function_object
        if fo is not None and getattr(fo, "basic_case", None) is not None:
            return self._consume_basic_case()
        n = min(self.count, max_size)
        stop = self.start + n * self.incr
        try:
            chunk = self.source[self.start : stop : self.incr]
        except TypeError:  # non-sliceable random-access source
            return super().next_chunk(max_size)
        self.start = stop
        self.count -= n
        return chunk

    def estimate_size(self) -> int:
        return self.count

    def characteristics(self) -> Characteristics:
        flags = _BASE_FLAGS
        if is_power_of_two(self.count):
            flags |= Characteristics.POWER2
        return flags

    # -- split helpers ------------------------------------------------------ #

    def _notify_split(self, new_incr: int) -> None:
        fo = self.function_object
        if fo is not None and getattr(fo, "on_split", None) is not None:
            fo.on_split(new_incr)

    def _spawn(self, start: int, count: int, incr: int) -> "SpliteratorPower2[T]":
        """Create the prefix spliterator with the same dynamic type and
        connection."""
        return type(self)(self.source, start, count, incr, self.function_object)


class TieSpliterator(SpliteratorPower2[T]):
    """Splits off the first half at the same stride (*tie*)."""

    __slots__ = ()

    def try_split(self) -> "TieSpliterator[T] | None":
        if self.count < 2:
            return None
        half = self.count // 2
        prefix_start = self.start
        self.start += half * self.incr
        self.count -= half
        self._notify_split(self.incr)
        return self._spawn(prefix_start, half, self.incr)  # type: ignore[return-value]


class ZipSpliterator(SpliteratorPower2[T]):
    """Splits off the even-indexed elements by doubling the stride (*zip*).

    After a split the prefix covers ``start, start+2·incr, …`` (the even
    sub-view) and ``self`` covers ``start+incr, start+3·incr, …`` (the odd
    sub-view) — the direct transliteration of the paper's ``trySplit``.
    """

    __slots__ = ()

    def try_split(self) -> "ZipSpliterator[T] | None":
        if self.count < 2:
            return None
        lo = self.start
        step = self.incr
        even_count = (self.count + 1) // 2  # indices 0, 2, 4, …
        odd_count = self.count // 2  # indices 1, 3, 5, …
        self.start = lo + step
        self.incr = step * 2
        self.count = odd_count
        self._notify_split(self.incr)
        return self._spawn(lo, even_count, step * 2)  # type: ignore[return-value]
