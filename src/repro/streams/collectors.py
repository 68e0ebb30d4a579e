"""The stock collector library (``java.util.stream.Collectors``).

Factory functions producing :class:`~repro.streams.collector.Collector`
instances for the reductions every stream user reaches for: ``to_list``,
``joining``, ``grouping_by``, ``partitioning_by``, ``counting``, the
summing/averaging family, ``mapping``/``filtering`` adapters, and
``reducing``.

The word-concatenation example from the paper::

    Stream.of_items("a", "b", "c").parallel().collect(
        joining(", "))                      # -> "a, b, c"

exercises the combiner exactly as the paper's ``StringBuilder`` snippet
does: the separator between partial results appears only because parallel
execution routes through the combiner.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, TypeVar

from repro.common import IllegalStateError
from repro.streams.collector import (
    Collector,
    CollectorCharacteristics,
)
from repro.streams.optional import Optional

T = TypeVar("T")
U = TypeVar("U")
A = TypeVar("A")
R = TypeVar("R")
K = TypeVar("K", bound=Hashable)

_IDENTITY = CollectorCharacteristics.IDENTITY_FINISH
_IDENTITY_UNORDERED = (
    CollectorCharacteristics.IDENTITY_FINISH | CollectorCharacteristics.UNORDERED
)


def _append(acc: list, item: Any) -> None:
    acc.append(item)


def _extend(acc: list, items: Iterable) -> list:
    acc.extend(items)
    return acc


def to_list() -> Collector[T, list[T], list[T]]:
    """Collect elements into a list, in encounter order.

    Built from module-level functions, so it pickles and the process
    backend ships it to worker processes as it is.
    """
    return Collector.of(
        list, _append, _extend, None, _IDENTITY, chunk_accumulator=_extend
    )


def to_set() -> Collector[T, set[T], set[T]]:
    """Collect elements into a set (unordered)."""

    def combine(a: set[T], b: set[T]) -> set[T]:
        a.update(b)
        return a

    return Collector.of(
        set, lambda acc, t: acc.add(t), combine, None, _IDENTITY_UNORDERED,
        chunk_accumulator=lambda acc, chunk: acc.update(chunk),
    )


def to_dict(
    key_fn: Callable[[T], K],
    value_fn: Callable[[T], U],
    merge_fn: Callable[[U, U], U] | None = None,
) -> Collector[T, dict[K, U], dict[K, U]]:
    """Collect into a dict; duplicate keys raise unless ``merge_fn`` given."""

    def put(acc: dict[K, U], t: T) -> None:
        key, value = key_fn(t), value_fn(t)
        if key in acc:
            if merge_fn is None:
                raise IllegalStateError(f"duplicate key: {key!r}")
            acc[key] = merge_fn(acc[key], value)
        else:
            acc[key] = value

    def combine(a: dict[K, U], b: dict[K, U]) -> dict[K, U]:
        for key, value in b.items():
            if key in a:
                if merge_fn is None:
                    raise IllegalStateError(f"duplicate key: {key!r}")
                a[key] = merge_fn(a[key], value)
            else:
                a[key] = value
        return a

    return Collector.of(dict, put, combine, None, _IDENTITY_UNORDERED)


def joining(
    separator: str = "", prefix: str = "", suffix: str = ""
) -> Collector[str, list[str], str]:
    """Concatenate strings with a separator (Java's ``Collectors.joining``).

    Uses a list-of-parts container (Python's ``StringBuilder`` idiom) and
    joins once in the finisher.
    """

    return Collector.of(
        list,
        _append,
        _extend,
        lambda acc: prefix + separator.join(acc) + suffix,
        CollectorCharacteristics.NONE,
        chunk_accumulator=_extend,
    )


def counting() -> Collector[T, list[int], int]:
    """Count elements."""

    def combine(a: list[int], b: list[int]) -> list[int]:
        a[0] += b[0]
        return a

    def accumulate(acc: list[int], _t: T) -> None:
        acc[0] += 1

    def accumulate_chunk(acc: list[int], chunk) -> None:
        acc[0] += len(chunk)

    return Collector.of(
        lambda: [0], accumulate, combine, lambda acc: acc[0],
        CollectorCharacteristics.UNORDERED,
        chunk_accumulator=accumulate_chunk,
    )


def summing(value_fn: Callable[[T], float] = lambda t: t) -> Collector[T, list, float]:
    """Sum ``value_fn`` over the elements."""

    def accumulate(acc: list, t: T) -> None:
        acc[0] += value_fn(t)

    def combine(a: list, b: list) -> list:
        a[0] += b[0]
        return a

    def accumulate_chunk(acc: list, chunk) -> None:
        # One C-level sum per chunk; same left-to-right association as the
        # per-element fold (exact for ints; floats may differ only in the
        # grouping of additions across chunk boundaries).
        acc[0] += sum(map(value_fn, chunk))

    return Collector.of(
        lambda: [0], accumulate, combine, lambda acc: acc[0],
        CollectorCharacteristics.UNORDERED,
        chunk_accumulator=accumulate_chunk,
    )


def averaging(
    value_fn: Callable[[T], float] = lambda t: t,
) -> Collector[T, list, float]:
    """Arithmetic mean of ``value_fn`` over the elements (0.0 when empty)."""

    def accumulate(acc: list, t: T) -> None:
        acc[0] += value_fn(t)
        acc[1] += 1

    def combine(a: list, b: list) -> list:
        a[0] += b[0]
        a[1] += b[1]
        return a

    def accumulate_chunk(acc: list, chunk) -> None:
        acc[0] += sum(map(value_fn, chunk))
        acc[1] += len(chunk)

    return Collector.of(
        lambda: [0.0, 0],
        accumulate,
        combine,
        lambda acc: acc[0] / acc[1] if acc[1] else 0.0,
        CollectorCharacteristics.UNORDERED,
        chunk_accumulator=accumulate_chunk,
    )


def min_by(key: Callable[[T], Any] = lambda t: t) -> Collector[T, list, Optional[T]]:
    """Minimum element by ``key`` as an :class:`Optional`."""
    return _extreme_by(key, invert=False)


def max_by(key: Callable[[T], Any] = lambda t: t) -> Collector[T, list, Optional[T]]:
    """Maximum element by ``key`` as an :class:`Optional`."""
    return _extreme_by(key, invert=True)


def _extreme_by(key: Callable[[T], Any], invert: bool) -> Collector[T, list, Optional[T]]:
    def better(a: T, b: T) -> T:
        if invert:
            return a if key(a) >= key(b) else b
        return a if key(a) <= key(b) else b

    def accumulate(acc: list, t: T) -> None:
        if not acc:
            acc.append(t)
        else:
            acc[0] = better(acc[0], t)

    def combine(a: list, b: list) -> list:
        if not a:
            return b
        if b:
            a[0] = better(a[0], b[0])
        return a

    return Collector.of(
        list,
        accumulate,
        combine,
        lambda acc: Optional.of(acc[0]) if acc else Optional.empty(),
        CollectorCharacteristics.UNORDERED,
    )


def mapping(
    f: Callable[[T], U], downstream: Collector[U, A, R]
) -> Collector[T, A, R]:
    """Adapt a collector by pre-applying ``f`` to each element."""
    down_acc = downstream.accumulator()
    return Collector.of(
        downstream.supplier(),
        lambda acc, t: down_acc(acc, f(t)),
        downstream.combiner(),
        downstream.finisher(),
        downstream.characteristics(),
    )


def filtering(
    predicate: Callable[[T], bool], downstream: Collector[T, A, R]
) -> Collector[T, A, R]:
    """Adapt a collector by dropping elements failing ``predicate``."""
    down_acc = downstream.accumulator()

    def accumulate(acc: A, t: T) -> None:
        if predicate(t):
            down_acc(acc, t)

    return Collector.of(
        downstream.supplier(),
        accumulate,
        downstream.combiner(),
        downstream.finisher(),
        downstream.characteristics(),
    )


def flat_mapping(
    f: Callable[[T], Iterable[U]], downstream: Collector[U, A, R]
) -> Collector[T, A, R]:
    """Adapt a collector by exploding each element into many."""
    down_acc = downstream.accumulator()

    def accumulate(acc: A, t: T) -> None:
        for item in f(t):
            down_acc(acc, item)

    return Collector.of(
        downstream.supplier(),
        accumulate,
        downstream.combiner(),
        downstream.finisher(),
        downstream.characteristics(),
    )


def grouping_by(
    classifier: Callable[[T], K],
    downstream: Collector[T, A, R] | None = None,
) -> Collector[T, dict, dict[K, R]]:
    """Group elements by ``classifier``; optionally reduce each group.

    Without a downstream collector, groups are lists (Java's default).
    """
    if downstream is None:
        downstream = to_list()  # type: ignore[assignment]
    down_supplier = downstream.supplier()
    down_acc = downstream.accumulator()
    down_combine = downstream.combiner()
    down_finish = downstream.finisher()
    identity_finish = bool(
        downstream.characteristics() & CollectorCharacteristics.IDENTITY_FINISH
    )

    def accumulate(acc: dict, t: T) -> None:
        key = classifier(t)
        container = acc.get(key)
        if container is None:
            container = down_supplier()
            acc[key] = container
        down_acc(container, t)

    def combine(a: dict, b: dict) -> dict:
        for key, container in b.items():
            if key in a:
                a[key] = down_combine(a[key], container)
            else:
                a[key] = container
        return a

    def finish(acc: dict) -> dict[K, R]:
        if identity_finish:
            return acc
        return {key: down_finish(container) for key, container in acc.items()}

    return Collector.of(
        dict, accumulate, combine, finish,
        CollectorCharacteristics.UNORDERED
        | (CollectorCharacteristics.IDENTITY_FINISH if identity_finish
           else CollectorCharacteristics.NONE),
    )


def partitioning_by(
    predicate: Callable[[T], bool],
    downstream: Collector[T, A, R] | None = None,
) -> Collector[T, dict, dict[bool, R]]:
    """Split elements into the two groups ``{False: ..., True: ...}``."""
    grouped = grouping_by(predicate, downstream)
    base_finish = grouped.finisher()
    down = downstream if downstream is not None else to_list()

    def finish(acc: dict) -> dict[bool, R]:
        for key in (False, True):
            if key not in acc:
                acc[key] = down.supplier()()
        return base_finish(acc)

    return Collector.of(
        grouped.supplier(),
        grouped.accumulator(),
        grouped.combiner(),
        finish,
        CollectorCharacteristics.UNORDERED,
    )


def reducing(
    identity: U, mapper: Callable[[T], U], op: Callable[[U, U], U]
) -> Collector[T, list, U]:
    """Classic reduction as a collector: ``fold(op, identity, map(mapper))``."""

    def accumulate(acc: list, t: T) -> None:
        acc[0] = op(acc[0], mapper(t))

    def combine(a: list, b: list) -> list:
        a[0] = op(a[0], b[0])
        return a

    return Collector.of(
        lambda: [identity], accumulate, combine, lambda acc: acc[0],
        CollectorCharacteristics.NONE,
    )


def collecting_and_then(
    downstream: Collector[T, A, R], then: Callable[[R], U]
) -> Collector[T, A, U]:
    """Post-apply ``then`` to a collector's result
    (``Collectors.collectingAndThen``)."""
    down_finish = downstream.finisher()
    return Collector.of(
        downstream.supplier(),
        downstream.accumulator(),
        downstream.combiner(),
        lambda container: then(down_finish(container)),
        downstream.characteristics() & ~CollectorCharacteristics.IDENTITY_FINISH,
    )


def to_tuple() -> Collector[T, list[T], tuple]:
    """Collect into an immutable tuple (``toUnmodifiableList`` analogue)."""
    return collecting_and_then(to_list(), tuple)


def to_frozenset() -> Collector[T, set[T], frozenset]:
    """Collect into a frozenset (``toUnmodifiableSet`` analogue)."""
    return collecting_and_then(to_set(), frozenset)


def summarizing(value_fn: Callable[[T], float] = lambda t: t):
    """Count/sum/min/max/mean in one pass — see
    :mod:`repro.streams.statistics` (Java's ``summarizingInt`` family)."""
    from repro.streams.statistics import summarizing as _summarizing

    return _summarizing(value_fn)


def tee(
    first: Collector[T, Any, R],
    second: Collector[T, Any, U],
    merger: Callable[[R, U], Any],
) -> Collector[T, list, Any]:
    """Feed every element to two collectors and merge their results
    (Java 12's ``Collectors.teeing``)."""
    acc1, acc2 = first.accumulator(), second.accumulator()
    comb1, comb2 = first.combiner(), second.combiner()
    fin1, fin2 = first.finisher(), second.finisher()
    sup1, sup2 = first.supplier(), second.supplier()

    def accumulate(acc: list, t: T) -> None:
        acc1(acc[0], t)
        acc2(acc[1], t)

    def combine(a: list, b: list) -> list:
        a[0] = comb1(a[0], b[0])
        a[1] = comb2(a[1], b[1])
        return a

    return Collector.of(
        lambda: [sup1(), sup2()],
        accumulate,
        combine,
        lambda acc: merger(fin1(acc[0]), fin2(acc[1])),
        CollectorCharacteristics.NONE,
    )
