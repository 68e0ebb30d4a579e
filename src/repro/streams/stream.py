"""The ``Stream`` pipeline class.

A stream is a *conduit*: a source spliterator, a chain of lazy intermediate
operations, and at most one terminal operation.  Streams are single-use —
invoking an intermediate or terminal operation *links* (consumes) the
receiver, and further use raises ``IllegalStateError``, exactly as in Java.

Parallel execution is selected per-stream with :meth:`Stream.parallel` and
runs on a :class:`~repro.forkjoin.pool.ForkJoinPool` (the common pool by
default, or one supplied via :meth:`Stream.with_pool`).  Pipelines with
stateful operations (``sorted``, ``distinct``, ``limit``, ``skip``, …) are
evaluated in parallel *segments*: the stateless prefix runs as a parallel
mutable reduction into a buffer, the stateful op is applied as a barrier,
and evaluation resumes on the buffered data — the same semantic barriers
the JDK inserts.

Every parallel terminal (``collect``, ``reduce``, ``for_each``, the match
family, the find family) is *fail-fast*: the first exception raised by any
leaf or combiner cancels the remaining fork/join task tree and re-raises
the original exception to the caller promptly, instead of letting sibling
subtrees burn through the rest of the workload first.  See
``docs/robustness.md`` for the cancellation model.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import replace
from functools import lru_cache, partial
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.common import IllegalArgumentError, IllegalStateError
from repro.forkjoin.pool import ForkJoinPool, common_pool
from repro.streams import parallel as _parallel
from repro.streams.collector import Collector, CollectorCharacteristics
from repro.streams.config import EngineConfig, _validate_backend, current_config
from repro.streams.ops import (
    BufferSink,
    DistinctOp,
    DropWhileOp,
    FilterOp,
    FlatMapOp,
    LimitOp,
    MapOp,
    Op,
    PeekOp,
    SkipOp,
    SortedOp,
    TakeWhileOp,
    pull_iterator,
    wrap_ops,
)
from repro.streams.optional import Optional
from repro.streams.spliterator import Spliterator
from repro.streams.spliterators import (
    EmptySpliterator,
    IteratorSpliterator,
    ListSpliterator,
    RangeSpliterator,
    spliterator_of,
)
from repro.streams.terminal import (
    Collect,
    Find,
    ForEach,
    Match,
    Reduce,
    Terminal,
    evaluate_sequential,
)

T = TypeVar("T")
U = TypeVar("U")


# The reductions behind ``min``/``max``: module-level functions (bound
# with ``partial`` for a key) pickle, so the process backend ships them.
# A tie keeps the first element.
def _min(a, b):
    return a if a <= b else b


def _max(a, b):
    return a if a >= b else b


def _min_by(key, a, b):
    return a if key(a) <= key(b) else b


def _max_by(key, a, b):
    return a if key(a) >= key(b) else b


@lru_cache(maxsize=64)
def _with_backend(config: EngineConfig, backend: str) -> EngineConfig:
    """``config`` with its backend overridden (``dataclasses.replace`` is
    slow enough to show per terminal, and configs are few)."""
    return replace(config, backend=backend)


class Stream:
    """A lazy, possibly parallel pipeline over a spliterator source."""

    __slots__ = (
        "_spliterator", "_ops", "_parallel", "_pool", "_consumed",
        "_target_size", "_close_handlers", "_deadline", "_backend",
    )

    def __init__(
        self,
        spliterator: Spliterator,
        ops: list[Op] | None = None,
        parallel: bool = False,
        pool: ForkJoinPool | None = None,
        target_size: int | None = None,
    ) -> None:
        self._spliterator = spliterator
        self._ops: list[Op] = ops if ops is not None else []
        self._parallel = parallel
        self._pool = pool
        self._consumed = False
        self._target_size = target_size
        self._close_handlers: list[Callable[[], None]] = []
        self._deadline = None
        self._backend: str | None = None

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #

    @staticmethod
    def of_items(*items: T) -> "Stream":
        """A sequential stream of the given elements."""
        return Stream(ListSpliterator(items))

    @staticmethod
    def of_iterable(source: Iterable[T]) -> "Stream":
        """A sequential stream over any iterable (sequences split well)."""
        return Stream(spliterator_of(source))

    @staticmethod
    def empty() -> "Stream":
        """The empty stream."""
        return Stream(EmptySpliterator())

    @staticmethod
    def range(lo: int, hi: int) -> "Stream":
        """The integers ``lo, lo+1, …, hi-1`` (like ``IntStream.range``)."""
        return Stream(RangeSpliterator(lo, hi))

    @staticmethod
    def range_closed(lo: int, hi: int) -> "Stream":
        """The integers ``lo, …, hi`` inclusive (``IntStream.rangeClosed``)."""
        return Stream(RangeSpliterator(lo, hi + 1))

    @staticmethod
    def of_nullable(value: T | None) -> "Stream":
        """A one-element stream, or empty when ``value`` is None
        (``Stream.ofNullable``)."""
        if value is None:
            return Stream.empty()
        return Stream.of_items(value)

    @staticmethod
    def iterate(
        seed: T,
        f_or_predicate: Callable[[T], T] | Callable[[T], bool],
        f: Callable[[T], T] | None = None,
    ) -> "Stream":
        """``iterate(seed, f)`` — the infinite stream ``seed, f(seed), …``;
        ``iterate(seed, has_next, f)`` — the Java 9 bounded form, stopping
        before the first value failing ``has_next``."""
        if f is None:
            step = f_or_predicate

            def gen() -> Iterator[T]:
                value = seed
                while True:
                    yield value
                    value = step(value)

        else:
            has_next = f_or_predicate
            step = f

            def gen() -> Iterator[T]:
                value = seed
                while has_next(value):
                    yield value
                    value = step(value)

        return Stream(IteratorSpliterator(gen()))

    @staticmethod
    def generate(supplier: Callable[[], T]) -> "Stream":
        """An infinite stream of ``supplier()`` values."""

        def gen() -> Iterator[T]:
            while True:
                yield supplier()

        return Stream(IteratorSpliterator(gen()))

    @staticmethod
    def concat(first: "Stream", second: "Stream") -> "Stream":
        """Concatenate two streams (both are consumed)."""
        a = first._materialize()
        b = second._materialize()
        out = Stream.of_iterable(a + b)
        out._parallel = first._parallel or second._parallel
        out._pool = first._pool or second._pool
        return out

    # ------------------------------------------------------------------ #
    # Close handlers (``Stream.onClose`` / ``close`` / try-with-resources)
    # ------------------------------------------------------------------ #

    def on_close(self, handler: Callable[[], None]) -> "Stream":
        """Register a handler invoked by :meth:`close`, in order."""
        self._close_handlers.append(handler)
        return self

    def close(self) -> None:
        """Run all close handlers (each once), even if some raise.

        The first raised exception propagates after every handler ran,
        mirroring Java's suppression semantics (without the attachment).
        """
        handlers, self._close_handlers = self._close_handlers, []
        failure: BaseException | None = None
        for handler in handlers:
            try:
                handler()
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Mode control
    # ------------------------------------------------------------------ #

    def parallel(self) -> "Stream":
        """Mark the pipeline for parallel execution."""
        self._check_linked()
        return self._derive(self._spliterator, self._ops, parallel=True)

    def sequential(self) -> "Stream":
        """Mark the pipeline for sequential execution."""
        self._check_linked()
        return self._derive(self._spliterator, self._ops, parallel=False)

    @property
    def is_parallel(self) -> bool:
        """True if terminal ops will run on the fork/join pool."""
        return self._parallel

    def with_pool(self, pool: ForkJoinPool) -> "Stream":
        """Use ``pool`` instead of the common pool for parallel execution."""
        self._check_linked()
        out = self._derive(self._spliterator, self._ops, parallel=self._parallel)
        out._pool = pool
        return out

    def with_target_size(self, target_size) -> "Stream":
        """Override the split threshold (leaf size) for parallel execution.

        Java computes ``size / (4 × parallelism)``; the paper's analysis of
        where decomposition "automatically stops" corresponds to this knob.

        Without it — or with the string ``"auto"`` — the adaptive split
        policy picks the threshold from observed per-element cost and
        scheduler feedback (see :mod:`repro.streams.adaptive`).
        """
        if isinstance(target_size, str):
            if target_size != "auto":
                raise IllegalArgumentError(
                    f"target_size must be an int >= 1 or 'auto', "
                    f"got {target_size!r}"
                )
        elif not isinstance(target_size, int) or target_size < 1:
            raise IllegalArgumentError(
                f"target_size must be an int >= 1 or 'auto', got {target_size!r}"
            )
        self._check_linked()
        out = self._derive(self._spliterator, self._ops, parallel=self._parallel)
        out._target_size = target_size
        return out

    def with_deadline(self, deadline) -> "Stream":
        """Bound parallel terminal evaluation by a wall-clock deadline.

        Accepts seconds (a fresh budget starting now) or a
        :class:`repro.faults.Deadline` shared across several operations.
        A parallel terminal that overruns raises
        :class:`~repro.common.TaskTimeoutError` (the root task is
        cancelled if no worker claimed it yet; running leaves are never
        interrupted — see ``docs/robustness.md``).  Sequential terminals
        ignore the deadline.
        """
        from repro.faults.policy import Deadline

        if not isinstance(deadline, Deadline):
            deadline = Deadline.after(float(deadline))
        self._check_linked()
        out = self._derive(self._spliterator, self._ops, parallel=self._parallel)
        out._deadline = deadline
        return out

    def with_backend(self, backend: str) -> "Stream":
        """Select the execution backend for parallel terminals.

        ``'threads'`` (fork/join pool, the default), ``'process'`` (worker
        processes — Python-heavy stages scale with cores, but every
        function crossing the boundary must pickle; ndarray sources shared
        via :func:`repro.powerlist.shm.share_array` ship as zero-copy
        descriptors), or ``'sequential'``.  Overrides the backend of the
        caller's :func:`repro.streams.engine` scope and of
        ``REPRO_PARALLEL_BACKEND``.  No effect on sequential streams.
        """
        _validate_backend(backend)
        self._check_linked()
        out = self._derive(self._spliterator, self._ops, parallel=self._parallel)
        out._backend = backend
        return out

    # ------------------------------------------------------------------ #
    # Intermediate operations (lazy)
    # ------------------------------------------------------------------ #

    def map(self, f: Callable[[T], U]) -> "Stream":
        """Transform each element with ``f``."""
        return self._append(MapOp(f))

    def filter(self, predicate: Callable[[T], bool]) -> "Stream":
        """Keep only elements satisfying ``predicate``."""
        return self._append(FilterOp(predicate))

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "Stream":
        """Replace each element with the elements of ``f(element)``."""
        return self._append(FlatMapOp(f))

    def map_multi(self, f: Callable[[T, Callable[[U], None]], None]) -> "Stream":
        """Consumer-driven flat map (Java 16's ``mapMulti``): ``f`` is
        called with each element and an ``emit`` callback."""
        from repro.streams.ops import MapMultiOp

        return self._append(MapMultiOp(f))

    def peek(self, action: Callable[[T], None]) -> "Stream":
        """Observe each element as it flows by (for debugging)."""
        return self._append(PeekOp(action))

    def distinct(self) -> "Stream":
        """Drop duplicate elements (first occurrence wins)."""
        return self._append(DistinctOp())

    def sorted(self, key: Callable[[T], Any] | None = None, reverse: bool = False) -> "Stream":
        """Emit elements in sorted order (stable)."""
        return self._append(SortedOp(key, reverse))

    def limit(self, n: int) -> "Stream":
        """Truncate to at most ``n`` elements."""
        return self._append(LimitOp(n))

    def skip(self, n: int) -> "Stream":
        """Discard the first ``n`` elements."""
        return self._append(SkipOp(n))

    def zip(self, other: "Stream", combine: Callable | None = None) -> "Stream":
        """Pair this stream with ``other`` elementwise, stopping at the
        shorter side.

        Without ``combine`` the elements are ``(a, b)`` tuples; with it,
        ``combine(a, b)`` results.  Both sides' pending op chains are
        stage-fused and drained in lockstep through one two-cursor
        chunked source (:class:`repro.streams.zipper.ZipSpliterator`);
        when ``combine`` is a numpy ufunc and both sides yield ndarray
        chunks, each pair chunk is one vectorized call.  Consumes both
        streams.
        """
        from repro.streams.zipper import ZipSpliterator, _ZipCursor

        if not isinstance(other, Stream):
            raise IllegalArgumentError(
                f"zip expects a Stream, got {type(other).__name__}"
            )
        self._check_linked()
        other._check_linked()
        left_spliterator, left_ops = self._terminal()
        right_spliterator, right_ops = other._terminal()
        config = self._config()
        zipped = ZipSpliterator(
            _ZipCursor(left_spliterator, left_ops, config),
            _ZipCursor(right_spliterator, right_ops, config),
            combine,
        )
        derived = Stream(
            zipped, [], self._parallel, self._pool, self._target_size
        )
        derived._close_handlers = self._close_handlers + other._close_handlers
        derived._deadline = self._deadline
        derived._backend = self._backend
        return derived

    def zip_with(self, other: "Stream", combine: Callable) -> "Stream":
        """:meth:`zip` with a required combiner (``zipWith`` idiom)."""
        if combine is None:
            raise IllegalArgumentError("zip_with requires a combiner")
        return self.zip(other, combine)

    def take_while(self, predicate: Callable[[T], bool]) -> "Stream":
        """Longest prefix of elements satisfying ``predicate``."""
        return self._append(TakeWhileOp(predicate))

    def drop_while(self, predicate: Callable[[T], bool]) -> "Stream":
        """Drop the longest prefix satisfying ``predicate``."""
        return self._append(DropWhileOp(predicate))

    # ------------------------------------------------------------------ #
    # Terminal operations
    # ------------------------------------------------------------------ #

    def collect(
        self,
        collector_or_supplier,
        accumulator: Callable[[Any, T], None] | None = None,
        combiner: Callable[[Any, Any], Any] | None = None,
    ):
        """Mutable reduction — the template method of the paper.

        Accepts either a :class:`Collector` or the raw
        ``(supplier, accumulator, combiner)`` triple.  The combiner is
        exercised only on parallel execution, per the Java contract.
        Parallel collects are fail-fast: one poisoned element cancels the
        remaining task tree instead of completing every sibling leaf.
        """
        if isinstance(collector_or_supplier, Collector):
            collector = collector_or_supplier
        else:
            if accumulator is None or combiner is None:
                raise IllegalArgumentError(
                    "collect needs a Collector or all of supplier/accumulator/combiner"
                )
            def _wrap(combine):
                def merged(a, b):
                    result = combine(a, b)
                    return a if result is None else result
                return merged
            collector = Collector.of(
                collector_or_supplier,
                accumulator,
                _wrap(combiner),
                None,
                CollectorCharacteristics.IDENTITY_FINISH,
            )
        return self._evaluate(Collect(collector))

    def reduce(self, *args):
        """Immutable reduction.

        * ``reduce(op)`` → :class:`Optional`;
        * ``reduce(identity, op)`` → value;
        * ``reduce(identity, accumulator, combiner)`` → value (the Java
          three-argument form; the combiner merges partial results in
          parallel runs).
        """
        if len(args) == 1:
            terminal = Reduce(args[0])
        elif len(args) == 2:
            terminal = Reduce(args[1], identity=args[0], has_identity=True)
        elif len(args) == 3:
            terminal = Reduce(args[1], args[2], args[0], has_identity=True)
        else:
            raise IllegalArgumentError("reduce takes 1, 2 or 3 arguments")
        return self._evaluate(terminal)

    def for_each(self, action: Callable[[T], None]) -> None:
        """Apply ``action`` to each element (unordered when parallel)."""
        self._evaluate(ForEach(action))

    def for_each_ordered(self, action: Callable[[T], None]) -> None:
        """Apply ``action`` in encounter order even on parallel streams."""
        for item in self._materialize_terminal():
            action(item)

    def to_list(self) -> list:
        """Collect into a list (encounter order)."""
        from repro.streams import collectors

        return self.collect(collectors.to_list())

    def to_set(self) -> set:
        """Collect into a set."""
        from repro.streams import collectors

        return self.collect(collectors.to_set())

    def to_dict(self, key_fn: Callable[[T], Any], value_fn: Callable[[T], Any]) -> dict:
        """Collect into a dict (duplicate keys raise, like ``toMap``)."""
        from repro.streams import collectors

        return self.collect(collectors.to_dict(key_fn, value_fn))

    def count(self) -> int:
        """Number of elements."""
        from repro.streams import collectors

        return self.collect(collectors.counting())

    def sum(self) -> Any:
        """Sum of the elements (0 for an empty stream)."""
        return self.reduce(0, operator.add)

    def min(self, key: Callable[[T], Any] | None = None) -> Optional:
        """Minimum element as an :class:`Optional` (the first of ties)."""
        return self.reduce(_min if key is None else partial(_min_by, key))

    def max(self, key: Callable[[T], Any] | None = None) -> Optional:
        """Maximum element as an :class:`Optional` (the first of ties)."""
        return self.reduce(_max if key is None else partial(_max_by, key))

    def any_match(self, predicate: Callable[[T], bool]) -> bool:
        """True if any element satisfies ``predicate`` (short-circuits)."""
        return self._evaluate(Match(predicate, "any"))

    def all_match(self, predicate: Callable[[T], bool]) -> bool:
        """True if every element satisfies ``predicate`` (short-circuits)."""
        return self._evaluate(Match(predicate, "all"))

    def none_match(self, predicate: Callable[[T], bool]) -> bool:
        """True if no element satisfies ``predicate`` (short-circuits)."""
        return self._evaluate(Match(predicate, "none"))

    def find_first(self) -> Optional:
        """The first element, honoring encounter order."""
        return self._evaluate(Find(first=True))

    def find_any(self) -> Optional:
        """Any element (parallel-friendly)."""
        return self._evaluate(Find(first=False))

    def explain(self) -> "Any":
        """The execution plan, predicted without executing (non-terminal).

        Returns an :class:`~repro.streams.explain.ExplainPlan`: the op
        chain, the fusion rewrite (fused runs, kernel shapes, barriers),
        the traversal mode the run would select, and — for
        parallel pipelines — the segmenting at stateful barriers plus the
        predicted split tree.  ``to_dict()`` for tests/tools,
        ``render()`` (or ``str()``) for humans.  The stream is *not*
        consumed: explaining then executing is the normal flow.
        """
        from repro.streams.explain import explain_stream

        return explain_stream(self)

    def profile(self, terminal: Callable[["Stream"], Any], *, sample: int | None = None):
        """Run ``terminal(self)`` under a profiler; returns
        ``(result, RunProfile)``.

        Convenience wrapper over :func:`repro.obs.profiled` that also
        pre-attaches this stream's pool for parallel pipelines::

            result, prof = Stream.range(0, n).parallel().profile(
                lambda s: s.map(f).sum()
            )
            print(prof.report())
        """
        from repro.obs.profile import profiled

        pool = self._effective_pool() if self._parallel else None
        with profiled(sample=sample, pool=pool) as run_profile:
            result = terminal(self)
        return result, run_profile

    def spliterator(self) -> Spliterator:
        """A spliterator over this pipeline's output (terminal op).

        With no intermediate ops the source spliterator is returned
        directly (keeping its splitting behaviour and characteristics);
        otherwise the pipeline output is evaluated lazily element-by-
        element through an :class:`IteratorSpliterator`, like Java's
        wrapping spliterator.
        """
        spliterator, ops = self._terminal()
        if not ops:
            return spliterator
        self._consumed = False  # iterator() below re-consumes
        self._spliterator, self._ops = spliterator, ops
        return IteratorSpliterator(self.iterator())

    def iterator(self) -> Iterator[T]:
        """A lazy sequential iterator over the pipeline's output."""
        from repro.streams.fusion import maybe_fuse

        spliterator, ops = self._terminal()
        ops = maybe_fuse(ops, self._config())

        buffer: deque = deque()
        sink = wrap_ops(ops, BufferSink(buffer))
        sink.begin(spliterator.get_exact_size_if_known())
        return pull_iterator(spliterator, sink, buffer)

    def __iter__(self) -> Iterator[T]:
        return self.iterator()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_linked(self) -> None:
        if self._consumed:
            raise IllegalStateError(
                "stream has already been operated upon or closed"
            )

    def _derive(self, spliterator: Spliterator, ops: list[Op], parallel: bool) -> "Stream":
        self._consumed = True
        derived = Stream(spliterator, ops, parallel, self._pool, self._target_size)
        # Close handlers travel with the pipeline (Java's onClose contract).
        derived._close_handlers = self._close_handlers
        derived._deadline = self._deadline
        derived._backend = self._backend
        return derived

    def _append(self, op: Op) -> "Stream":
        self._check_linked()
        return self._derive(self._spliterator, self._ops + [op], self._parallel)

    def _terminal(self) -> tuple[Spliterator, list[Op]]:
        self._check_linked()
        self._consumed = True
        return self._spliterator, self._ops

    def _effective_pool(self) -> ForkJoinPool:
        return self._pool if self._pool is not None else common_pool()

    def _config(self) -> EngineConfig:
        """The config this stream's terminal runs under: the caller's
        (:func:`~repro.streams.config.current_config`) with the
        ``with_backend`` override applied.  Resolved once per terminal,
        which plans and compiles under it; pool workers and process
        children run the kernels and mode it chose."""
        config = current_config()
        if self._backend is not None:
            config = _with_backend(config, self._backend)
        return config

    def _evaluate(self, terminal: Terminal) -> Any:
        """Run ``terminal`` over this pipeline: in the caller when
        sequential, else segment by segment as
        :func:`~repro.streams.parallel.plan_segment` plans it.

        Each segment but the last runs as a parallel ``to_list``
        reduction; its barrier (a stateful op, or a counted window the
        segment already sliced) turns the buffer into the next segment's
        source.  The last segment runs ``terminal``
        (:func:`~repro.streams.parallel.evaluate`).
        """
        config = self._config()
        spliterator, ops = self._terminal()
        if not self._parallel:
            return evaluate_sequential(terminal, spliterator, ops, config)
        from repro.streams import collectors

        pool = self._effective_pool()
        parallelism = _parallel.backend_parallelism(config.backend, pool)
        barriered = False
        while True:
            segment = _parallel.plan_segment(
                spliterator, ops, parallelism, self._target_size, config,
                after_barrier=barriered,
            )
            if not segment.barrier:
                return _parallel.evaluate(
                    segment, terminal, pool, config, self._deadline
                )
            buffer = _parallel.evaluate(
                segment, Collect(collectors.to_list()), pool, config,
                self._deadline,
            )
            if segment.window is None:  # a window is cut off the source
                buffer = segment.barrier[0].apply_to_buffer(buffer)
            spliterator = ListSpliterator(buffer)
            ops, barriered = segment.rest, True

    def _materialize(self) -> list:
        """Consume into a list, preserving mode flags for ``concat``."""
        parallel = self._parallel
        out = self.to_list()
        self._parallel = parallel
        return out

    def _materialize_terminal(self) -> list:
        return self.to_list()
