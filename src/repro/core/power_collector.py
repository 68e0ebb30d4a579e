"""``PowerCollector`` — the PowerList-function-as-Collector template.

Section V of the paper distills a general four-step mechanism for
communicating between the splitting phase (driven by the spliterator) and
the accumulate/combine phases (driven by ``collect``):

1. define a specialized spliterator tied to the collector that defines the
   PowerList function;
2. allow the spliterator to update the state of that *function object*
   during splits;
3. create each leaf container (supplier) by copying the function object;
4. create the initial spliterator — the one the input stream is built
   from — through the same function object.

:class:`PowerCollector` implements those steps once.  Subclasses choose the
deconstruction operator (``tie`` or ``zip``), provide the three collect
functions, and may override ``on_split`` (descending-phase state),
``basic_case`` (leaf computation on non-singleton sublists) or
``specialized_spliterator`` (a fully custom splitter).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Generic, Sequence, TypeVar

from repro.common import (
    IllegalArgumentError,
    NotPowerOfTwoError,
    check_power_of_two,
)
from repro.forkjoin.pool import ForkJoinPool
from repro.obs.tracer import current_tracer
from repro.streams.collector import Collector, CollectorCharacteristics
from repro.streams.spliterator import Characteristics, Spliterator
from repro.streams.stream import Stream
from repro.streams.stream_support import StreamSupport
from repro.core.power_spliterators import (
    SpliteratorPower2,
    TieSpliterator,
    ZipSpliterator,
)

T = TypeVar("T")
A = TypeVar("A")
R = TypeVar("R")


class PowerCollector(Collector[T, A, R], Generic[T, A, R]):
    """Base class for PowerList functions expressed as collectors.

    Attributes:
        operator: ``"tie"`` or ``"zip"`` — which deconstruction operator
            the function recurses on.
    """

    operator: str = "tie"

    def __init__(self) -> None:
        # Protects descending-phase shared state (paper's synchronized
        # block on ``PolynomialValue.this``).
        self._state_lock = threading.Lock()

    # -- the spliterator ↔ collector channel ----------------------------- #

    #: Optional hooks; a None value lets the spliterator take fast paths.
    on_split: Callable[[int], None] | None = None
    #: Bulk leaf computation ``(sub_view, incr) -> outputs``; one
    #: declaration serves the per-element path (``for_each_remaining``)
    #: and the chunked path (``next_chunk``) alike.
    basic_case: Callable[[list, int], list] | None = None

    def create_spliterator(self, data: Sequence[T]) -> SpliteratorPower2[T]:
        """Step 4: the initial spliterator, connected to this object."""
        spliterator = self.specialized_spliterator(data)
        if not spliterator.has_characteristics(Characteristics.POWER2):
            raise NotPowerOfTwoError(len(data), "PowerList stream source")
        return spliterator

    def specialized_spliterator(self, data: Sequence[T]) -> SpliteratorPower2[T]:
        """The spliterator type used for decomposition; override to
        customize (paper's inner-class specializations)."""
        if self.operator == "zip":
            return ZipSpliterator(data, 0, len(data), 1, function_object=self)
        if self.operator == "tie":
            return TieSpliterator(data, 0, len(data), 1, function_object=self)
        raise IllegalArgumentError(f"unknown operator {self.operator!r}")

    def characteristics(self) -> CollectorCharacteristics:
        return CollectorCharacteristics.IDENTITY_FINISH

    def reset(self) -> None:
        """Rewind descending-phase state before a re-execution.

        :func:`power_collect` calls this before every retry attempt and
        before a sequential fallback run, so a collector whose splits
        mutate shared function-object state (e.g. ``PolynomialValue``'s
        published ``x_degree``) starts each execution pristine.  The base
        implementation is a no-op; stateful collectors override it.
        """


def power_stream(
    collector: PowerCollector,
    data: Sequence,
    parallel: bool = True,
    pool: ForkJoinPool | None = None,
    target_size: int | None = None,
) -> Stream:
    """Build the stream of the paper's execution snippet.

    Creates the specialized spliterator *through the collector* (step 4),
    verifies the ``POWER2`` characteristic, and wraps it with
    ``StreamSupport.stream``.
    """
    check_power_of_two(len(data), "PowerList input length")
    spliterator = collector.create_spliterator(data)
    stream = StreamSupport.stream(spliterator, parallel)
    if pool is not None:
        stream = stream.with_pool(pool)
    if target_size is not None:
        stream = stream.with_target_size(target_size)
    return stream


def _collect_once(
    collector: PowerCollector,
    data: Sequence,
    parallel: bool,
    pool: ForkJoinPool | None,
    target_size: int | None,
    deadline=None,
):
    """One execution of the collect pipeline, wrapped in a ``function`` span."""
    stream = power_stream(collector, data, parallel, pool, target_size)
    if deadline is not None:
        stream = stream.with_deadline(deadline)
    tracer = current_tracer()
    if not tracer.enabled:
        return stream.collect(collector)
    start = time.perf_counter_ns()
    error: str | None = None
    try:
        return stream.collect(collector)
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        extra = {"error": error} if error is not None else {}
        tracer.emit(
            "function",
            name=type(collector).__name__,
            start_ns=start,
            end_ns=time.perf_counter_ns(),
            size=len(data),
            parallel=parallel,
            **extra,
        )


def power_collect(
    collector: PowerCollector,
    data: Sequence,
    parallel: bool = True,
    pool: ForkJoinPool | None = None,
    target_size: int | None = None,
    *,
    retry=None,
    fallback: bool = False,
    deadline=None,
):
    """Execute a PowerList function over ``data`` via ``collect``.

    The full pipeline of the paper: specialized spliterator → parallel
    stream → ``collect(collector)``.  With tracing enabled
    (:func:`repro.obs.tracing`), the whole execution is recorded as one
    ``function`` span named after the collector class, enclosing the
    split/leaf/combine spans of its decomposition.  Parallel execution is
    fail-fast (see ``docs/robustness.md``): the first leaf or combiner
    exception cancels the remaining task tree and re-raises promptly, and
    the ``function`` span is still emitted — tagged with the error type —
    so aborted runs show up in traces instead of vanishing.

    Resilience (``docs/robustness.md``): ``retry`` takes a
    :class:`repro.faults.policy.RetryPolicy` to re-run a failed parallel
    execution; ``deadline`` (a :class:`~repro.faults.policy.Deadline` or a
    float budget in seconds) bounds the whole call; ``fallback=True``
    re-executes *sequentially* when the parallel attempts are exhausted —
    sequential execution bypasses the task tree, so it is immune to
    ``leaf:*``/``combine:*`` fault injectors and converges even under an
    always-firing plan.  ``collector.reset()`` runs before every attempt
    so descending-phase state cannot leak between executions.
    """
    if retry is None and not fallback and deadline is None:
        return _collect_once(collector, data, parallel, pool, target_size)

    from repro.faults.policy import Deadline, run_resilient

    if deadline is not None and not isinstance(deadline, Deadline):
        deadline = Deadline.after(float(deadline))

    def attempt():
        collector.reset()
        return _collect_once(collector, data, parallel, pool, target_size, deadline)

    def sequential():
        collector.reset()
        return _collect_once(collector, data, False, pool, target_size)

    return run_resilient(
        attempt,
        retry=retry,
        deadline=deadline,
        fallback=sequential if fallback else None,
        label=type(collector).__name__,
    )
