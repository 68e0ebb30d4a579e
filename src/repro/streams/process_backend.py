"""Process-backend evaluation of the parallel terminal families.

The threaded fork/join terminals (:mod:`repro.streams.parallel`) serialize
pure-Python leaf work on the GIL; this module runs the same five terminal
families — collect, reduce, for_each, match, find — across OS processes,
where Python-heavy leaves scale with cores.  Selected per-stream with
``Stream.with_backend('process')`` or globally via
``set_parallel_backend`` / ``REPRO_PARALLEL_BACKEND``.

Execution model (scatter/compute/combine, mirroring the thread path):

1. the source spliterator is split to leaves with the *same* recursion as
   ``_ReduceTask`` (prefix first, so leaf order == encounter order) down
   to the same target size, computed against the worker-process count;
2. each leaf becomes a picklable payload: a **source spec** + the raw
   (unfused) op chain + a terminal spec + the parent's bulk/fusion flags.
   Fused kernels are ``exec``-compiled and cannot pickle — the child
   re-fuses the shipped op chain itself, so fusion and the chunked bulk
   path both engage inside workers;
3. payloads ship in contiguous batches through
   :meth:`repro.jplf.process_executor.ProcessExecutor.run_leaves`, which
   carries the lifecycle contract: first-failure cancellation of
   outstanding batches (the process-side ``_TerminalContext`` fail-fast),
   deadline-bounded waits that cancel pending child work, broken-pool
   containment after a worker death, and retry / sequential-degradation
   policies;
4. partial results merge in the parent, in encounter order.

Shipping modes (reported by ``Stream.explain()``):

* ``shm-descriptor`` — the leaf is a view over an ndarray shared with
  :func:`repro.powerlist.shm.share_array`: it ships as a ~100-byte
  (segment, dtype, count, offset, stride) descriptor and re-attaches
  zero-copy in the child.  ``tie``/``zip``/slice views are all closed
  under this form.
* ``descriptor`` — range sources ship as ``(lo, hi)`` bounds.
* ``pickle`` — everything else ships as a pickled copy of the leaf's
  elements (the copy cost the alpha–beta model charges for MPI).

Constraints: every user function crossing the boundary (ops, predicates,
reduce operators, collectors) must pickle — module-level functions,
``functools.partial``, ``operator.*``.  Stock collectors built from
lambdas are handled by an automatic fallback where leaves return their
element lists and the parent folds them in order.  ``for_each`` actions
run *in the worker process*: side effects on parent state are invisible —
use ``backend='threads'`` for those.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any, Callable

import numpy as np

from repro.common import IllegalArgumentError
from repro.jplf.process_executor import ProcessExecutor, current_leaf_cancel
from repro.powerlist import shm as _shm
from repro.powerlist.powerlist import PowerList
from repro.streams import adaptive
# Imported by name: the package re-exports a ``fusion()`` function that
# shadows the ``repro.streams.fusion`` submodule attribute, so module-alias
# imports would bind the function instead.
from repro.streams.fusion import fusion as _fusion_scope
from repro.streams.fusion import fusion_enabled as _fusion_enabled
from repro.streams import ops as _ops
from repro.streams.collector import Collector
from repro.streams.ops import (
    AccumulatorSink,
    CHUNK_SIZE,
    LimitOp,
    Op,
    ReducingSink,
    Sink,
    run_pipeline,
)
from repro.streams.optional import Optional
from repro.streams.spliterator import Spliterator, UNKNOWN_SIZE
from repro.streams.spliterators import (
    ListSpliterator,
    RangeSpliterator,
    slice_source,
)

# --------------------------------------------------------------------------- #
# The shared executor (lazy: forking workers is expensive, reuse them)
# --------------------------------------------------------------------------- #

_executor_lock = threading.Lock()
_shared_executor: ProcessExecutor | None = None


def default_process_count() -> int:
    """Largest power of two ≤ the machine's core count (≥ 1).

    The leaf tree is binary, so a power-of-two worker count keeps the
    scatter balanced — the same constraint :class:`ProcessExecutor`
    enforces.
    """
    cores = os.cpu_count() or 1
    processes = 1
    while processes * 2 <= cores:
        processes *= 2
    return processes


def shared_executor() -> ProcessExecutor:
    """The process pool shared by every process-backend terminal.

    Created on first use with :func:`default_process_count` workers;
    shut down with :func:`shutdown_shared_executor` (the test suite does
    this at session end so no worker outlives the run).
    """
    global _shared_executor
    with _executor_lock:
        if _shared_executor is None:
            _shared_executor = ProcessExecutor(processes=default_process_count())
        return _shared_executor


def shutdown_shared_executor() -> None:
    """Stop the shared workers (idempotent; a new one forks on next use)."""
    global _shared_executor
    with _executor_lock:
        executor, _shared_executor = _shared_executor, None
    if executor is not None:
        executor.shutdown()


# --------------------------------------------------------------------------- #
# Leaf splitting and shipping
# --------------------------------------------------------------------------- #


def split_to_leaves(spliterator: Spliterator, target_size: int) -> list[Spliterator]:
    """Split down to the target size, leaves in encounter order.

    The same recursion as the thread path's ``_ReduceTask`` — prefix
    (the spliterator returned by ``try_split``) first — so merging leaf
    results left-to-right reproduces encounter order.
    """
    leaves: list[Spliterator] = []

    def descend(node: Spliterator) -> None:
        while node.estimate_size() > target_size:
            prefix = node.try_split()
            if prefix is None:
                break
            descend(prefix)
        leaves.append(node)

    descend(spliterator)
    return leaves


def _leaf_source_spec(leaf: Spliterator) -> tuple:
    """The picklable shipping form of one leaf's data.

    Prefers descriptors (range bounds, shared-memory views) over pickled
    copies; anything unrecognized is drained in the parent and shipped as
    an element list.
    """
    if isinstance(leaf, RangeSpliterator):
        return ("range", leaf._lo, leaf._hi)
    if isinstance(leaf, ListSpliterator):
        view = slice_source(leaf._source, leaf._index, leaf._fence)
        if isinstance(view, np.ndarray):
            descriptor = _shm.describe(view)
            if descriptor is not None:
                return ("shm", descriptor)
            return ("seq", view)
        if isinstance(view, PowerList):
            descriptor = _shm.describe_powerlist(view)
            if descriptor is not None:
                return ("shm", descriptor)
            return ("seq", view.to_list())
        return ("seq", list(view))
    drained: list = []
    while True:
        chunk = leaf.next_chunk(CHUNK_SIZE)
        if chunk is None or len(chunk) == 0:
            break
        drained.extend(chunk)
    return ("seq", drained)


def _rebuild_source(spec: tuple) -> Spliterator:
    """Child side: re-materialize a leaf spliterator from its spec."""
    kind = spec[0]
    if kind == "range":
        return RangeSpliterator(spec[1], spec[2])
    if kind == "shm":
        return ListSpliterator(_shm.rebuild(spec[1]))
    return ListSpliterator(spec[1])


def shipping_mode(spliterator: Spliterator) -> str:
    """Predicted shipping mode for a source (used by ``Stream.explain``)."""
    if isinstance(spliterator, RangeSpliterator):
        return "descriptor"
    if isinstance(spliterator, ListSpliterator):
        source = spliterator._source
        if isinstance(source, PowerList):
            source = source.storage
        if isinstance(source, np.ndarray) and _shm.storage_of(source) is not None:
            return "shm-descriptor"
    return "pickle"


def _check_picklable(what: str, *objects: Any) -> bool:
    try:
        pickle.dumps(objects)
        return True
    except Exception:
        return False


def _require_picklable(what: str, *objects: Any) -> None:
    try:
        pickle.dumps(objects)
    except Exception as exc:
        raise IllegalArgumentError(
            f"backend='process' requires picklable {what} (module-level "
            f"functions, functools.partial, operator.*) — pickling failed "
            f"with {type(exc).__name__}: {exc}.  Lambdas and closures only "
            f"work with backend='threads'."
        ) from None


# --------------------------------------------------------------------------- #
# Child-side leaf execution
# --------------------------------------------------------------------------- #


def _append(container: list, item: Any) -> None:
    container.append(item)


def _extend(container: list, chunk) -> None:
    container.extend(chunk)


class _CancellableReducingSink(ReducingSink):
    """A ReducingSink that also honors the batch's shared cancel flag.

    ``copy_into_chunked`` polls ``cancellation_requested`` once per chunk,
    so a running reduce leaf aborts at the next chunk boundary after the
    parent (or a sibling worker) sets the flag.  An aborted leaf's partial
    value is never merged — the parent discards results of cancelled runs.
    """

    __slots__ = ("_cancel",)

    def __init__(self, op, identity=None, has_identity=False, cancel=None):
        super().__init__(op, identity, has_identity)
        self._cancel = cancel

    def cancellation_requested(self):
        return self._cancel is not None and self._cancel.is_set()


def _run_leaf(payload: tuple) -> Any:
    """Top-level worker entry point (module-level so it pickles).

    Re-fuses the shipped op chain and re-applies the parent's bulk/fusion
    flags, so the child's ``run_pipeline`` makes the same mode decisions
    the parent would have — a long-lived worker forked before a flag
    changed must not keep the stale inherited value.

    Every sink built here wires in the batch's shared cancellation flag
    (:func:`repro.jplf.process_executor.current_leaf_cancel`): when the
    parent aborts the run or another worker's match/find leaf hits a
    witness, this leaf stops at its next poll point — a chunk boundary
    for the bulk terminals, the next element for short-circuit ones —
    instead of scanning to completion.
    """
    source_spec, ops, terminal, bulk_enabled, fusion_on, chunk_size = payload
    spliterator = _rebuild_source(source_spec)
    cancel = current_leaf_cancel()
    with _ops.bulk_execution(bulk_enabled), _fusion_scope(fusion_on):
        kind = terminal[0]
        if kind == "collect":
            collector = terminal[1]
            sink = AccumulatorSink(
                collector.supplier()(),
                collector.accumulator(),
                collector.chunk_accumulator(),
                cancel=cancel,
            )
            run_pipeline(spliterator, ops, sink, chunk_size=chunk_size)
            return sink.container
        if kind == "elements":
            sink = AccumulatorSink([], _append, _extend, cancel=cancel)
            run_pipeline(spliterator, ops, sink, chunk_size=chunk_size)
            return sink.container
        if kind == "reduce":
            _, op, identity, has_identity = terminal
            sink = run_pipeline(
                spliterator, ops,
                _CancellableReducingSink(op, identity, has_identity, cancel),
                chunk_size=chunk_size,
            )
            return (sink.value, sink.seen)
        if kind == "for_each":
            action = terminal[1]

            class _ForEach(Sink):
                def accept(self, item):
                    action(item)

                def cancellation_requested(self):
                    return cancel is not None and cancel.is_set()

            run_pipeline(spliterator, ops, _ForEach(), chunk_size=chunk_size)
            return None
        if kind == "match":
            _, predicate, match_kind = terminal
            if match_kind == "all":
                trigger = lambda item: not predicate(item)  # noqa: E731
            else:
                trigger = predicate
            found = [False]

            class _MatchSink(Sink):
                def accept(self, item):
                    if not found[0] and trigger(item):
                        found[0] = True
                        if cancel is not None:
                            # A witness anywhere decides the whole match
                            # (any → True, all/none → False): broadcast so
                            # RUNNING sibling leaves abort mid-scan.
                            cancel.set()

                def cancellation_requested(self):
                    return found[0] or (
                        cancel is not None and cancel.is_set()
                    )

            run_pipeline(spliterator, ops, _MatchSink(), force_short_circuit=True)
            return found[0]
        if kind == "find":
            first = terminal[1] if len(terminal) > 1 else True
            result: list = []

            class _FindSink(Sink):
                def accept(self, item):
                    if not result:
                        result.append(item)
                        if not first and cancel is not None:
                            # find_any: any hit is the answer — broadcast.
                            # find_first must NOT: every leaf reports its
                            # own first so the ordered merge keeps the
                            # leftmost.
                            cancel.set()

                def cancellation_requested(self):
                    return bool(result) or (
                        cancel is not None and cancel.is_set()
                    )

            run_pipeline(spliterator, ops, _FindSink(), force_short_circuit=True)
            return (True, result[0]) if result else (False, None)
        raise IllegalArgumentError(f"unknown process terminal {kind!r}")


# --------------------------------------------------------------------------- #
# Parent-side terminals
# --------------------------------------------------------------------------- #


def _build_payloads(
    spliterator: Spliterator,
    ops: list[Op],
    terminal: tuple,
    executor: ProcessExecutor,
    target_size: int | None,
    observe: bool = True,
) -> tuple[list[tuple], "adaptive.RunObservation | None"]:
    """Split to leaves and build picklable payloads.

    The leaf threshold (and, under the ``auto`` split policy, the child's
    ``run_pipeline`` chunk size) comes from :mod:`repro.streams.adaptive`,
    keyed by the pipeline shape with ``backend="process"`` so the memo
    never mixes process-side costs with thread-side ones.  Returns the
    payload list plus the run's observation handle (None outside auto or
    when ``observe`` is False) — the caller feeds it to ``run_leaves`` and
    completes it on success so measured batch durations update the memo.
    """
    size = spliterator.estimate_size()
    chunk: int | None = None
    key = None
    if adaptive.wants_auto(target_size):
        key = adaptive.shape_key(
            ops, spliterator, executor.processes, backend="process"
        )
        decision = adaptive.decide_threshold(
            size, executor.processes, explicit=target_size, key=key
        )
        target, chunk = decision.target_size, decision.chunk_size
    else:
        target = adaptive.fixed_target(size, executor.processes, target_size)
    leaves = split_to_leaves(spliterator, target)
    observer = None
    if observe and key is not None:
        # Sizes must be read before spec-building: unrecognized leaves are
        # drained into element lists by ``_leaf_source_spec``.
        sizes = [
            0 if (s := leaf.estimate_size()) == UNKNOWN_SIZE else max(s, 0)
            for leaf in leaves
        ]
        observer = adaptive.RunObservation(
            key, executor.processes, target, leaf_sizes=sizes
        )
    flags = (_ops.bulk_execution_enabled(), _fusion_enabled())
    payloads = [
        (_leaf_source_spec(leaf), ops, terminal) + flags + (chunk,)
        for leaf in leaves
    ]
    return payloads, observer


def _budget_stop(budget: int):
    """Contiguous-prefix early stop for a counted-``limit`` budget.

    Returns an ``early_stop_slots(lo, hi, batch_results)`` closure that
    fires once the leaves in slots ``0..k`` (no gaps) have together
    produced at least ``budget`` elements.  Contiguity matters: a
    satisfied budget cancels the remaining slots, and the merge below
    treats their ``None`` results as empty — sound only because every
    discarded slot lies strictly *right* of the prefix that already
    holds the global first ``budget`` elements.
    """
    produced: dict[int, int] = {}

    def early_stop_slots(lo, hi, batch_results):
        for i, r in enumerate(batch_results):
            try:
                produced[lo + i] = len(r)
            except TypeError:
                produced[lo + i] = 0
        total, slot = 0, 0
        while slot in produced:
            total += produced[slot]
            if total >= budget:
                return True
            slot += 1
        return False

    return early_stop_slots


def process_collect(
    spliterator: Spliterator,
    ops: list[Op],
    collector: Collector,
    target_size: int | None = None,
    deadline=None,
    executor: ProcessExecutor | None = None,
    budget: int | None = None,
) -> Any:
    """Mutable reduction across worker processes.

    With a picklable collector each leaf builds its own container in the
    child and the parent folds containers with the combiner, exactly like
    the thread path.  Collectors built from lambdas (the stock library)
    fall back to leaves returning element lists, folded through the
    accumulator in the parent — same result, elements cross the boundary
    instead of containers.

    ``budget`` is the counted short-circuit hook: when the caller's
    pipeline ends in ``limit(n)``, each leaf gets its own ``LimitOp(n)``
    (the global first ``n`` never needs more than the first ``n`` of any
    leaf) and a contiguous-prefix element count stops the scatter — and
    sets the run's :class:`~repro.powerlist.shm.SharedFlag` so RUNNING
    sibling leaves abort at their next chunk boundary — as soon as the
    answer is complete.  Cancelled slots come back ``None`` and merge as
    empty; the caller re-applies ``limit`` over the concatenation.
    """
    executor = executor if executor is not None else shared_executor()
    early_stop_slots = None
    if budget is not None:
        ops = list(ops) + [LimitOp(budget)]
        early_stop_slots = _budget_stop(budget)
    _require_picklable("pipeline stage functions", ops)
    combine = collector.combiner()
    finish = collector.finisher()
    if _check_picklable("collector", collector, combine):
        payloads, observer = _build_payloads(
            spliterator, ops, ("collect", collector), executor, target_size
        )
        partials = executor.run_leaves(
            _run_leaf, payloads, deadline=deadline, label="process collect",
            observer=observer, early_stop_slots=early_stop_slots,
        )
        if observer is not None:
            observer.complete()
        container = None
        seen = False
        for partial in partials:
            if partial is None:
                continue  # slot cancelled by a satisfied budget
            container = combine(container, partial) if seen else partial
            seen = True
        if not seen:
            container = collector.supplier()()
        return finish(container)
    payloads, observer = _build_payloads(
        spliterator, ops, ("elements",), executor, target_size
    )
    partials = executor.run_leaves(
        _run_leaf, payloads, deadline=deadline, label="process collect",
        observer=observer, early_stop_slots=early_stop_slots,
    )
    if observer is not None:
        observer.complete()
    container = collector.supplier()()
    accumulate = collector.accumulator()
    accumulate_chunk = collector.chunk_accumulator()
    for elements in partials:
        if elements is None:
            continue  # slot cancelled by a satisfied budget
        if accumulate_chunk is not None:
            accumulate_chunk(container, elements)
        else:
            for item in elements:
                accumulate(container, item)
    return finish(container)


def process_reduce(
    spliterator: Spliterator,
    ops: list[Op],
    op: Callable,
    identity=None,
    has_identity: bool = False,
    target_size: int | None = None,
    deadline=None,
    executor: ProcessExecutor | None = None,
):
    """Immutable reduction across worker processes (``Stream.reduce``)."""
    executor = executor if executor is not None else shared_executor()
    _require_picklable("pipeline stage functions and reduce operator", ops, op)
    payloads, observer = _build_payloads(
        spliterator, ops, ("reduce", op, identity, has_identity),
        executor, target_size,
    )
    partials = executor.run_leaves(
        _run_leaf, payloads, deadline=deadline, label="process reduce",
        observer=observer,
    )
    if observer is not None:
        observer.complete()
    value, seen = None, False
    for leaf_value, leaf_seen in partials:
        if not leaf_seen:
            continue
        value = op(value, leaf_value) if seen else leaf_value
        seen = True
    if has_identity:
        return value if seen else identity
    return Optional.of(value) if seen else Optional.empty()


def process_for_each(
    spliterator: Spliterator,
    ops: list[Op],
    action: Callable,
    target_size: int | None = None,
    deadline=None,
    executor: ProcessExecutor | None = None,
) -> None:
    """``for_each`` with the action running *in the worker process*.

    Side effects land in the child: mutating parent-process state from the
    action will silently do nothing here — use ``backend='threads'`` when
    the action closes over shared state.
    """
    executor = executor if executor is not None else shared_executor()
    _require_picklable("pipeline stage functions and action", ops, action)
    payloads, observer = _build_payloads(
        spliterator, ops, ("for_each", action), executor, target_size
    )
    executor.run_leaves(
        _run_leaf, payloads, deadline=deadline, label="process for_each",
        observer=observer,
    )
    if observer is not None:
        observer.complete()


def process_match(
    spliterator: Spliterator,
    ops: list[Op],
    predicate: Callable,
    kind: str,
    target_size: int | None = None,
    deadline=None,
    executor: ProcessExecutor | None = None,
) -> bool:
    """Short-circuiting match: each leaf stops at its own witness, and the
    first triggered batch cancels the still-pending ones."""
    if kind not in ("any", "all", "none"):
        raise ValueError(f"unknown match kind: {kind}")
    executor = executor if executor is not None else shared_executor()
    _require_picklable("pipeline stage functions and predicate", ops, predicate)
    payloads, observer = _build_payloads(
        spliterator, ops, ("match", predicate, kind), executor, target_size
    )
    results = executor.run_leaves(
        _run_leaf, payloads, deadline=deadline,
        early_stop=lambda triggered: triggered is True,
        label="process match",
        observer=observer,
    )
    triggered = any(result is True for result in results)
    # A triggered run aborted leaves mid-scan — those timings would teach
    # the memo that elements are cheaper than they are.  Only full
    # traversals feed the cost model (same rule as the thread path).
    if observer is not None and not triggered:
        observer.complete()
    return triggered if kind == "any" else not triggered


def process_find(
    spliterator: Spliterator,
    ops: list[Op],
    first: bool,
    target_size: int | None = None,
    deadline=None,
    executor: ProcessExecutor | None = None,
) -> Optional:
    """``find_first`` / ``find_any`` across worker processes.

    ``find_any`` cancels pending batches on the first hit anywhere;
    ``find_first`` must honor encounter order, so every leaf reports its
    own first element (each stops after one) and the ordered merge keeps
    the leftmost.
    """
    executor = executor if executor is not None else shared_executor()
    _require_picklable("pipeline stage functions", ops)
    # find leaves stop at their own first element by design — their spans
    # measure almost nothing, so find never feeds the adaptive memo.
    payloads, _ = _build_payloads(
        spliterator, ops, ("find", first), executor, target_size, observe=False
    )
    early_stop = None if first else (lambda result: bool(result) and result[0])
    results = executor.run_leaves(
        _run_leaf, payloads, deadline=deadline, early_stop=early_stop,
        label="process find",
    )
    for result in results:
        if result is not None and result[0]:
            return Optional.of(result[1])
    return Optional.empty()
