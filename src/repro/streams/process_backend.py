"""Process-backend evaluation of stream terminals.

The threaded fork/join executor (:mod:`repro.streams.parallel`) serializes
pure-Python leaf work on the GIL; :func:`run_segment` runs any
:class:`~repro.streams.terminal.Terminal` — collect, reduce, for_each,
match, find — across OS processes, where Python-heavy leaves scale with
cores.  Selected per-stream with ``Stream.with_backend('process')``, for
a block with ``with engine(backend="process"):``, or for the process via
``REPRO_PARALLEL_BACKEND``.  Its one entry point is the segment planner
(:func:`repro.streams.parallel.plan_segment`), which decides the split
threshold for threads and processes alike; this module never decides one.

Execution model (scatter/compute/combine, mirroring the thread path):

1. the source spliterator is split to leaves with the *same* recursion as
   ``_ReduceTask`` (prefix first, so leaf order == encounter order) down
   to the same target size, computed against the worker-process count;
2. each leaf becomes a picklable payload: a **source spec** + the raw
   (unfused) op chain + the terminal itself + the run's
   :class:`~repro.streams.config.EngineConfig`.  Fused kernels are
   ``exec``-compiled and cannot pickle — the child re-fuses the shipped
   op chain itself under the shipped config, so fusion and the chunked
   bulk path engage inside workers exactly as the caller chose;
3. payloads ship in contiguous batches through
   :meth:`repro.jplf.process_executor.ProcessExecutor.run_leaves`, which
   carries the lifecycle contract: first-failure cancellation of
   outstanding batches (the process-side ``_TerminalContext`` fail-fast),
   deadline-bounded waits that cancel pending child work, broken-pool
   containment after a worker death, and retry / sequential-degradation
   policies.  One slot-aware ``stop(lo, hi, results)`` hook ends the
   scatter early: a match/``find_any`` terminal stops at a deciding
   partial, a counted ``limit`` once a contiguous prefix of leaves holds
   its budget.  In the child, :func:`_run_leaf` is one call of the same
   :func:`~repro.streams.terminal.run_leaf` the thread leaves run, with
   the batch's shared cancel flag as the sink's cancel token;
4. partials merge in the parent with the terminal's ``merge``, bottom-up
   in the shape of the split tree — the same pairs the thread path
   merges, which order-sensitive collectors such as ``PolynomialValue``
   (whose combiner halves ``x_degree`` at every level) depend on.

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
``functools.partial``, ``operator.*`` — and is checked on every
terminal, including runs that never ship; no verdict is cached, so no
user callable outlives the terminal that carried it.  Collectors built
from lambdas or closures are handled by an automatic fallback where
leaves return their element lists and the parent folds each into its
own container.

A plan the split policy makes one leaf (:mod:`repro.streams.adaptive`'s
work rule) never ships: :func:`repro.streams.parallel.evaluate` runs it
in the caller, as the thread backend does.  Otherwise ``for_each``
actions run *in the worker processes*, so whether their side effects on
parent state are visible depends on the plan — use
``backend='threads'`` for those.
"""

from __future__ import annotations

import os
import pickle
import threading
from typing import Any

import numpy as np

from repro.common import IllegalArgumentError
from repro.jplf.process_executor import ProcessExecutor, current_leaf_cancel
from repro.powerlist import shm as _shm
from repro.powerlist.powerlist import PowerList
from repro.streams import adaptive
from repro.streams.collectors import to_list
from repro.streams.config import EngineConfig
from repro.streams.ops import CHUNK_SIZE, Op
from repro.streams.spliterator import Spliterator, UNKNOWN_SIZE
from repro.streams.spliterators import (
    ListSpliterator,
    RangeSpliterator,
    slice_source,
)
from repro.streams.terminal import Collect, Terminal, run_leaf

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


class _Leaves(list):
    """Leaf spliterators in encounter order; ``depths[i]`` is leaf ``i``'s
    depth in the split tree (the root is 0)."""

    __slots__ = ("depths",)


def split_to_leaves(spliterator: Spliterator, target_size: int) -> list[Spliterator]:
    """Split down to the target size, leaves in encounter order.

    The same recursion as the thread path's ``_ReduceTask`` — prefix
    (the spliterator returned by ``try_split``) first, both halves one
    level deeper — and the returned list records each leaf's depth, so
    :func:`_merge_tree` can rebuild the tree the thread path merges.
    """
    leaves = _Leaves()
    leaves.depths = []

    def descend(node: Spliterator, depth: int) -> None:
        while node.estimate_size() > target_size:
            prefix = node.try_split()
            if prefix is None:
                break
            depth += 1
            descend(prefix, depth)
        leaves.append(node)
        leaves.depths.append(depth)

    descend(spliterator, 0)
    return leaves


def _merge_tree(terminal: Terminal, partials: list, depths: list[int]) -> Any:
    """Merge leaf partials bottom-up in the shape of the split tree.

    The two children of a node sit at the same depth, prefix first, so a
    stack that merges its top entry with the incoming one while their
    depths match rebuilds every interior node.  A cancelled (None) slot
    counts as a leaf that saw nothing.
    """
    stack: list[tuple[Any, int]] = []
    for partial, depth in zip(partials, depths):
        if partial is None:
            partial = terminal.empty()
        while stack and stack[-1][1] == depth:
            partial = terminal.merge(stack.pop()[0], partial)
            depth -= 1
        stack.append((partial, depth))
    return stack[0][0]


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


def _check_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def shipped_terminal(terminal: Terminal, ops: list[Op]) -> Terminal:
    """The terminal a leaf ships: ``terminal`` itself, or
    ``Collect(to_list())`` for a collector that does not pickle.  Raises
    :class:`~repro.common.IllegalArgumentError` when the op chain or any
    other terminal's functions do not pickle."""
    _require_picklable("pipeline stage functions", ops)
    if _check_picklable(terminal):
        return terminal
    if not isinstance(terminal, Collect):
        _require_picklable(f"{terminal.label} functions", terminal)
    return Collect(to_list())


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


def _run_leaf(payload: tuple) -> Any:
    """Top-level worker entry point (module-level so it pickles).

    Runs the leaf under the payload's config — the caller's, resolved
    once at the terminal — so the child's ``run_pipeline`` fuses and
    picks its traversal mode exactly as the parent would have.

    The leaf's sink polls the batch's shared cancellation flag
    (:func:`repro.jplf.process_executor.current_leaf_cancel`): when the
    parent aborts the run or another worker's leaf finds a witness, this
    leaf stops at its next poll point — a chunk boundary on the chunked
    path, the next element for short-circuit terminals — instead of
    scanning to completion.
    """
    source_spec, ops, terminal, config, chunk_size = payload
    return run_leaf(
        terminal, _rebuild_source(source_spec), ops, config,
        current_leaf_cancel(), chunk_size,
    )


# --------------------------------------------------------------------------- #
# Parent-side terminals
# --------------------------------------------------------------------------- #


def _build_payloads(
    spliterator: Spliterator,
    ops: list[Op],
    terminal: Terminal,
    config: EngineConfig,
    decision: "adaptive.ThresholdDecision",
    observe: bool = True,
) -> tuple[list[tuple], list[int], "adaptive.RunObservation | None"]:
    """Split to leaves and build picklable payloads.

    ``decision`` carries the leaf threshold and the child's
    ``run_pipeline`` chunk size from :mod:`repro.streams.adaptive`, keyed
    by the pipeline shape with ``backend="process"`` so the memo never
    mixes process-side costs with thread-side ones.  Returns the payload
    list, the leaves' split-tree depths, and the run's observation handle
    (None for an explicit threshold or when ``observe`` is False) — the
    caller feeds it to ``run_leaves`` and completes it on success so
    measured batch durations update the memo.
    """
    leaves = split_to_leaves(spliterator, decision.target_size)
    observer = None
    if observe and decision.adaptive:
        # Sizes must be read before spec-building: unrecognized leaves are
        # drained into element lists by ``_leaf_source_spec``.
        sizes = [
            0 if (s := leaf.estimate_size()) == UNKNOWN_SIZE else max(s, 0)
            for leaf in leaves
        ]
        observer = adaptive.RunObservation(decision.key, leaf_sizes=sizes)
    payloads = [
        (_leaf_source_spec(leaf), ops, terminal, config, decision.chunk_size)
        for leaf in leaves
    ]
    return payloads, leaves.depths, observer


def _budget_stop(budget: int):
    """Contiguous-prefix early stop for a counted-``limit`` budget.

    Returns the scatter's ``stop(lo, hi, batch_results)`` hook, which
    fires once the leaves in slots ``0..k`` (no gaps) have together
    produced at least ``budget`` elements.  Contiguity matters: a
    satisfied budget cancels the remaining slots, and the merge below
    treats their ``None`` results as empty — sound only because every
    discarded slot lies strictly *right* of the prefix that already
    holds the global first ``budget`` elements.
    """
    produced: dict[int, int] = {}

    def stop(lo, hi, batch_results):
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

    return stop


def _fold(terminal: Collect, elements: list) -> Any:
    """One leaf's container, filled in the parent from its element list."""
    sink = terminal.sink(None)
    sink.accept_chunk(elements)
    return terminal.partial(sink)


def run_segment(
    spliterator: Spliterator,
    ops: list[Op],
    terminal: Terminal,
    config: EngineConfig,
    decision: "adaptive.ThresholdDecision",
    deadline=None,
    executor: ProcessExecutor | None = None,
    budget: int | None = None,
) -> Any:
    """Run ``terminal`` over ``ops`` across worker processes, split by
    ``decision``.

    Each leaf payload carries the terminal and ``config``: the child
    builds the leaf's sink and returns its partial, and the parent merges
    partials in the shape of the split tree (:func:`_merge_tree`).  A
    collector that does not pickle (built from lambdas or closures, like
    the paper's ``PowerCollector`` functions) ships as
    ``Collect(to_list())`` instead: leaves return their element lists,
    and the parent folds each into that leaf's own container before the
    same tree merge — elements cross the boundary instead of containers.
    Every other terminal's functions must pickle.

    A broadcast terminal (match, ``find_any``) stops the scatter at the
    first deciding partial.  ``budget`` is the counted short-circuit hook:
    ``ops`` then end in the ``limit(n)`` every leaf runs (the global
    first ``n`` never needs more than the first ``n`` of any leaf), and a
    contiguous-prefix element count stops the scatter as soon as the
    answer is complete.  Either stop sets the run's
    :class:`~repro.powerlist.shm.SharedFlag`, so RUNNING sibling leaves
    abort at their next poll point; cancelled slots come back ``None``
    and merge as :meth:`~repro.streams.terminal.Terminal.empty` (for a
    budget the caller re-applies ``limit`` over the concatenation).
    """
    executor = executor if executor is not None else shared_executor()
    shipped = shipped_terminal(terminal, ops)
    payloads, depths, observer = _build_payloads(
        spliterator, ops, shipped, config, decision, terminal.observe,
    )
    stop = None if budget is None else _budget_stop(budget)
    if shipped.broadcast:
        stop = lambda lo, hi, results: any(  # noqa: E731
            r is not None and shipped.hit(r) for r in results
        )
    results = executor.run_leaves(
        _run_leaf, payloads, deadline=deadline, stop=stop,
        label=f"process {terminal.label}", observer=observer,
    )
    if shipped is not terminal:
        results = [
            None if elements is None else _fold(terminal, elements)
            for elements in results
        ]
    merged = _merge_tree(terminal, results, depths)
    if observer is not None and not (terminal.broadcast and terminal.hit(merged)):
        # A decided run aborted leaves mid-scan — those timings would
        # teach the memo that elements are cheaper than they are.
        observer.complete()
    return terminal.finish(merged)
