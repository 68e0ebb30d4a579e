"""Terminal operations as values: each family written once.

The paper's template method, ``collect(supplier, accumulator, combiner)``,
is one divide-and-conquer shape: leaves fold elements into fresh
containers, interior nodes merge containers in encounter order, the root
finishes.  A :class:`Terminal` states one terminal family in exactly those
terms, the way the JDK's ``TerminalOp`` does, and every executor runs any
terminal:

* :func:`evaluate_sequential` (here) — one leaf over the whole source;
* :func:`repro.streams.parallel.evaluate` — fork/join threads, and the
  dispatch to the other backends;
* :func:`repro.streams.process_backend.evaluate` — worker processes; the
  terminal itself ships in each leaf payload.

The protocol:

* ``sink(cancel)`` builds a fresh leaf sink.  ``cancel`` is the run's
  cancel token (``is_set()``/``set()``, or None for a sequential run):
  every sink polls it, so a leaf stops at its next poll point once a
  sibling fails, a witness decides the run, or a ``limit`` budget is met;
* ``partial(sink)`` is the leaf's picklable result, ``merge(a, b)``
  combines two partials in encounter order, ``finish(p)`` turns the
  merged partial into the terminal's result, and ``empty()`` is the
  partial of a run with no leaves;
* ``short_circuit``: leaves traverse element by element, polling the sink;
* ``broadcast``: one leaf's witness decides the whole run — its sink sets
  the cancel token, and ``hit(p)`` tells a deciding partial;
* ``observe``: whether leaf timings may feed the adaptive split memo.

Terminals are plain data: one pickles whenever its user functions do.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.streams.collector import Collector
from repro.streams.config import EngineConfig
from repro.streams.ops import (
    AccumulatorSink,
    Op,
    ReducingSink,
    TerminalSink,
    run_pipeline,
)
from repro.streams.optional import Optional
from repro.streams.spliterator import Spliterator


class Terminal:
    """One terminal operation family, runnable by any executor."""

    __slots__ = ()

    #: Name used in executor labels and error messages.
    label = "terminal"
    short_circuit = False
    broadcast = False
    observe = True

    def sink(self, cancel: Any) -> TerminalSink:
        """A fresh leaf sink that polls ``cancel`` (None: never cancelled)."""
        raise NotImplementedError

    def partial(self, sink: TerminalSink) -> Any:
        """The leaf's picklable result."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        """Combine the partials of two adjacent subtrees, prefix first."""
        raise NotImplementedError

    def finish(self, partial: Any) -> Any:
        """The terminal's result from the merged partial."""
        return partial

    def empty(self) -> Any:
        """The partial of a run with no leaves: a leaf that saw nothing."""
        return self.partial(self.sink(None))

    def hit(self, partial: Any) -> bool:
        """True when ``partial`` alone decides a ``broadcast`` run."""
        return False


class Collect(Terminal):
    """Mutable reduction through a :class:`Collector` (``Stream.collect``)."""

    __slots__ = ("collector",)
    label = "collect"

    def __init__(self, collector: Collector) -> None:
        self.collector = collector

    def sink(self, cancel: Any) -> AccumulatorSink:
        collector = self.collector
        return AccumulatorSink(
            collector.supplier()(),
            collector.accumulator(),
            collector.chunk_accumulator(),
            cancel,
        )

    def partial(self, sink: AccumulatorSink) -> Any:
        return sink.container

    def merge(self, a: Any, b: Any) -> Any:
        return self.collector.combiner()(a, b)

    def finish(self, partial: Any) -> Any:
        return self.collector.finisher()(partial)


class Reduce(Terminal):
    """Immutable reduction (``Stream.reduce``).

    Leaves fold with ``accumulator`` and partials merge with ``combiner``
    (the accumulator when None).  With an identity the result is the bare
    value; without one it is an :class:`Optional`, empty for no elements.
    """

    __slots__ = ("accumulator", "combiner", "identity", "has_identity")
    label = "reduce"

    def __init__(
        self,
        accumulator: Callable[[Any, Any], Any],
        combiner: Callable[[Any, Any], Any] | None = None,
        identity: Any = None,
        has_identity: bool = False,
    ) -> None:
        self.accumulator = accumulator
        self.combiner = accumulator if combiner is None else combiner
        self.identity = identity
        self.has_identity = has_identity

    def sink(self, cancel: Any) -> ReducingSink:
        return ReducingSink(
            self.accumulator, self.identity, self.has_identity, cancel
        )

    def partial(self, sink: ReducingSink) -> tuple[Any, bool]:
        return sink.value, sink.seen

    def merge(self, a: tuple[Any, bool], b: tuple[Any, bool]) -> tuple[Any, bool]:
        if not b[1]:
            return a
        if not a[1]:
            return b
        return self.combiner(a[0], b[0]), True

    def finish(self, partial: tuple[Any, bool]) -> Any:
        value, seen = partial
        if self.has_identity:
            return value
        return Optional.of(value) if seen else Optional.empty()


class ForEachSink(TerminalSink):
    """Leaf sink of :class:`ForEach`: applies the action to each element."""

    __slots__ = ("_action", "_cancel")

    def __init__(self, action: Callable[[Any], None], cancel: Any) -> None:
        self._action = action
        self._cancel = cancel

    def accept(self, item: Any) -> None:
        self._action(item)

    def cancellation_requested(self) -> bool:
        return self._cancel is not None and self._cancel.is_set()


class ForEach(Terminal):
    """``Stream.for_each``: unordered; on the process backend the action
    runs in the worker, so its side effects stay there."""

    __slots__ = ("action",)
    label = "for_each"

    def __init__(self, action: Callable[[Any], None]) -> None:
        self.action = action

    def sink(self, cancel: Any) -> ForEachSink:
        return ForEachSink(self.action, cancel)

    def partial(self, sink: ForEachSink) -> None:
        return None

    def merge(self, a: None, b: None) -> None:
        return None


class WitnessSink(TerminalSink):
    """Leaf sink that stops at the first element ``trigger`` accepts (any
    element when ``trigger`` is None).  With ``broadcast`` the witness
    also sets the run's cancel token, so running siblings stop too."""

    __slots__ = ("found", "witness", "_trigger", "_cancel", "_broadcast")

    def __init__(
        self, trigger: Callable[[Any], bool] | None, cancel: Any, broadcast: bool
    ) -> None:
        self.found = False
        self.witness = None
        self._trigger = trigger
        self._cancel = cancel
        self._broadcast = broadcast

    def accept(self, item: Any) -> None:
        if not self.found and (self._trigger is None or self._trigger(item)):
            self.found = True
            self.witness = item
            if self._broadcast and self._cancel is not None:
                self._cancel.set()

    def cancellation_requested(self) -> bool:
        return self.found or (self._cancel is not None and self._cancel.is_set())


def _fails(predicate: Callable[[Any], bool], item: Any) -> bool:
    return not predicate(item)


class Match(Terminal):
    """``any_match``/``all_match``/``none_match``.

    Every kind searches for a witness — an element satisfying the
    predicate (``any``, ``none``) or failing it (``all``) — and the first
    one anywhere decides the run.
    """

    __slots__ = ("predicate", "kind")
    label = "match"
    short_circuit = True
    broadcast = True

    def __init__(self, predicate: Callable[[Any], bool], kind: str) -> None:
        if kind not in ("any", "all", "none"):
            raise ValueError(f"unknown match kind: {kind}")
        self.predicate = predicate
        self.kind = kind

    def sink(self, cancel: Any) -> WitnessSink:
        trigger = self.predicate
        if self.kind == "all":
            trigger = functools.partial(_fails, trigger)
        return WitnessSink(trigger, cancel, broadcast=True)

    def partial(self, sink: WitnessSink) -> bool:
        return sink.found

    def merge(self, a: bool, b: bool) -> bool:
        return a or b

    def finish(self, found: bool) -> bool:
        return found if self.kind == "any" else not found

    def hit(self, found: bool) -> bool:
        return found


class Find(Terminal):
    """``find_first``/``find_any``.

    ``find_any`` broadcasts its first hit anywhere.  ``find_first`` must
    honour encounter order, so each leaf stops only at its own first
    element and the ordered merge keeps the leftmost.  Find leaves stop
    early by design, so their timings never feed the adaptive memo.
    """

    __slots__ = ("first",)
    label = "find"
    short_circuit = True
    observe = False

    def __init__(self, first: bool) -> None:
        self.first = first

    @property
    def broadcast(self) -> bool:
        return not self.first

    def sink(self, cancel: Any) -> WitnessSink:
        return WitnessSink(None, cancel, self.broadcast)

    def partial(self, sink: WitnessSink) -> Optional:
        return Optional.of(sink.witness) if sink.found else Optional.empty()

    def merge(self, a: Optional, b: Optional) -> Optional:
        return a if a.is_present() else b

    def hit(self, partial: Optional) -> bool:
        return partial.is_present()


def run_leaf(
    terminal: Terminal,
    spliterator: Spliterator,
    ops: list[Op],
    config: EngineConfig,
    cancel: Any = None,
    chunk_size: int | None = None,
) -> Any:
    """Run one leaf of ``terminal`` under ``config`` and return its
    partial — the single leaf body of every executor (sequential,
    fork/join, process child)."""
    sink = terminal.sink(cancel)
    run_pipeline(
        spliterator, ops, sink, config, terminal.short_circuit, chunk_size
    )
    return terminal.partial(sink)


def evaluate_sequential(
    terminal: Terminal,
    spliterator: Spliterator,
    ops: list[Op],
    config: EngineConfig,
) -> Any:
    """Run ``terminal`` as one leaf over the whole source, in the caller."""
    return terminal.finish(run_leaf(terminal, spliterator, ops, config))
