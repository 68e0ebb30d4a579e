"""Per-run pipeline profiling: stage attribution, leaf timing, reports.

The profiler answers "where did this stream's wall time go?" by wrapping
each op's sink in a counting/timing probe at terminal time, then folding
the measurements into one :class:`RunProfile`:

* per-stage **self time** and element/chunk counts (a probe measures the
  inclusive time of everything downstream of it; self time is the
  difference between adjacent probes);
* a **leaf-duration histogram** and **chunk-size distribution** across
  the run, plus counters for traversals, fused kernels, and which bulk
  path each traversal took;
* **pool deltas** (tasks executed, steals, idle wakeups) captured across
  the profiled region when a pool is attached.

Cost model — the same contract as :mod:`repro.faults`:

* **Disabled is free.**  Every hook site does
  ``profiler = current_profiler()`` followed by ``if profiler is None``
  — one module-global read, one identity check, nothing else.
* **Enabled is sampled.**  Probes are only installed on 1 in
  :data:`DEFAULT_PROFILE_SAMPLE` traversals (per-traversal, so parallel
  leaves are sampled independently); unsampled traversals still count
  toward the cheap aggregate counters.

This module deliberately imports nothing from :mod:`repro.streams` — the
probes duck-type the sink protocol (``begin`` / ``accept`` /
``accept_chunk`` / ``end`` / ``cancellation_requested``) so that
``repro.streams.ops`` can import the profiler without a cycle.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import Histogram
from repro.obs.tracer import _env_int

#: Default sampling rate: one traversal in N gets per-stage probes.
#: Override with ``REPRO_PROFILE_SAMPLE`` (1 = profile every traversal).
DEFAULT_PROFILE_SAMPLE = _env_int("REPRO_PROFILE_SAMPLE", 16)

_perf_ns = time.perf_counter_ns


class _Probe:
    """A counting/timing sink wrapper around one pipeline stage.

    Measures the *inclusive* time spent in its downstream chain: the
    probe in front of stage ``i`` times everything from stage ``i``
    through the terminal.  Self time per stage falls out as the
    difference between adjacent probes, which also cancels most of the
    probes' own overhead (each probe's clock calls are inside the
    enclosing probe's window on both sides).
    """

    __slots__ = ("downstream", "ns", "elements", "chunks", "chunk_hist")

    def __init__(self, downstream, chunk_hist: Histogram | None = None) -> None:
        self.downstream = downstream
        self.ns = 0
        self.elements = 0
        self.chunks = 0
        self.chunk_hist = chunk_hist

    def begin(self, size: int) -> None:
        self.downstream.begin(size)

    def accept(self, value) -> None:
        self.elements += 1
        start = _perf_ns()
        self.downstream.accept(value)
        self.ns += _perf_ns() - start

    def accept_chunk(self, chunk) -> None:
        self.elements += len(chunk)
        self.chunks += 1
        if self.chunk_hist is not None:
            self.chunk_hist.observe(len(chunk))
        start = _perf_ns()
        self.downstream.accept_chunk(chunk)
        self.ns += _perf_ns() - start

    def end(self) -> None:
        start = _perf_ns()
        self.downstream.end()
        self.ns += _perf_ns() - start

    def cancellation_requested(self) -> bool:
        return self.downstream.cancellation_requested()


def op_label(op) -> str:
    """A short stable label for an op: ``MapOp`` → ``map``; a fused run
    renders its stage kinds, e.g. ``fused(map|filter)``, and a one-stage
    kernel its one kind (``map``), as the op it compiles."""
    kinds = getattr(op, "kinds", None)
    if kinds is not None:
        return kinds[0] if len(kinds) == 1 else f"fused({'|'.join(kinds)})"
    name = type(op).__name__
    if name.endswith("Op"):
        name = name[:-2]
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _new_stage() -> dict:
    return {
        "elements": 0,
        "chunks": 0,
        "inclusive_ns": 0,
        "self_ns": 0,
        "traversals": 0,
    }


class RunProfile:
    """Aggregated measurements of every traversal inside one profiled
    region.  Thread-safe: parallel leaves record concurrently."""

    def __init__(self, sample_rate: int) -> None:
        self._lock = threading.Lock()
        self.sample_rate = sample_rate
        #: ``{"<position>:<label>": {elements, chunks, inclusive_ns,
        #: self_ns, traversals}}`` — keyed by position so two ``map``
        #: stages stay distinct.
        self.stages: dict[str, dict] = {}
        self.leaf_durations = Histogram("leaf_duration_ns")
        self.chunk_sizes = Histogram("chunk_size")
        #: Which mode each traversal took (mirrors the process-wide
        #: ``stream_traversals`` counter, per profiled region).
        self.modes = {"chunked": 0, "element": 0, "short_circuit": 0}
        self.traversals = 0
        self.sampled_traversals = 0
        self.fused_kernels = 0
        self.leaves = 0
        self.pool_stats: dict[str, Any] = {}
        self._pool = None
        self._pool_before: dict | None = None

    # -- recording (called by the engine) ---------------------------------- #

    def record_traversal(
        self,
        mode: str,
        probes: "list[_Probe] | None",
        labels: "list[str] | None",
        fused_kernels: int = 0,
    ) -> None:
        """Fold one finished traversal into the profile.

        ``probes``/``labels`` are None for unsampled traversals — those
        still count toward the mode/traversal/kernel aggregates.
        """
        with self._lock:
            self.traversals += 1
            self.modes[mode] = self.modes.get(mode, 0) + 1
            self.fused_kernels += fused_kernels
            if probes is None or labels is None:
                return
            self.sampled_traversals += 1
            count = len(probes)
            for i, (probe, label) in enumerate(zip(probes, labels)):
                key = f"{i}:{label}"
                stage = self.stages.get(key)
                if stage is None:
                    stage = self.stages[key] = _new_stage()
                # Self time: my inclusive window minus the next probe's.
                downstream_ns = probes[i + 1].ns if i + 1 < count else 0
                stage["elements"] += probe.elements
                stage["chunks"] += probe.chunks
                stage["inclusive_ns"] += probe.ns
                stage["self_ns"] += max(probe.ns - downstream_ns, 0)
                stage["traversals"] += 1

    def record_leaf(self, duration_ns: int, size: int) -> None:
        with self._lock:
            self.leaves += 1
        # Histogram has its own lock; keep the hot section minimal.
        self.leaf_durations.observe(duration_ns)

    def attach_pool(self, pool) -> None:
        """Capture ``pool.stats()`` now so :meth:`finish` can report the
        delta across the profiled region.  First pool wins; re-attaching
        the same pool is a no-op."""
        with self._lock:
            if self._pool is not None:
                return
            self._pool = pool
            self._pool_before = pool.stats()

    def finish(self) -> None:
        """Compute pool deltas; called when the profiled region closes."""
        with self._lock:
            pool, before = self._pool, self._pool_before
        if pool is None or before is None:
            return
        after = pool.stats()
        executed = after["tasks_executed"] - before["tasks_executed"]
        steals = after["steals"] - before["steals"]
        stats = {
            "pool": getattr(pool, "name", "?"),
            "parallelism": after.get("parallelism", len(after["per_worker"])),
            "tasks_executed": executed,
            "steals": steals,
            "idle_wakeups": after["idle_wakeups"] - before["idle_wakeups"],
            "steal_ratio": steals / executed if executed > 0 else 0.0,
        }
        with self._lock:
            self.pool_stats = stats

    # -- reporting ---------------------------------------------------------- #

    def hot_stages(self, limit: int | None = None) -> list[tuple[str, dict]]:
        """Stages ranked by self time, hottest first."""
        with self._lock:
            ranked = sorted(
                self.stages.items(), key=lambda kv: kv[1]["self_ns"], reverse=True
            )
        return ranked[:limit] if limit is not None else ranked

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "sample_rate": self.sample_rate,
                "traversals": self.traversals,
                "sampled_traversals": self.sampled_traversals,
                "modes": dict(self.modes),
                "fused_kernels": self.fused_kernels,
                "leaves": self.leaves,
                "stages": {k: dict(v) for k, v in self.stages.items()},
                "leaf_duration_ns": {
                    "count": self.leaf_durations.count,
                    "sum": self.leaf_durations.total,
                    "p50_bound": self.leaf_durations.quantile_bound(0.5),
                    "p99_bound": self.leaf_durations.quantile_bound(0.99),
                },
                "chunk_sizes": {
                    "count": self.chunk_sizes.count,
                    "p50_bound": self.chunk_sizes.quantile_bound(0.5),
                },
                "pool": dict(self.pool_stats),
            }

    def report(self) -> str:
        """Human-readable profile summary (the Gantt's cost counterpart)."""
        d = self.to_dict()
        lines = [
            f"profile: {d['traversals']} traversal(s), "
            f"{d['sampled_traversals']} sampled (1/{d['sample_rate']})",
            f"  modes: chunked={d['modes']['chunked']} "
            f"element={d['modes']['element']} "
            f"short_circuit={d['modes']['short_circuit']}  "
            f"fused_kernels={d['fused_kernels']}",
        ]
        if d["leaves"]:
            leaf = d["leaf_duration_ns"]
            lines.append(
                f"  leaves: {d['leaves']}  "
                f"p50<={leaf['p50_bound']:.0f}ns p99<={leaf['p99_bound']:.0f}ns"
            )
        if d["chunk_sizes"]["count"]:
            lines.append(
                f"  chunks: {d['chunk_sizes']['count']}  "
                f"p50<={d['chunk_sizes']['p50_bound']:.0f}"
            )
        if d["pool"]:
            p = d["pool"]
            lines.append(
                f"  pool {p['pool']!r} (par={p['parallelism']}): "
                f"tasks={p['tasks_executed']} steals={p['steals']} "
                f"(ratio={p['steal_ratio']:.2f}) "
                f"idle_wakeups={p['idle_wakeups']}"
            )
        hot = self.hot_stages()
        if hot:
            total_self = sum(s["self_ns"] for _, s in hot) or 1
            lines.append("  hot stages (self time):")
            for key, stage in hot:
                share = stage["self_ns"] / total_self
                lines.append(
                    f"    {key:<28} {stage['self_ns'] / 1e6:9.3f}ms "
                    f"{share:6.1%}  elements={stage['elements']}"
                    f" chunks={stage['chunks']}"
                )
        return "\n".join(lines)


class Profiler:
    """The active profiling session: sampling decisions + probe factory."""

    __slots__ = ("profile", "sample_rate", "_ticks")

    def __init__(self, sample_rate: int | None = None) -> None:
        if sample_rate is None:
            sample_rate = DEFAULT_PROFILE_SAMPLE
        if sample_rate < 1:
            sample_rate = 1
        self.sample_rate = sample_rate
        self.profile = RunProfile(sample_rate)
        # itertools.count consumed under the GIL is atomic enough for a
        # sampling decision; tick 0 samples, so the first traversal of a
        # profiled region is always captured.
        self._ticks = itertools.count()

    def sample(self) -> bool:
        """Should the next traversal get per-stage probes?"""
        return next(self._ticks) % self.sample_rate == 0

    def instrument(self, ops, terminal):
        """Wrap the op chain's sinks in probes.

        Returns ``(sink, probes, labels)`` where ``sink`` replaces the
        result of ``wrap_ops(ops, terminal)`` and ``probes``/``labels``
        are ordered outermost (source side) first — pass them to
        :meth:`RunProfile.record_traversal` after the traversal.
        """
        chunk_hist = self.profile.chunk_sizes
        sink = _Probe(terminal)
        probes = [sink]
        labels = [f"terminal:{type(terminal).__name__}"]
        for op in reversed(ops):
            sink = _Probe(op.wrap_sink(sink))
            probes.append(sink)
            labels.append(op_label(op))
        probes.reverse()
        labels.reverse()
        # Only the outermost probe sees source-sized chunks.
        probes[0].chunk_hist = chunk_hist
        return sink, probes, labels


# -- the active profiler ---------------------------------------------------- #

_active: Profiler | None = None


def current_profiler() -> Profiler | None:
    """The installed profiler, or None (the zero-cost disabled path)."""
    return _active


def set_profiler(profiler: Profiler | None) -> Profiler | None:
    """Install ``profiler`` process-wide; ``None`` disables profiling.

    Returns the previously installed profiler so callers can restore it.
    """
    global _active
    previous = _active
    _active = profiler
    return previous


@contextmanager
def profiled(
    sample: int | None = None,
    pool=None,
    profiler: Profiler | None = None,
) -> Iterator[RunProfile]:
    """Profile every stream traversal in the ``with`` block.

    >>> with profiled() as prof:
    ...     Stream.range(0, 1 << 16).map(f).filter(g).sum()
    >>> print(prof.report())

    ``pool`` pre-attaches a fork/join pool so its counter deltas appear
    in the profile even if no parallel terminal runs inside the block.
    """
    active = profiler if profiler is not None else Profiler(sample)
    if pool is not None:
        active.profile.attach_pool(pool)
    previous = _active
    set_profiler(active)
    try:
        yield active.profile
    finally:
        set_profiler(previous)
        active.profile.finish()
