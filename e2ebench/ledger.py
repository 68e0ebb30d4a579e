"""Per-layer cost ledger for the traced run, built from outside the engine.

Sources, and nothing else:

* the spans ``repro.obs.tracing`` already emits (``split``, ``leaf``,
  ``combine``, ``task``, ``idle``; ``fuse``/``function`` are covered by the
  wrappers and the call window);
* ``ForkJoinPool`` scheduling counters, ``ProcessExecutor`` metrics and
  ``ExecutionService.stats()`` deltas;
* ``Ticket`` timestamps (``submitted_ns``/``dispatched_ns``/``completed_ns``);
* timing wrappers installed while a traced block runs, around
  ``fusion.maybe_fuse`` (also rebound in ``parallel``, which imports it
  by name), ``adaptive.decide_threshold``, ``process_backend.split_to_leaves``
  and ``ProcessExecutor.run_leaves``.  ``ExecutionService.submit`` is
  timed where the benchmark calls it.

Worker processes emit no spans, so their time comes from the
``worker_batch_duration_ns`` histogram deltas around each ``run_leaves``.
"""

from __future__ import annotations

import importlib
import pickle
import time
from bisect import bisect_left
from collections import defaultdict

from repro.jplf.process_executor import ProcessExecutor
from repro.obs.tracer import Tracer, set_tracer
from stats import percentile

now = time.perf_counter_ns

#: Span kinds that are layer work (``idle`` and ``steal`` are not).
WORK_SPANS = ("task", "split", "leaf", "combine")

#: Per-layer metrics: name -> unit.  ``op`` is one terminal call, or one
#: job on ``serve_mix``.
PER_LAYER_UNITS = {
    "serve.admit_us.p50": "us",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p90": "ms",
    "serve.run_ms.p50": "ms",
    "serve.rejected": "count",
    "serve.degraded": "count",
    "plan.fuse_us": "us/op",
    "plan.fuse_calls": "count/op",
    "plan.threshold_us": "us/op",
    "split.ms": "ms/op",
    "split.count": "count/op",
    "forkjoin.task_self_ms": "ms/op",
    "forkjoin.steals": "count/op",
    "forkjoin.idle_ms": "ms/op",
    "process.scatter_ms": "ms/op",
    "process.child_busy_ms": "ms/op",
    "process.payload_bytes": "B/op",
    "process.result_bytes": "B/op",
    "process.leaves": "count/op",
    "leaf.busy_ms": "ms/op",
    "leaf.ns_per_elem": "ns",
    "combine.ms": "ms/op",
    "combine.count": "count/op",
    "finish.ms": "ms/op",
    "trace.coverage_frac": "frac",
    "trace.overhead_x": "x",
}


def merge(intervals) -> list[tuple[int, int]]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    out: list[list[int]] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1][1] = end
        else:
            out.append([start, end])
    return [(s, e) for s, e in out]


def covered(intervals, lo: int, hi: int) -> int:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0
    for start, end in merge(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    ):
        total += end - start
    return total


def _batch_ns_by_worker(executor: ProcessExecutor) -> dict[str, float]:
    return {
        entry["labels"]["worker"]: entry["sum"]
        for entry in executor.metrics.collect()
        if entry["name"] == "worker_batch_duration_ns"
    }


class Ledger:
    """Accumulates per-layer time over the traced calls or jobs of a run.

    ``activate()``/``deactivate()`` bracket one traced block; the
    benchmark loop reports each traced call (``account_call``) or each
    block's settled jobs (``account_jobs``).
    """

    def __init__(self, pool=None, service=None) -> None:
        self.pool = pool
        self.service = service
        self.tracer = Tracer(capacity=1 << 20)
        self.records: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.window_ns = 0
        self.covered_ns = 0
        self.admit_ns: list[int] = []
        self.queue_ns: list[int] = []
        self.run_ns: list[int] = []
        self._restore: list[tuple] = []
        self._marks: dict[str, int] = {}

    # -- wrappers ---------------------------------------------------------- #

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _install(self) -> None:
        fusion = importlib.import_module("repro.streams.fusion")
        parallel = importlib.import_module("repro.streams.parallel")
        adaptive = importlib.import_module("repro.streams.adaptive")
        backend = importlib.import_module("repro.streams.process_backend")
        records = self.records

        def timed(kind, fn):
            def wrapper(*args, **kwargs):
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    records.append((kind, start, now(), None))
            return wrapper

        fuse = timed("fuse", fusion.maybe_fuse)
        self._patch(fusion, "maybe_fuse", fuse)
        self._patch(parallel, "maybe_fuse", fuse)
        self._patch(adaptive, "decide_threshold",
                    timed("threshold", adaptive.decide_threshold))

        split_to_leaves = backend.split_to_leaves

        def split_wrapper(spliterator, target_size):
            start = now()
            leaves = split_to_leaves(spliterator, target_size)
            end = now()
            size = sum(max(leaf.estimate_size(), 0) for leaf in leaves)
            records.append(("split_to_leaves", start, end, (len(leaves), size)))
            return leaves

        self._patch(backend, "split_to_leaves", split_wrapper)

        run_leaves = ProcessExecutor.run_leaves

        def run_leaves_wrapper(executor, runner, payloads, **kwargs):
            payload_bytes = len(pickle.dumps(payloads))
            before = _batch_ns_by_worker(executor)
            start = now()
            results = run_leaves(executor, runner, payloads, **kwargs)
            end = now()
            after = _batch_ns_by_worker(executor)
            busy = [ns - before.get(pid, 0) for pid, ns in after.items()]
            result_bytes = len(pickle.dumps(results))
            records.append((
                "run_leaves", start, end,
                (sum(busy), max(busy, default=0), payload_bytes,
                 result_bytes, len(payloads)),
            ))
            return results

        self._patch(ProcessExecutor, "run_leaves", run_leaves_wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- blocks ------------------------------------------------------------ #

    def _counters(self) -> dict[str, int]:
        marks = {}
        if self.pool is not None:
            marks["steals"] = self.pool.scheduling_snapshot()["steals"]
        if self.service is not None:
            tenants = self.service.stats()["tenants"].values()
            marks["rejected"] = sum(t["rejected"] for t in tenants)
            marks["degraded"] = sum(t["degraded"] for t in tenants)
        return marks

    def activate(self) -> None:
        self.tracer.clear()
        self.records.clear()
        self._install()
        self._marks = self._counters()
        set_tracer(self.tracer)

    def deactivate(self) -> None:
        set_tracer(None)
        self._uninstall()
        for key, value in self._counters().items():
            self.totals[key] += value - self._marks.get(key, 0)

    def _drain(self):
        spans = self.tracer.spans()
        self.tracer.clear()
        # Cleared in place: the installed wrappers append to this list.
        records = self.records[:]
        self.records.clear()
        return spans, records

    # -- accounting -------------------------------------------------------- #

    def _layers(self, spans, records, clip_idle=None) -> list[tuple[int, int]]:
        """Add span and record totals; return the layer work intervals."""
        t = self.totals
        tasks: dict[int, list] = defaultdict(list)
        inner_ns = 0
        work: list[tuple[int, int]] = []
        for span in spans:
            kind = span.kind
            if kind == "idle":
                lo, hi = span.start_ns, span.end_ns
                if clip_idle is not None:
                    lo, hi = max(lo, clip_idle[0]), min(hi, clip_idle[1])
                t["idle_ns"] += max(hi - lo, 0)
                continue
            if kind not in WORK_SPANS:
                continue
            work.append((span.start_ns, span.end_ns))
            duration = span.end_ns - span.start_ns
            if kind == "task":
                tasks[span.worker].append((span.start_ns, span.end_ns))
                continue
            inner_ns += duration
            t[kind + "_ns"] += duration
            t[kind + "_count"] += 1
            if kind == "leaf" and span.args:
                t["leaf_elems"] += span.args.get("size", 0)
        for intervals in tasks.values():
            t["task_union_ns"] += sum(e - s for s, e in merge(intervals))
        t["task_inner_ns"] += inner_ns
        for kind, start, end, info in records:
            work.append((start, end))
            duration = end - start
            if kind == "fuse":
                t["fuse_ns"] += duration
                t["fuse_calls"] += 1
            elif kind == "threshold":
                t["threshold_ns"] += duration
            elif kind == "split_to_leaves":
                leaves, size = info
                t["split_ns"] += duration
                t["split_count"] += max(leaves - 1, 0)
                t["leaf_elems"] += size
            elif kind == "run_leaves":
                busy, busiest, payload_bytes, result_bytes, leaves = info
                t["child_busy_ns"] += busy
                t["scatter_ns"] += max(duration - busiest, 0)
                t["payload_bytes"] += payload_bytes
                t["result_bytes"] += result_bytes
                t["process_leaves"] += leaves
        return work

    def account_call(self, start: int, end: int) -> None:
        """One synchronous terminal call ran in ``[start, end]``."""
        spans, records = self._drain()
        work = self._layers(spans, records, clip_idle=(start, end))
        inside = [e for s, e in work if s < end]
        last = min(max(inside, default=end), end)
        self.totals["finish_ns"] += end - last
        work.append((last, end))
        self.ops += 1
        self.window_ns += end - start
        self.covered_ns += covered(work, start, end)

    def account_jobs(self, jobs) -> None:
        """The settled jobs of one traced ``serve_mix`` block.

        A job's window runs from the generator's ``submit`` call to its
        ticket's completion.  It is covered by its own admission and queue
        intervals and by any layer work inside its run interval; forkjoin
        and process work of jobs running alongside counts too, since they
        share the pool.
        """
        spans, records = self._drain()
        work = merge(self._layers(spans, records))
        starts = [s for s, _ in work]
        for job in jobs:
            ticket = job.ticket
            if ticket.dispatched_ns is None:  # shed or cancelled while queued
                continue
            self.admit_ns.append(job.admitted_ns - job.start_ns)
            self.queue_ns.append(ticket.dispatched_ns - ticket.submitted_ns)
            self.run_ns.append(ticket.completed_ns - ticket.dispatched_ns)
            lo, hi = job.start_ns, ticket.completed_ns
            first = max(bisect_left(starts, ticket.dispatched_ns) - 1, 0)
            own = [(lo, job.admitted_ns), (ticket.submitted_ns, ticket.dispatched_ns)]
            for start, end in work[first:]:
                if start >= hi:
                    break
                if end > ticket.dispatched_ns:
                    own.append((max(start, ticket.dispatched_ns), end))
            self.window_ns += hi - lo
            self.covered_ns += covered(own, lo, hi)
        self.ops += len(jobs)

    # -- report ------------------------------------------------------------ #

    def metrics(self, traced_p50_ms: float, untraced_p50_ms: float) -> dict:
        t = self.totals
        ops = max(self.ops, 1)
        leaf_ns = t["leaf_ns"] + t["child_busy_ns"]

        def p(values, q, scale):
            return percentile(values, q) / scale if values else 0.0

        values = {
            "serve.admit_us.p50": p(self.admit_ns, 0.5, 1e3),
            "serve.queue_wait_ms.p50": p(self.queue_ns, 0.5, 1e6),
            "serve.queue_wait_ms.p90": p(self.queue_ns, 0.9, 1e6),
            "serve.run_ms.p50": p(self.run_ns, 0.5, 1e6),
            "serve.rejected": t["rejected"],
            "serve.degraded": t["degraded"],
            "plan.fuse_us": t["fuse_ns"] / ops / 1e3,
            "plan.fuse_calls": t["fuse_calls"] / ops,
            "plan.threshold_us": t["threshold_ns"] / ops / 1e3,
            "split.ms": t["split_ns"] / ops / 1e6,
            "split.count": t["split_count"] / ops,
            "forkjoin.task_self_ms": max(
                t["task_union_ns"] - t["task_inner_ns"], 0
            ) / ops / 1e6,
            "forkjoin.steals": t["steals"] / ops,
            "forkjoin.idle_ms": t["idle_ns"] / ops / 1e6,
            "process.scatter_ms": t["scatter_ns"] / ops / 1e6,
            "process.child_busy_ms": t["child_busy_ns"] / ops / 1e6,
            "process.payload_bytes": t["payload_bytes"] / ops,
            "process.result_bytes": t["result_bytes"] / ops,
            "process.leaves": t["process_leaves"] / ops,
            "leaf.busy_ms": leaf_ns / ops / 1e6,
            "leaf.ns_per_elem": leaf_ns / t["leaf_elems"] if t["leaf_elems"] else 0.0,
            "combine.ms": t["combine_ns"] / ops / 1e6,
            "combine.count": t["combine_count"] / ops,
            "finish.ms": t["finish_ns"] / ops / 1e6,
            "trace.coverage_frac": (
                self.covered_ns / self.window_ns if self.window_ns else 0.0
            ),
            "trace.overhead_x": (
                traced_p50_ms / untraced_p50_ms if untraced_p50_ms else 0.0
            ),
        }
        return {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
