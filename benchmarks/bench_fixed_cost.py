"""Per-terminal fixed cost: the engine against a hand loop on tiny inputs.

On an 8-element input a terminal's own work is a few microseconds, so
what a call costs beyond the hand-written loop is the engine's fixed
per-terminal cost: planning, fusion, sink wiring and dispatch.  The first
four shapes are the ``serve_mix`` tenants of ``e2ebench/workloads.py``, built
the way ``ExecutionService`` builds a job's stream (a parallel stream on
the named backend, on a fork/join pool for ``threads``):

* ``fused/threads``       — ``map.filter.reduce`` on the thread backend;
* ``counted/threads``     — ``map.map.limit.to_list``;
* ``distinct/sequential`` — ``map.distinct.count``;
* ``shipped/process``     — ``map.filter.reduce`` on the process backend
  (a warm one-leaf plan runs in the caller, so no worker is involved);
* ``filter/sequential``   — a lone ``filter.to_list``: one stage alone,
  so what wrapping a single op's sink costs per terminal shows;
* ``lambda/threads``      — ``map.to_list`` with an inline lambda, a new
  function object every call, as stream code is usually written;
* ``reused/threads``      — its twin with one module-level callable, so
  the gap between the two is what a fresh callable costs.

Each round times one engine call and one hand-loop call of every shape,
alternating the two, after a warm-up that lets the split policy learn
each shape.  Prints the p50 in µs per terminal.

A second table prices the service around a job: a near no-op job
(``count()`` over the same input, thread backend) timed ``submit`` →
``result`` through an ``ExecutionService`` with two runners, one job at
a time, against the same pipeline called directly on a stream built the
way the service builds it.  Blocks of the two alternate; per job it
reports the wall-time p50 and the process's user and system CPU
(``getrusage`` deltas over all threads, divided by the jobs).  Not a
gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_fixed_cost.py [--calls 2000] [--size 8]
"""

from __future__ import annotations

import argparse
import operator
import resource
import statistics
import sys
import time

from repro.forkjoin.pool import ForkJoinPool
from repro.serve import ExecutionService
from repro.streams import process_backend
from repro.streams.stream import Stream

LIMIT = 100
MOD = 4093


def mix(v: int) -> int:
    return (v * 7 + 3) % 1009


def odd(v: int) -> bool:
    return v % 2 == 1


def scale(v: int) -> int:
    return v * 5 - 2


def bucket(v: int) -> int:
    return v % MOD


def fused_reduce(stream):
    return stream.map(mix).filter(odd).reduce(0, operator.add)


def counted_limit(stream):
    return stream.map(mix).map(scale).limit(LIMIT).to_list()


def distinct_count(stream):
    return stream.map(bucket).distinct().count()


def lone_filter(stream):
    return stream.filter(odd).to_list()


def lambda_map(stream):
    return stream.map(lambda v: v * 5 - 2).to_list()


def reused_map(stream):
    return stream.map(scale).to_list()


def loop_fused_reduce(values):
    total = 0
    for v in values:
        w = mix(v)
        if odd(w):
            total += w
    return total


def loop_counted_limit(values):
    out = []
    for v in values:
        if len(out) == LIMIT:
            break
        out.append(scale(mix(v)))
    return out


def loop_distinct_count(values):
    return len({bucket(v) for v in values})


def loop_lone_filter(values):
    return [v for v in values if odd(v)]


def loop_map(values):
    return [scale(v) for v in values]


#: (shape, pipeline, backend, hand-written loop)
SHAPES = (
    ("fused/threads", fused_reduce, "threads", loop_fused_reduce),
    ("counted/threads", counted_limit, "threads", loop_counted_limit),
    ("distinct/sequential", distinct_count, "sequential", loop_distinct_count),
    ("shipped/process", fused_reduce, "process", loop_fused_reduce),
    ("filter/sequential", lone_filter, "sequential", loop_lone_filter),
    ("lambda/threads", lambda_map, "threads", loop_map),
    ("reused/threads", reused_map, "threads", loop_map),
)


def measure(calls: int, size: int, warmup: int = 50) -> list[dict]:
    values = [(i * 7919) % 100_003 for i in range(size)]
    rows = []
    with ForkJoinPool(parallelism=2, name="fixed-cost") as pool:

        def engine_call(pipeline, backend):
            stream = Stream.of_iterable(values).parallel().with_backend(backend)
            if backend == "threads":
                stream = stream.with_pool(pool)
            return pipeline(stream)

        try:
            for name, pipeline, backend, loop in SHAPES:
                expected = loop(values)
                for _ in range(warmup):
                    if engine_call(pipeline, backend) != expected:
                        raise SystemExit(f"{name}: engine result differs")
                engine_ns, loop_ns = [], []
                for _ in range(calls):
                    start = time.perf_counter_ns()
                    engine_call(pipeline, backend)
                    engine_ns.append(time.perf_counter_ns() - start)
                    start = time.perf_counter_ns()
                    loop(values)
                    loop_ns.append(time.perf_counter_ns() - start)
                engine_us = statistics.median(engine_ns) / 1e3
                loop_us = statistics.median(loop_ns) / 1e3
                rows.append({
                    "shape": name, "engine_us": engine_us, "loop_us": loop_us,
                })
        finally:
            process_backend.shutdown_shared_executor()
    return rows


def count(stream):
    return stream.count()


def measure_service(calls: int, size: int, blocks: int = 10,
                    warmup: int = 50) -> list[dict]:
    """Wall p50 and CPU per no-op job, through the service and direct."""
    values = [(i * 7919) % 100_003 for i in range(size)]
    per_block = max(calls // blocks, 1)
    with ForkJoinPool(parallelism=2, name="fixed-cost-serve") as pool:
        service = ExecutionService(max_workers=2, pool=pool)
        service.register_dataset("data", values)
        service.register_tenant("t")

        def via_service():
            return service.submit("t", "data", count).result(10.0)

        def direct():
            return count(
                Stream.of_iterable(values).parallel()
                .with_backend("threads").with_pool(pool)
            )

        paths = {"service": via_service, "direct": direct}
        wall = {name: [] for name in paths}
        user = dict.fromkeys(paths, 0.0)
        system = dict.fromkeys(paths, 0.0)
        try:
            for name, call in paths.items():
                for _ in range(warmup):
                    if call() != size:
                        raise SystemExit(f"{name}: wrong count")
            for _ in range(blocks):
                for name, call in paths.items():
                    before = resource.getrusage(resource.RUSAGE_SELF)
                    for _ in range(per_block):
                        start = time.perf_counter_ns()
                        call()
                        wall[name].append(time.perf_counter_ns() - start)
                    after = resource.getrusage(resource.RUSAGE_SELF)
                    user[name] += after.ru_utime - before.ru_utime
                    system[name] += after.ru_stime - before.ru_stime
        finally:
            service.shutdown()
    jobs = per_block * blocks
    return [
        {
            "path": name,
            "wall_us": statistics.median(wall[name]) / 1e3,
            "user_us": user[name] / jobs * 1e6,
            "sys_us": system[name] / jobs * 1e6,
        }
        for name in paths
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=2000,
                        help="timed engine/loop call pairs per shape")
    parser.add_argument("--size", type=int, default=8,
                        help="input elements per call")
    args = parser.parse_args(argv)
    rows = measure(args.calls, args.size)
    print(f"p50 µs per terminal, {args.size}-element input, "
          f"{args.calls} alternating calls")
    print(f"{'shape':>20}  {'engine':>8}  {'loop':>7}  {'engine - loop':>13}")
    for row in rows:
        print(f"{row['shape']:>20}  {row['engine_us']:8.1f}  "
              f"{row['loop_us']:7.2f}  {row['engine_us'] - row['loop_us']:13.1f}")
    rows = measure_service(args.calls, args.size)
    print(f"\nper no-op job (count of {args.size} elements), "
          f"{args.calls} calls in alternating blocks")
    print(f"{'path':>20}  {'wall p50 µs':>11}  {'user µs':>8}  {'sys µs':>7}")
    for row in rows:
        print(f"{row['path']:>20}  {row['wall_us']:11.1f}  "
              f"{row['user_us']:8.1f}  {row['sys_us']:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
