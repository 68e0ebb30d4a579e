"""Per-terminal fixed cost: the engine against a hand loop on tiny inputs.

On an 8-element input a terminal's own work is a few microseconds, so
what a call costs beyond the hand-written loop is the engine's fixed
per-terminal cost: planning, fusion, sink wiring and dispatch.  The four
shapes are the ``serve_mix`` tenants of ``e2ebench/workloads.py``, built
the way ``ExecutionService`` builds a job's stream (a parallel stream on
the named backend, on a fork/join pool for ``threads``):

* ``fused/threads``       — ``map.filter.reduce`` on the thread backend;
* ``counted/threads``     — ``map.map.limit.to_list``;
* ``distinct/sequential`` — ``map.distinct.count``;
* ``shipped/process``     — ``map.filter.reduce`` on the process backend
  (a warm one-leaf plan runs in the caller, so no worker is involved).

Each round times one engine call and one hand-loop call of every shape,
alternating the two, after a warm-up that lets the split policy learn
each shape.  Prints the p50 in µs per terminal.  Not a gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_fixed_cost.py [--calls 2000] [--size 8]
"""

from __future__ import annotations

import argparse
import operator
import statistics
import sys
import time

from repro.forkjoin.pool import ForkJoinPool
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


#: (shape, pipeline, backend, hand-written loop)
SHAPES = (
    ("fused/threads", fused_reduce, "threads", loop_fused_reduce),
    ("counted/threads", counted_limit, "threads", loop_counted_limit),
    ("distinct/sequential", distinct_count, "sequential", loop_distinct_count),
    ("shipped/process", fused_reduce, "process", loop_fused_reduce),
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
