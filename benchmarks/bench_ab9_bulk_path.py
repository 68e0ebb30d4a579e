"""AB9 — per-element vs chunked bulk execution (the §V sublist fast path).

The chunked protocol (``Spliterator.next_chunk`` feeding
``Sink.accept_chunk``) replaces one Python call *per element per stage*
with one call per chunk per stage; the per-stage loops run at C speed
(``map``, comprehensions, ``list.extend``, ``functools.reduce``).  This
bench measures what that buys on the canonical pipelines, sequential and
parallel, and doubles as the parity gate for CI.

Two entry points:

* pytest-benchmark: ``pytest benchmarks/bench_ab9_bulk_path.py --benchmark-only``
  (one moderate size, both paths side by side);
* CLI: ``python benchmarks/bench_ab9_bulk_path.py [--smoke] [--out FILE]``
  sweeps sizes 2^16..2^22 (``--smoke``: 2^12..2^13), verifies chunked and
  per-element results are identical, writes a JSON report, and exits
  nonzero on any parity mismatch — ``make bench-smoke`` / the CI job run
  this.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.bench.harness import repeat_average
from repro.bench.workloads import random_integers
from repro.forkjoin import ForkJoinPool
from repro.streams import Stream, engine, stream_of

N_BENCH = 2**18


# --------------------------------------------------------------------------- #
# Workload definitions (shared by pytest-benchmark and the CLI sweep)
# --------------------------------------------------------------------------- #

def _wl_map_to_list(data, pool):
    return stream_of(data).map(lambda x: x + 1).to_list()


def _wl_filter_map_to_list(data, pool):
    return (stream_of(data)
            .filter(lambda x: x & 1 == 0)
            .map(lambda x: x * 3)
            .to_list())


def _wl_range_map_sum(data, pool):
    return Stream.range(0, len(data)).map(lambda x: x * 2).sum()


def _wl_ufunc_map_sum(data, pool):
    return stream_of(np.asarray(data)).map(np.square).sum()


def _wl_par_map_to_list(data, pool):
    return (stream_of(data).parallel().with_pool(pool)
            .map(lambda x: x + 1).to_list())


WORKLOADS = [
    ("map_to_list", _wl_map_to_list),
    ("filter_map_to_list", _wl_filter_map_to_list),
    ("range_map_sum", _wl_range_map_sum),
    ("ufunc_map_sum", _wl_ufunc_map_sum),
    ("par_map_to_list", _wl_par_map_to_list),
]


def _results_equal(a, b):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))
    return bool(a == b)


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def data():
    return random_integers(N_BENCH, seed=99)


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=8, name="ab9")
    yield p
    p.shutdown()


@pytest.mark.parametrize("name,fn", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def bench_ab9_element(benchmark, data, pool, name, fn):
    with engine(bulk=False):
        benchmark(lambda: fn(data, pool))


@pytest.mark.parametrize("name,fn", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def bench_ab9_chunked(benchmark, data, pool, name, fn):
    with engine(bulk=True):
        benchmark(lambda: fn(data, pool))


# --------------------------------------------------------------------------- #
# CLI sweep: parity gate + JSON report
# --------------------------------------------------------------------------- #

def run_sweep(sizes, runs, pool):
    """Measure every workload at every size in both modes.

    Returns (rows, parity_ok).  Timing is informational; parity is the
    hard gate.
    """
    rows = []
    parity_ok = True
    for size in sizes:
        data = random_integers(size, seed=99)
        for name, fn in WORKLOADS:
            with engine(bulk=True):
                chunked_result = fn(data, pool)
                chunked = repeat_average(lambda: fn(data, pool), runs=runs)
            with engine(bulk=False):
                element_result = fn(data, pool)
                element = repeat_average(lambda: fn(data, pool), runs=runs)
            parity = _results_equal(chunked_result, element_result)
            parity_ok &= parity
            rows.append({
                "workload": name,
                "size": size,
                "element_ms": round(element.mean_ms, 3),
                "chunked_ms": round(chunked.mean_ms, 3),
                "speedup": round(element.mean / chunked.mean, 2)
                if chunked.mean else None,
                "parity": parity,
            })
            flag = "" if parity else "  PARITY MISMATCH"
            print(f"{name:>20} n=2^{size.bit_length() - 1:<2} "
                  f"element {element.mean_ms:9.2f} ms   "
                  f"chunked {chunked.mean_ms:9.2f} ms   "
                  f"x{element.mean / chunked.mean:5.2f}{flag}")
    return rows, parity_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI (parity gate, timings "
                             "informational)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--runs", type=int, default=None,
                        help="timed runs per measurement")
    args = parser.parse_args(argv)

    sizes = [2**12, 2**13] if args.smoke else [2**16, 2**18, 2**20, 2**22]
    runs = args.runs if args.runs is not None else (2 if args.smoke else 3)

    pool = ForkJoinPool(parallelism=8, name="ab9-cli")
    try:
        rows, parity_ok = run_sweep(sizes, runs, pool)
    finally:
        pool.shutdown()

    report = {
        "bench": "ab9_bulk_path",
        "mode": "smoke" if args.smoke else "full",
        "runs": runs,
        "sizes": sizes,
        "parity_ok": parity_ok,
        "results": rows,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {args.out}]")

    if not parity_ok:
        print("FAIL: chunked and per-element results diverged", file=sys.stderr)
        return 1
    print("parity OK: chunked == per-element on every workload/size")
    return 0


if __name__ == "__main__":
    sys.exit(main())
