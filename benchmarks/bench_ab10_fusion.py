"""AB10 — stage fusion vs the per-stage sink chain (megamorphic dispatch).

AB9 removed the per-*element* interpretation overhead; what remains is
per-*stage* overhead: one sink dispatch plus one intermediate list per
stage per chunk.  Stage fusion (:mod:`repro.streams.fusion`) collapses
each run of adjacent fusible ops into one compiled kernel that crosses
the run in a single pass — this bench measures what that buys on deep
pipelines, sequential and parallel, with the bulk path engaged on both
sides (fusion *stacks* with AB9, it does not replace it).

The unfused side runs under ``engine(fusion=False)``: no merge across
stages, so every stage is its own one-stage kernel, one sink dispatch
and one list per stage per chunk, as in the Java sink chain.  An
unmerged ``limit`` is polled per element and an unmerged ``skip`` takes
one element at a time, which is what the counted rows' speedups measure.

Two entry points:

* pytest-benchmark: ``pytest benchmarks/bench_ab10_fusion.py --benchmark-only``
  (one moderate size, fused and unfused side by side);
* CLI: ``python benchmarks/bench_ab10_fusion.py [--smoke] [--out FILE]``
  sweeps sizes 2^16..2^20 (``--smoke``: 2^12..2^13), verifies fused and
  unfused results are identical on every workload — sequential *and*
  parallel — writes a JSON report with per-measurement medians, and
  exits nonzero on any parity mismatch.  ``make bench-regression`` / the
  CI ``bench-regression`` job run this and compare the medians against
  the committed baseline ``benchmarks/results/BENCH_fusion.json``.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import sys

import numpy as np
import pytest

from repro.bench.harness import repeat_average
from repro.bench.workloads import random_integers
from repro.forkjoin import ForkJoinPool
from repro.obs.metrics import global_registry
from repro.streams import engine, stream_of

N_BENCH = 2**18


# --------------------------------------------------------------------------- #
# Workload definitions (shared by pytest-benchmark and the CLI sweep).
# Each takes (data, pool, parallel) and builds the same pipeline on a
# sequential or fork/join source, so the sweep can pin fused/unfused
# parity on both engines.
# --------------------------------------------------------------------------- #

def _source(data, pool, parallel, backend=None):
    stream = stream_of(data)
    if not parallel:
        return stream
    stream = stream.parallel()
    if backend is not None:
        return stream.with_backend(backend)
    return stream.with_pool(pool)


# Module-level (picklable) stages for the workloads whose parity leg also
# runs on ``backend='process'`` — lambdas cannot cross the pickle boundary.

def _pk_add1(x):
    return x + 1


def _pk_mul3(x):
    return x * 3


def _pk_xor7(x):
    return x ^ 7


def _pk_keep(x):
    return x & 7 != 0


def _pk_combine(a, b):
    return a * 2 - b


def _wl_map4_to_list(data, pool, parallel=False):
    return (_source(data, pool, parallel)
            .map(lambda x: x + 1)
            .map(lambda x: x * 3)
            .map(lambda x: x - 2)
            .map(lambda x: x ^ 7)
            .to_list())


def _wl_map6_to_list(data, pool, parallel=False):
    return (_source(data, pool, parallel)
            .map(lambda x: x + 1)
            .map(lambda x: x * 3)
            .map(lambda x: x - 2)
            .map(lambda x: x ^ 7)
            .map(lambda x: x | 1)
            .map(lambda x: x - 9)
            .to_list())


def _wl_map_filter_map_map_sum(data, pool, parallel=False):
    return (_source(data, pool, parallel)
            .map(lambda x: x * 5)
            .filter(lambda x: x & 7 != 0)
            .map(lambda x: x - 3)
            .map(lambda x: x & 0xFFFF)
            .sum())


def _wl_flat_map_mixed_to_list(data, pool, parallel=False):
    return (_source(data, pool, parallel)
            .map(lambda x: x & 0xFF)
            .flat_map(lambda x: (x, -x) if x & 15 == 0 else (x,))
            .filter(lambda x: x != 3)
            .map(lambda x: x * 2)
            .to_list())


def _wl_map4_limit(data, pool, parallel=False):
    # Short-circuiting pipeline.  Unfused it runs per-element; fused, the
    # ``limit`` compiles into a counted-window kernel and the whole chain
    # rides the chunked path, so the win here is per-element dispatch
    # *plus* chunking — well past the ~2x of pure stage fusion.
    return (_source(data, pool, parallel)
            .map(lambda x: x + 1)
            .map(lambda x: x * 3)
            .map(lambda x: x - 2)
            .map(lambda x: x ^ 7)
            .limit(max(len(data) // 2, 1))
            .to_list())


def _wl_counted_window(data, pool, parallel=False, backend=None):
    # skip+limit over pure maps -> counted-window kernel: both budgets
    # hoist to one source-index window sliced off each chunk.
    n = len(data)
    return (_source(data, pool, parallel, backend)
            .map(_pk_add1)
            .map(_pk_mul3)
            .skip(n // 4)
            .limit(max(n // 2, 1))
            .to_list())


def _wl_counted_loop_sum(data, pool, parallel=False, backend=None):
    # filter under limit -> loop kernel (statement loop with an
    # exact budget cut); on ``backend='process'`` a satisfied budget also
    # aborts sibling leaves through the shared cancel flag.  Reduce with
    # ``operator.add`` (not ``sum()``) so the terminal stays picklable.
    return (_source(data, pool, parallel, backend)
            .map(_pk_add1)
            .filter(_pk_keep)
            .map(_pk_xor7)
            .limit(max(len(data) // 2, 1))
            .reduce(0, operator.add))


def _wl_zip_with_to_list(data, pool, parallel=False, backend=None):
    # Two fused sides drained in lockstep by one two-cursor kernel.
    left = (_source(data, pool, parallel, backend)
            .map(_pk_add1)
            .map(_pk_mul3))
    right = stream_of(data).map(_pk_xor7).filter(_pk_keep)
    return left.zip_with(right, _pk_combine).to_list()


def _wl_ufunc_chain_sum(data, pool, parallel=False):
    return (_source(np.asarray(data), pool, parallel)
            .map(np.square)
            .map(np.abs)
            .map(np.sqrt)
            .sum())


def _wl_par_map4_to_list(data, pool, parallel=True):
    return _wl_map4_to_list(data, pool, parallel=True)


WORKLOADS = [
    ("map4_to_list", _wl_map4_to_list),
    ("map6_to_list", _wl_map6_to_list),
    ("map_filter_map_map_sum", _wl_map_filter_map_map_sum),
    ("flat_map_mixed_to_list", _wl_flat_map_mixed_to_list),
    ("map4_limit", _wl_map4_limit),
    ("counted_window", _wl_counted_window),
    ("counted_loop_sum", _wl_counted_loop_sum),
    ("zip_with_to_list", _wl_zip_with_to_list),
    ("ufunc_chain_sum", _wl_ufunc_chain_sum),
    ("par_map4_to_list", _wl_par_map4_to_list),
]

#: Workloads whose timed leg already runs on the fork/join pool.
PARALLEL_WORKLOADS = {"par_map4_to_list"}

#: Workloads (picklable stages only) whose parity leg additionally runs
#: on both parallel backends — fork/join threads *and* multiprocess.
BACKEND_PARITY_WORKLOADS = {"counted_window", "counted_loop_sum"}


def _results_equal(a, b):
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))
    return bool(a == b)


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def data():
    return random_integers(N_BENCH, seed=1234)


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=8, name="ab10")
    yield p
    p.shutdown()


@pytest.mark.parametrize("name,fn", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def bench_ab10_unfused(benchmark, data, pool, name, fn):
    with engine(fusion=False):
        benchmark(lambda: fn(data, pool))


@pytest.mark.parametrize("name,fn", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def bench_ab10_fused(benchmark, data, pool, name, fn):
    with engine(fusion=True):
        benchmark(lambda: fn(data, pool))


# --------------------------------------------------------------------------- #
# CLI sweep: parity gate + JSON report with medians
# --------------------------------------------------------------------------- #

def run_sweep(sizes, runs, pool):
    """Measure every workload at every size, fused and unfused.

    Each sequential workload is additionally parity-checked on the
    parallel leaves (fused vs unfused vs the sequential result), so the
    report pins exact result agreement across fused/unfused ×
    sequential/parallel.  Returns ``(rows, parity_ok)``; timing is
    informational, parity (and fusion actually engaging) is the hard
    gate.
    """
    rows = []
    parity_ok = True
    for size in sizes:
        data = random_integers(size, seed=1234)
        for name, fn in WORKLOADS:
            with engine(fusion=True):
                before = global_registry().snapshot()
                fused_result = fn(data, pool)
                after = global_registry().snapshot()
                key = "fusion_pipelines_fused"
                engaged = after[key] > before[key]
                fused = repeat_average(lambda: fn(data, pool), runs=runs)
            with engine(fusion=False):
                unfused_result = fn(data, pool)
                unfused = repeat_average(lambda: fn(data, pool), runs=runs)
            parity = _results_equal(fused_result, unfused_result)
            if name in PARALLEL_WORKLOADS:
                par_parity = parity  # the timed leg is the parallel leg
            else:
                with engine(fusion=True):
                    par_fused = fn(data, pool, parallel=True)
                with engine(fusion=False):
                    par_unfused = fn(data, pool, parallel=True)
                par_parity = (_results_equal(par_fused, par_unfused)
                              and _results_equal(par_fused, fused_result))
            if name in BACKEND_PARITY_WORKLOADS:
                # Three-backend gate: sequential result == threads ==
                # process, fused and unfused alike.
                for backend in ("threads", "process"):
                    with engine(fusion=True):
                        backend_fused = fn(
                            data, pool, parallel=True, backend=backend)
                    with engine(fusion=False):
                        backend_unfused = fn(
                            data, pool, parallel=True, backend=backend)
                    par_parity = (
                        par_parity
                        and _results_equal(backend_fused, backend_unfused)
                        and _results_equal(backend_fused, fused_result))
            parity_ok &= parity and par_parity and engaged
            rows.append({
                "workload": name,
                "size": size,
                "unfused_ms": round(unfused.median_ms, 3),
                "fused_ms": round(fused.median_ms, 3),
                "speedup": round(unfused.median / fused.median, 2)
                if fused.median else None,
                "parity": parity,
                "parallel_parity": par_parity,
                "fusion_engaged": engaged,
            })
            flag = "" if parity and par_parity else "  PARITY MISMATCH"
            if not engaged:
                flag += "  FUSION DID NOT ENGAGE"
            print(f"{name:>24} n=2^{size.bit_length() - 1:<2} "
                  f"unfused {unfused.median_ms:9.2f} ms   "
                  f"fused {fused.median_ms:9.2f} ms   "
                  f"x{unfused.median / fused.median:5.2f}{flag}")
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

    sizes = [2**12, 2**13] if args.smoke else [2**16, 2**18, 2**20]
    runs = args.runs if args.runs is not None else (2 if args.smoke else 5)

    pool = ForkJoinPool(parallelism=8, name="ab10-cli")
    try:
        rows, parity_ok = run_sweep(sizes, runs, pool)
    finally:
        pool.shutdown()

    report = {
        "bench": "ab10_fusion",
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
        print("FAIL: fused and unfused results diverged (or fusion never "
              "engaged)", file=sys.stderr)
        return 1
    print("parity OK: fused == unfused on every workload/size, sequential "
          "and parallel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
