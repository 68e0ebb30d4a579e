"""AB12 — adaptive ``auto`` threshold vs hand-tuned fixed thresholds.

AB4 showed how sensitive the parallel speedup curves are to the split
threshold; PR "adaptive scheduling" closes the loop with
``target_size='auto'`` (:mod:`repro.streams.adaptive`): leaf sizes come
from the observed per-element cost of the pipeline shape, coarsening when
task overhead dominates and deepening when workers idle.  This bench pins
the claim that matters for a knob that picks itself: across four workload
shapes, a converged ``auto`` run must land within ~10% of the **best**
fixed threshold found by sweeping a hand-tuning grid:

* ``cheap_map`` — ~ns-per-element arithmetic; the danger is splitting too
  deep and drowning in task overhead (auto must coarsen);
* ``expensive_map`` — a ~µs integer hash per element; auto must deepen to
  the cost-derived leaf size instead of Java's element-count rule;
* ``skewed_flat_map`` — expansion and work concentrated in the data
  prefix, the shape where static rules misjudge per-leaf cost;
* ``short_circuit`` — ``any_match`` with a deep witness: triggered runs
  never feed the memo (aborted leaves would poison the cost estimate),
  so auto must stay sane on its bootstrap rule.

Exact result parity — every fixed candidate AND auto against a
sequential run — is the hard in-sweep gate.  ``speedup`` per row is
``best_fixed_median / auto_median`` (1.0 = auto ties the best
hand-tuned threshold; the ~10% band is 0.9), consumed by
``benchmarks/check_regression.py`` against the committed baseline
``benchmarks/results/BENCH_adaptive.json``.

Two entry points:

* pytest-benchmark: ``pytest benchmarks/bench_ab12_adaptive.py
  --benchmark-only``;
* CLI: ``python benchmarks/bench_ab12_adaptive.py [--smoke] [--out FILE]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import pathlib
import sys

import numpy as np
import pytest

from repro.bench.harness import repeat_average
from repro.forkjoin import ForkJoinPool
from repro.streams import Stream
from repro.streams import adaptive

N_BENCH = 2**16

#: Divisors of the input size forming the hand-tuning grid of fixed
#: thresholds (size//1 = a single leaf, i.e. no decomposition at all).
CANDIDATE_DIVISORS = (256, 64, 16, 4, 1)

#: ``best_fixed / auto`` floor: auto within ~10% of the tuned optimum.
BAND = 0.9


def _hash_rounds(x, rounds):
    acc = int(x) & 0xFFFFFFFF
    for _ in range(rounds):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= acc >> 7
    return acc


def _add7(x):
    return int(x) + 7


def _hash16(x):
    return _hash_rounds(x, 16)


def _skew_expand(x, cutoff):
    """Heavy 6-way expansion below the cutoff, passthrough above it."""
    if int(x) < cutoff:
        return [_hash_rounds(x + i, 8) for i in range(6)]
    return [int(x)]


def _witness_probe(x, witness):
    return _hash_rounds(x, 4) != -1 and int(x) == witness


def _stream(arr, pool, target):
    stream = Stream.of_iterable(arr)
    if pool is None:
        return stream
    stream = stream.parallel().with_pool(pool)
    if target is not None:
        stream = stream.with_target_size(target)
    return stream


def _wl_cheap_map(arr, pool, target):
    return _stream(arr, pool, target).map(_add7).reduce(0, operator.add)


def _wl_expensive_map(arr, pool, target):
    return _stream(arr, pool, target).map(_hash16).reduce(0, operator.add)


def _wl_skewed_flat_map(arr, pool, target):
    expand = functools.partial(_skew_expand, cutoff=len(arr) // 8)
    return _stream(arr, pool, target).flat_map(expand).reduce(0, operator.add)


def _wl_short_circuit(arr, pool, target):
    probe = functools.partial(_witness_probe, witness=(7 * len(arr)) // 8)
    return _stream(arr, pool, target).any_match(probe)


WORKLOADS = [
    ("cheap_map", _wl_cheap_map),
    ("expensive_map", _wl_expensive_map),
    ("skewed_flat_map", _wl_skewed_flat_map),
    ("short_circuit", _wl_short_circuit),
]


# --------------------------------------------------------------------------- #
# pytest-benchmark entry points
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def data():
    return np.arange(N_BENCH, dtype=np.int64)


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="ab12")
    yield p
    p.shutdown()


@pytest.mark.parametrize("name,fn", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def bench_ab12_fixed(benchmark, data, pool, name, fn):
    java = adaptive.compute_target_size(len(data), pool.parallelism)
    benchmark(lambda: fn(data, pool, java))


@pytest.mark.parametrize("name,fn", WORKLOADS, ids=[w[0] for w in WORKLOADS])
def bench_ab12_auto(benchmark, data, pool, name, fn):
    adaptive.reset_split_policy()
    fn(data, pool, "auto")  # converge the memo before timing
    fn(data, pool, "auto")
    benchmark(lambda: fn(data, pool, "auto"))
    adaptive.reset_split_policy()


# --------------------------------------------------------------------------- #
# CLI sweep: auto vs the hand-tuning grid, parity gated
# --------------------------------------------------------------------------- #

def run_sweep(sizes, runs, pool):
    """Measure auto against every fixed candidate on all workloads.

    Per workload/size: a sequential run pins the expected result, every
    fixed candidate and the auto leg must reproduce it exactly (the hard
    parity gate), the best fixed median is the hand-tuned optimum, and
    ``speedup = best_fixed / auto`` (the quantity the regression gate
    tracks — collapse means the adaptive policy stopped choosing well).
    Auto is measured *converged*: the memo is reset, then seeded by one
    parity run plus two warm-up runs before timing.
    Returns ``(rows, parity_ok)``.
    """
    rows = []
    parity_ok = True
    for size in sizes:
        arr = np.arange(size, dtype=np.int64)
        candidates = sorted({max(1, size // d) for d in CANDIDATE_DIVISORS})
        for name, fn in WORKLOADS:
            expected = fn(arr, None, None)

            fixed_medians = {}
            for target in candidates:
                parity_ok &= bool(fn(arr, pool, target) == expected)
                timing = repeat_average(
                    lambda t=target: fn(arr, pool, t), runs=runs
                )
                fixed_medians[target] = timing.median
            best_target = min(fixed_medians, key=fixed_medians.get)
            best_median = fixed_medians[best_target]

            adaptive.reset_split_policy()
            parity = bool(fn(arr, pool, "auto") == expected)
            parity_ok &= parity
            for _ in range(2):
                fn(arr, pool, "auto")  # converge the memo
            auto = repeat_average(lambda: fn(arr, pool, "auto"), runs=runs)
            stats = adaptive.split_policy_stats()
            adaptive.reset_split_policy()

            speedup = (
                round(best_median / auto.median, 3) if auto.median else None
            )
            in_band = speedup is not None and speedup >= BAND
            rows.append({
                "workload": name,
                "size": size,
                "auto_ms": round(auto.median_ms, 3),
                "best_fixed_ms": round(best_median * 1000, 3),
                "best_fixed_target": best_target,
                "fixed_ms": {
                    str(t): round(m * 1000, 3)
                    for t, m in fixed_medians.items()
                },
                "speedup": speedup,
                "in_band": in_band,
                "parity": parity,
                "policy": {
                    k: stats[k]
                    for k in ("decisions", "bootstrap", "observed_runs",
                              "coarsened", "deepened")
                },
            })
            flag = "" if parity else "  PARITY MISMATCH"
            band = "" if in_band else "  BELOW BAND"
            print(f"{name:>16} n=2^{size.bit_length() - 1:<2} "
                  f"auto {auto.median_ms:9.2f} ms   "
                  f"best fixed {best_median * 1000:9.2f} ms "
                  f"(target {best_target})   "
                  f"ratio x{speedup:5.3f}{band}{flag}")
    return rows, parity_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size for CI (parity gate, timings "
                             "informational)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--runs", type=int, default=None,
                        help="timed runs per measurement")
    parser.add_argument("--enforce-band", action="store_true",
                        help="fail when any workload's auto run lands "
                             f"below x{BAND} of its best fixed threshold "
                             "(used when recording the committed "
                             "baseline; CI gates drift via "
                             "check_regression instead)")
    args = parser.parse_args(argv)

    sizes = [2**14] if args.smoke else [2**16]
    runs = args.runs if args.runs is not None else (2 if args.smoke else 3)

    pool = ForkJoinPool(parallelism=4, name="ab12-cli")
    try:
        rows, parity_ok = run_sweep(sizes, runs, pool)
    finally:
        pool.shutdown()

    report = {
        "bench": "ab12_adaptive",
        "mode": "smoke" if args.smoke else "full",
        "runs": runs,
        "sizes": sizes,
        "cpu_count": os.cpu_count(),
        "band": BAND,
        "parity_ok": parity_ok,
        "results": rows,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {args.out}]")

    if not parity_ok:
        print("FAIL: auto or a fixed candidate disagreed with the "
              "sequential result", file=sys.stderr)
        return 1
    if args.enforce_band and not all(r["in_band"] for r in rows):
        print(f"FAIL: auto fell below x{BAND} of the best fixed "
              "threshold on some workload", file=sys.stderr)
        return 1
    print("parity OK: auto == every fixed threshold == sequential on "
          "every workload/size")
    return 0


if __name__ == "__main__":
    sys.exit(main())
