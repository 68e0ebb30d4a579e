"""AB12 — adaptive ``auto`` threshold vs hand-tuned fixed thresholds.

AB4 showed how sensitive the parallel speedup curves are to the split
threshold; ``target_size='auto'`` (:mod:`repro.streams.adaptive`)
sizes leaves from the observed per-element cost of the pipeline shape
instead.  This bench pins the claim that matters for a knob that picks
itself: across four workload shapes, a converged ``auto`` run should
land within ~10% of the **best** fixed threshold found by sweeping a
hand-tuning grid:

* ``cheap_map`` — ~ns-per-element arithmetic; the danger is splitting
  too deep and drowning in task overhead;
* ``expensive_map`` — a ~µs integer hash per element, where the
  cost-derived leaf size departs from Java's element-count rule;
* ``skewed_flat_map`` — expansion and work concentrated in the data
  prefix, the shape where static rules misjudge per-leaf cost;
* ``short_circuit`` — ``any_match`` with a deep witness: triggered runs
  never feed the memo (aborted leaves would poison the cost estimate),
  so auto stays on its bootstrap rule (Java's).

Exact result parity — every fixed candidate AND auto against a
sequential run — is the hard in-sweep gate.  Timing alternates auto
with each grid point inside every round (see :func:`run_sweep`), and
``speedup`` per row is the median of the per-round ``best_fixed / auto``
ratios (1.0 = auto ties the best hand-tuned threshold; the band is
0.9), reported with their interquartile range.  It is consumed by
``benchmarks/check_regression.py`` against the committed baseline
``benchmarks/results/BENCH_adaptive.json``.

Two entry points:

* pytest-benchmark: ``pytest benchmarks/bench_ab12_adaptive.py
  --benchmark-only``;
* CLI: ``python benchmarks/bench_ab12_adaptive.py [--smoke] [--rounds N]
  [--out FILE]`` (``make ab12`` runs the full sweep).
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import pathlib
import statistics
import sys

import numpy as np
import pytest

from repro.bench.harness import repeat_average
from repro.forkjoin import ForkJoinPool
from repro.obs.metrics import global_registry
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
# CLI sweep: auto vs the hand-tuning grid, alternating, parity gated
# --------------------------------------------------------------------------- #

def _quartiles(values):
    """``(q1, median, q3)`` of ``values`` (one value: all three equal)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_sweep(sizes, rounds, runs, pool):
    """Measure auto against every fixed candidate on all workloads.

    Per workload/size: a sequential run pins the expected result, every
    fixed candidate and the auto leg must reproduce it exactly (the hard
    parity gate).  The memo is reset, then seeded by the parity run plus
    two warm-up runs, so auto is measured *converged*.

    Timing runs in ``rounds``.  Inside a round auto is timed next to
    each grid point in turn (auto first in even rounds, the fixed point
    first in odd ones), each slot the fastest of ``runs`` calls, so both
    sides of every ratio share the same stretch of host load.  The best
    fixed target is the grid point with the lowest median over rounds;
    a round's ratio is that target's time in the round over the median
    of the round's auto slots, and a row's ``speedup`` is the median of
    its per-round ratios (1.0 = auto ties the best hand-tuned
    threshold; the band is 0.9), reported with their interquartile
    range.  ``check_regression.py`` gates ``speedup`` against the
    committed baseline ``benchmarks/results/BENCH_adaptive.json``.
    Returns ``(rows, parity_ok)``.
    """
    rows = []
    parity_ok = True
    for size in sizes:
        arr = np.arange(size, dtype=np.int64)
        candidates = sorted({max(1, size // d) for d in CANDIDATE_DIVISORS})
        for name, fn in WORKLOADS:
            expected = fn(arr, None, None)
            for target in candidates:
                parity_ok &= bool(fn(arr, pool, target) == expected)

            adaptive.reset_split_policy()
            before = global_registry().snapshot()
            parity = bool(fn(arr, pool, "auto") == expected)
            parity_ok &= parity
            for _ in range(2):
                fn(arr, pool, "auto")  # converge the memo

            def timed(target):
                return repeat_average(
                    lambda: fn(arr, pool, target), runs=runs
                ).minimum

            fixed = {target: [] for target in candidates}
            auto_rounds = []
            for r in range(rounds):
                auto_slots = []
                for target in candidates:
                    if r % 2:
                        fixed[target].append(timed(target))
                        auto_slots.append(timed("auto"))
                    else:
                        auto_slots.append(timed("auto"))
                        fixed[target].append(timed(target))
                auto_rounds.append(statistics.median(auto_slots))
            after = global_registry().snapshot()
            adaptive.reset_split_policy()

            fixed_medians = {
                t: statistics.median(times) for t, times in fixed.items()
            }
            best_target = min(fixed_medians, key=fixed_medians.get)
            ratios = [
                f / a for f, a in zip(fixed[best_target], auto_rounds)
            ]
            q1, speedup, q3 = _quartiles(ratios)
            auto_ms = statistics.median(auto_rounds) * 1000
            best_ms = fixed_medians[best_target] * 1000
            in_band = speedup >= BAND
            rows.append({
                "workload": name,
                "size": size,
                "auto_ms": round(auto_ms, 3),
                "best_fixed_ms": round(best_ms, 3),
                "best_fixed_target": best_target,
                "fixed_ms": {
                    str(t): round(m * 1000, 3)
                    for t, m in fixed_medians.items()
                },
                "speedup": round(speedup, 3),
                "speedup_iqr": round(q3 - q1, 3),
                "round_ratios": [round(x, 3) for x in ratios],
                "in_band": in_band,
                "parity": parity,
                "policy": {
                    key: after[series] - before[series]
                    for key, series in (
                        ("decisions", "split_decisions"),
                        ("bootstrap", "split_bootstraps"),
                        ("observed_runs", "split_observed_runs"),
                    )
                },
            })
            flag = "" if parity else "  PARITY MISMATCH"
            band = "" if in_band else "  BELOW BAND"
            print(f"{name:>16} n=2^{size.bit_length() - 1:<2} "
                  f"auto {auto_ms:9.2f} ms   "
                  f"best fixed {best_ms:9.2f} ms "
                  f"(target {best_target})   "
                  f"ratio x{speedup:5.3f} IQR {q3 - q1:5.3f}{band}{flag}")
    return rows, parity_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size for CI (parity gate, timings "
                             "informational)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--rounds", type=int, default=None,
                        help="alternating rounds per row "
                             "(default 10, smoke 3)")
    parser.add_argument("--runs", type=int, default=None,
                        help="timed calls per slot of a round "
                             "(default 3, smoke 1)")
    parser.add_argument("--enforce-band", action="store_true",
                        help="fail when any workload's auto run lands "
                             f"below x{BAND} of its best fixed threshold "
                             "(used when recording the committed "
                             "baseline; CI gates drift via "
                             "check_regression instead)")
    args = parser.parse_args(argv)

    sizes = [2**14] if args.smoke else [2**16]
    rounds = args.rounds if args.rounds is not None else (
        3 if args.smoke else 10
    )
    runs = args.runs if args.runs is not None else (1 if args.smoke else 3)

    pool = ForkJoinPool(parallelism=4, name="ab12-cli")
    try:
        rows, parity_ok = run_sweep(sizes, rounds, runs, pool)
    finally:
        pool.shutdown()

    report = {
        "bench": "ab12_adaptive",
        "mode": "smoke" if args.smoke else "full",
        "rounds": rounds,
        "runs": runs,
        "sizes": sizes,
        "cpu_count": os.cpu_count(),
        "parallelism": pool.parallelism,
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
