"""Benchmark regression gate: fresh sweep vs committed baseline.

Compares the per-workload **speedup ratios** (chunked/element for AB9,
fused/unfused for AB10) of a fresh benchmark report against the
committed full-sweep baseline.  Ratios are dimensionless, so a smoke
sweep on a slow, noisy CI runner is still comparable against a baseline
recorded at full size on an idle machine — absolute milliseconds are
not.

The gate is deliberately loose: a workload fails only when its fresh
median speedup collapses below ``baseline / threshold`` (default 2.5x).
That tolerates CI noise and size-dependent variation while still
catching the failure mode that matters — an optimisation silently
stopping to engage (its ratio drops to ~1.0 while the baseline says
2x+).  Parity flags in the fresh report are a hard gate regardless of
timing.

A second, independent leg gates **profiler overhead**: with
``--overhead``, the script times an AB9-shaped workload with the
:mod:`repro.obs.profile` profiler disabled and enabled (run pairs in
alternating order, median of the per-pair ratios) and fails when that
ratio exceeds ``--overhead-threshold`` (default 1.05 — the profiler
must cost ≤5% at its default sampling rate).

Usage::

    python benchmarks/check_regression.py \
        --baseline benchmarks/results/BENCH_fusion.json \
        --fresh /tmp/ab10_smoke.json [--threshold 2.5]

    python benchmarks/check_regression.py --overhead \
        [--overhead-threshold 1.05] [--overhead-runs 25]

Exits 0 when every requested gate holds, 1 on any regression, parity
failure, workload missing from the fresh report, or overhead breach.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys


def _median_speedups(report):
    """Map workload name -> median speedup across all sizes in a report."""
    by_workload = {}
    for row in report["results"]:
        if row.get("speedup") is not None:
            by_workload.setdefault(row["workload"], []).append(row["speedup"])
    return {name: statistics.median(vals) for name, vals in by_workload.items()}


def check(baseline, fresh, threshold):
    """Return a list of failure strings (empty means the gate passes)."""
    failures = []
    if not fresh.get("parity_ok", False):
        failures.append("fresh report has parity_ok=false")

    base_speedups = _median_speedups(baseline)
    fresh_speedups = _median_speedups(fresh)

    name_w = max(len(n) for n in base_speedups) if base_speedups else 8
    print(f"{'workload':>{name_w}}  baseline   fresh   floor   verdict")
    for name, base in sorted(base_speedups.items()):
        floor = base / threshold
        got = fresh_speedups.get(name)
        if got is None:
            failures.append(f"{name}: missing from fresh report")
            print(f"{name:>{name_w}}  x{base:5.2f}       —   x{floor:5.2f}   MISSING")
            continue
        ok = got >= floor
        print(f"{name:>{name_w}}  x{base:5.2f}   x{got:5.2f}   x{floor:5.2f}   "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(
                f"{name}: speedup x{got:.2f} fell below x{floor:.2f} "
                f"(baseline x{base:.2f} / {threshold})"
            )
    # Symmetric direction: a workload the fresh sweep produces but the
    # baseline lacks means the committed baseline is stale (a key was
    # dropped or the sweep grew without a baseline regen) — reject it
    # rather than silently gating on the intersection.
    for name in sorted(set(fresh_speedups) - set(base_speedups)):
        failures.append(
            f"{name}: present in fresh report but missing from baseline "
            f"— regenerate the committed baseline"
        )
        print(f"{name:>{name_w}}      —   x{fresh_speedups[name]:5.2f}"
              f"       —   STALE BASELINE")
    return failures


def _profiler_overhead(runs, size):
    """Median of per-pair profiled/plain wall-clock ratios on an
    AB9-shaped workload.

    Each pair times one plain and one profiled run back to back, in
    alternating order (plain first in even pairs, profiled first in odd
    ones), so neither side always runs second on a warmer cache or a
    quieter neighbour; the median of the pair ratios then discards the
    pairs a noisy neighbour hit.
    """
    import time

    from repro.obs.profile import profiled
    from repro.streams.stream_support import stream_of

    data = list(range(size))

    def workload():
        return stream_of(data).filter(lambda x: x & 1 == 0).map(
            lambda x: x * 3
        ).to_list()

    def timed(profile):
        start = time.perf_counter()
        if profile:
            with profiled():
                got = workload()
        else:
            got = workload()
        elapsed = time.perf_counter() - start
        assert got == expected
        return elapsed

    expected = workload()  # warm-up; also pins correctness below
    ratios = []
    for pair in range(runs):
        if pair % 2:
            profiled_s = timed(True)
            plain_s = timed(False)
        else:
            plain_s = timed(False)
            profiled_s = timed(True)
        ratios.append(profiled_s / plain_s if plain_s > 0 else 1.0)
    return statistics.median(ratios)


def check_overhead(runs, size, threshold):
    """Return failure strings for the profiler-overhead gate."""
    ratio = _profiler_overhead(runs, size)
    verdict = "ok" if ratio <= threshold else "OVERHEAD"
    print(f"profiler overhead: x{ratio:.3f} "
          f"(threshold x{threshold:.2f}, median of {runs} alternating pairs, "
          f"size 2^{size.bit_length() - 1})  {verdict}")
    if ratio > threshold:
        return [
            f"profiler overhead x{ratio:.3f} exceeds x{threshold:.2f} "
            f"at default sampling"
        ]
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path,
                        help="committed full-sweep BENCH_*.json")
    parser.add_argument("--fresh", type=pathlib.Path,
                        help="report from the sweep just run")
    parser.add_argument("--threshold", type=float, default=2.5,
                        help="allowed shrink factor before failing "
                             "(default: 2.5, i.e. fail only on >2.5x "
                             "regression)")
    parser.add_argument("--overhead", action="store_true",
                        help="also gate repro.obs.profile overhead at "
                             "default sampling on an AB9-shaped workload")
    parser.add_argument("--overhead-threshold", type=float, default=1.05,
                        help="max enabled/disabled wall-clock ratio "
                             "(default: 1.05 = 5%% overhead)")
    parser.add_argument("--overhead-runs", type=int, default=25,
                        help="plain/profiled run pairs, alternating order "
                             "(default: 25)")
    parser.add_argument("--overhead-size", type=int, default=1 << 15,
                        help="workload size (default: 2^15)")
    args = parser.parse_args(argv)

    if args.baseline is None and args.fresh is None:
        if not args.overhead:
            parser.error("nothing to do: pass --baseline/--fresh, "
                         "--overhead, or both")
        failures = check_overhead(
            args.overhead_runs, args.overhead_size, args.overhead_threshold
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("regression gate OK")
        return 0
    if args.baseline is None or args.fresh is None:
        parser.error("--baseline and --fresh must be given together")

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    if baseline.get("bench") != fresh.get("bench"):
        print(f"error: baseline is {baseline.get('bench')!r} but fresh "
              f"report is {fresh.get('bench')!r}", file=sys.stderr)
        return 1

    print(f"[{fresh.get('bench')}] fresh {fresh.get('mode')} sweep vs "
          f"committed {baseline.get('mode')} baseline "
          f"(threshold {args.threshold}x)")
    failures = check(baseline, fresh, args.threshold)
    if args.overhead:
        failures += check_overhead(
            args.overhead_runs, args.overhead_size, args.overhead_threshold
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("regression gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
