#!/usr/bin/env python3
"""End-to-end benchmark: the stream engine against hand-written code.

Run from the repository root::

    python3 e2ebench/run.py --workload poly_eval --seed 1 --seconds 40 --trace 0
    python3 e2ebench/run.py --workload all --seed 1          # every workload

``--trace 0`` times the engine with tracing off against the hand-written
references and prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced blocks and prints the per-layer ledger.  Every line
but the last starts with ``#`` and is for people (host facts, each metric
with its unit and sample count); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any output differs from its reference.  See README.md for
what each workload loads and how the layers map to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from stats import geomean, percentile

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("poly_eval", "etl_process", "serve_mix")
#: Length of one untraced or traced block in a ``--trace 1`` run.
TRACE_BLOCK_S = 0.5
#: ``ops_per_s`` is the median over blocks of this length of the correct
#: calls per second of engine time in the block.
RATE_BLOCK_S = 1.0
#: ``serve_mix`` runs its closed loop in segments of this length and times
#: the hand-written jobs after each one; its timing metrics are medians
#: over segments, which keeps a few seconds of host noise from moving them.
#: In a traced run untraced and traced segments alternate.
SERVE_SEGMENT_S = 1.0

END_TO_END_UNITS = {
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "ops_per_s": "1/s",
    "vs_loop_x": "x",
    "vs_numpy_x": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

now = time.perf_counter_ns


class Tally:
    """Samples of one run, and the timing metrics derived from them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.engine_ns: list[int] = []   # untraced, correct engine calls/jobs
        self.traced_ns: list[int] = []   # traced, correct engine calls/jobs
        self.timing: dict[str, float] = {}
        self.note = ""

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def set_up(workload) -> tuple[float, list[float]]:
    """Set the workload up ``workload.setups`` times; keep the last one.

    Returns the median and all set-up times in seconds.
    """
    times = []
    for k in range(workload.setups):
        start = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.teardown()
            raise
        times.append(time.perf_counter() - start)
        if k < workload.setups - 1:
            workload.teardown()
    return statistics.median(times), times


def drive_calls(workload, seconds: float, ledger) -> Tally:
    """Closed loop of synchronous terminal calls from this thread.

    One sample is ``workload.batch`` calls back to back, each timed and
    checked; the sample is their mean time.  Untraced: every
    ``ref_every``-th sample is followed by the loop and numpy references
    (alternating their order).  Traced: untraced and traced blocks of
    ``TRACE_BLOCK_S`` alternate and the references are skipped.
    """
    tally = Tally()
    loop: list[int] = []
    numpy_: list[int] = []
    rates: list[float] = []
    traced = False
    start = now()
    end = start + int(seconds * 1e9)
    block_end = start + int(TRACE_BLOCK_S * 1e9)
    rate_end = start + int(RATE_BLOCK_S * 1e9)
    rate_calls = rate_ns = 0
    i = n = 0
    while True:
        t = now()
        if t >= rate_end and rate_ns:
            rates.append(rate_calls / (rate_ns / 1e9))
            rate_calls = rate_ns = 0
            rate_end = t + int(RATE_BLOCK_S * 1e9)
        if t >= end or tally.failed > 20:
            break
        if ledger is not None and t >= block_end:
            traced = not traced
            (ledger.activate if traced else ledger.deactivate)()
            block_end = t + int(TRACE_BLOCK_S * 1e9)
        batch_ok = True
        batch_ns = 0
        for _ in range(workload.batch):
            t0 = now()
            try:
                value = workload.call(i)
                ok = True
            except Exception as exc:  # a raising call is a failed attempt
                print(f"# {workload.name}: call {i} raised {exc!r}")
                ok = False
            t1 = now()
            batch_ns += t1 - t0
            if traced:
                ledger.account_call(t0, t1)
            batch_ok &= tally.check(ok and workload.check(i, value))
            i += 1
        if batch_ok:
            if traced:
                tally.traced_ns.append(batch_ns // workload.batch)
            else:
                tally.engine_ns.append(batch_ns // workload.batch)
                rate_calls += workload.batch
                rate_ns += batch_ns
        if ledger is None and n % workload.ref_every == 0:
            refs = [(workload.loop_ref, loop), (workload.numpy_ref, numpy_)]
            if (n // workload.ref_every) % 2:
                refs.reverse()
            for ref, samples in refs:
                t0 = now()
                value = ref(i)
                samples.append(now() - t0)
                tally.check(workload.check(i, value))
        n += 1
    if traced:
        ledger.deactivate()
    samples = len(tally.engine_ns)
    if samples and rates and loop:
        p50 = percentile(tally.engine_ns, 0.5)
        tally.timing = {
            "latency_ms.p50": p50 / 1e6,
            "latency_ms.p90": percentile(tally.engine_ns, 0.9) / 1e6,
            "ops_per_s": statistics.median(rates),
            "vs_loop_x": p50 / statistics.median(loop),
            "vs_numpy_x": p50 / statistics.median(numpy_),
        }
    tally.note = (f"engine = {samples} (p90 has {samples // 10} beyond it), "
                  f"loop = {len(loop)}, numpy = {len(numpy_)}, "
                  f"rate blocks = {len(rates)}")
    return tally


def drive_jobs(workload, seconds: float, ledger) -> Tally:
    """``serve_mix``: the closed loop in segments of ``SERVE_SEGMENT_S``.

    After each untraced segment every tenant's job is timed by hand, once
    as a loop and once in numpy.  Per segment: the latency p50 and p90 of
    all jobs, correct jobs per second, and the geometric mean over tenants
    of the tenant's job p50 over its reference time; each metric is the
    median over segments.
    """
    tally = Tally()
    per_segment: dict[str, list[float]] = defaultdict(list)
    segments = max(2, round(seconds / SERVE_SEGMENT_S))
    untraced = segments if ledger is None else segments - segments // 2
    for k in range(segments):
        traced = ledger is not None and k % 2 == 1
        if traced:
            ledger.activate()
        start = now()
        jobs = workload.run_closed_loop(seconds / segments)
        end = max(job.ticket.completed_ns for job in jobs)
        if traced:
            ledger.deactivate()
            ledger.account_jobs(jobs)
        good = [job for job in jobs if tally.check(job.ok)]
        latencies = [job.latency_ns for job in good]
        if traced:
            tally.traced_ns.extend(latencies)
            continue
        tally.engine_ns.extend(latencies)
        if ledger is not None or not good:
            continue
        by_tenant: dict[int, list[int]] = defaultdict(list)
        for job in good:
            by_tenant[job.tenant].append(job.latency_ns)
        loop_ns, numpy_ns, failed = workload.time_references()
        tally.attempted += len(loop_ns) + len(numpy_ns)
        tally.failed += failed
        p50s = {t: statistics.median(v) for t, v in by_tenant.items()}
        per_segment["latency_ms.p50"].append(percentile(latencies, 0.5) / 1e6)
        per_segment["latency_ms.p90"].append(percentile(latencies, 0.9) / 1e6)
        per_segment["ops_per_s"].append(len(good) / ((end - start) / 1e9))
        per_segment["vs_loop_x"].append(geomean(p50s[t] / loop_ns[t] for t in p50s))
        per_segment["vs_numpy_x"].append(geomean(p50s[t] / numpy_ns[t] for t in p50s))
    tally.timing = {key: statistics.median(v) for key, v in per_segment.items()}
    jobs_per_segment = len(tally.engine_ns) / untraced
    tally.note = (f"jobs = {len(tally.engine_ns)} untraced, "
                  f"{len(tally.traced_ns)} traced; segments = {segments}, "
                  f"~{jobs_per_segment:.0f} jobs each (p90 has ~"
                  f"{jobs_per_segment / 10:.0f} beyond it)")
    return tally


def stop_resource_tracker() -> None:
    """Stop the resource tracker process that shared memory starts, and
    wait for it; otherwise it outlives the run by a moment."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts(args, process_count: int) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "default_process_count": process_count,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from ledger import Ledger
    from workloads import WORKLOADS
    from repro.streams.process_backend import default_process_count

    print("# host " + json.dumps(host_facts(args, default_process_count())))
    workload = WORKLOADS[args.workload](args.seed)
    setup_s, setup_all = set_up(workload)
    try:
        ledger = None
        if args.trace:
            ledger = Ledger(
                pool=getattr(workload, "pool", None),
                service=getattr(workload, "service", None),
            )
        drive = drive_jobs if args.workload == "serve_mix" else drive_calls
        tally = drive(workload, args.seconds, ledger)
        rejected = getattr(workload, "rejected", 0)
    finally:
        workload.teardown()
        stop_resource_tracker()
    tally.attempted += rejected
    tally.failed += rejected

    name = args.workload
    samples = len(tally.engine_ns)
    # A p90 needs 100 samples to have ten beyond it; a traced run only
    # reports p50s and sums.
    if args.trace:
        enough = min(samples, len(tally.traced_ns)) >= 20
    else:
        enough = samples >= 100 and bool(tally.timing)
    correct = tally.failed == 0 and enough
    print(f"# {name} attempted = {tally.attempted}, failed = {tally.failed}, "
          f"failed_frac = {tally.failed / max(tally.attempted, 1):.6f}")
    print(f"# {name} setup_s runs = {[round(s, 4) for s in setup_all]}")
    print(f"# {name} samples: {tally.note}")
    metrics: dict[str, dict] = {}
    if enough and args.trace:
        metrics = ledger.metrics(
            percentile(tally.traced_ns, 0.5) / 1e6,
            percentile(tally.engine_ns, 0.5) / 1e6,
        )
    elif enough:
        values = dict(tally.timing, setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        metrics = {
            key: {"value": float(values[key]), "unit": unit}
            for key, unit in END_TO_END_UNITS.items()
        }
    else:
        print(f"# {name}: too few samples for the metrics")
    for key, entry in metrics.items():
        print(f"# {name} {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    status = 0
    for name in NAMES:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = max(status, completed.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
