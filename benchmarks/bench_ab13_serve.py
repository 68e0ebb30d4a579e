"""AB13 — the multi-tenant serve layer under overload and chaos.

The robustness PRs hardened one pipeline at a time; :mod:`repro.serve`
(ROADMAP item 3) multiplexes *many* clients onto the shared compute
pools.  This bench pins the three service-level claims that matter for a
front door:

* **fairness** — 8 equal-weight tenants offering jobs at 2× the
  service's admission capacity (queue + in-flight slots) must make
  comparable progress: the min/max completed-job ratio across tenants
  stays ≥ :data:`FAIRNESS_FLOOR` (deficit round-robin plus bounded
  queues, not first-come-hogs-all);
* **fast-fail rejection** — an admission verdict against a full queue is
  an O(1) lock-scoped check: the median rejected ``submit`` must return
  in under :data:`REJECTION_GATE_MS` (an overloaded service answers
  quickly, it never buffers unboundedly);
* **chaos containment** — a seeded worker-kill
  (``FaultPlan(seed).inject("proc:worker-*", "kill")``) aimed at the one
  tenant running on the process backend must not leak: every *other*
  tenant's results stay exact during the strike, and the service accepts
  and completes new work from every tenant afterwards.

The chaos seed comes from ``.github/chaos-seeds.json`` via
``--chaos-seed`` so `make serve-load` and the CI job replay the same
deterministic strike.

Two entry points:

* pytest-benchmark: ``pytest benchmarks/bench_ab13_serve.py
  --benchmark-only`` (submit→result round-trip latency);
* CLI: ``python benchmarks/bench_ab13_serve.py [--smoke]
  [--chaos-seed N] [--out FILE]`` — gates enforced, non-zero exit on
  violation (consumed by `make serve-load` and the CI ``serve-load``
  job; the committed baseline is ``benchmarks/results/BENCH_serve.json``).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import pathlib
import sys
import threading
import time

import pytest

from repro.faults import FaultPlan, fault_injection
from repro.serve import AdmissionError, ExecutionService

TENANTS = 8
FAIRNESS_FLOOR = 0.5
REJECTION_GATE_MS = 1.0
REJECTION_SAMPLES = 200


def _sum_pipeline(stream):
    """Module-level so the process backend can pickle the op chain."""
    return stream.reduce(0, operator.add)


def _tenant_names():
    return [f"tenant-{i}" for i in range(TENANTS)]


# --------------------------------------------------------------------------- #
# Leg 1: fairness at 2x admission capacity
# --------------------------------------------------------------------------- #


def run_fairness(waves: int, data_size: int):
    """8 tenants each offer their share of 2× capacity per wave.

    Every tenant thread submits its wave quota back-to-back (rejections
    are counted, not retried — the service's answer under overload IS
    the behavior being measured), the wave drains, and the next wave
    repeats the stampede.  Completed counts then tell us who actually
    got compute time.
    """
    service = ExecutionService(max_workers=4, global_queue_limit=32)
    capacity = service.max_workers + service._queue.global_limit
    offered_per_wave = 2 * capacity
    per_tenant = max(offered_per_wave // TENANTS, 1)
    service.register_dataset("numbers", list(range(data_size)))
    # The bounded per-tenant queue is the fairness mechanism at
    # admission time: partition the global budget so no stampeding
    # tenant can occupy every slot before the others reach the lock.
    for name in _tenant_names():
        service.register_tenant(
            name, queue_limit=max(capacity // TENANTS, 1)
        )
    completed = dict.fromkeys(_tenant_names(), 0)
    rejected = dict.fromkeys(_tenant_names(), 0)
    try:
        service.start()
        for _ in range(waves):
            tickets: dict[str, list] = {n: [] for n in _tenant_names()}
            barrier = threading.Barrier(TENANTS)

            def stampede(name):
                barrier.wait()
                for _ in range(per_tenant):
                    try:
                        tickets[name].append(
                            service.submit(name, "numbers", _sum_pipeline)
                        )
                    except AdmissionError:
                        rejected[name] += 1

            threads = [
                threading.Thread(target=stampede, args=(n,))
                for n in _tenant_names()
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for name, batch in tickets.items():
                for ticket in batch:
                    ticket.wait(60.0)
                    if ticket.state == "done":
                        completed[name] += 1
    finally:
        service.shutdown()
    counts = list(completed.values())
    ratio = (min(counts) / max(counts)) if max(counts) else 0.0
    return {
        "tenants": TENANTS,
        "capacity": capacity,
        "offered_per_wave": per_tenant * TENANTS,
        "waves": waves,
        "completed": completed,
        "rejected": rejected,
        "min_max_ratio": round(ratio, 3),
        "gate": FAIRNESS_FLOOR,
        "ok": ratio >= FAIRNESS_FLOOR,
    }


# --------------------------------------------------------------------------- #
# Leg 2: rejection fast-fail latency
# --------------------------------------------------------------------------- #


def run_rejection_latency(samples: int = REJECTION_SAMPLES):
    """Median wall time of a rejected submit against a saturated tenant."""
    service = ExecutionService(max_workers=1, global_queue_limit=64)
    service.register_dataset("numbers", list(range(64)))
    service.register_tenant("hog", queue_limit=1)
    release = threading.Event()
    entered = threading.Event()

    def blocker(stream):
        entered.set()
        release.wait(60.0)
        return None

    latencies = []
    try:
        service.submit("hog", "numbers", blocker)
        assert entered.wait(10.0), "blocker never started"
        service.submit("hog", "numbers", _sum_pipeline)  # fills the queue
        for _ in range(samples):
            start = time.perf_counter_ns()
            try:
                service.submit("hog", "numbers", _sum_pipeline)
            except AdmissionError:
                pass
            latencies.append(time.perf_counter_ns() - start)
    finally:
        release.set()
        service.shutdown()
    latencies.sort()
    median_ms = latencies[len(latencies) // 2] / 1e6
    p99_ms = latencies[min(int(len(latencies) * 0.99), len(latencies) - 1)] / 1e6
    return {
        "samples": samples,
        "median_ms": round(median_ms, 4),
        "p99_ms": round(p99_ms, 4),
        "gate_ms": REJECTION_GATE_MS,
        "ok": median_ms < REJECTION_GATE_MS,
    }


# --------------------------------------------------------------------------- #
# Leg 3: chaos — worker-kill against one tenant's process backend
# --------------------------------------------------------------------------- #


def run_chaos(seed: int, jobs_per_tenant: int, data_size: int):
    """Kill a process-pool worker under tenant-0; nobody else may notice.

    tenant-0 runs on the process backend (the strike surface — the
    ``proc:worker-*`` kill only fires there); the other seven run on
    threads.  Gates: every non-victim result exact during the strike,
    and one follow-up job per tenant (victim included) completes after.
    The kill must actually land: a run with no strike tests nothing.
    """
    data = list(range(data_size))
    expected = sum(data)
    service = ExecutionService(max_workers=2, global_queue_limit=128)
    service.register_dataset("numbers", data)
    for name in _tenant_names():
        service.register_tenant(name, queue_limit=64)
    plan = FaultPlan(seed=seed, name=f"ab13-chaos-{seed}")
    plan.inject("proc:worker-*", "kill", times=1)
    try:
        service.start()
        with fault_injection(plan):
            tickets = {}
            for name in _tenant_names():
                backend = "process" if name == "tenant-0" else "threads"
                count = jobs_per_tenant if backend == "process" else (
                    jobs_per_tenant * 2
                )
                tickets[name] = [
                    service.submit(
                        name, "numbers", _sum_pipeline, backend=backend
                    )
                    for _ in range(count)
                ]
            for batch in tickets.values():
                for ticket in batch:
                    ticket.wait(120.0)
        others_exact = all(
            ticket.state == "done" and ticket.result(0.0) == expected
            for name, batch in tickets.items()
            if name != "tenant-0"
            for ticket in batch
        )
        victim_states = [t.state for t in tickets["tenant-0"]]
        victim_exact = all(
            t.state == "done" and t.result(0.0) == expected
            for t in tickets["tenant-0"]
            if t.state == "done"
        )
        # The service must still be a service: fresh work from every
        # tenant (victim included, back on threads) completes exactly.
        after = [
            service.submit(name, "numbers", _sum_pipeline)
            for name in _tenant_names()
        ]
        accepting_after = all(t.result(60.0) == expected for t in after)
        stats = service.stats()["tenants"]
        strikes = plan.stats()["injected"]
        return {
            "seed": seed,
            "victim": "tenant-0",
            "strikes": strikes,
            "victim_states": victim_states,
            "victim_done_results_exact": victim_exact,
            "victim_stats": {
                k: stats["tenant-0"][k]
                for k in ("completed", "failed", "degraded", "cancelled")
            },
            "others_exact": others_exact,
            "accepting_after": accepting_after,
            "ok": strikes >= 1 and others_exact and accepting_after,
        }
    finally:
        service.shutdown()


# --------------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def served():
    service = ExecutionService(max_workers=2)
    service.register_dataset("numbers", list(range(4096)))
    service.register_tenant("bench")
    service.start()
    yield service
    service.shutdown()


def bench_ab13_submit_roundtrip(benchmark, served):
    """submit → result wall time for one small job through the service."""
    expected = sum(range(4096))

    def roundtrip():
        assert (
            served.submit("bench", "numbers", _sum_pipeline).result(30.0)
            == expected
        )

    benchmark(roundtrip)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (gates still enforced)")
    parser.add_argument("--chaos-seed", type=int, default=11,
                        help="FaultPlan seed for the worker-kill leg "
                             "(CI feeds one from .github/chaos-seeds.json)")
    parser.add_argument("--skip-chaos", action="store_true",
                        help="run only the fairness and rejection legs")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    waves = 2 if args.smoke else 4
    data_size = 2**10 if args.smoke else 2**12
    chaos_jobs = 1 if args.smoke else 2

    fairness = run_fairness(waves, data_size)
    print(f"fairness: min/max completed ratio x{fairness['min_max_ratio']} "
          f"across {TENANTS} tenants at 2x capacity "
          f"({'OK' if fairness['ok'] else 'BELOW FLOOR'})")

    rejection = run_rejection_latency()
    print(f"rejection: median {rejection['median_ms']:.4f} ms, "
          f"p99 {rejection['p99_ms']:.4f} ms over {rejection['samples']} "
          f"fast-fails ({'OK' if rejection['ok'] else 'TOO SLOW'})")

    chaos = None
    if not args.skip_chaos:
        chaos = run_chaos(args.chaos_seed, chaos_jobs, data_size)
        verdict = "OK" if chaos["ok"] else (
            "LEAKED" if chaos["strikes"] else "NO STRIKE"
        )
        print(f"chaos: seed {chaos['seed']}, {chaos['strikes']} worker-kill "
              f"strike(s) on {chaos['victim']}; others exact: "
              f"{chaos['others_exact']}, accepting after: "
              f"{chaos['accepting_after']} "
              f"({verdict})")

    ok = fairness["ok"] and rejection["ok"] and (
        chaos is None or chaos["ok"]
    )
    report = {
        "bench": "ab13_serve",
        "mode": "smoke" if args.smoke else "full",
        "cpu_count": os.cpu_count(),
        "fairness": fairness,
        "rejection": rejection,
        "chaos": chaos,
        "ok": ok,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[written to {args.out}]")

    if not ok:
        print("FAIL: a serve-layer gate was violated", file=sys.stderr)
        return 1
    print("serve gates OK: fair progress, fast-fail rejection, "
          "contained chaos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
