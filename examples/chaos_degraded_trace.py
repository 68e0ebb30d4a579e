"""Chaos engineering on the PowerList stream adaptation.

Installs an aggressive seeded fault plan against a parallel polynomial
evaluation, lets the resilience policies (retry with backoff, then
sequential fallback) recover the exact result, and exports the Chrome
trace of the degraded run — `fault`/`retry`/`degraded` instants included
— for `chrome://tracing` / Perfetto.

Run:  python examples/chaos_degraded_trace.py [--out PATH] [--seed N]
"""

import argparse
import os
import pathlib
import tempfile

from repro.core import polynomial_value
from repro.core.polynomial import horner
from repro.faults import FaultPlan, RetryPolicy, fault_injection
from repro.forkjoin import ForkJoinPool
from repro.obs import render_gantt, tracing, write_chrome_trace
from repro.obs.metrics import global_registry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(tempfile.gettempdir(), "chaos_degraded_trace.json"),
        help="Chrome trace output path",
    )
    parser.add_argument("--seed", type=int, default=11, help="fault-plan seed")
    args = parser.parse_args()
    # Tolerate an --out under a directory that does not exist yet (the
    # CI chaos job points into a fresh traces/ tree).
    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)

    n = 1 << 12
    coeffs = [float((i * 37) % 19 - 9) for i in range(n)]
    expected = horner(coeffs, -1.0)  # x=-1: float-exact reference

    # Strike ~30% of parallel leaves, every attempt.  Retries keep
    # failing, so the run degrades to sequential — which bypasses the
    # task tree entirely and is therefore immune to leaf injectors.
    plan = FaultPlan(seed=args.seed, name="chaos-demo").inject(
        "leaf:*", "raise", probability=0.3
    )
    before = global_registry().snapshot()
    with tracing() as tracer:
        with ForkJoinPool(parallelism=4, name="chaos") as pool:
            with fault_injection(plan):
                value = polynomial_value(
                    coeffs, -1.0, pool=pool, target_size=64,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.001),
                    fallback=True,
                )
    after = global_registry().snapshot()

    assert value == expected, (value, expected)
    spans = tracer.spans()
    path = write_chrome_trace(
        args.out, spans, metadata={"seed": args.seed, "plan": "leaf:* raise p=0.3"}
    )

    print(f"value: {value}  (matches the unfaulted reference)")
    print(f"faults injected: {plan.stats()['injected']}  by site:",
          plan.stats()["by_site"])
    recovery = ("faults_injected", "retries_attempted", "degraded_runs")
    print("recovery:", {k: after[k] - before[k] for k in recovery})
    print(f"chrome trace: {path} ({len(spans)} spans)")
    print()
    print(render_gantt(spans))
    print()
    print("chaos_degraded_trace OK")


if __name__ == "__main__":
    main()
