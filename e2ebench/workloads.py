"""The three benchmark workloads and the hand-written code they are timed against.

Each workload generates its inputs from a seed, builds the engine objects
it needs in ``setup()`` (timed as ``setup_s``), and exposes the engine
call next to its hand-written references:

* ``poly_eval``   -- ``polynomial_value`` (``PolynomialValue`` collector on
  a ``ForkJoinPool``) vs a Horner loop and a vectorised numpy expression;
* ``etl_process`` -- a ``map -> filter -> map -> to_list`` pipeline on the
  process backend over a shared-memory array vs the same loop over a list
  and the same transform in numpy;
* ``serve_mix``   -- four tenants' short jobs through an ``ExecutionService``
  vs each job written by hand as a loop and in numpy.

Functions used inside pipelines are module-level so the process backend
can pickle them by import path.
"""

from __future__ import annotations

import math
import operator
import os
import queue
import random
import time

import numpy as np

from repro.core.polynomial import polynomial_value
from repro.forkjoin.pool import ForkJoinPool
from repro.powerlist import shm
from repro.serve import AdmissionError, ExecutionService
from repro.streams import process_backend
from repro.streams.stream import Stream

NPROC = os.cpu_count() or 1

now = time.perf_counter_ns


# --------------------------------------------------------------------------- #
# poly_eval
# --------------------------------------------------------------------------- #

POLY_SIZE = 1 << 16
POLY_POINTS = 16
POLY_REL_TOL = 1e-9


def horner_loop(coeffs: list[float], x: float) -> float:
    """Hand-written reference: Horner's rule, decreasing-degree coefficients."""
    val = 0.0
    for c in coeffs:
        val = val * x + c
    return val


def horner_numpy(coeffs: np.ndarray, powers: np.ndarray, x: float) -> float:
    """Vectorised reference: ``coeffs @ x**arange(n-1, ..., 0)``.

    Not ``np.polyval``, which runs a Python-level Horner loop and would be
    slower than the plain loop.
    """
    return float(coeffs @ (x ** powers))


class PolyEval:
    """The paper's own workload: the PowerList polynomial value."""

    name = "poly_eval"
    setups = 9
    # On a shared host a call takes one of two typical times as the host
    # switches speed within seconds (the Horner loop moves in step).  A
    # sample of four calls averages over the switches, so the p50 does not
    # jump between the two modes.
    batch = 4
    ref_every = 1

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.coeffs = [rng.uniform(-1.0, 1.0) for _ in range(POLY_SIZE)]
        # |x| in [0.5, 0.99]: far terms underflow harmlessly, the value
        # stays O(1) so a relative tolerance is meaningful.  One point per
        # stratum of that range: ``x ** powers`` runs about ten times faster
        # when no term underflows (|x| above 0.989), so every seed covers
        # the range alike.
        self.points = [
            rng.choice((-1.0, 1.0))
            * (0.5 + 0.49 * (j + rng.random()) / POLY_POINTS)
            for j in range(POLY_POINTS)
        ]
        self.coeffs_np = np.array(self.coeffs)
        self.powers = np.arange(POLY_SIZE - 1, -1, -1, dtype=np.float64)
        self.expected = [horner_loop(self.coeffs, x) for x in self.points]
        self.pool: ForkJoinPool | None = None

    def setup(self) -> None:
        self.pool = ForkJoinPool(parallelism=NPROC)
        if not self.check(0, self.call(0)):
            raise RuntimeError("poly_eval: warm call disagrees with Horner")

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    def call(self, i: int) -> float:
        x = self.points[i % POLY_POINTS]
        return polynomial_value(self.coeffs, x, pool=self.pool)

    def check(self, i: int, value: float) -> bool:
        return math.isclose(
            value, self.expected[i % POLY_POINTS],
            rel_tol=POLY_REL_TOL, abs_tol=POLY_REL_TOL,
        )

    def loop_ref(self, i: int) -> float:
        return horner_loop(self.coeffs, self.points[i % POLY_POINTS])

    def numpy_ref(self, i: int) -> float:
        return horner_numpy(self.coeffs_np, self.powers, self.points[i % POLY_POINTS])


# --------------------------------------------------------------------------- #
# etl_process
# --------------------------------------------------------------------------- #

ETL_SIZE = 1 << 16
ETL_ROUNDS = 16
ETL_MOD = 1_000_003


def etl_mix(v) -> int:
    """Stage 1: a few microseconds of pure-Python integer hashing."""
    v = int(v)
    for _ in range(ETL_ROUNDS):
        v = (v * 31 + 7) % ETL_MOD
    return v


def etl_keep(v: int) -> bool:
    """Stage 2: keeps about half of the elements."""
    return v % 2 == 0


def etl_shape(v: int) -> int:
    """Stage 3: a cheap reshaping of the survivors."""
    return v * 3 + 1


def etl_loop(values: list[int]) -> list[int]:
    """Hand-written reference: the same three stages as a plain loop."""
    out = []
    for v in values:
        w = etl_mix(v)
        if etl_keep(w):
            out.append(etl_shape(w))
    return out


def etl_numpy(values: np.ndarray) -> np.ndarray:
    """Vectorised reference of the same three stages."""
    a = values
    for _ in range(ETL_ROUNDS):
        a = (a * 31 + 7) % ETL_MOD
    return a[a % 2 == 0] * 3 + 1


class EtlProcess:
    """Bulk pure-Python work shipped to worker processes."""

    name = "etl_process"
    setups = 7
    batch = 1
    # The plain loop costs more than the engine call; timing it after every
    # other call keeps enough engine samples for a p90.
    ref_every = 2

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.data = rng.integers(0, ETL_MOD, size=ETL_SIZE, dtype=np.int64)
        self.values = self.data.tolist()
        self.expected = etl_loop(self.values)
        self.shared: np.ndarray | None = None

    def setup(self) -> None:
        self.shared = shm.share_array(self.data)
        if not self.check(0, self.call(0)):
            raise RuntimeError("etl_process: warm call disagrees with the loop")

    def teardown(self) -> None:
        process_backend.shutdown_shared_executor()
        if self.shared is not None:
            shm.release(self.shared)
            self.shared = None

    def call(self, i: int) -> list:
        return (
            Stream.of_iterable(self.shared)
            .parallel()
            .with_backend("process")
            .map(etl_mix)
            .filter(etl_keep)
            .map(etl_shape)
            .to_list()
        )

    def check(self, i: int, value) -> bool:
        return value == self.expected

    def loop_ref(self, i: int) -> list:
        return etl_loop(self.values)

    def numpy_ref(self, i: int) -> list:
        return etl_numpy(self.data).tolist()


# --------------------------------------------------------------------------- #
# serve_mix
# --------------------------------------------------------------------------- #

SERVE_SIZE = 1 << 13
SERVE_LIMIT = 100
SERVE_MOD = 4093


def sv_mix(v: int) -> int:
    return (v * 7 + 3) % 1009


def sv_odd(v: int) -> bool:
    return v % 2 == 1


def sv_scale(v: int) -> int:
    return v * 5 - 2


def sv_bucket(v: int) -> int:
    return v % SERVE_MOD


def job_fused_reduce(stream):
    return stream.map(sv_mix).filter(sv_odd).reduce(0, operator.add)


def job_counted_limit(stream):
    return stream.map(sv_mix).map(sv_scale).limit(SERVE_LIMIT).to_list()


def job_distinct_count(stream):
    return stream.map(sv_bucket).distinct().count()


def loop_fused_reduce(values):
    total = 0
    for v in values:
        w = sv_mix(v)
        if sv_odd(w):
            total += w
    return total


def loop_counted_limit(values):
    out = []
    for v in values:
        if len(out) == SERVE_LIMIT:
            break
        out.append(sv_scale(sv_mix(v)))
    return out


def loop_distinct_count(values):
    seen = set()
    for v in values:
        seen.add(sv_bucket(v))
    return len(seen)


def numpy_fused_reduce(a):
    w = (a * 7 + 3) % 1009
    return int(w[w % 2 == 1].sum())


def numpy_counted_limit(a):
    return (((a[:SERVE_LIMIT] * 7 + 3) % 1009) * 5 - 2).tolist()


def numpy_distinct_count(a):
    return int(np.unique(a % SERVE_MOD).size)


#: (tenant, pipeline, backend, hand-written loop, numpy version)
SERVE_TENANTS = (
    ("fused", job_fused_reduce, "threads", loop_fused_reduce, numpy_fused_reduce),
    ("counted", job_counted_limit, "threads", loop_counted_limit, numpy_counted_limit),
    ("distinct", job_distinct_count, "sequential", loop_distinct_count,
     numpy_distinct_count),
    ("shipped", job_fused_reduce, "process", loop_fused_reduce, numpy_fused_reduce),
)


class SettledJob:
    """One settled job as the generator saw it."""

    __slots__ = ("tenant", "start_ns", "admitted_ns", "ticket", "ok")

    def __init__(self, tenant, start_ns, admitted_ns, ticket, ok) -> None:
        self.tenant = tenant
        self.start_ns = start_ns
        self.admitted_ns = admitted_ns
        self.ticket = ticket
        self.ok = ok

    @property
    def latency_ns(self) -> int:
        return self.ticket.completed_ns - self.start_ns


class ServeMix:
    """Short multi-tenant jobs where per-job fixed costs dominate."""

    name = "serve_mix"
    setups = 9
    clients = 2 * NPROC

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.values = [rng.randrange(1 << 20) for _ in range(SERVE_SIZE)]
        self.array = np.array(self.values, dtype=np.int64)
        self.expected = [spec[3](self.values) for spec in SERVE_TENANTS]
        self.pool: ForkJoinPool | None = None
        self.service: ExecutionService | None = None
        self.rejected = 0

    def setup(self) -> None:
        self.pool = ForkJoinPool(parallelism=NPROC, name="serve-fjp")
        self.service = ExecutionService(max_workers=NPROC, pool=self.pool)
        self.service.register_dataset("data", self.values)
        for spec in SERVE_TENANTS:
            self.service.register_tenant(spec[0])
        self.service.start()
        for index, spec in enumerate(SERVE_TENANTS):
            ticket = self.service.submit(
                spec[0], "data", spec[1], backend=spec[2]
            )
            if ticket.result(60.0) != self.expected[index]:
                raise RuntimeError(f"serve_mix: warm job of {spec[0]} is wrong")

    def teardown(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
        process_backend.shutdown_shared_executor()

    def run_closed_loop(self, seconds: float) -> list[SettledJob]:
        """``clients`` closed-loop clients, client ``c`` bound to tenant
        ``c % 4``; each submits its next job when the previous settles."""
        settled: queue.SimpleQueue = queue.SimpleQueue()
        service = self.service
        jobs: list[SettledJob] = []

        def submit(client: int) -> None:
            tenant = client % len(SERVE_TENANTS)
            spec = SERVE_TENANTS[tenant]
            while True:
                start = now()
                try:
                    ticket = service.submit(spec[0], "data", spec[1], backend=spec[2])
                except AdmissionError:
                    self.rejected += 1
                    time.sleep(0.001)
                    continue
                admitted = now()
                ticket.add_done_callback(
                    lambda t, c=client, s=start, a=admitted: settled.put((c, s, a, t))
                )
                return

        end = now() + int(seconds * 1e9)
        for client in range(self.clients):
            submit(client)
        outstanding = self.clients
        while outstanding:
            client, start, admitted, ticket = settled.get(timeout=60.0)
            outstanding -= 1
            tenant = client % len(SERVE_TENANTS)
            ok = ticket.state == "done" and ticket.result(0.0) == self.expected[tenant]
            jobs.append(SettledJob(tenant, start, admitted, ticket, ok))
            if now() < end:
                submit(client)
                outstanding += 1
        return jobs

    def time_references(self) -> tuple[dict, dict, int]:
        """Time every tenant's job by hand once, as a loop and in numpy:
        ``(loop_ns, numpy_ns, failed)``, the times keyed by tenant index."""
        loop_ns: dict[int, int] = {}
        numpy_ns: dict[int, int] = {}
        failed = 0
        for index, spec in enumerate(SERVE_TENANTS):
            start = now()
            by_loop = spec[3](self.values)
            loop_ns[index] = now() - start
            start = now()
            by_numpy = spec[4](self.array)
            numpy_ns[index] = now() - start
            expected = self.expected[index]
            failed += (by_loop != expected) + (by_numpy != expected)
        return loop_ns, numpy_ns, failed


WORKLOADS = {cls.name: cls for cls in (PolyEval, EtlProcess, ServeMix)}
