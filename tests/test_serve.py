"""Tests for ``repro.serve`` — the multi-tenant execution service.

Admission control (bounds, quota, breaker, fast-fail hints), weighted
deficit-round-robin fairness, priority shedding, deadline cancellation
between admission and dispatch, graceful sequential degradation, the
per-tenant metrics surface, the asyncio facade, and the ``serve`` fault
sites.
"""

import asyncio
import threading
import time

import pytest

from repro.common import (
    IllegalArgumentError,
    RejectedExecutionError,
    TaskTimeoutError,
)
from repro.faults import Deadline, FaultInjected, FaultPlan, fault_injection
from repro.forkjoin import ForkJoinPool
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    SHED,
    CircuitOpenError,
    DeficitRoundRobin,
    ExecutionService,
    JobShedError,
    QueueFullError,
    QuotaExceededError,
    ServiceOverloadError,
    StreamServer,
    Tenant,
    TenantConfig,
)

DATA = list(range(1_000))
DATA_SUM = sum(DATA)


def sum_pipeline(stream):
    return stream.reduce(0, lambda a, b: a + b)


def failing_pipeline(stream):
    raise ValueError("tenant bug")


class _Blocker:
    """A pipeline that parks its runner thread until released."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, stream):
        self.entered.set()
        assert self.release.wait(10.0), "blocker never released"
        return "blocked-done"


@pytest.fixture
def service():
    svc = ExecutionService(max_workers=2, global_queue_limit=8)
    svc.register_dataset("numbers", DATA)
    svc.register_tenant("alice")
    svc.register_tenant("bob")
    yield svc
    svc.shutdown_now()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


# --------------------------------------------------------------------------- #
# Registration and the happy path
# --------------------------------------------------------------------------- #


class TestBasics:
    def test_submit_and_result(self, service):
        ticket = service.submit("alice", "numbers", sum_pipeline)
        assert ticket.result(timeout=10.0) == DATA_SUM
        assert ticket.state == DONE
        assert ticket.done

    def test_one_shot_iterator_dataset_is_materialized(self, service):
        service.register_dataset("gen", iter(range(100)))
        first = service.submit("alice", "gen", sum_pipeline).result(10.0)
        second = service.submit("bob", "gen", sum_pipeline).result(10.0)
        assert first == second == sum(range(100))

    def test_unknown_tenant_and_dataset(self, service):
        with pytest.raises(IllegalArgumentError, match="unknown tenant"):
            service.submit("mallory", "numbers", sum_pipeline)
        with pytest.raises(IllegalArgumentError, match="unknown dataset"):
            service.submit("alice", "nope", sum_pipeline)

    def test_duplicate_tenant_rejected(self, service):
        with pytest.raises(IllegalArgumentError, match="already registered"):
            service.register_tenant("alice")

    def test_tenant_config_validation(self):
        with pytest.raises(IllegalArgumentError):
            TenantConfig(name="")
        with pytest.raises(IllegalArgumentError):
            TenantConfig(name="t", weight=0)
        with pytest.raises(IllegalArgumentError):
            TenantConfig(name="t", queue_limit=0)
        with pytest.raises(IllegalArgumentError):
            TenantConfig(name="t", quota=0)
        with pytest.raises(IllegalArgumentError):
            TenantConfig(name="t", breaker_cooldown=0.0)

    def test_failed_job_reraises_from_result(self, service):
        ticket = service.submit("alice", "numbers", failing_pipeline)
        assert ticket.wait(10.0)
        assert ticket.state == FAILED
        with pytest.raises(ValueError, match="tenant bug"):
            ticket.result(0.0)

    def test_submit_after_shutdown_rejected(self):
        svc = ExecutionService(max_workers=1)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice")
        svc.shutdown()
        with pytest.raises(RejectedExecutionError):
            svc.submit("alice", "numbers", sum_pipeline)

    def test_shutdown_drains_queued_jobs(self):
        svc = ExecutionService(max_workers=1)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", queue_limit=8)
        tickets = [
            svc.submit("alice", "numbers", sum_pipeline) for _ in range(4)
        ]
        svc.shutdown()  # drain=True
        assert all(t.result(0.0) == DATA_SUM for t in tickets)

    def test_shutdown_now_cancels_queued_jobs(self):
        svc = ExecutionService(max_workers=1)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", queue_limit=8)
        blocker = _Blocker()
        running = svc.submit("alice", "numbers", blocker)
        assert blocker.entered.wait(5.0)
        queued = svc.submit("alice", "numbers", sum_pipeline)
        svc.shutdown_now()
        blocker.release.set()
        assert running.result(10.0) == "blocked-done"
        assert queued.wait(10.0)
        assert queued.state == CANCELLED


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #


class TestAdmission:
    def test_tenant_queue_full_fast_fails(self):
        svc = ExecutionService(max_workers=1, global_queue_limit=16)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", queue_limit=2)
        blocker = _Blocker()
        try:
            svc.submit("alice", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            svc.submit("alice", "numbers", sum_pipeline)
            svc.submit("alice", "numbers", sum_pipeline)
            with pytest.raises(QueueFullError) as info:
                svc.submit("alice", "numbers", sum_pipeline)
            assert info.value.retry_after > 0
            assert info.value.reason == "queue_full"
            assert isinstance(info.value, RejectedExecutionError)
            assert svc.stats()["tenants"]["alice"]["rejected"] == 1
        finally:
            blocker.release.set()
            svc.shutdown_now()

    def test_global_overload_without_priority_victim(self):
        svc = ExecutionService(max_workers=1, global_queue_limit=2)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", queue_limit=8)
        blocker = _Blocker()
        try:
            svc.submit("alice", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            svc.submit("alice", "numbers", sum_pipeline)
            svc.submit("alice", "numbers", sum_pipeline)
            # Equal priority everywhere: no shed victim, hard reject.
            with pytest.raises(ServiceOverloadError) as info:
                svc.submit("alice", "numbers", sum_pipeline)
            assert info.value.reason == "overload"
            assert info.value.retry_after > 0
        finally:
            blocker.release.set()
            svc.shutdown_now()

    def test_quota_sliding_window(self):
        svc = ExecutionService(max_workers=1, global_queue_limit=16)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", quota=2, quota_window=30.0, queue_limit=8)
        blocker = _Blocker()
        try:
            svc.submit("alice", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            svc.submit("alice", "numbers", sum_pipeline)
            with pytest.raises(QuotaExceededError) as info:
                svc.submit("alice", "numbers", sum_pipeline)
            assert info.value.reason == "quota"
            assert 0 < info.value.retry_after <= 30.0
        finally:
            blocker.release.set()
            svc.shutdown_now()

    def test_rejection_latency_is_fast(self):
        svc = ExecutionService(max_workers=1, global_queue_limit=16)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", queue_limit=1)
        blocker = _Blocker()
        try:
            svc.submit("alice", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            svc.submit("alice", "numbers", sum_pipeline)
            samples = []
            for _ in range(50):
                start = time.perf_counter_ns()
                with pytest.raises(QueueFullError):
                    svc.submit("alice", "numbers", sum_pipeline)
                samples.append(time.perf_counter_ns() - start)
            samples.sort()
            median_ms = samples[len(samples) // 2] / 1e6
            assert median_ms < 1.0, f"rejection median {median_ms:.3f}ms"
        finally:
            blocker.release.set()
            svc.shutdown_now()


# --------------------------------------------------------------------------- #
# Fair scheduling
# --------------------------------------------------------------------------- #


def _fake_tenants(*configs):
    tenants = {}
    drr = DeficitRoundRobin()
    for config in configs:
        tenants[config.name] = Tenant(config)
        drr.add(config.name)
    return drr, tenants


class TestDeficitRoundRobin:
    def test_equal_weights_alternate(self):
        drr, tenants = _fake_tenants(
            TenantConfig(name="a"), TenantConfig(name="b")
        )
        for tenant in tenants.values():
            tenant.queue.extend(range(10))
        order = []
        for _ in range(6):
            tenant = drr.select(tenants)
            tenant.queue.popleft()
            order.append(tenant.name)
        assert order.count("a") == 3
        assert order.count("b") == 3

    def test_weights_skew_dispatch_share(self):
        drr, tenants = _fake_tenants(
            TenantConfig(name="heavy", weight=2.0),
            TenantConfig(name="light", weight=1.0),
        )
        for tenant in tenants.values():
            tenant.queue.extend(range(100))
        served = {"heavy": 0, "light": 0}
        for _ in range(30):
            tenant = drr.select(tenants)
            tenant.queue.popleft()
            served[tenant.name] += 1
        assert served["heavy"] == 2 * served["light"]

    def test_idle_tenant_forfeits_deficit(self):
        drr, tenants = _fake_tenants(
            TenantConfig(name="a"), TenantConfig(name="b")
        )
        tenants["a"].queue.extend(range(10))
        for _ in range(5):
            assert drr.select(tenants).name == "a"
            tenants["a"].queue.popleft()
        # b was idle throughout: its deficit must not have accumulated.
        assert tenants["b"].deficit == 0.0

    def test_empty_ring_and_idle_queues(self):
        drr = DeficitRoundRobin()
        assert drr.select({}) is None
        drr, tenants = _fake_tenants(TenantConfig(name="a"))
        assert drr.select(tenants) is None

    def test_invalid_quantum(self):
        with pytest.raises(IllegalArgumentError):
            DeficitRoundRobin(quantum=0.0)

    def test_fairness_through_service(self):
        """Two equal-weight tenants each complete about half the jobs."""
        svc = ExecutionService(max_workers=1, global_queue_limit=32)
        svc.register_dataset("numbers", list(range(64)))
        svc.register_tenant("alice", queue_limit=16)
        svc.register_tenant("bob", queue_limit=16)
        blocker = _Blocker()
        tickets = []
        try:
            svc.submit("alice", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            for _ in range(8):
                tickets.append(svc.submit("alice", "numbers", sum_pipeline))
                tickets.append(svc.submit("bob", "numbers", sum_pipeline))
            blocker.release.set()
            for ticket in tickets:
                assert ticket.result(10.0) == sum(range(64))
            stats = svc.stats()["tenants"]
            assert stats["alice"]["completed"] == 9  # 8 jobs + the blocker
            assert stats["bob"]["completed"] == 8
        finally:
            blocker.release.set()
            svc.shutdown_now()


# --------------------------------------------------------------------------- #
# Load shedding
# --------------------------------------------------------------------------- #


class TestShedding:
    def _loaded_service(self):
        svc = ExecutionService(max_workers=1, global_queue_limit=2)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("cheap", priority=0, queue_limit=8)
        svc.register_tenant("vip", priority=10, queue_limit=8)
        return svc

    def test_higher_priority_sheds_lowest_latest(self):
        svc = self._loaded_service()
        blocker = _Blocker()
        try:
            svc.submit("cheap", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            older = svc.submit("cheap", "numbers", sum_pipeline)
            newer = svc.submit("cheap", "numbers", sum_pipeline)
            vip = svc.submit("vip", "numbers", sum_pipeline)
            # The latest-submitted lowest-priority job lost its slot.
            assert newer.wait(5.0)
            assert newer.state == SHED
            with pytest.raises(JobShedError):
                newer.result(0.0)
            assert not older.done
            blocker.release.set()
            assert vip.result(10.0) == DATA_SUM
            assert older.result(10.0) == DATA_SUM
            assert svc.stats()["tenants"]["cheap"]["shed"] == 1
        finally:
            blocker.release.set()
            svc.shutdown_now()

    def test_equal_priority_never_sheds(self):
        svc = self._loaded_service()
        blocker = _Blocker()
        try:
            svc.submit("vip", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            svc.submit("vip", "numbers", sum_pipeline)
            svc.submit("vip", "numbers", sum_pipeline)
            with pytest.raises(ServiceOverloadError):
                svc.submit("vip", "numbers", sum_pipeline)
        finally:
            blocker.release.set()
            svc.shutdown_now()

    def test_explicit_priority_overrides_tenant_default(self):
        svc = self._loaded_service()
        blocker = _Blocker()
        try:
            svc.submit("cheap", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            victim = svc.submit("cheap", "numbers", sum_pipeline)
            svc.submit("cheap", "numbers", sum_pipeline, priority=5)
            shed_by = svc.submit("cheap", "numbers", sum_pipeline, priority=7)
            assert victim.wait(5.0)
            assert victim.state == SHED
            assert not shed_by.done or shed_by.state != SHED
        finally:
            blocker.release.set()
            svc.shutdown_now()


# --------------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_consecutive_failures_open_the_circuit(self):
        svc = ExecutionService(max_workers=1)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant(
            "alice", breaker_threshold=2, breaker_cooldown=30.0, queue_limit=8
        )
        try:
            first = svc.submit("alice", "numbers", failing_pipeline)
            assert first.wait(10.0)
            second = svc.submit("alice", "numbers", failing_pipeline)
            assert second.wait(10.0)
            with pytest.raises(CircuitOpenError) as info:
                svc.submit("alice", "numbers", sum_pipeline)
            assert info.value.reason == "circuit_open"
            assert 0 < info.value.retry_after <= 30.0
            assert svc.stats()["tenants"]["alice"]["breaker_trips"] == 1
        finally:
            svc.shutdown_now()

    def test_success_resets_the_streak(self):
        svc = ExecutionService(max_workers=1)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant(
            "alice", breaker_threshold=2, breaker_cooldown=30.0, queue_limit=8
        )
        try:
            fail = svc.submit("alice", "numbers", failing_pipeline)
            assert fail.wait(10.0)
            ok = svc.submit("alice", "numbers", sum_pipeline)
            assert ok.result(10.0) == DATA_SUM
            # Streak broken: one more failure must not open the circuit.
            fail = svc.submit("alice", "numbers", failing_pipeline)
            assert fail.wait(10.0)
            svc.submit("alice", "numbers", sum_pipeline).result(10.0)
        finally:
            svc.shutdown_now()

    def test_cooldown_backoff_doubles_and_caps(self):
        tenant = Tenant(
            TenantConfig(name="t", breaker_threshold=1, breaker_cooldown=10.0)
        )
        assert tenant.record_failure(now=100.0)
        assert tenant.breaker_open(now=100.0) == pytest.approx(10.0)
        assert tenant.record_failure(now=200.0)
        assert tenant.breaker_open(now=200.0) == pytest.approx(20.0)
        assert tenant.record_failure(now=300.0)
        assert tenant.breaker_open(now=300.0) == pytest.approx(40.0)
        assert tenant.record_failure(now=400.0)
        # 80s exceeds the cap: clamped to BREAKER_MAX_COOLDOWN.
        assert tenant.breaker_open(now=400.0) == pytest.approx(60.0)
        tenant.record_success()
        assert tenant.record_failure(now=500.0)
        assert tenant.breaker_open(now=500.0) == pytest.approx(10.0)


# --------------------------------------------------------------------------- #
# Deadlines: expiry between admission and dispatch (satellite)
# --------------------------------------------------------------------------- #


class TestQueuedDeadline:
    def test_deadline_expiring_in_queue_cancels_before_dispatch(self):
        pool = ForkJoinPool(parallelism=2, name="serve-deadline")
        svc = ExecutionService(max_workers=1, pool=pool)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice", queue_limit=8)
        blocker = _Blocker()
        try:
            cancelled_before = pool.stats()["tasks_cancelled"]
            svc.submit("alice", "numbers", blocker)
            assert blocker.entered.wait(5.0)
            doomed = svc.submit(
                "alice", "numbers", sum_pipeline, deadline=0.05
            )
            time.sleep(0.15)  # let the deadline lapse while queued
            blocker.release.set()
            assert doomed.wait(10.0)
            assert doomed.state == CANCELLED
            with pytest.raises(TaskTimeoutError, match="while queued"):
                doomed.result(0.0)
            # Cancelled at the serve layer: the pool never saw the job.
            assert svc.stats()["tenants"]["alice"]["cancelled"] == 1
            assert pool.stats()["tasks_cancelled"] == cancelled_before
        finally:
            blocker.release.set()
            svc.shutdown_now()
            pool.shutdown()

    def test_live_deadline_reaches_the_stream(self, service):
        deadline = Deadline.after(30.0)
        ticket = service.submit(
            "alice", "numbers", sum_pipeline, deadline=deadline
        )
        assert ticket.result(10.0) == DATA_SUM


# --------------------------------------------------------------------------- #
# Graceful degradation
# --------------------------------------------------------------------------- #


class TestDegradation:
    def test_shutdown_pool_degrades_to_sequential(self):
        pool = ForkJoinPool(parallelism=2, name="serve-degrade")
        pool.shutdown()
        svc = ExecutionService(max_workers=1, pool=pool)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice")
        try:
            ticket = svc.submit("alice", "numbers", sum_pipeline)
            assert ticket.result(10.0) == DATA_SUM
            assert svc.stats()["tenants"]["alice"]["degraded"] == 1
        finally:
            svc.shutdown_now()

    def test_degraded_job_still_honors_deadline(self):
        pool = ForkJoinPool(parallelism=2, name="serve-degrade-dl")
        pool.shutdown()
        svc = ExecutionService(max_workers=1, pool=pool)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice")
        try:
            expired = Deadline.after(0.005)
            time.sleep(0.05)
            ticket = svc.submit(
                "alice", "numbers", sum_pipeline, deadline=expired
            )
            assert ticket.wait(10.0)
            assert ticket.state in (FAILED, CANCELLED)
        finally:
            svc.shutdown_now()


# --------------------------------------------------------------------------- #
# Metrics and stats
# --------------------------------------------------------------------------- #


class TestObservability:
    def test_stats_shape(self, service):
        service.submit("alice", "numbers", sum_pipeline).result(10.0)
        stats = service.stats()
        assert set(stats) == {"in_flight", "queued", "tenants"}
        alice = stats["tenants"]["alice"]
        assert alice["completed"] == 1
        assert alice["submitted"] == 1
        assert alice["failed"] == 0
        assert alice["p50_latency_ms"] > 0
        assert "bob" in stats["tenants"]

    def test_prometheus_exposition(self, service):
        service.submit("alice", "numbers", sum_pipeline).result(10.0)
        service.register_tenant("tiny", queue_limit=1)
        blockers = [_Blocker(), _Blocker()]  # occupy both runner threads
        try:
            for blocker in blockers:
                service.submit("tiny", "numbers", blocker)
                assert blocker.entered.wait(5.0)
            service.submit("tiny", "numbers", sum_pipeline)
            with pytest.raises(QueueFullError):
                service.submit("tiny", "numbers", sum_pipeline)
        finally:
            for blocker in blockers:
                blocker.release.set()
        text = service.metrics_text()
        assert 'jobs_submitted_total{tenant="alice"}' in text
        assert 'jobs_completed_total{tenant="alice"}' in text
        assert 'reason="queue_full"' in text
        assert "serve_job_latency_ns_bucket" in text
        assert "serve_in_flight" in text

    def test_queue_wait_histogram_recorded(self, service):
        service.submit("alice", "numbers", sum_pipeline).result(10.0)
        assert (
            'serve_queue_wait_ns_count{tenant="alice"} 1'
            in service.metrics_text()
        )


# --------------------------------------------------------------------------- #
# asyncio facade
# --------------------------------------------------------------------------- #


class TestStreamServer:
    def test_concurrent_async_submissions(self):
        async def scenario():
            async with StreamServer(
                max_workers=2, global_queue_limit=32
            ) as server:
                server.register_dataset("numbers", DATA)
                server.register_tenant("alice", queue_limit=16)
                server.register_tenant("bob", queue_limit=16)
                results = await asyncio.gather(*[
                    server.submit(
                        "alice" if i % 2 == 0 else "bob",
                        "numbers", sum_pipeline,
                    )
                    for i in range(10)
                ])
                return results

        results = asyncio.run(scenario())
        assert results == [DATA_SUM] * 10

    def test_async_admission_error_raises(self):
        async def scenario():
            async with StreamServer(max_workers=1) as server:
                server.register_dataset("numbers", DATA)
                server.register_tenant("alice", quota=1, quota_window=30.0)
                blocker = _Blocker()
                task = asyncio.ensure_future(
                    server.submit("alice", "numbers", blocker)
                )
                await asyncio.get_running_loop().run_in_executor(
                    None, blocker.entered.wait, 5.0
                )
                try:
                    with pytest.raises(QuotaExceededError):
                        await server.submit("alice", "numbers", sum_pipeline)
                finally:
                    blocker.release.set()
                return await task

        assert asyncio.run(scenario()) == "blocked-done"

    def test_async_failure_propagates(self):
        async def scenario():
            async with StreamServer(max_workers=1) as server:
                server.register_dataset("numbers", DATA)
                server.register_tenant("alice")
                with pytest.raises(ValueError, match="tenant bug"):
                    await server.submit("alice", "numbers", failing_pipeline)

        asyncio.run(scenario())


# --------------------------------------------------------------------------- #
# Fault sites
# --------------------------------------------------------------------------- #


class TestServeFaultSites:
    def test_admit_site_raise(self, service):
        plan = FaultPlan(seed=7).inject(
            "serve:admit:alice", "raise", times=1, exc=FaultInjected("gate")
        )
        with fault_injection(plan):
            with pytest.raises(FaultInjected):
                service.submit("alice", "numbers", sum_pipeline)
            # Only alice's gate is struck; bob sails through.
            assert (
                service.submit("bob", "numbers", sum_pipeline).result(10.0)
                == DATA_SUM
            )
        assert plan.stats()["by_site"]["serve:admit:alice"] == 1

    def test_dispatch_site_fails_the_job(self, service):
        plan = FaultPlan(seed=7).inject(
            "serve:dispatch:alice", "raise", times=1,
            exc=FaultInjected("dispatcher"),
        )
        with fault_injection(plan):
            ticket = service.submit("alice", "numbers", sum_pipeline)
            assert ticket.wait(10.0)
        assert ticket.state == FAILED
        with pytest.raises(FaultInjected):
            ticket.result(0.0)
        # The service stays healthy for the next job.
        assert (
            service.submit("alice", "numbers", sum_pipeline).result(10.0)
            == DATA_SUM
        )

    def test_admit_site_delay_still_admits(self, service):
        plan = FaultPlan(seed=7).inject(
            "serve:admit:alice", "delay", times=1, delay=0.02
        )
        with fault_injection(plan):
            start = time.perf_counter()
            ticket = service.submit("alice", "numbers", sum_pipeline)
            elapsed = time.perf_counter() - start
        assert elapsed >= 0.02
        assert ticket.result(10.0) == DATA_SUM

    def test_admit_delay_blocks_only_its_own_caller(self):
        svc = ExecutionService(max_workers=1)
        svc.register_dataset("numbers", DATA)
        svc.register_tenant("alice")
        svc.register_tenant("bob")
        plan = FaultPlan(seed=7).inject(
            "serve:admit:alice", "delay", times=1, delay=1.0
        )
        alice_done = threading.Event()
        alice = []

        def submit_alice():
            alice.append(svc.submit("alice", "numbers", sum_pipeline))
            alice_done.set()

        try:
            with fault_injection(plan):
                thread = threading.Thread(target=submit_alice)
                thread.start()
                # The site has fired: alice is inside her delay.
                assert wait_for(
                    lambda: plan.stats()["by_site"].get("serve:admit:alice")
                )
                bob = svc.submit("bob", "numbers", sum_pipeline)
                assert not alice_done.is_set()
                assert bob.result(10.0) == DATA_SUM
                thread.join(10.0)
            assert alice_done.is_set()
            assert alice[0].result(10.0) == DATA_SUM
        finally:
            svc.shutdown()

    def test_admit_site_fires_only_for_admissible_submits(self, service):
        plan = FaultPlan(seed=7).inject(
            "serve:admit:alice", "raise", exc=QueueFullError("gate")
        )
        with fault_injection(plan):
            # Refused before admission: the site does not fire.
            with pytest.raises(IllegalArgumentError):
                service.submit("alice", "missing", sum_pipeline)
            assert "serve:admit:alice" not in plan.stats()["by_site"]
            # A strike raising an admission error is counted as a refusal.
            with pytest.raises(QueueFullError):
                service.submit("alice", "numbers", sum_pipeline)
            service.shutdown()
            with pytest.raises(RejectedExecutionError) as info:
                service.submit("alice", "numbers", sum_pipeline)
            assert type(info.value) is RejectedExecutionError
        assert plan.stats()["by_site"]["serve:admit:alice"] == 1
        rejected = service.metrics.counter(
            "jobs_rejected", tenant="alice", reason="queue_full"
        )
        assert rejected.value == 1
