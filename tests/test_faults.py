"""Unit tests for the fault-injection framework (``repro.faults``).

Site-pattern matching, deterministic strike decisions, plan lifecycle,
resilience policies (retry/backoff, deadlines, graceful degradation) and
the engine hooks they drive.
"""

import time

import pytest

from repro.common import IllegalArgumentError, TaskTimeoutError
from repro.core import polynomial_value
from repro.core.polynomial import PolynomialValue, horner
from repro.core.power_collector import power_collect
from repro.faults import (
    Deadline,
    FaultInjected,
    FaultPlan,
    RetryPolicy,
    SitePattern,
    WorkerKilledError,
    current_fault_plan,
    fault_injection,
    run_resilient,
    set_fault_plan,
    site_string,
)
from repro.faults.plan import _decides_to_fire
from repro.forkjoin import ForkJoinPool
from repro.streams import Stream


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="faults")
    yield p
    p.shutdown()


COEFFS = [float((i * 37) % 19 - 9) for i in range(256)]
EXPECTED = horner(COEFFS, -1.0)  # x=-1: float-exact, position-sensitive


class TestSitePattern:
    @pytest.mark.parametrize(
        ("pattern", "kind", "qualifiers", "attrs", "expected"),
        [
            ("leaf", "leaf", (), {}, True),
            ("leaf", "combine", (), {}, False),
            ("leaf:*", "leaf", (), {}, True),  # * tolerates no qualifiers
            ("leaf:*", "leaf", ("a",), {}, True),
            ("*", "combine", (), {"depth": 2}, True),
            ("combine:depth<3", "combine", (), {"depth": 2}, True),
            ("combine:depth<3", "combine", (), {"depth": 3}, False),
            ("combine:depth<3", "combine", (), {}, False),  # missing attr
            ("leaf:size>=64", "leaf", (), {"size": 64}, True),
            ("leaf:size>=64", "leaf", (), {"size": 63}, False),
            ("worker:depth!=0", "worker", (), {"depth": 1}, True),
            ("worker:index=2", "worker", ("2",), {"index": 2}, True),
            ("worker:index=2", "worker", ("1",), {"index": 1}, False),
            ("proc:worker-2", "proc", ("worker-2",), {}, True),
            ("proc:worker-2", "proc", ("worker-1",), {}, False),
            ("proc:worker-2", "proc", (), {}, False),  # concrete needs qual
            ("proc:worker-*", "proc", ("worker-7",), {}, True),
            ("mpi:send:0->1", "mpi", ("send", "0->1"), {}, True),
            ("mpi:send:0->1", "mpi", ("send", "1->0"), {}, False),
            ("mpi:send", "mpi", ("send", "1->0"), {}, True),  # prefix match
            ("mpi", "mpi", ("send", "1->0"), {}, True),
            ("*:depth=0", "leaf", (), {"depth": 0}, True),
            ("*:depth=0", "combine", (), {"depth": 0}, True),
            ("worker:2", "worker", ("2", "pool-a"), {}, True),  # prefix
            ("worker:*:pool-a", "worker", ("2", "pool-a"), {}, True),
            ("worker:*:pool-a", "worker", ("2", "pool-b"), {}, False),
        ],
    )
    def test_matrix(self, pattern, kind, qualifiers, attrs, expected):
        assert SitePattern(pattern).matches(kind, qualifiers, attrs) is expected

    def test_empty_pattern_rejected(self):
        with pytest.raises(IllegalArgumentError):
            SitePattern("  ")

    def test_site_string(self):
        assert site_string("mpi", ("send", "0->1")) == "mpi:send:0->1"
        assert site_string("leaf") == "leaf"


class TestDeterminism:
    def test_decision_is_pure(self):
        for occ in range(50):
            a = _decides_to_fire(11, 0, occ, 0.3)
            b = _decides_to_fire(11, 0, occ, 0.3)
            assert a == b

    def test_decision_varies_with_seed(self):
        rows = [
            tuple(_decides_to_fire(seed, 0, occ, 0.5) for occ in range(64))
            for seed in range(4)
        ]
        assert len(set(rows)) > 1

    def test_probability_extremes(self):
        assert _decides_to_fire(1, 0, 0, 1.0)
        assert not _decides_to_fire(1, 0, 0, 0.0)

    def test_same_seed_same_strikes(self):
        def strikes(seed):
            plan = FaultPlan(seed=seed).inject("leaf:*", "raise", probability=0.3)
            for _ in range(100):
                plan.fire("leaf", allowed=("raise",))
            return plan.stats()["injected"]

        assert strikes(5) == strikes(5)

    def test_times_caps_strikes(self):
        plan = FaultPlan().inject("leaf", "raise", times=3)
        fired = sum(
            plan.fire("leaf", allowed=("raise",)) is not None for _ in range(10)
        )
        assert fired == 3
        assert plan.stats()["injected"] == 3
        assert plan.stats()["matched"] == 10


class TestFaultPlan:
    def test_no_plan_by_default(self):
        assert current_fault_plan() is None

    def test_context_manager_installs_and_restores(self):
        plan = FaultPlan()
        with fault_injection(plan):
            assert current_fault_plan() is plan
        assert current_fault_plan() is None

    def test_set_fault_plan_roundtrip(self):
        plan = FaultPlan()
        try:
            set_fault_plan(plan)
            assert current_fault_plan() is plan
        finally:
            set_fault_plan(None)
        assert current_fault_plan() is None

    def test_allowed_filters_modes(self):
        plan = FaultPlan().inject("leaf", "kill")
        assert plan.fire("leaf", allowed=("raise", "delay")) is None
        assert plan.fire("leaf", allowed=("kill",)) is not None

    def test_first_matching_injector_wins(self):
        plan = (
            FaultPlan()
            .inject("leaf", "delay", delay=0.5)
            .inject("leaf", "raise")
        )
        action = plan.fire("leaf", allowed=("delay", "raise"))
        assert action.mode == "delay"

    def test_custom_exception_class_and_instance(self):
        plan = FaultPlan().inject("leaf", "raise", exc=KeyError)
        assert isinstance(plan.fire("leaf").make_exception(), KeyError)
        boom = ValueError("boom")
        plan2 = FaultPlan().inject("leaf", "raise", exc=boom)
        assert plan2.fire("leaf").make_exception() is boom

    def test_kill_defaults_to_worker_killed_error(self):
        plan = FaultPlan().inject("worker:*", "kill")
        exc = plan.fire("worker", ("0",)).make_exception()
        assert isinstance(exc, WorkerKilledError)
        assert isinstance(exc, FaultInjected)

    def test_corrupt_requires_mutate(self):
        with pytest.raises(IllegalArgumentError):
            FaultPlan().inject("leaf", "corrupt")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(IllegalArgumentError):
            FaultPlan().inject("leaf", "explode")
        with pytest.raises(IllegalArgumentError):
            FaultPlan().inject("leaf", "raise", probability=1.5)
        with pytest.raises(IllegalArgumentError):
            FaultPlan().inject("leaf", "raise", times=0)
        with pytest.raises(IllegalArgumentError):
            FaultPlan().inject("leaf", "delay", delay=-1)

    def test_reset_counts_replays(self):
        plan = FaultPlan().inject("leaf", "raise", times=1)
        assert plan.fire("leaf") is not None
        assert plan.fire("leaf") is None
        plan.reset_counts()
        assert plan.fire("leaf") is not None

    def test_stats_by_site(self):
        plan = FaultPlan().inject("mpi:send", "lose")
        plan.fire("mpi", ("send", "0->1"))
        plan.fire("mpi", ("send", "0->1"))
        assert plan.stats()["by_site"]["mpi:send:0->1"] == 2


class TestRetryPolicy:
    def test_delay_schedule_is_exponential_and_capped(self):
        rp = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.35)
        assert rp.delay_for(1) == pytest.approx(0.1)
        assert rp.delay_for(2) == pytest.approx(0.2)
        assert rp.delay_for(3) == pytest.approx(0.35)  # capped

    def test_jitter_is_deterministic(self):
        a = RetryPolicy(base_delay=0.1, jitter=0.5, seed=9)
        b = RetryPolicy(base_delay=0.1, jitter=0.5, seed=9)
        assert [a.delay_for(i) for i in (1, 2, 3)] == [
            b.delay_for(i) for i in (1, 2, 3)
        ]
        c = RetryPolicy(base_delay=0.1, jitter=0.5, seed=10)
        assert [a.delay_for(i) for i in (1, 2, 3)] != [
            c.delay_for(i) for i in (1, 2, 3)
        ]

    def test_retryable_filter(self):
        rp = RetryPolicy(retry_on=(KeyError,))
        assert rp.retryable(KeyError("k"))
        assert not rp.retryable(ValueError("v"))

    def test_timeout_never_retryable(self):
        rp = RetryPolicy(retry_on=(Exception,))
        assert not rp.retryable(TaskTimeoutError("late"))

    def test_validation(self):
        with pytest.raises(IllegalArgumentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(IllegalArgumentError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(IllegalArgumentError):
            RetryPolicy(base_delay=-1)


class TestDeadline:
    def test_remaining_counts_down(self):
        d = Deadline.after(10.0)
        assert 9.0 < d.remaining() <= 10.0
        assert not d.expired

    def test_expired_after_budget(self):
        d = Deadline.after(0.01)
        time.sleep(0.03)
        assert d.expired
        assert d.remaining() == 0.0
        with pytest.raises(TaskTimeoutError):
            d.check("unit test")

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(IllegalArgumentError):
            Deadline.after(0.0)


class TestRunResilient:
    def test_success_passthrough(self):
        assert run_resilient(lambda: 42) == 42

    def test_retry_until_success(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise FaultInjected("flake")
            return "ok"

        out = run_resilient(flaky, retry=RetryPolicy(max_attempts=3))
        assert out == "ok"
        assert len(attempts) == 3

    def test_exhausted_retries_reraise(self):
        with pytest.raises(FaultInjected):
            run_resilient(
                lambda: (_ for _ in ()).throw(FaultInjected("always")),
                retry=RetryPolicy(max_attempts=2),
            )

    def test_exhausted_retries_fall_back(self):
        degraded = []
        out = run_resilient(
            lambda: (_ for _ in ()).throw(FaultInjected("always")),
            retry=RetryPolicy(max_attempts=2),
            fallback=lambda: "sequential",
            on_degrade=lambda exc: degraded.append(exc),
        )
        assert out == "sequential"
        assert isinstance(degraded[0], FaultInjected)

    def test_non_retryable_skips_to_fallback(self):
        attempts = []

        def fail():
            attempts.append(1)
            raise ValueError("permanent")

        out = run_resilient(
            fail,
            retry=RetryPolicy(max_attempts=5, retry_on=(KeyError,)),
            fallback=lambda: "plan-b",
        )
        assert out == "plan-b"
        assert len(attempts) == 1  # no pointless re-attempts

    def test_timeout_skips_retries(self):
        attempts = []

        def too_slow():
            attempts.append(1)
            raise TaskTimeoutError("overran")

        with pytest.raises(TaskTimeoutError):
            run_resilient(too_slow, retry=RetryPolicy(max_attempts=5))
        assert len(attempts) == 1

    def test_expired_deadline_blocks_attempt(self):
        d = Deadline.after(0.01)
        time.sleep(0.03)
        ran = []
        out = run_resilient(
            lambda: ran.append(1), deadline=d, fallback=lambda: "late-plan-b"
        )
        assert out == "late-plan-b"
        assert ran == []

    def test_keyboard_interrupt_never_degrades(self):
        def interrupted():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            run_resilient(interrupted, fallback=lambda: "nope")

    def test_on_retry_callback(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise FaultInjected("f")
            return 1

        run_resilient(
            flaky,
            retry=RetryPolicy(max_attempts=3),
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert seen == [1, 2]


class TestStreamInjection:
    def test_leaf_raise_fails_parallel_collect(self, pool):
        plan = FaultPlan(seed=1).inject("leaf:*", "raise", times=1)
        with fault_injection(plan):
            with pytest.raises(FaultInjected):
                polynomial_value(COEFFS, -1.0, pool=pool)
        assert plan.stats()["injected"] == 1

    def test_combine_depth_constraint(self, pool):
        plan = FaultPlan(seed=2).inject("combine:depth<1", "raise", times=1)
        with fault_injection(plan):
            with pytest.raises(FaultInjected):
                # Java's 256 // (4 × 4): a tree with combines to strike.
                polynomial_value(COEFFS, -1.0, pool=pool, target_size=16)
        by_site = plan.stats()["by_site"]
        assert by_site.get("combine") == 1

    def test_corrupt_leaf_changes_result(self, pool):
        plan = FaultPlan(seed=3).inject(
            "leaf:*", "corrupt", times=1, mutate=lambda c: c
        )
        # Identity mutate: result must still be correct; the hook ran.
        with fault_injection(plan):
            out = polynomial_value(COEFFS, -1.0, pool=pool)
        assert out == EXPECTED
        assert plan.stats()["injected"] == 1

    def test_sequential_collect_immune_to_leaf_injectors(self, pool):
        plan = FaultPlan(seed=4).inject("leaf:*", "raise")
        with fault_injection(plan):
            out = polynomial_value(COEFFS, -1.0, parallel=False, pool=pool)
        assert out == EXPECTED
        assert plan.stats()["injected"] == 0

    def test_retry_recovers_exact_value(self, pool):
        plan = FaultPlan(seed=5).inject("leaf:*", "raise", times=2)
        with fault_injection(plan):
            out = polynomial_value(
                COEFFS, -1.0, pool=pool, retry=RetryPolicy(max_attempts=4)
            )
        assert out == EXPECTED
        assert plan.stats()["injected"] == 2

    def test_fallback_recovers_under_unbounded_faults(self, pool):
        plan = FaultPlan(seed=6).inject("leaf:*", "raise")  # every leaf, always
        with fault_injection(plan):
            out = polynomial_value(
                COEFFS, -1.0, pool=pool,
                retry=RetryPolicy(max_attempts=2), fallback=True,
            )
        assert out == EXPECTED  # sequential fallback bypasses leaf sites

    def test_reset_clears_descending_phase_state(self, pool):
        pv = PolynomialValue(-1.0)
        plan = FaultPlan(seed=7).inject("combine:*", "raise", times=1)
        with fault_injection(plan):
            out = power_collect(
                pv, COEFFS, pool=pool,
                retry=RetryPolicy(max_attempts=3), fallback=True,
            )
        assert out == EXPECTED

    def test_worker_kill_is_contained_and_respawned(self):
        # Scoped to this pool: the pattern is process-wide, and an idle
        # worker of another pool could otherwise take the single strike.
        plan = FaultPlan(seed=8).inject("worker:*:killable", "kill", times=1)
        with ForkJoinPool(parallelism=2, name="killable") as p:
            with fault_injection(plan):
                out = (
                    Stream.range(0, 10_000)
                    .parallel()
                    .with_pool(p)
                    .map(lambda x: x + 1)
                    .sum()
                )
            assert out == sum(range(1, 10_001))
            stats = p.stats()
        assert plan.stats()["injected"] == 1
        assert stats["worker_crashes"] >= 1

    def test_worker_kill_scoped_to_one_pool(self):
        plan = FaultPlan(seed=9).inject("worker:*:kill-target", "kill", times=1)
        with (
            ForkJoinPool(parallelism=2, name="kill-bystander") as bystander,
            ForkJoinPool(parallelism=2, name="kill-target") as target,
        ):
            with fault_injection(plan):
                for p in (bystander, target):
                    # Java's 10_000 // (4 × 2): both runs fork tasks.
                    out = (
                        Stream.range(0, 10_000)
                        .parallel()
                        .with_pool(p)
                        .with_target_size(1250)
                        .map(lambda x: x + 1)
                        .sum()
                    )
                    assert out == sum(range(1, 10_001))
            assert plan.stats()["injected"] == 1
            assert target.stats()["worker_crashes"] == 1
            assert bystander.stats()["worker_crashes"] == 0

    def test_injection_disabled_is_free_of_side_effects(self, pool):
        assert current_fault_plan() is None
        assert polynomial_value(COEFFS, -1.0, pool=pool) == EXPECTED


class TestDeadlinePropagation:
    def test_with_deadline_seconds_coerced(self, pool):
        out = (
            Stream.range(0, 1000)
            .parallel()
            .with_pool(pool)
            .with_deadline(30.0)
            .sum()
        )
        assert out == 499500

    def test_expired_deadline_raises_before_work(self, pool):
        d = Deadline.after(0.01)
        time.sleep(0.03)
        with pytest.raises(TaskTimeoutError):
            Stream.range(0, 1000).parallel().with_pool(pool).with_deadline(d).sum()

    def test_deadline_bounds_slow_terminal(self):
        def slow(x):
            time.sleep(0.05)
            return x

        with ForkJoinPool(parallelism=2, name="deadline") as p:
            with pytest.raises(TaskTimeoutError):
                (
                    Stream.range(0, 64)
                    .parallel()
                    .with_pool(p)
                    .with_target_size(1)
                    .with_deadline(0.1)
                    .map(slow)
                    .to_list()
                )

    def test_deadline_survives_derivation(self, pool):
        d = Deadline.after(30.0)
        s = Stream.range(0, 100).parallel().with_pool(pool).with_deadline(d)
        assert s.map(lambda x: x * 2).filter(lambda x: x % 4 == 0).count() == 50

    def test_power_collect_deadline(self, pool):
        d = Deadline.after(0.01)
        time.sleep(0.03)
        with pytest.raises(TaskTimeoutError):
            power_collect(PolynomialValue(-1.0), COEFFS, pool=pool, deadline=d)

    def test_power_collect_deadline_with_fallback_degrades(self, pool):
        d = Deadline.after(0.01)
        time.sleep(0.03)
        out = power_collect(
            PolynomialValue(-1.0), COEFFS, pool=pool, deadline=d, fallback=True
        )
        assert out == EXPECTED
