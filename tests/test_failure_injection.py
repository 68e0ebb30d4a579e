"""Failure injection: exceptions and adversarial components through the
parallel machinery.

Errors must propagate out of parallel executions promptly and leave the
shared pool reusable — the properties that make a fork/join substrate
trustworthy in production.  The chaos classes at the bottom drive the
seeded fault-injection framework (``repro.faults``) against the polynomial
workload: with resilience policies on, every run must converge to the
exact unfaulted value; with them off, the first fault must fail fast.
"""

import math
import os
import random
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common import (
    CancellationError,
    IllegalStateError,
    NotPowerOfTwoError,
    RejectedExecutionError,
    TaskTimeoutError,
)
from repro.core import IdentityCollector, PowerReduceCollector, power_collect
from repro.core.polynomial import horner, polynomial_value
from repro.faults import FaultInjected, FaultPlan, RetryPolicy, fault_injection
from repro.faults import policy as fault_policy
from repro.forkjoin import ForkJoinPool, RecursiveAction, RecursiveTask
from repro.jplf import JplfPolynomialValue, ProcessExecutor, SequentialExecutor
from repro.powerlist import PowerList, shm
from repro.streams import Collector, Collectors, Stream, stream_of
from repro.streams.spliterator import Characteristics, Spliterator
from repro.streams.stream_support import StreamSupport


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="failure")
    yield p
    p.shutdown()


class TestExceptionPropagation:
    def test_map_exception_sequential(self):
        with pytest.raises(ZeroDivisionError):
            Stream.range(0, 10).map(lambda x: 1 // (x - 5)).to_list()

    def test_map_exception_parallel(self, pool):
        with pytest.raises(ZeroDivisionError):
            (
                Stream.range(0, 10_000)
                .parallel()
                .with_pool(pool)
                .map(lambda x: 1 // (x - 7777))
                .to_list()
            )

    def test_filter_exception_parallel(self, pool):
        def bad(x):
            if x == 5000:
                raise KeyError("poison")
            return True

        with pytest.raises(KeyError):
            Stream.range(0, 10_000).parallel().with_pool(pool).filter(bad).count()

    def test_accumulator_exception_parallel(self, pool):
        def explode(acc, t):
            raise ValueError("acc")

        with pytest.raises(ValueError, match="acc"):
            Stream.range(0, 1000).parallel().with_pool(pool).collect(
                lambda: [], explode, lambda a, b: a.extend(b)
            )

    def test_combiner_exception_parallel(self, pool):
        def bad_combine(a, b):
            raise RuntimeError("comb")

        with pytest.raises(RuntimeError, match="comb"):
            Stream.range(0, 1000).parallel().with_pool(pool).collect(
                lambda: [], lambda acc, t: acc.append(t), bad_combine
            )

    def test_supplier_exception_parallel(self, pool):
        collector = Collector.of(
            lambda: (_ for _ in ()).throw(OSError("sup")),
            lambda a, t: None,
            lambda a, b: a,
        )
        with pytest.raises(OSError):
            Stream.range(0, 1000).parallel().with_pool(pool).collect(collector)

    def test_pool_reusable_after_failures(self, pool):
        for _ in range(5):
            with pytest.raises(ZeroDivisionError):
                Stream.range(0, 1000).parallel().with_pool(pool).map(
                    lambda x: 1 // 0
                ).to_list()
        # The pool still computes correctly afterwards.
        assert Stream.range(0, 1000).parallel().with_pool(pool).sum() == 499500

    def test_stream_consumed_even_when_terminal_raises(self):
        s = Stream.of_items(1, 2, 3).map(lambda x: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            s.to_list()
        with pytest.raises(IllegalStateError):
            s.to_list()

    def test_power_collect_exception(self, pool):
        with pytest.raises(ArithmeticError):
            power_collect(
                PowerReduceCollector(lambda a, b: (_ for _ in ()).throw(
                    ArithmeticError("op")
                )),
                list(range(64)),
                pool=pool,
            )


class TestAdversarialSpliterators:
    def test_lying_size_estimate_still_correct(self, pool):
        class Liar(Spliterator):
            """Claims a huge size but delivers 10 elements."""

            def __init__(self):
                self.items = list(range(10))

            def try_advance(self, action):
                if self.items:
                    action(self.items.pop(0))
                    return True
                return False

            def try_split(self):
                return None

            def estimate_size(self):
                return 10**12

            def characteristics(self):
                return Characteristics.ORDERED

        out = StreamSupport.stream(Liar(), parallel=True).with_pool(pool).to_list()
        assert out == list(range(10))

    def test_never_splitting_source_parallel(self, pool):
        class Monolith(Spliterator):
            def __init__(self, n):
                self.i, self.n = 0, n

            def try_advance(self, action):
                if self.i < self.n:
                    action(self.i)
                    self.i += 1
                    return True
                return False

            def try_split(self):
                return None

            def estimate_size(self):
                return self.n - self.i

            def characteristics(self):
                return Characteristics.SIZED | Characteristics.ORDERED

        out = (
            StreamSupport.stream(Monolith(100), parallel=True)
            .with_pool(pool)
            .map(lambda x: x + 1)
            .sum()
        )
        assert out == sum(range(1, 101))

    def test_non_power2_rejected_before_work_starts(self, pool):
        calls = []
        with pytest.raises(NotPowerOfTwoError):
            power_collect(IdentityCollector(), list(range(6)), pool=pool)
        assert calls == []


class TestNumericEdgeCases:
    def test_polynomial_nan_propagates(self, pool):
        from repro.core import polynomial_value

        out = polynomial_value([1.0, float("nan"), 0.0, 0.0], 1.0, pool=pool)
        assert math.isnan(out)

    def test_polynomial_inf(self, pool):
        from repro.core import polynomial_value

        out = polynomial_value([float("inf"), 0.0], 2.0, pool=pool)
        assert math.isinf(out)

    def test_reduce_with_huge_ints(self, pool):
        data = [10**100] * 64
        out = power_collect(PowerReduceCollector(lambda a, b: a + b), data, pool=pool)
        assert out == 64 * 10**100


class TestStress:
    def test_deep_pipeline(self):
        s = Stream.range(0, 100)
        for _ in range(100):
            s = s.map(lambda x: x + 1)
        assert s.to_list() == list(range(100, 200))

    def test_wide_flat_map(self, pool):
        out = (
            Stream.range(0, 100)
            .parallel()
            .with_pool(pool)
            .flat_map(lambda x: range(100))
            .count()
        )
        assert out == 10_000

    def test_many_concurrent_parallel_streams(self, pool):
        import threading

        results = []
        lock = threading.Lock()

        def worker(seed):
            out = Stream.range(0, 2000).parallel().with_pool(pool).map(
                lambda x: x * seed
            ).sum()
            with lock:
                results.append(out == seed * sum(range(2000)))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(1, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results) and len(results) == 8

    def test_empty_stream_all_parallel_terminals(self, pool):
        make = lambda: Stream.empty().parallel().with_pool(pool)
        assert make().to_list() == []
        assert make().count() == 0
        assert make().sum() == 0
        assert make().reduce(lambda a, b: a + b).is_empty()
        assert make().min().is_empty()
        assert not make().any_match(lambda x: True)
        assert make().all_match(lambda x: False)
        assert make().find_first().is_empty()
        seen = []
        make().for_each(seen.append)
        assert seen == []


class _Sleep(RecursiveTask):
    """Leaf that sleeps, then returns a marker value."""

    def __init__(self, seconds, value=None):
        super().__init__()
        self.seconds = seconds
        self.value = value
        self.started = threading.Event()

    def compute(self):
        self.started.set()
        time.sleep(self.seconds)
        return self.value


class TestFailFastCancellation:
    """The first leaf failure must cancel the rest of the terminal's task
    tree — not merely propagate after every leaf has run."""

    def test_poisoned_collect_skips_most_of_the_tree(self):
        n = 1 << 20
        target = 2048
        leaves = n // target  # 512
        # Seeded position, constrained to the rightmost leaf: the invoking
        # worker computes the right spine inline, so that leaf is
        # deterministically among the first scheduled.  Leaves that happen
        # to complete *before* the first failure are sunk cost no
        # cancellation mechanism can reclaim, so an unconstrained random
        # position would make this assertion depend on scheduling luck.
        poison = random.Random(2026).randrange(n - target, n)

        def f(x):
            if x == poison:
                raise ZeroDivisionError("poison")
            return x * 2

        with ForkJoinPool(parallelism=8, name="failfast") as p:
            with pytest.raises(ZeroDivisionError):
                (
                    Stream.range(0, n)
                    .parallel()
                    .with_pool(p)
                    .with_target_size(target)
                    .map(f)
                    .to_list()
                )
            stats = p.stats()
        # Without fail-fast every one of the 512 leaves executes; with it
        # the cancelled subtrees never run at all.
        assert stats["tasks_executed"] < leaves // 4
        assert stats["failfast_cancellations"] >= 1
        assert stats["tasks_cancelled"] > 0

    def test_original_exception_wins_over_cancellation(self, pool):
        class Poison(Exception):
            pass

        def f(x):
            if x == 4321:
                raise Poison("first failure")
            return x

        # The caller must see the leaf's own exception, never the
        # CancellationError injected into sibling subtrees.
        with pytest.raises(Poison):
            Stream.range(0, 1 << 16).parallel().with_pool(pool).map(f).to_list()

    def test_for_each_fails_fast(self, pool):
        def f(x):
            if x == 9999:
                raise LookupError("fe")

        with pytest.raises(LookupError):
            Stream.range(0, 1 << 15).parallel().with_pool(pool).for_each(f)

    def test_match_predicate_exception_fails_fast(self, pool):
        def pred(x):
            if x == 5000:
                raise TypeError("pred")
            return False

        with pytest.raises(TypeError):
            Stream.range(0, 1 << 15).parallel().with_pool(pool).any_match(pred)

    def test_reduce_op_exception_fails_fast(self, pool):
        def op(a, b):
            raise ArithmeticError("op")

        with pytest.raises(ArithmeticError):
            Stream.range(0, 1 << 15).parallel().with_pool(pool).reduce(op)

    @pytest.mark.parametrize("terminal", ["to_list", "reduce", "for_each"])
    def test_running_sibling_leaf_stops_at_next_chunk(self, terminal):
        """Every terminal family polls the run's cancel token at chunk
        boundaries: once leaf 0 fails, leaf 1 — mid-scan over four chunks —
        stops at its next boundary instead of scanning to its end."""
        chunk = 1 << 16
        span = 4 * chunk
        leaf1_started = threading.Event()
        leaf0_failing = threading.Event()
        leaf1_calls = [0]

        def f(x):
            if x == 0:
                assert leaf1_started.wait(10), "leaf 1 never started"
                leaf0_failing.set()
                raise ZeroDivisionError("leaf 0")
            if x >= span:
                leaf1_calls[0] += 1
                if x == span:
                    leaf1_started.set()
                    assert leaf0_failing.wait(10), "leaf 0 never failed"
            return x

        with ForkJoinPool(parallelism=2, name="ff-family") as p:
            stream = (
                Stream.range(0, 2 * span)
                .parallel()
                .with_pool(p)
                .with_target_size(span)
                .map(f)
            )
            with pytest.raises(ZeroDivisionError):
                if terminal == "to_list":
                    stream.to_list()
                elif terminal == "reduce":
                    stream.reduce(0, lambda a, b: a + b)
                else:
                    stream.for_each(lambda x: None)
        assert leaf1_calls[0] <= span - chunk

    def test_power_collect_counts_cancellation(self):
        with ForkJoinPool(parallelism=4, name="pc-ff") as p:
            with pytest.raises(ArithmeticError):
                power_collect(
                    PowerReduceCollector(
                        lambda a, b: (_ for _ in ()).throw(ArithmeticError("op"))
                    ),
                    list(range(1 << 12)),
                    pool=p,
                )
            assert p.stats()["failfast_cancellations"] >= 1


class TestTaskCancellation:
    def test_cancel_unstarted_task(self):
        t = _Sleep(0)
        assert t.cancel()
        assert t.is_cancelled()
        assert t.is_done()
        with pytest.raises(CancellationError):
            t.join()

    def test_cancel_is_idempotent_and_loses_to_completion(self):
        t = _Sleep(0, value=7)
        t.run()
        assert not t.cancel()
        assert not t.is_cancelled()
        assert t.join() == 7

    def test_cancelled_task_never_computes(self):
        ran = []

        class Probe(RecursiveAction):
            def compute(self):
                ran.append(1)

        t = Probe()
        t.cancel()
        assert t.run() is False
        assert ran == []

    def test_cancelled_tasks_do_not_count_as_executed(self):
        with ForkJoinPool(parallelism=2, name="cancel-stats") as p:
            p.invoke(_Sleep(0, value=1))
            executed = p.stats()["tasks_executed"]
            t = _Sleep(0)
            t._pool = p
            t.cancel()
            stats = p.stats()
        assert stats["tasks_executed"] == executed
        assert stats["tasks_cancelled"] >= 1


class TestPoolLifecycle:
    def test_graceful_shutdown_drains_queued_work(self):
        p = ForkJoinPool(parallelism=2, name="drain")
        tasks = [p.submit(_Sleep(0.005, value=i)) for i in range(20)]
        p.shutdown()
        # Every task submitted before shutdown keeps its completion
        # guarantee: all joins return results, none hangs, none cancels.
        assert [t.join(timeout=2.0) for t in tasks] == list(range(20))
        assert p.is_shutdown()
        assert p.await_termination(timeout=2.0)
        assert p.is_terminated()

    def test_submit_after_shutdown_rejected(self):
        p = ForkJoinPool(parallelism=1, name="rej")
        p.shutdown()
        with pytest.raises(RejectedExecutionError):
            p.submit(_Sleep(0))
        # Backwards compatible: RejectedExecutionError is an IllegalStateError.
        assert issubclass(RejectedExecutionError, IllegalStateError)

    def test_shutdown_now_unblocks_every_joiner(self):
        p = ForkJoinPool(parallelism=1, name="abrupt")
        blocker = p.submit(_Sleep(0.2, value="done"))
        assert blocker.started.wait(timeout=2.0)  # worker is now occupied
        queued = [p.submit(_Sleep(10.0)) for _ in range(10)]
        start = time.monotonic()
        cancelled = p.shutdown_now()
        for t in queued:
            with pytest.raises(CancellationError):
                t.join(timeout=2.0)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0
        assert len(cancelled) == len(queued)
        # The task that was already running is never interrupted.
        assert blocker.join(timeout=2.0) == "done"
        assert p.await_termination(timeout=2.0)
        assert p.stats()["tasks_cancelled"] >= len(queued)

    def test_await_termination_times_out_on_live_pool(self):
        with ForkJoinPool(parallelism=1, name="alive") as p:
            with pytest.raises(TaskTimeoutError):
                p.await_termination(timeout=0.05)

    def test_invoke_timeout(self):
        with ForkJoinPool(parallelism=1, name="slow") as p:
            with pytest.raises(TaskTimeoutError):
                p.invoke(_Sleep(0.5, value="late"), timeout=0.05)

    def test_external_join_timeout(self):
        with ForkJoinPool(parallelism=1, name="jt") as p:
            t = p.submit(_Sleep(0.5, value="late"))
            with pytest.raises(TaskTimeoutError):
                t.join(timeout=0.05)
            # The deadline does not poison the task: a patient join works.
            assert t.join(timeout=2.0) == "late"

    def test_worker_crash_is_contained_and_worker_respawns(self):
        p = ForkJoinPool(parallelism=2, name="crashy")
        try:
            original = p._steal_for
            tripped = threading.Event()

            def sabotage(thief):
                if not tripped.is_set():
                    tripped.set()
                    raise RuntimeError("injected scheduler crash")
                return original(thief)

            p._steal_for = sabotage
            assert tripped.wait(timeout=2.0)  # an idle worker hit the bomb
            # The pool still computes correctly with its full width.
            out = (
                Stream.range(0, 10_000).parallel().with_pool(p).map(lambda x: x + 1).sum()
            )
            assert out == sum(range(1, 10_001))
            stats = p.stats()
            assert stats["worker_crashes"] == 1
        finally:
            p.shutdown()
        assert p.is_terminated()


# -- seeded chaos -------------------------------------------------------------
#
# Evaluation point -1.0 with small integer coefficients keeps float
# arithmetic exact *and* position-sensitive, so "returns the unfaulted
# value" is an equality assertion, not an approx one.


def _coeffs(n):
    return [float((i * 37) % 19 - 9) for i in range(n)]


CHAOS_SEEDS = [int(s) for s in os.environ.get("CHAOS_SEEDS", "11,23,37,58,71").split(",")]

_SCENARIOS = {
    "leaf-raise": lambda seed: FaultPlan(seed, name="leaf-raise").inject(
        "leaf:*", "raise", probability=0.25
    ),
    "combiner-raise": lambda seed: FaultPlan(seed, name="combiner-raise").inject(
        "combine:*", "raise", probability=0.25
    ),
    "worker-kill": lambda seed: FaultPlan(seed, name="worker-kill").inject(
        "worker:*", "kill", times=1
    ),
    "delay": lambda seed: FaultPlan(seed, name="delay").inject(
        "leaf:*", "delay", delay=0.0005, probability=0.1
    ),
}


def _triple(x):
    return 3 * x


def _proc_strike(seed, mode):
    """One seeded strike on a process scatter: the seed picks which of the
    first two leaf batches (``proc:worker-0`` or ``-1``) is hit."""
    batch = random.Random(seed).randrange(2)
    return FaultPlan(seed, name=f"proc-{mode}").inject(
        f"proc:worker-{batch}", mode, times=1
    )


class TestChaosMatrix:
    """Seed × scenario sweep at 2^14: resilience policies must restore the
    exact result; without them, injected raises must propagate."""

    N = 1 << 14

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    def test_parity_with_policies(self, pool, seed, scenario):
        coeffs = _coeffs(self.N)
        expected = horner(coeffs, -1.0)
        plan = _SCENARIOS[scenario](seed)
        with fault_injection(plan):
            out = polynomial_value(
                coeffs, -1.0, pool=pool,
                retry=RetryPolicy(max_attempts=3), fallback=True,
            )
        assert out == expected

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("scenario", ["leaf-raise", "combiner-raise"])
    def test_fail_fast_without_policies(self, pool, seed, scenario):
        coeffs = _coeffs(self.N)
        plan = _SCENARIOS[scenario](seed)
        with fault_injection(plan):
            with pytest.raises(FaultInjected):
                # Java's 2^14 // (4 × 4): leaves and combines to strike.
                polynomial_value(coeffs, -1.0, pool=pool, target_size=1024)
        assert plan.stats()["injected"] >= 1

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_worker_kill_contained_without_policies(self, seed):
        # A kill between tasks is absorbed by crash containment: the
        # computation still completes, the worker respawns.  The kill is
        # scoped to this pool so it cannot land on another live pool's
        # idle worker instead.
        coeffs = _coeffs(self.N)
        plan = FaultPlan(seed, name="worker-kill").inject(
            f"worker:*:chaos-kill-{seed}", "kill", times=1
        )
        with ForkJoinPool(parallelism=4, name=f"chaos-kill-{seed}") as p:
            with fault_injection(plan):
                # Java's 2^14 // (4 × 4): workers run tasks to kill.
                out = polynomial_value(coeffs, -1.0, pool=p, target_size=1024)
            assert out == horner(coeffs, -1.0)
            assert p.stats()["worker_crashes"] >= 1

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_process_execute_strike_recovers(self, seed, mode):
        def fn():
            return JplfPolynomialValue(PowerList(_coeffs(1 << 10)), -1.0)

        plan = _proc_strike(seed, mode)
        with ProcessExecutor(2, retry=RetryPolicy(max_attempts=3)) as ex:
            with fault_injection(plan):
                out = ex.execute(fn())
            assert ex.stats()["retries"] == 1
        assert out == SequentialExecutor().execute(fn())
        assert plan.stats()["injected"] == 1
        assert not shm.active_segments()

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_process_stream_strike_is_contained(self, seed, mode):
        def run():
            # Forced past one leaf: 8 leaves, so the scatter has batches
            # 0 and 1 to strike.
            return (
                Stream.range(0, self.N).parallel().with_backend("process")
                .with_target_size(self.N // 8).map(_triple).sum()
            )

        expected = Stream.range(0, self.N).map(_triple).sum()
        plan = _proc_strike(seed, mode)
        with fault_injection(plan):
            try:
                assert run() == expected
            except (FaultInjected, BrokenProcessPool):
                pass
        assert plan.stats()["injected"] == 1
        assert run() == expected
        assert not shm.active_segments()


class TestChaosSoak:
    """The acceptance workload: a 2^18 polynomial under an aggressive
    seeded plan, swept over ``CHAOS_SEEDS``."""

    N = 1 << 18
    TARGET = 512  # 512 leaves — enough tree for the fail-fast assertion

    @staticmethod
    def _plan(seed):
        return (
            FaultPlan(seed, name=f"soak-{seed}")
            .inject("leaf:*", "raise", probability=0.3)
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_soak_resilient_leg(self, seed):
        coeffs = _coeffs(self.N)
        expected = horner(coeffs, -1.0)
        before = fault_policy.stats()
        plan = self._plan(seed)
        with ForkJoinPool(parallelism=4, name=f"soak-{seed}") as p:
            with fault_injection(plan):
                out = polynomial_value(
                    coeffs, -1.0, pool=p, target_size=self.TARGET,
                    retry=RetryPolicy(max_attempts=3), fallback=True,
                )
        after = fault_policy.stats()
        assert out == expected
        assert plan.stats()["injected"] > 0
        assert after["faults_injected"] - before["faults_injected"] > 0
        recoveries = (
            after["degraded_runs"] - before["degraded_runs"]
            + after["retries_attempted"] - before["retries_attempted"]
        )
        assert recoveries > 0

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_soak_fail_fast_leg(self, seed):
        coeffs = _coeffs(self.N)
        leaves = self.N // self.TARGET
        plan = self._plan(seed)
        with ForkJoinPool(parallelism=4, name=f"soak-ff-{seed}") as p:
            with fault_injection(plan):
                with pytest.raises(FaultInjected):
                    polynomial_value(coeffs, -1.0, pool=p, target_size=self.TARGET)
            stats = p.stats()
        # With strike probability 0.3 per leaf the first fault lands
        # within the first few executed leaves; fail-fast cancellation
        # must keep the rest of the tree from running.
        assert stats["tasks_executed"] < leaves // 4
        assert stats["failfast_cancellations"] >= 1
