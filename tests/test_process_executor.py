"""Tests for the process-pool PowerFunction executor."""

import operator
import random
import threading
import time

import numpy as np
import pytest

from repro.common import IllegalArgumentError
from repro.jplf import JplfMap, JplfPolynomialValue, JplfReduce, JplfSort
from repro.jplf.process_executor import ProcessExecutor
from repro.powerlist import PowerList


def _square(x):
    """Module-level mapper (lambdas don't pickle)."""
    return x * x


def _slow_leaf(payload):
    """A leaf slow enough for a shutdown to land mid-run."""
    time.sleep(0.25)
    return payload


def _slow_square(x):
    """A mapper slow enough for a shutdown to land mid-``execute``."""
    time.sleep(0.25)
    return x * x


@pytest.fixture(scope="module")
def executor():
    with ProcessExecutor(processes=2) as ex:
        yield ex


class TestProcessExecutor:
    def test_reduce(self, executor):
        data = list(range(512))
        out = executor.execute(JplfReduce(PowerList(data), operator.add))
        assert out == sum(data)

    def test_map_with_named_function(self, executor):
        data = list(range(256))
        out = executor.execute(JplfMap(PowerList(data), _square))
        assert out == [x * x for x in data]

    def test_polynomial(self, executor):
        rng = random.Random(51)
        coeffs = [rng.uniform(-1, 1) for _ in range(512)]
        out = executor.execute(JplfPolynomialValue(PowerList(coeffs), 0.97))
        assert out == pytest.approx(np.polyval(coeffs, 0.97), rel=1e-9)

    def test_sort(self, executor):
        rng = random.Random(52)
        data = [rng.randint(0, 999) for _ in range(256)]
        assert executor.execute(JplfSort(PowerList(data))) == sorted(data)

    def test_agrees_with_sequential(self, executor):
        from repro.jplf import SequentialExecutor

        data = [(i * 37) % 101 for i in range(256)]
        fn = lambda: JplfReduce(PowerList(data), operator.add)
        assert executor.execute(fn()) == SequentialExecutor().execute(fn())

    def test_single_process_degenerates(self):
        ex = ProcessExecutor(processes=1)
        out = ex.execute(JplfReduce(PowerList([1, 2, 3, 4]), operator.add))
        assert out == 10
        ex.shutdown()

    def test_single_process_runs_unpicklable_function_in_caller(self):
        with ProcessExecutor(processes=1) as ex:
            out = ex.execute(JplfReduce(PowerList([1, 2, 3, 4]), lambda a, b: a + b))
        assert out == 10

    def test_execute_feeds_the_per_worker_series(self):
        with ProcessExecutor(processes=2) as ex:
            data = list(range(256))
            assert ex.execute(JplfReduce(PowerList(data), operator.add)) == sum(data)
            workers = ex.stats()["workers"].values()
        # One sub-function per worker, counted like any other leaf batch.
        assert sum(w["worker_leaves"] for w in workers) == 2

    def test_non_power_of_two_rejected(self):
        with pytest.raises(IllegalArgumentError):
            ProcessExecutor(processes=3)

    def test_input_smaller_than_processes_rejected(self, executor):
        with pytest.raises(IllegalArgumentError):
            executor.execute(JplfReduce(PowerList([1]), operator.add))

    def test_shared_external_pool_not_shut_down(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            ex = ProcessExecutor(processes=2, pool=pool)
            assert ex.execute(JplfReduce(PowerList([1, 2, 3, 4]), operator.add)) == 10
            ex.shutdown()  # must NOT kill the external pool
            # Pool still usable:
            assert pool.submit(_square, 3).result() == 9

    def test_four_processes(self):
        with ProcessExecutor(processes=4) as ex:
            data = list(range(1024))
            assert ex.execute(JplfReduce(PowerList(data), operator.add)) == sum(data)


class TestLifecycle:
    def test_execute_after_shutdown_rejected(self):
        from repro.common import RejectedExecutionError

        ex = ProcessExecutor(processes=2)
        ex.shutdown()
        with pytest.raises(RejectedExecutionError):
            ex.execute(JplfReduce(PowerList([1, 2, 3, 4]), operator.add))

    def test_shutdown_is_idempotent(self):
        ex = ProcessExecutor(processes=1)
        ex.shutdown()
        ex.shutdown()  # must not raise

    def test_context_manager_rejects_after_exit(self):
        from repro.common import RejectedExecutionError

        with ProcessExecutor(processes=2) as ex:
            assert ex.execute(JplfReduce(PowerList([1, 2, 3, 4]), operator.add)) == 10
        with pytest.raises(RejectedExecutionError):
            ex.execute(JplfReduce(PowerList([1, 2, 3, 4]), operator.add))

    def test_pool_reused_across_calls(self, executor):
        data = list(range(64))
        executor.execute(JplfReduce(PowerList(data), operator.add))
        pool_first = executor._pool
        executor.execute(JplfReduce(PowerList(data), operator.add))
        assert executor._pool is pool_first

    @pytest.mark.parametrize("entry", ["leaves", "jplf"])
    def test_shutdown_races_in_flight_run_without_hanging(self, entry):
        """shutdown() during an active run_leaves (or an execute, which
        scatters through it) must cancel its pending batches and surface
        RejectedExecutionError to the waiter in bounded time — not hang
        the FIRST_EXCEPTION wait loop."""
        from repro.common import RejectedExecutionError

        ex = ProcessExecutor(processes=2)
        outcome = {}
        runs = {
            # 16 slow payloads → 4 batches of 4: two batches run,
            # two sit pending when shutdown strikes.
            "leaves": lambda: ex.run_leaves(
                _slow_leaf, list(range(16)), label="race victim"
            ),
            # Two sub-functions of 8 slow elements: ~2 s per batch.
            "jplf": lambda: ex.execute(
                JplfMap(PowerList(list(range(16))), _slow_square)
            ),
        }

        def waiter():
            try:
                outcome["result"] = runs[entry]()
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.4)  # let the scatter reach the wait loop
        start = time.monotonic()
        ex.shutdown()
        assert time.monotonic() - start < 5.0, "shutdown blocked on children"
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "run_leaves hung after shutdown"
        assert isinstance(outcome.get("error"), RejectedExecutionError)
        assert "in flight" in str(outcome["error"])
        # The executor is now in the ordinary rejecting state.
        with pytest.raises(RejectedExecutionError):
            ex.run_leaves(_slow_leaf, list(range(4)))

    def test_shutdown_with_no_active_runs_stays_synchronous(self):
        ex = ProcessExecutor(processes=2)
        assert ex.run_leaves(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        ex.shutdown()  # idle: plain blocking teardown, nothing to cancel
        ex.shutdown()  # still idempotent


class TestFaultRecovery:
    """Injected child faults: raise/kill → retry on a fresh pool →
    sequential fallback, with the recovery visible in ``stats()``."""

    def test_injected_raise_recovers_via_retry(self):
        from repro.faults import FaultPlan, RetryPolicy, fault_injection

        data = list(range(256))
        plan = FaultPlan(seed=1).inject("proc:worker-0", "raise", times=1)
        with ProcessExecutor(processes=2, retry=RetryPolicy(max_attempts=2)) as ex:
            with fault_injection(plan):
                out = ex.execute(JplfReduce(PowerList(data), operator.add))
            assert out == sum(data)
            assert ex.stats()["retries"] == 1
        assert plan.stats()["injected"] == 1

    def test_killed_worker_breaks_pool_then_retry_recovers(self):
        from repro.faults import FaultPlan, RetryPolicy, fault_injection

        data = list(range(256))
        plan = FaultPlan(seed=2).inject("proc:worker-1", "kill", times=1)
        with ProcessExecutor(processes=2, retry=RetryPolicy(max_attempts=3)) as ex:
            with fault_injection(plan):
                out = ex.execute(JplfReduce(PowerList(data), operator.add))
            assert out == sum(data)
            stats = ex.stats()
        # The SIGKILL-style exit broke the ProcessPoolExecutor; the
        # executor discarded it and retried on fresh workers.
        assert stats["broken_pools"] == 1
        assert stats["retries"] == 1
        assert stats["degraded_runs"] == 0

    def test_unbounded_faults_degrade_to_sequential(self):
        from repro.faults import FaultPlan, RetryPolicy, fault_injection
        from repro.faults import policy as fault_policy

        data = list(range(256))
        plan = FaultPlan(seed=3).inject("proc:*", "raise")  # every ship, always
        before = fault_policy.stats()["degraded_runs"]
        with ProcessExecutor(
            processes=2, retry=RetryPolicy(max_attempts=2), fallback=True
        ) as ex:
            with fault_injection(plan):
                out = ex.execute(JplfReduce(PowerList(data), operator.add))
            assert out == sum(data)
            assert ex.stats()["degraded_runs"] == 1
        assert fault_policy.stats()["degraded_runs"] == before + 1

    def test_fault_without_policy_propagates(self):
        from repro.faults import FaultInjected, FaultPlan, fault_injection

        data = list(range(256))
        plan = FaultPlan(seed=4).inject("proc:worker-0", "raise", times=1)
        with ProcessExecutor(processes=2) as ex:
            with fault_injection(plan):
                with pytest.raises(FaultInjected):
                    ex.execute(JplfReduce(PowerList(data), operator.add))
