"""Tests for the multi-process parallel backend and shared-memory shipping.

Covers the full stack of PR "process backend": the shm segment registry
and descriptor round-trips, PowerList descriptor pickling, backend
selection controls, result parity across the five terminal families,
deadline propagation into leaf submission, worker-kill chaos (broken-pool
containment and sequential degradation), and the labeled metrics the
executor exports.
"""

import functools
import operator
import pickle
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.common import IllegalArgumentError, TaskTimeoutError
from repro.jplf.process_executor import ProcessExecutor, current_leaf_cancel
from repro.powerlist import PowerList, shm
from repro.streams import (
    Collector,
    CollectorCharacteristics,
    EngineConfig,
    Stream,
    current_config,
    engine,
    stream_of,
)
from repro.streams import collectors
from repro.streams import process_backend as pb
from repro.streams.ops import FilterOp, LimitOp, MapOp
from repro.streams.optional import Optional
from repro.streams.parallel import plan_segment
from repro.streams.spliterators import ListSpliterator, RangeSpliterator
from repro.streams.terminal import Collect, ForEach, Match, Reduce


# --------------------------------------------------------------------------- #
# Module-level functions: everything crossing the process boundary must pickle
# --------------------------------------------------------------------------- #

def _double(x):
    return x * 2


def _is_even(x):
    return x % 2 == 0


def _over(x, threshold):
    return x > threshold


def _odd_or_empty(x):
    return Optional.of(x) if x % 2 else Optional.empty()


def _slow_identity(x):
    time.sleep(0.4)
    return x


def _new_list():
    return []


def _acc_append(container, item):
    container.append(item)


def _combine_extend(a, b):
    a.extend(b)
    return a


@pytest.fixture
def executor():
    with ProcessExecutor(processes=2) as ex:
        yield ex


def _run_planned(spliterator, ops, terminal, *, executor, target_size=None,
                 deadline=None, budget=None):
    """Plan one process segment for ``executor``'s workers and run it there:
    the stream path's two steps, with the run's own deadline and a
    ``limit(budget)`` cut that every leaf runs and the scatter stops at."""
    config = EngineConfig(backend="process")
    segment = plan_segment(
        spliterator, ops, executor.processes, target_size, config
    )
    leaf_ops = segment.ops if budget is None else [*segment.ops, LimitOp(budget)]
    return pb.run_segment(
        segment.source, leaf_ops, terminal, config, segment.decision,
        deadline, executor, budget,
    )


# --------------------------------------------------------------------------- #
# Shared-memory storage and descriptors
# --------------------------------------------------------------------------- #

class TestSharedMemoryStorage:
    def test_share_describe_rebuild_roundtrip(self):
        arr = shm.share_array(np.arange(64, dtype=np.int64))
        try:
            desc = shm.describe(arr)
            assert desc is not None
            rebuilt = shm.rebuild(desc)
            assert np.array_equal(rebuilt, arr)
        finally:
            shm.detach_all()
            shm.release(arr)
        assert shm.active_segments() == []

    def test_views_ship_as_descriptors(self):
        arr = shm.share_array(np.arange(64, dtype=np.int64))
        try:
            half = arr[:32]
            comb = arr[1::2]
            for view in (half, comb):
                desc = shm.describe(view)
                assert desc is not None
                assert np.array_equal(shm.rebuild(desc), view)
        finally:
            shm.detach_all()
            shm.release(arr)

    def test_unshared_array_yields_no_descriptor(self):
        assert shm.describe(np.arange(8)) is None
        assert shm.storage_of(np.arange(8)) is None

    def test_rejects_2d_and_object_dtype(self):
        with pytest.raises(IllegalArgumentError):
            shm.share_array(np.zeros((2, 2)))
        with pytest.raises(IllegalArgumentError):
            shm.share_array(np.array([object()], dtype=object))

    def test_release_is_idempotent_and_tracked(self):
        arr = shm.share_array(np.arange(8, dtype=np.float64))
        name = shm.storage_of(arr).name
        assert name in shm.active_segments()
        shm.release(arr)
        assert name not in shm.active_segments()
        shm.release(arr)  # no-op


class TestPowerListDescriptorPickling:
    def test_tie_zip_views_pickle_compactly(self):
        arr = shm.share_array(np.arange(1024, dtype=np.int64))
        try:
            plist = PowerList(arr)
            left, right = plist.tie_split()
            even, odd = plist.zip_split()
            raw = len(pickle.dumps(np.asarray(arr).copy()))
            for view in (plist, left, right, even, odd):
                blob = pickle.dumps(view)
                # A descriptor, not a data copy: orders of magnitude smaller.
                assert len(blob) < raw / 10
                assert pickle.loads(blob).to_list() == view.to_list()
        finally:
            shm.detach_all()
            shm.release(arr)

    def test_plain_powerlist_still_pickles_by_value(self):
        plist = PowerList([1, 2, 3, 4])
        assert pickle.loads(pickle.dumps(plist)).to_list() == [1, 2, 3, 4]


# --------------------------------------------------------------------------- #
# Backend selection controls
# --------------------------------------------------------------------------- #

class TestBackendControls:
    def test_default_is_threads(self):
        assert current_config().backend == "threads"

    def test_set_and_restore(self):
        previous = current_config().backend
        with engine(backend="sequential"):
            assert previous == "threads"
            assert current_config().backend == "sequential"
        assert current_config().backend == previous

    def test_context_manager_scopes(self):
        with engine(backend="process"):
            assert current_config().backend == "process"
        assert current_config().backend == "threads"

    def test_unknown_backend_rejected(self):
        with pytest.raises(IllegalArgumentError, match="unknown parallel backend"):
            with engine(backend="gpu"):
                pass
        with pytest.raises(IllegalArgumentError):
            Stream.range(0, 4).parallel().with_backend("nope")

    def test_stream_of_backend_kwarg(self):
        out = stream_of(range(64), parallel=True, backend="sequential").to_list()
        assert out == list(range(64))

    def test_unpicklable_function_reports_clearly(self):
        stream = Stream.range(0, 64).parallel().with_backend("process")
        with pytest.raises(IllegalArgumentError, match="picklable"):
            stream.map(lambda x: x + 1).to_list()

    def test_pickling_verdict_is_per_shape(self):
        # Every terminal is checked afresh, with no cached verdict: the
        # same picklable shape passes again, an unpicklable stage in the
        # same position fails every time.
        terminal = Reduce(operator.add, identity=0, has_identity=True)
        for _ in range(2):
            assert pb.shipped_terminal(terminal, [MapOp(abs)]) is terminal
        for _ in range(2):
            with pytest.raises(IllegalArgumentError, match="picklable"):
                pb.shipped_terminal(terminal, [MapOp(lambda x: x)])
        unpicklable = Reduce(lambda a, b: a + b, identity=0, has_identity=True)
        for _ in range(2):
            with pytest.raises(IllegalArgumentError, match="picklable"):
                pb.shipped_terminal(unpicklable, [MapOp(abs)])


# --------------------------------------------------------------------------- #
# Terminal parity: process backend == threads backend == sequential
# --------------------------------------------------------------------------- #

class TestTerminalParity:
    def _sources(self):
        yield Stream.range(0, 1 << 10)
        yield Stream.of_iterable([(i * 37) % 101 for i in range(1 << 10)])

    def test_collect_to_list(self):
        for make in (lambda: Stream.range(0, 1 << 10),):
            expected = make().map(_double).to_list()
            got = (
                make().parallel().with_backend("process").map(_double).to_list()
            )
            assert got == expected

    def test_collect_over_shared_array(self):
        arr = shm.share_array(np.arange(1 << 10, dtype=np.int64))
        try:
            expected = [x * 2 for x in range(1 << 10)]
            got = (
                Stream.of_iterable(arr)
                .parallel()
                .with_backend("process")
                .map(_double)
                .to_list()
            )
            assert got == expected
        finally:
            shm.release(arr)

    def test_collect_with_picklable_collector(self, executor):
        collector = Collector.of(
            _new_list, _acc_append, _combine_extend, None,
            CollectorCharacteristics.IDENTITY_FINISH,
        )
        got = _run_planned(
            RangeSpliterator(0, 256), [], Collect(collector),
            target_size=32, executor=executor,
        )
        assert got == list(range(256))

    def test_reduce_with_and_without_identity(self):
        expected = sum(range(1 << 10))
        stream = Stream.range(0, 1 << 10).parallel().with_backend("process")
        assert stream.reduce(0, operator.add) == expected
        opt = (
            Stream.range(0, 1 << 10)
            .parallel()
            .with_backend("process")
            .reduce(operator.add)
        )
        assert opt.get() == expected
        empty = Stream.empty().parallel().with_backend("process").reduce(operator.add)
        assert not empty.is_present()

    def test_match_family(self):
        def make():
            return Stream.range(0, 1 << 12).parallel().with_backend("process")

        assert make().any_match(functools.partial(_over, threshold=4000))
        assert not make().any_match(functools.partial(_over, threshold=1 << 13))
        assert make().all_match(functools.partial(_over, threshold=-1))
        assert make().none_match(functools.partial(_over, threshold=1 << 13))

    def test_empty_optionals_cross_the_process_boundary(self):
        got = (
            Stream.range(0, 8)
            .parallel()
            .with_backend("process")
            .with_target_size(2)
            .map(_odd_or_empty)
            .to_list()
        )
        assert [o.is_present() for o in got] == [False, True] * 4
        assert [o.get() for o in got if o.is_present()] == [1, 3, 5, 7]

    def test_find_first_keeps_encounter_order(self):
        got = (
            Stream.range(0, 1 << 12)
            .parallel()
            .with_backend("process")
            .filter(functools.partial(_over, threshold=2000))
            .find_first()
        )
        assert got.get() == 2001

    def test_find_any_finds_some_element(self):
        got = (
            Stream.range(0, 1 << 12)
            .parallel()
            .with_backend("process")
            .filter(_is_even)
            .find_any()
        )
        assert got.get() % 2 == 0

    def test_for_each_runs_in_workers(self, executor):
        # Side effects land in the child; the parent only observes
        # completion without error.
        _run_planned(
            RangeSpliterator(0, 128), [], ForEach(_double),
            target_size=16, executor=executor,
        )

    def test_stateful_barrier_pipeline(self):
        data = [(i * 29) % 61 for i in range(512)]
        expected = sorted(set(x * 2 for x in data))[:100]
        got = (
            stream_of(data, parallel=True, backend="process")
            .map(_double)
            .distinct()
            .sorted()
            .limit(100)
            .to_list()
        )
        assert got == expected

    def test_sequential_backend_matches(self):
        expected = Stream.range(0, 512).map(_double).to_list()
        got = (
            Stream.range(0, 512)
            .parallel()
            .with_backend("sequential")
            .map(_double)
            .to_list()
        )
        assert got == expected


def _ties(i):
    # Equal values of two types, so a result shows which tie it kept.
    return float(i % 7) if i % 2 else i % 7


class TestBuiltinReductions:
    """``sum``/``min``/``max`` reduce with module-level functions, so they
    run on every backend; a tie keeps the first element."""

    @pytest.mark.parametrize("size", [8, 1 << 15])
    @pytest.mark.parametrize("backend", ["sequential", "threads", "process"])
    def test_sum_min_max_on_every_backend(self, backend, size):
        data = [_ties(i) for i in range(size)]
        keyed = [(i % 7, i) for i in range(size)]
        key = operator.itemgetter(0)

        def stream(values):
            return (
                stream_of(values, parallel=True, backend=backend)
                .with_target_size(max(size // 4, 1))
            )

        assert stream(data).sum() == sum(data)
        for reduce, builtin in (("min", min), ("max", max)):
            got = getattr(stream(data), reduce)().get()
            assert got == builtin(data)
            assert type(got) is type(builtin(data))
            assert getattr(stream(keyed), reduce)(key).get() == builtin(
                keyed, key=key
            )
        assert not stream([]).min().is_present()
        assert stream([]).sum() == 0


class TestCountingShipsCounts:
    def test_counting_ships_itself_and_leaves_return_counts(self, monkeypatch):
        assert collectors.counting() is collectors.counting()
        terminal = Collect(collectors.counting())
        assert pb.shipped_terminal(terminal, [MapOp(_double)]) is terminal
        seen = []
        run_leaves = ProcessExecutor.run_leaves

        def spy(self, runner, payloads, **kwargs):
            results = run_leaves(self, runner, payloads, **kwargs)
            seen.append(pickle.dumps(results))  # the merge folds in place
            return results

        monkeypatch.setattr(ProcessExecutor, "run_leaves", spy)
        n = 1 << 16
        got = (
            Stream.range(0, n).parallel().with_backend("process")
            .with_target_size(n // 4).map(_double).count()
        )
        assert got == n
        (shipped,) = seen
        # One count per leaf crosses the boundary, not the leaf's elements.
        assert pickle.loads(shipped) == [[n // 4]] * 4
        assert len(shipped) < 100


# --------------------------------------------------------------------------- #
# Deadlines: with_deadline must bound process-backend leaf submission
# --------------------------------------------------------------------------- #

class TestDeadlinePropagation:
    def test_deadline_cancels_outstanding_leaf_batches(self):
        with ProcessExecutor(processes=1) as ex:
            started = time.perf_counter()
            with pytest.raises(TaskTimeoutError):
                _run_planned(
                    RangeSpliterator(0, 4),
                    [MapOp(_slow_identity)],
                    Collect(_list_collector()),
                    target_size=1,
                    deadline=_deadline_after(0.25),
                    executor=ex,
                )
            elapsed = time.perf_counter() - started
            # Raised promptly at the deadline, not after every 0.4 s leaf.
            assert elapsed < 1.5
            assert ex.stats()["deadline_timeouts"] >= 1

    def test_stream_with_deadline_reaches_backend(self):
        with ProcessExecutor(processes=1) as ex:
            original = pb._shared_executor
            pb._shared_executor = ex
            try:
                with pytest.raises(TaskTimeoutError):
                    (
                        Stream.range(0, 4)
                        .parallel()
                        .with_backend("process")
                        .with_target_size(1)
                        .with_deadline(0.25)
                        .map(_slow_identity)
                        .to_list()
                    )
            finally:
                pb._shared_executor = original


def _deadline_after(seconds):
    from repro.faults.policy import Deadline

    return Deadline.after(seconds)


def _list_collector():
    return Collector.of(
        _new_list, _acc_append, _combine_extend, None,
        CollectorCharacteristics.IDENTITY_FINISH,
    )


# --------------------------------------------------------------------------- #
# Chaos: worker kills, broken-pool containment, sequential degradation
# --------------------------------------------------------------------------- #

class TestWorkerChaos:
    def test_kill_breaks_pool_then_retry_recovers(self):
        from repro.faults import FaultPlan, RetryPolicy, fault_injection

        plan = FaultPlan(seed=11).inject("proc:worker-0", "kill", times=1)
        with ProcessExecutor(processes=2, retry=RetryPolicy(max_attempts=3)) as ex:
            with fault_injection(plan):
                got = _run_planned(
                    RangeSpliterator(0, 512), [], Collect(_list_collector()),
                    target_size=64, executor=ex,
                )
            assert got == list(range(512))
            stats = ex.stats()
        assert stats["broken_pools"] >= 1
        assert stats["retries"] >= 1

    def test_unbounded_kills_degrade_to_sequential(self):
        from repro.faults import FaultPlan, RetryPolicy, fault_injection

        plan = FaultPlan(seed=12).inject("proc:*", "kill")  # every batch, always
        with ProcessExecutor(
            processes=2, retry=RetryPolicy(max_attempts=2), fallback=True
        ) as ex:
            with fault_injection(plan):
                got = _run_planned(
                    RangeSpliterator(0, 256), [], Collect(_list_collector()),
                    target_size=64, executor=ex,
                )
            assert got == list(range(256))
            assert ex.stats()["degraded_runs"] == 1

    def test_kill_without_policy_is_contained(self):
        from repro.faults import FaultPlan, fault_injection

        plan = FaultPlan(seed=13).inject("proc:worker-0", "kill", times=1)
        with ProcessExecutor(processes=2) as ex:
            with fault_injection(plan):
                with pytest.raises(BrokenProcessPool):
                    _run_planned(
                        RangeSpliterator(0, 256), [], Collect(_list_collector()),
                        target_size=64, executor=ex,
                    )
            # The broken pool was discarded; the next run forks a fresh
            # one and succeeds.
            got = _run_planned(
                RangeSpliterator(0, 256), [], Collect(_list_collector()),
                target_size=64, executor=ex,
            )
            assert got == list(range(256))
            assert ex.stats()["broken_pools"] == 1

    def test_kill_containment_covers_submit_time_breakage(self):
        """A killed worker can fail the pool *between submits*, so the
        BrokenProcessPool surfaces from ``pool.submit`` rather than from
        a future — containment must count and discard on that path too.
        Repeated trials cover both timings (which one occurs is a race
        against the dying child)."""
        from repro.faults import FaultPlan, fault_injection

        with ProcessExecutor(processes=2) as ex:
            for trial in range(4):
                plan = FaultPlan(seed=100 + trial).inject(
                    "proc:worker-0", "kill", times=1
                )
                with fault_injection(plan):
                    with pytest.raises(BrokenProcessPool):
                        _run_planned(
                            RangeSpliterator(0, 256), [], Collect(_list_collector()),
                            target_size=64, executor=ex,
                        )
                # Exactly one containment per trial, and the next run
                # always gets a fresh pool.
                assert ex.stats()["broken_pools"] == trial + 1
                got = _run_planned(
                    RangeSpliterator(0, 256), [], Collect(_list_collector()),
                    target_size=64, executor=ex,
                )
                assert got == list(range(256))


# --------------------------------------------------------------------------- #
# Explain and metrics integration
# --------------------------------------------------------------------------- #

class TestExplainAndMetrics:
    def test_explain_reports_backend_and_shipping(self):
        plan = (
            Stream.range(0, 1 << 12)
            .parallel()
            .with_backend("process")
            .map(_double)
            .explain()
            .to_dict()
        )
        assert plan["execution"]["backend"] == "process"
        assert plan["execution"]["pool"] == "process"
        assert plan["execution"]["shipping"] == "descriptor"

    def test_explain_shipping_modes(self):
        arr = shm.share_array(np.arange(64, dtype=np.int64))
        try:
            shared_plan = (
                Stream.of_iterable(arr)
                .parallel()
                .with_backend("process")
                .explain()
                .to_dict()
            )
            assert shared_plan["execution"]["shipping"] == "shm-descriptor"
            pickled_plan = (
                stream_of([1, 2, 3, 4], parallel=True, backend="process")
                .explain()
                .to_dict()
            )
            assert pickled_plan["execution"]["shipping"] == "pickle"
        finally:
            shm.release(arr)

    def test_explain_threads_default_unchanged(self):
        plan = Stream.range(0, 64).parallel().explain().to_dict()
        assert plan["execution"]["backend"] == "threads"
        assert "shipping" not in plan["execution"]

    def test_explain_sequential_backend_downgrade(self):
        plan = (
            Stream.range(0, 64)
            .parallel()
            .with_backend("sequential")
            .explain()
            .to_dict()
        )
        assert plan["execution"]["parallel"] is False
        assert plan["execution"]["backend"] == "sequential"

    def test_render_mentions_backend(self):
        text = str(
            Stream.range(0, 64).parallel().with_backend("process").explain()
        )
        assert "backend=process" in text
        assert "shipping: descriptor" in text

    def test_prom_metrics_cover_process_runs(self, executor):
        from repro.obs.prom import render

        _run_planned(
            RangeSpliterator(0, 256), [], Collect(_list_collector()),
            target_size=64, executor=executor,
        )
        text = render(executor.metrics)
        assert 'runs_total{pool="process",processes="2"} 1' in text
        assert 'worker_batches_total{' in text
        assert 'pool="process"' in text
        stats = executor.stats()
        assert stats["runs"] == 1
        assert sum(w["worker_batches"] for w in stats["workers"].values()) >= 1
        assert sum(w["worker_leaves"] for w in stats["workers"].values()) == 4


# --------------------------------------------------------------------------- #
# Leaf splitting invariants
# --------------------------------------------------------------------------- #

class TestLeafSplitting:
    def test_split_preserves_encounter_order(self):
        leaves = pb.split_to_leaves(RangeSpliterator(0, 1000), 100)
        flattened = []
        for leaf in leaves:
            chunk = leaf.next_chunk(10_000)
            flattened.extend(chunk if chunk is not None else [])
        assert flattened == list(range(1000))

    def test_unsplittable_source_is_single_leaf(self):
        leaves = pb.split_to_leaves(ListSpliterator([1, 2, 3]), 1)
        total = []
        for leaf in leaves:
            chunk = leaf.next_chunk(100)
            total.extend(chunk if chunk is not None else [])
        assert sorted(total) == [1, 2, 3]

    def test_source_specs_by_kind(self):
        assert pb._leaf_source_spec(RangeSpliterator(3, 9))[0] == "range"
        assert pb._leaf_source_spec(ListSpliterator([1, 2]))[0] == "seq"
        arr = shm.share_array(np.arange(16, dtype=np.int64))
        try:
            spec = pb._leaf_source_spec(ListSpliterator(arr))
            assert spec[0] == "shm"
        finally:
            shm.release(arr)


# --------------------------------------------------------------------------- #
# Cross-process cancellation: SharedFlag and chunk-boundary leaf abort
# --------------------------------------------------------------------------- #

class TestSharedFlag:
    def test_lifecycle_and_leak_guard(self):
        flag = shm.SharedFlag.create()
        assert not flag.is_set()
        # The leak guard must see an abandoned flag like any segment.
        assert flag.name in shm.active_segments()
        attached = shm.SharedFlag.attach(flag.name)
        assert not attached.is_set()
        flag.set()
        assert attached.is_set()
        attached.close()
        flag.close()
        assert flag.name not in shm.active_segments()
        assert not flag.is_set()  # a closed flag reads as clear

    def test_attacher_side_set_is_visible_to_owner(self):
        flag = shm.SharedFlag.create()
        try:
            attached = shm.SharedFlag.attach(flag.name)
            attached.set()
            attached.close()
            assert flag.is_set()
        finally:
            flag.close()

    def test_attach_after_unlink_raises(self):
        flag = shm.SharedFlag.create()
        name = flag.name
        flag.close()
        with pytest.raises(FileNotFoundError):
            shm.SharedFlag.attach(name)

    def test_close_is_idempotent(self):
        flag = shm.SharedFlag.create()
        flag.close()
        flag.close()

    def test_no_flag_outside_a_batch(self):
        assert current_leaf_cancel() is None


def _noop_leaf(payload):
    return payload


def _coordinated_probe(desc, boundary, x):
    """Match predicate instrumented with shared counters (see the test).

    Slot 0: release latch (leaf 1 opens it when it starts running).
    Slot 1: elements scanned by leaf 0 (the leaf that must be aborted).
    Slot 2: elements scanned by leaf 1 (the leaf holding the witness).
    Slot 3: sentinel — leaf 0 gave up waiting (the leaves never ran
    concurrently, so the run proves nothing and the test skips).
    """
    counters = shm.rebuild(desc)
    if x < boundary:
        counters[1] += 1
        if x == 0:
            # Leaf 0's first element: park until leaf 1 is running in the
            # other worker, so leaf 0 is provably mid-scan when the
            # witness is found.
            deadline = time.monotonic() + 10.0
            while counters[0] == 0:
                if time.monotonic() > deadline:
                    counters[3] = 1
                    return False
                time.sleep(0.001)
        return False
    counters[2] += 1
    if x == boundary:
        counters[0] = 1  # release leaf 0
    return x == boundary + 4


class TestRunningLeafAbort:
    def test_any_match_aborts_running_leaf_mid_scan(self, executor):
        """The cross-cancellation bugfix: a RUNNING leaf in another worker
        must abort at its next poll point once a sibling finds a witness —
        batch-level cancellation of *pending* futures is not enough.

        Leaf 0 ([0, boundary)) parks on its first element until leaf 1
        ([boundary, 2×boundary)) starts, guaranteeing both leaves are
        running concurrently in the two workers.  Leaf 1 hits the witness
        five elements in, sets the shared flag, and leaf 0 — mid-scan,
        far from done — must stop long before exhausting its range.
        """
        boundary = 1 << 14
        n = 2 * boundary
        # Warm both workers so the two leaf batches run concurrently.
        executor.run_leaves(_noop_leaf, list(range(4)))
        counters = shm.share_array(np.zeros(4, dtype=np.int64))
        try:
            predicate = functools.partial(
                _coordinated_probe, shm.describe(counters), boundary
            )
            result = _run_planned(
                RangeSpliterator(0, n), [], Match(predicate, "any"),
                target_size=boundary, executor=executor,
            )
            assert result is True
            if counters[3] == 1:
                pytest.skip("leaf batches never overlapped in the workers")
            scanned_by_aborted_leaf = int(counters[1])
            total_scanned = int(counters[1] + counters[2])
        finally:
            shm.detach_all()
            shm.release(counters)
        # The aborted leaf stopped mid-scan: it saw the shared flag at a
        # poll point and quit long before its boundary-sized range ended.
        assert scanned_by_aborted_leaf < boundary // 2
        assert total_scanned < n // 2

    def test_no_segments_leak_after_match(self, executor):
        before = shm.active_segments()
        assert _run_planned(
            RangeSpliterator(0, 1 << 12), [], Match(_is_even, "any"),
            executor=executor,
        )
        assert shm.active_segments() == before


class TestAdaptiveProcessBackend:
    def test_auto_target_size_parity_and_memo(self, executor):
        from repro.streams import adaptive

        adaptive.reset_split_policy()
        try:
            expected = sum(range(1 << 12))
            for _ in range(2):
                total = _run_planned(
                    RangeSpliterator(0, 1 << 12), [],
                    Reduce(operator.add, identity=0, has_identity=True),
                    target_size="auto", executor=executor,
                )
                assert total == expected
            stats = adaptive.split_policy_stats()
            assert stats["decisions"] == 2
            assert stats["observed_runs"] == 2
            assert stats["bootstrap"] == 1
        finally:
            adaptive.reset_split_policy()
            adaptive.split_policy_stats(reset=True)


# --------------------------------------------------------------------------- #
# Counted-limit budget: contiguous-prefix early stop + sibling-leaf abort
# --------------------------------------------------------------------------- #

_BUDGET_COUNTER_CACHE: dict = {}


def _budget_counters(desc):
    # One shm attach per worker process, not per probed element — the
    # probe runs tens of thousands of times inside the scanned leaf.
    arr = _BUDGET_COUNTER_CACHE.get(desc[1])
    if arr is None:
        arr = shm.rebuild(desc)
        _BUDGET_COUNTER_CACHE[desc[1]] = arr
    return arr


def _under(x, threshold):
    return x < threshold


def _budget_probe(x, desc, boundary):
    """Map stage instrumented with shared counters (see the test).

    Slot 0: release latch (leaf 1 opens it when it starts running).
    Slot 1: elements scanned by leaf 0 (the leaf that fills the budget).
    Slot 2: elements scanned by leaf 1 (the leaf that must be aborted).
    Slot 3: sentinel — a coordination wait timed out; the leaves never
    provably overlapped, so the run proves nothing and the test skips.
    """
    counters = _budget_counters(desc)
    if x < boundary:
        counters[1] += 1
        if x == 0:
            # Leaf 0's first element: park until leaf 1 is running in the
            # other worker, so the budget is satisfied while leaf 1 is
            # provably mid-scan.
            deadline = time.monotonic() + 10.0
            while counters[0] == 0:
                if time.monotonic() > deadline:
                    counters[3] = 1
                    break
                time.sleep(0.001)
        return x
    counters[2] += 1
    if x == boundary:
        counters[0] = 1  # release leaf 0
        # Park until the satisfied budget sets the run's SharedFlag, so
        # this leaf is provably RUNNING (not pending) when cancelled.
        flag = current_leaf_cancel()
        deadline = time.monotonic() + 10.0
        while flag is not None and not flag.is_set():
            if time.monotonic() > deadline:
                counters[3] = 1
                break
            time.sleep(0.001)
    return x


class TestCountedLimitAbort:
    def test_satisfied_limit_aborts_running_sibling_mid_scan(self, executor):
        """A satisfied counted ``limit`` must behave like a found match
        witness: once the contiguous prefix of completed leaves has
        produced the budget, the scatter stops and the run's SharedFlag
        makes RUNNING sibling leaves abort at their next chunk boundary —
        long before scanning their whole range.

        Leaf 0 ([0, boundary)) passes the filter throughout, so its
        counted kernel cuts after exactly ``budget`` elements.  Leaf 1
        ([boundary, 2×boundary)) never passes the filter: nothing but the
        shared flag can stop it before exhausting its range.
        """
        boundary = 1 << 18
        budget = 64
        # Warm both workers so the two leaf batches run concurrently.
        executor.run_leaves(_noop_leaf, list(range(4)))
        counters = shm.share_array(np.zeros(4, dtype=np.int64))
        try:
            probe = functools.partial(
                _budget_probe, desc=shm.describe(counters), boundary=boundary
            )
            collector = Collector.of(
                _new_list, _acc_append, _combine_extend, None,
                CollectorCharacteristics.IDENTITY_FINISH,
            )
            got = _run_planned(
                RangeSpliterator(0, 2 * boundary),
                [MapOp(probe),
                 FilterOp(functools.partial(_under, threshold=boundary))],
                Collect(collector),
                target_size=boundary, executor=executor, budget=budget,
            )
            assert got == list(range(budget))
            if counters[3] == 1:
                pytest.skip("leaf batches never overlapped in the workers")
            scanned_by_prefix_leaf = int(counters[1])
            scanned_by_aborted_leaf = int(counters[2])
        finally:
            shm.detach_all()
            shm.release(counters)
        # The prefix leaf's counted kernel cut its scan at the budget.
        assert scanned_by_prefix_leaf == budget
        # The sibling leaf aborted mid-scan at a chunk boundary: far less
        # than its boundary-sized range (and of the whole source).
        assert scanned_by_aborted_leaf < boundary // 2

    def test_no_segments_leak_after_budgeted_collect(self, executor):
        before = shm.active_segments()
        collector = Collector.of(
            _new_list, _acc_append, _combine_extend, None,
            CollectorCharacteristics.IDENTITY_FINISH,
        )
        got = _run_planned(
            RangeSpliterator(0, 1 << 12), [MapOp(_double)], Collect(collector),
            target_size=1 << 10, executor=executor, budget=100,
        )
        # Each completed leaf contributes at most ``budget`` elements and
        # the caller truncates; the global first-``budget`` prefix must be
        # exact regardless of how many trailing leaves completed.
        assert got[:100] == [x * 2 for x in range(100)]
        assert shm.active_segments() == before

    @pytest.mark.parametrize("budget", [0, 1, 7])
    def test_budget_edge_parity_with_sequential(self, executor, budget):
        collector = Collector.of(
            _new_list, _acc_append, _combine_extend, None,
            CollectorCharacteristics.IDENTITY_FINISH,
        )
        got = _run_planned(
            RangeSpliterator(0, 256), [MapOp(_double)], Collect(collector),
            target_size=32, executor=executor, budget=budget,
        )
        # Per-leaf truncation bounds the overshoot; the prefix is exact.
        assert got[:budget] == [x * 2 for x in range(budget)]
        assert len(got) <= max(budget, 1) * 8  # 8 leaves of 32

    def test_stream_level_limit_on_process_backend(self):
        # End to end through Stream._evaluate: the limit barrier
        # ships its count as the collect budget and truncates exactly.
        got = (
            Stream.range(0, 1 << 12)
            .parallel()
            .with_backend("process")
            .map(_double)
            .limit(37)
            .to_list()
        )
        assert got == [x * 2 for x in range(37)]
