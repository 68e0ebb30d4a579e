"""The metrics-driven ``auto`` split policy (``repro.streams.adaptive``).

Unit-level: decisions from synthetic observations (bootstrap, cost-based
sizing, the per-element cost EWMA, chunk clamping).  Integration-level:
``with_target_size("auto")`` end to end on the thread backend, and the
explain-vs-execution consistency pin — the plan's split tree must equal
the traced leaf count even when the adaptive policy overrides the
threshold, because both sides call the same decision function.
"""

import operator

import pytest

from repro.common import IllegalArgumentError
from repro.forkjoin import ForkJoinPool
from repro.obs import tracing
from repro.streams import Stream, current_config, engine
from repro.streams import adaptive
from repro.streams.adaptive import (
    AUTO,
    RunObservation,
    SplitPolicy,
    TARGET_CHUNK_SPAN_NS,
    UNKNOWN_SIZE_BASE,
    _pow2_at_most,
    compute_target_size,
    decide_threshold,
    shape_key,
)
from repro.streams import process_backend as pb
from repro.streams.parallel import _walk_split_tree
from repro.streams.spliterator import UNKNOWN_SIZE
from repro.streams.spliterators import ListSpliterator, RangeSpliterator


def _work(x):
    return x * 3


def _other(x):
    return x + 1


@pytest.fixture(autouse=True)
def _clean_policy():
    """Each test leaves an empty memo behind (conftest starts it empty)."""
    yield
    adaptive.reset_split_policy()


def _observe(policy, key, *, leaf_ns, leaf_elements):
    obs = RunObservation(key)
    for ns, el in zip(leaf_ns, leaf_elements):
        obs.record_leaf(ns, el)
    policy.observe_run(obs)
    return obs


class TestFixedRules:
    """The explicit integer, and Java's rule as the bootstrap of a shape
    with no observed cost."""

    def test_explicit_integer_always_wins(self):
        decision = decide_threshold(4096, 4, explicit=128)
        assert decision.target_size == 128
        assert decision.source == "with_target_size"
        assert decision.adaptive is False

    def test_sized_java_rule(self):
        decision = decide_threshold(4096, 4)
        assert decision.target_size == 4096 // 16
        assert decision.inputs["basis"] == "bootstrap (no observed cost)"

    def test_unknown_size_scales_with_parallelism(self):
        decision = decide_threshold(UNKNOWN_SIZE, 8)
        assert decision.target_size == UNKNOWN_SIZE_BASE // 8
        assert decision.inputs["basis"] == "bootstrap (no observed cost)"


class TestShapeKey:
    def test_distinguishes_callables(self):
        s = RangeSpliterator(0, 16)
        ops_a = Stream.range(0, 16).map(_work)._ops
        ops_b = Stream.range(0, 16).map(_other)._ops
        assert shape_key(ops_a, s, 4) != shape_key(ops_b, s, 4)

    def test_distinguishes_backend_and_parallelism(self):
        ops = Stream.range(0, 16).map(_work)._ops
        s = RangeSpliterator(0, 16)
        assert shape_key(ops, s, 4) != shape_key(ops, s, 8)
        assert shape_key(ops, s, 4, backend="threads") != shape_key(
            ops, s, 4, backend="process"
        )

    def test_excludes_size(self):
        ops = Stream.range(0, 16).map(_work)._ops
        assert shape_key(ops, RangeSpliterator(0, 16), 4) == shape_key(
            ops, RangeSpliterator(0, 1 << 20), 4
        )

    def test_source_type_matters(self):
        ops = Stream.range(0, 16).map(_work)._ops
        assert shape_key(ops, RangeSpliterator(0, 16), 4) != shape_key(
            ops, ListSpliterator([0] * 16), 4
        )

    def test_keys_follow_the_code_objects(self):
        # Keyed by code, not by object or name: a lambda rebuilt per call
        # keeps its key, and two lambdas of one scope (one ``__qualname__``)
        # with different bodies do not share one.
        s = RangeSpliterator(0, 16)

        def key(f):
            return shape_key(Stream.range(0, 16).map(f)._ops, s, 4)

        cheap = []
        for _ in range(2):
            cheap.append(key(lambda x: x + 1))
        heavy = key(lambda x: sum(range(x)))
        assert cheap[0] == cheap[1] != heavy
        assert key(_work) == key(_work) != key(_other)


class TestPolicyDecisions:
    KEY = ("threads", "RangeSpliterator", 4, ())

    def test_bootstrap_uses_java_rule(self):
        policy = SplitPolicy()
        decision = policy.decide(4096, 4, self.KEY)
        assert decision.target_size == compute_target_size(4096, 4)
        assert decision.chunk_size is None
        assert decision.inputs["basis"] == "bootstrap (no observed cost)"
        assert decision.adaptive is True

    def test_cost_based_target(self):
        policy = SplitPolicy(target_leaf_span_ns=1_000_000)
        # 10_000 elements costing 1ms total → 100ns per element.
        _observe(policy, self.KEY, leaf_ns=[1_000_000],
                 leaf_elements=[10_000])
        decision = policy.decide(1 << 16, 4, self.KEY)
        # 1ms span target ÷ 100ns/element = 10_000-element leaves, well
        # above Java's 4096-element rule for this size → cost coarsens.
        assert decision.target_size == 10_000
        assert decision.inputs["basis"] == "target leaf span ÷ observed cost"

    def test_cost_never_splits_deeper_than_java_rule(self):
        policy = SplitPolicy(target_leaf_span_ns=1_000_000)
        # 10µs per element → the cost target would be 100-element leaves,
        # far below Java's size // (4 × parallelism).  Splitting deeper
        # than Java's rule buys no extra parallelism, only task overhead,
        # so the Java target acts as a floor.
        _observe(policy, self.KEY, leaf_ns=[12_500_000] * 8,
                 leaf_elements=[1_250] * 8)
        decision = policy.decide(1 << 20, 4, self.KEY)
        assert decision.target_size == compute_target_size(1 << 20, 4)
        assert decision.inputs["basis"] == "size // (4 × parallelism) floor"

    def test_target_clamped_to_size(self):
        policy = SplitPolicy(target_leaf_span_ns=1_000_000)
        _observe(policy, self.KEY, leaf_ns=[1_000], leaf_elements=[10_000])
        decision = policy.decide(256, 4, self.KEY)
        assert decision.target_size == 256  # never above the input size

    def test_chunk_is_pow2_and_clamped(self):
        policy = SplitPolicy()
        # 10µs/element → 100 elements per chunk span, below the floor.
        _observe(policy, self.KEY, leaf_ns=[100_000_000],
                 leaf_elements=[10_000])
        assert policy.decide(1 << 20, 4, self.KEY).chunk_size == 1 << 10
        policy.reset()
        # 100 ns/element → 10_000 → rounded down to 8192.
        _observe(policy, self.KEY, leaf_ns=[1_000_000],
                 leaf_elements=[10_000])
        chunk = policy.decide(1 << 20, 4, self.KEY).chunk_size
        assert chunk == 1 << 13
        assert chunk & (chunk - 1) == 0
        policy.reset()
        # Nearly free elements → ceiling.
        _observe(policy, self.KEY, leaf_ns=[1_000],
                 leaf_elements=[1_000_000])
        assert policy.decide(1 << 20, 4, self.KEY).chunk_size == 1 << 16

    def test_pow2_at_most(self):
        assert _pow2_at_most(255, 16, 65536) == 128
        assert _pow2_at_most(256, 16, 65536) == 256
        assert _pow2_at_most(1, 16, 65536) == 16
        assert _pow2_at_most(1 << 30, 16, 65536) == 65536


class TestFeedback:
    KEY = ("threads", "RangeSpliterator", 4, ())

    def test_long_leaves_with_busy_workers_do_not_deepen(self):
        policy = SplitPolicy(target_leaf_span_ns=1_000_000)
        # Leaves overran the 1ms target 5×: the cost alone sizes the
        # next run, and it never splits deeper than Java's rule.
        _observe(policy, self.KEY, leaf_ns=[5_000_000] * 8,
                 leaf_elements=[100] * 8)
        decision = policy.decide(1 << 20, 4, self.KEY)
        assert decision.target_size == compute_target_size(1 << 20, 4)

    def test_repeated_overhead_runs_keep_the_target(self):
        # Tiny leaves (far under the span target) at one steady cost: the
        # learned state is that cost, so the 20th observation decides
        # exactly what the first did: 1ms ÷ 100ns, between the Java
        # floor (8192) and a leaf per worker (32768) at this size.
        policy = SplitPolicy(target_leaf_span_ns=1_000_000)
        _observe(policy, self.KEY, leaf_ns=[10_000] * 8,
                 leaf_elements=[100] * 8)
        first = policy.decide(1 << 17, 4, self.KEY)
        for _ in range(19):
            _observe(policy, self.KEY, leaf_ns=[10_000] * 8,
                     leaf_elements=[100] * 8)
        again = policy.decide(1 << 17, 4, self.KEY)
        assert policy.memo_entry(self.KEY)["runs"] == 20
        assert again.target_size == first.target_size == 10_000
        assert again.inputs["basis"] == first.inputs["basis"]

    def test_cost_is_ewma(self):
        policy = SplitPolicy()
        _observe(policy, self.KEY, leaf_ns=[1_000], leaf_elements=[10])
        assert policy.memo_entry(self.KEY)["cost_per_element_ns"] == 100.0
        _observe(policy, self.KEY, leaf_ns=[3_000], leaf_elements=[10])
        assert policy.memo_entry(self.KEY)["cost_per_element_ns"] == 200.0

    def test_cancelled_runs_never_observed(self):
        policy = SplitPolicy()
        obs = RunObservation(self.KEY)
        # No record_leaf calls (the terminal was cancelled): a complete()
        # on an empty sheet must not create a memo entry.
        policy.observe_run(obs)
        assert policy.memo_entry(self.KEY) is None

    def test_memo_bounded(self):
        policy = SplitPolicy()
        for i in range(adaptive._MEMO_LIMIT + 10):
            _observe(policy, ("threads", "R", 4, (("op", str(i)),)),
                     leaf_ns=[1_000], leaf_elements=[10])
        assert policy.stats()["memo_size"] == adaptive._MEMO_LIMIT


class TestControls:
    def test_default_is_auto(self):
        assert decide_threshold(4096, 4).adaptive
        assert decide_threshold(4096, 4, explicit=AUTO).adaptive

    def test_rejects_unknown_policy(self):
        # The split policy is not an engine switch: there is nothing to
        # select, so the keyword is unknown.
        assert not hasattr(current_config(), "split_policy")
        with pytest.raises(TypeError):
            with engine(split_policy="auto"):
                pass

    def test_explicit_integer_beats_auto_mode(self):
        decision = decide_threshold(4096, 4, explicit=64)
        assert decision.target_size == 64
        assert decision.adaptive is False


class TestAutoEndToEnd:
    def test_with_target_size_auto_threads(self):
        expected = [x * 3 for x in range(4096)]
        with ForkJoinPool(parallelism=2, name="adaptive-test") as pool:
            for _ in range(3):
                result = (
                    Stream.range(0, 4096)
                    .parallel()
                    .with_pool(pool)
                    .with_target_size("auto")
                    .map(_work)
                    .to_list()
                )
                assert result == expected
        stats = adaptive.split_policy_stats()
        assert stats["decisions"] == 3
        assert stats["bootstrap"] == 1  # only the first run lacked a cost
        assert stats["observed_runs"] == 3
        assert stats["memo_size"] == 1

    def test_global_auto_mode_engages(self):
        with ForkJoinPool(parallelism=2, name="adaptive-test") as pool:
            total = (
                Stream.range(0, 1 << 12)
                .parallel()
                .with_pool(pool)
                .map(_work)
                .reduce(0, lambda a, b: a + b)
            )
        assert total == sum(x * 3 for x in range(1 << 12))
        assert adaptive.split_policy_stats()["decisions"] == 1

    def test_with_target_size_validation(self):
        stream = Stream.range(0, 16)
        with pytest.raises(IllegalArgumentError):
            stream.with_target_size("adaptive")
        with pytest.raises(IllegalArgumentError):
            stream.with_target_size(0)
        assert stream.with_target_size("auto")._target_size == "auto"

    def test_multi_leaf_run_reads_no_pool_counters(self, monkeypatch):
        # The policy learns from leaf spans alone: a multi-leaf run on a
        # pool whose scheduler counters cannot be read is still observed.
        def unreadable():
            raise AssertionError("scheduling_snapshot read")

        with ForkJoinPool(parallelism=2, name="adaptive-test") as pool:
            monkeypatch.setattr(pool, "scheduling_snapshot", unreadable)
            before = pool.stats()["tasks_executed"]
            result = (
                Stream.range(0, 4096).parallel().with_pool(pool)
                .with_target_size("auto").map(_work).to_list()
            )
            assert pool.stats()["tasks_executed"] > before
        assert result == [x * 3 for x in range(4096)]
        assert adaptive.split_policy_stats()["observed_runs"] == 1

    def test_short_circuit_runs_do_not_feed_memo(self):
        with ForkJoinPool(parallelism=2, name="adaptive-test") as pool:
            assert (
                Stream.range(0, 4096)
                .parallel()
                .with_pool(pool)
                .with_target_size("auto")
                .any_match(lambda x: x == 7)
            )
        # The match triggered → leaves aborted mid-scan → no observation.
        assert adaptive.split_policy_stats()["observed_runs"] == 0


class TestExplainConsistency:
    def _stream(self, pool):
        return (
            Stream.range(0, 4096)
            .parallel()
            .with_pool(pool)
            .with_target_size("auto")
            .map(_work)
        )

    def test_plan_reports_auto_source_and_inputs(self):
        with ForkJoinPool(parallelism=4, name="adaptive-explain") as pool:
            plan = self._stream(pool).explain().to_dict()
        ex = plan["execution"]
        assert ex["threshold_source"] == "auto"
        assert ex["threshold_inputs"]["basis"] == "bootstrap (no observed cost)"
        assert "threshold inputs:" in ExplainText.render(plan)

    def test_explain_does_not_record_decisions(self):
        with ForkJoinPool(parallelism=4, name="adaptive-explain") as pool:
            self._stream(pool).explain()
            self._stream(pool).explain()
        assert adaptive.split_policy_stats()["decisions"] == 0

    def test_split_tree_matches_traced_leaves_after_warmup(self):
        """The acceptance pin: plan and execution share the decision.

        After a warm-up run seeds the memo, the auto threshold is
        cost-derived — a quantity explain() could never guess from the
        op chain alone.  The plan's split tree must still equal the
        traced leaf count, because both call decide_threshold with the
        same shape key against the same memo.
        """
        with ForkJoinPool(parallelism=4, name="adaptive-explain") as pool:
            self._stream(pool).to_list()  # seed the memo
            plan = self._stream(pool).explain().to_dict()
            with tracing() as tracer:
                result = self._stream(pool).to_list()
        assert result == [x * 3 for x in range(4096)]
        leaf_spans = [s for s in tracer.spans() if s.kind == "leaf"]
        predicted = plan["execution"]["split_tree"]["leaves"]
        assert predicted == len(leaf_spans)
        assert plan["execution"]["threshold_source"] == "auto"

    def test_window_segments_feed_the_policy(self):
        # A counted window decides its threshold once, in the planner,
        # so its runs are observed like any other segment's.
        data = list(range(1 << 16))
        with ForkJoinPool(parallelism=2, name="adaptive-window") as pool:
            def stream():
                return (
                    Stream.of_iterable(data).parallel().with_pool(pool)
                    .map(_work).limit(40_000)
                )

            for _ in range(3):
                assert stream().to_list() == [x * 3 for x in range(40_000)]
            plan = stream().explain().to_dict()
        assert adaptive.split_policy_stats()["observed_runs"] == 3
        assert plan["execution"]["threshold_inputs"]["basis"] != (
            "bootstrap (no observed cost)"
        )


class ExplainText:
    """Tiny helper: render a plan dict the way ExplainPlan.render does."""

    @staticmethod
    def render(plan: dict) -> str:
        from repro.streams.explain import ExplainPlan

        return ExplainPlan(plan).render()


class TestConstantLeafSpan:
    """The leaf-span target is one constant on every backend: the policy
    probes nothing, so a terminal runs no task outside its own split
    tree and the span does not drift with the pool's load."""

    N = 20_000

    def _sum(self, pool, backend="threads"):
        return (
            Stream.of_iterable(range(self.N)).parallel().with_pool(pool)
            .with_backend(backend).map(_work).sum()
        )

    def test_first_auto_run_traces_only_its_own_tasks(self):
        with ForkJoinPool(parallelism=2, name="span-trace") as pool:
            with tracing() as tracer:
                assert self._sum(pool) == sum(x * 3 for x in range(self.N))
            executed = pool.stats()["tasks_executed"]
        spans = tracer.spans()
        tasks = [s.name for s in spans if s.kind == "task"]
        # Java's bootstrap rule: 20_000 // (4 × 2) per leaf → 8 leaves,
        # run by the root and its 7 forked halves.
        assert sum(s.kind == "leaf" for s in spans) == 8
        assert set(tasks) == {"_ReduceTask"}
        assert executed == len(tasks) == 8

    def test_span_input_is_the_constant_after_warm_runs(self):
        with ForkJoinPool(parallelism=2, name="span-explain") as pool:
            for _ in range(2):
                self._sum(pool)
            plan = (
                Stream.of_iterable(range(self.N)).parallel().with_pool(pool)
                .map(_work).explain().to_dict()
            )
        inputs = plan["execution"]["threshold_inputs"]
        assert inputs["observed_runs"] == 2
        assert inputs["target_leaf_span_ns"] == adaptive.TARGET_LEAF_SPAN_NS
        assert set(adaptive.split_policy_stats()) == {
            "decisions", "bootstrap", "observed_runs", "memo_size"}

    def test_process_auto_run_submits_only_leaf_batches(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.jplf import process_executor

        submitted = []
        submit = ProcessPoolExecutor.submit

        def spy(self, fn, *args, **kwargs):
            submitted.append(fn)
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        with process_executor.ProcessExecutor(processes=2) as ex:
            monkeypatch.setattr(pb, "_shared_executor", ex)
            with ForkJoinPool(parallelism=2, name="span-process") as pool:
                assert self._sum(pool, "process") == sum(
                    x * 3 for x in range(self.N))
            batches = sum(
                w["worker_batches"] for w in ex.stats()["workers"].values()
            )
        assert batches > 0
        assert submitted == [process_executor._run_leaf_batch] * batches


class TestWorkRule:
    """Once a shape has an observed cost: work within one leaf span is one
    leaf; more work gets at least one leaf per worker."""

    def _policy(self, key, parallelism):
        policy = SplitPolicy(target_leaf_span_ns=1_000_000)
        # 100 ns per element: 10_000 elements fill the 1ms span exactly.
        _observe(policy, key, leaf_ns=[100_000], leaf_elements=[1_000])
        return policy

    @pytest.mark.parametrize("size", [1, 256, 9_999, 10_000])
    def test_work_within_one_span_is_one_leaf(self, size):
        key = ("threads", "RangeSpliterator", 4, ())
        decision = self._policy(key, 4).decide(size, 4, key)
        assert decision.target_size == size
        assert _walk_split_tree(size, decision.target_size) == (1, 0)

    @pytest.mark.parametrize("size", [10_001, 12_345, 1 << 14, 1 << 20])
    @pytest.mark.parametrize("parallelism", [2, 3, 4, 8])
    def test_more_work_gets_a_leaf_per_worker(self, size, parallelism):
        key = ("threads", "RangeSpliterator", parallelism, ())
        decision = self._policy(key, parallelism).decide(size, parallelism, key)
        assert decision.target_size <= -(-size // parallelism)
        leaves, _ = _walk_split_tree(size, decision.target_size)
        assert leaves >= parallelism


def _process_batches() -> int:
    workers = pb.shared_executor().stats()["workers"]
    return sum(w.get("worker_batches", 0) for w in workers.values())


@pytest.fixture
def pinned_span(monkeypatch):
    """The policy with a 1 s leaf span, so a cheap pipeline's whole work
    fits one leaf however slow this host runs it."""
    policy = SplitPolicy(target_leaf_span_ns=1_000_000_000)
    monkeypatch.setattr(adaptive, "_policy", policy)
    return policy


class TestInCallerPlans:
    """A one-leaf plan runs in the caller on threads and process: the pool
    runs no task, no batch ships, and the leaf keeps its span."""

    N = 4096
    EXPECTED = sum(x * 3 for x in range(N))

    def _stream(self, pool, backend):
        return (
            Stream.range(0, self.N).parallel().with_pool(pool)
            .with_backend(backend).map(_work)
        )

    def _sum(self, pool, backend):
        return self._stream(pool, backend).reduce(0, operator.add)

    @staticmethod
    def _activity(pool, backend):
        if backend == "threads":
            return pool.stats()["tasks_executed"]
        return _process_batches()

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_cheap_pipeline_once_warm_uses_no_executor(self, pinned_span, backend):
        with ForkJoinPool(parallelism=2, name="in-caller") as pool:
            busy = []
            for _ in range(3):
                before = self._activity(pool, backend)
                assert self._sum(pool, backend) == self.EXPECTED
                busy.append(self._activity(pool, backend) - before)
        # Cold: Java's tree on the executor; warm: one leaf, in the caller.
        assert busy[0] > 0
        assert busy[1:] == [0, 0]

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_explain_in_caller_matches_executor_activity(self, pinned_span, backend):
        reported = []
        with ForkJoinPool(parallelism=2, name="in-caller") as pool:
            for _ in range(2):
                plan = self._stream(pool, backend).explain().to_dict()
                first = plan["execution"]["segments"][0]
                before = self._activity(pool, backend)
                assert self._sum(pool, backend) == self.EXPECTED
                idle = self._activity(pool, backend) == before
                assert first.get("in_caller", False) is idle
                if idle:
                    assert first["leaves"] == 1
                    assert plan["execution"]["split_tree"]["leaves"] == 1
                reported.append(first.get("in_caller", False))
        assert reported == [False, True]

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_in_caller_leaf_keeps_its_span(self, pinned_span, backend):
        with ForkJoinPool(parallelism=2, name="in-caller") as pool:
            self._sum(pool, backend)  # seed the memo
            with tracing() as tracer:
                assert self._sum(pool, backend) == self.EXPECTED
        kinds = [s.kind for s in tracer.spans()]
        assert kinds.count("leaf") == 1
        assert "task" not in kinds

    def test_unpicklable_pipeline_fails_at_every_size(self, pinned_span):
        for n in (1, 1 << 12):
            with pytest.raises(IllegalArgumentError, match="picklable"):
                Stream.range(0, n).parallel().with_backend("process").map(
                    lambda x: x
                ).to_list()
