"""``Stream.explain()``: pinned plans, cross-checked against real runs.

A parallel plan's segments come from the planner execution runs
(``parallel.plan_segment``), and the fusion and mode sections from the
engine's own decision functions, so every pinned dict here is also
re-verified against what the engine *actually did* — ``fusion_stats``
and ``bulk_stats`` deltas, and traced leaf counts for the split tree.
"""

import operator
import time

import pytest

from repro.common import TaskTimeoutError
from repro.faults import Deadline
from repro.forkjoin import ForkJoinPool
from repro.obs import tracing
from repro.streams import ExplainPlan, Stream, bulk_stats, engine, fusion_stats
from repro.streams.parallel import _walk_split_tree


def _triple(x):
    return x * 3


def _even(x):
    return x & 1 == 0


class TestFusedStatelessChain:
    """map → filter on a sized power-of-two range: one fused kernel."""

    def _stream(self):
        return Stream.range(0, 4096).map(_triple).filter(_even)

    def test_pinned_plan(self):
        plan = self._stream().explain()
        assert plan.to_dict() == {
            "source": {
                "spliterator": "RangeSpliterator",
                "size": 4096,
                "sized": True,
                "power2": True,
            },
            "ops": ["map", "filter"],
            "fusion": {
                "enabled": True,
                "chain": ["fused(map|filter)"],
                "stages_fused": 2,
                "kernels": 1,
                "runs": [
                    {
                        "stages": ["map", "filter"],
                        "kernel": "comprehension",
                        "size_preserving": False,
                    }
                ],
                "barriers": [],
            },
            "execution": {"parallel": False, "mode": "chunked"},
        }

    def test_explain_does_not_consume_or_execute(self):
        stream = self._stream()
        fusion_stats(reset=True)
        before = bulk_stats()
        stream.explain()
        assert bulk_stats() == before
        assert fusion_stats()["pipelines_fused"] == 0
        # The stream is still consumable afterwards.
        assert stream.count() == 2048

    def test_agrees_with_actual_run(self):
        plan = self._stream().explain().to_dict()
        fusion_stats(reset=True)
        before = bulk_stats()
        result = self._stream().to_list()
        assert result == [x * 3 for x in range(4096) if (x * 3) % 2 == 0]
        delta = {
            k: v - before[k] for k, v in bulk_stats().items()
        }
        assert plan["execution"]["mode"] == "chunked"
        assert delta == {"chunked": 1, "element": 0}
        stats = fusion_stats()
        assert stats["stages_fused"] == plan["fusion"]["stages_fused"]
        assert stats["kernels"] == plan["fusion"]["kernels"]

    def test_fusion_disabled_plan(self):
        with engine(fusion=False):
            plan = self._stream().explain().to_dict()
        assert plan["fusion"]["enabled"] is False
        assert plan["fusion"]["chain"] == ["map", "filter"]
        assert plan["fusion"]["kernels"] == 0
        assert plan["execution"]["mode"] == "chunked"

    def test_render_mentions_the_decisions(self):
        text = self._stream().explain().render()
        assert "RangeSpliterator" in text
        assert "fused(map|filter)" in text
        assert "mode=chunked" in text
        assert "sized+power2" in text


class TestStatefulBarrierChain:
    """map → sorted → map in parallel: two segments around the barrier."""

    def _stream(self, pool):
        return (
            Stream.range(0, 4096)
            .parallel()
            .with_pool(pool)
            .with_target_size(512)
            .map(_triple)
            .sorted()
            .map(_triple)
        )

    def test_pinned_plan(self):
        with ForkJoinPool(parallelism=4, name="explain-test") as pool:
            plan = self._stream(pool).explain()
        assert plan.to_dict() == {
            "source": {
                "spliterator": "RangeSpliterator",
                "size": 4096,
                "sized": True,
                "power2": True,
            },
            "ops": ["map", "sorted", "map"],
            "fusion": {
                "enabled": True,
                "chain": ["map", "sorted", "map"],
                "stages_fused": 0,
                "kernels": 0,
                "runs": [],
                "barriers": [
                    {"op": "sorted", "stateful": True, "short_circuit": False}
                ],
            },
            "execution": {
                "parallel": True,
                "backend": "threads",
                "pool": "explain-test",
                "parallelism": 4,
                "segments": [
                    {"ops": ["map"], "mode": "chunked", "barrier": "sorted"},
                    {"ops": ["map"], "mode": "chunked", "barrier": None},
                ],
                "threshold_source": "with_target_size",
                "target_size": 512,
                "split_tree": {"leaves": 8, "depth": 3},
            },
        }

    def test_split_tree_matches_traced_leaves(self):
        with ForkJoinPool(parallelism=4, name="explain-test") as pool:
            plan = self._stream(pool).explain().to_dict()
            with tracing() as tracer:
                result = self._stream(pool).to_list()
        assert result == [x * 9 for x in range(4096)]
        leaf_spans = [s for s in tracer.spans() if s.kind == "leaf"]
        # The first segment's reduction splits to the predicted leaves;
        # the post-barrier segment contributes its own (same size/target,
        # so the same count).
        predicted = plan["execution"]["split_tree"]["leaves"]
        assert len(leaf_spans) == 2 * predicted

    def test_correctness_of_barriered_run(self):
        with ForkJoinPool(parallelism=4, name="explain-test") as pool:
            result = self._stream(pool).to_list()
        assert result == [x * 9 for x in range(4096)]


class TestShortCircuitChain:
    """map → limit: compiled into a counted kernel riding the bulk path."""

    def _stream(self):
        return Stream.range(0, 4096).map(_triple).limit(5)

    def test_pinned_plan(self):
        plan = self._stream().explain()
        assert plan.to_dict() == {
            "source": {
                "spliterator": "RangeSpliterator",
                "size": 4096,
                "sized": True,
                "power2": True,
            },
            "ops": ["map", "limit"],
            "fusion": {
                "enabled": True,
                "chain": ["fused(map|limit)"],
                "stages_fused": 2,
                "kernels": 1,
                "runs": [
                    {
                        "stages": ["map", "limit"],
                        # All maps are 1:1, so the limit hoists to a
                        # source-index window sliced off each chunk.
                        "kernel": "counted-window",
                        "size_preserving": False,
                        "window": [0, 5],
                    }
                ],
                # The counted kernel absorbs the short-circuit: no barrier.
                "barriers": [],
            },
            "execution": {"parallel": False, "mode": "chunked"},
        }

    def test_agrees_with_actual_run(self):
        # Warm the fusion memo first: the identity-memoized rewrite must
        # give execution the same FusedOp the plan described.
        plan = self._stream().explain().to_dict()
        fusion_stats(reset=True)
        before = bulk_stats()
        assert self._stream().to_list() == [0, 3, 6, 9, 12]
        delta = {k: v - before[k] for k, v in bulk_stats().items()}
        # The counted kernel keeps the traversal on the chunked path.
        assert plan["execution"]["mode"] == "chunked"
        assert delta == {"chunked": 1, "element": 0}
        stats = fusion_stats()
        assert stats["stages_fused"] == plan["fusion"]["stages_fused"]
        assert stats["kernels"] == plan["fusion"]["kernels"]

    def test_raw_take_while_still_polls(self):
        # Unmerged (fusion off), take_while's one-stage kernel is polled
        # per element; it is a kernel, not a barrier.
        with engine(fusion=False):
            plan = (
                Stream.range(0, 4096).map(_triple)
                .take_while(_even).explain().to_dict()
            )
            assert plan["execution"]["mode"] == "short-circuit-polled"
            assert plan["fusion"]["chain"] == ["map", "take_while"]
            assert plan["fusion"]["barriers"] == []
            before = bulk_stats()
            assert Stream.range(0, 4096).map(_triple).take_while(
                _even).to_list() == [0]
        delta = {k: v - before[k] for k, v in bulk_stats().items()}
        assert delta == {"chunked": 0, "element": 1}


class TestExplainPlanObject:
    def test_getitem_and_str(self):
        plan = Stream.range(0, 8).map(_triple).explain()
        assert isinstance(plan, ExplainPlan)
        assert plan["ops"] == ["map"]
        assert str(plan) == plan.render()
        assert "ExplainPlan" in repr(plan)

    def test_to_dict_is_a_copy(self):
        plan = Stream.range(0, 8).map(_triple).explain()
        d = plan.to_dict()
        d["ops"].append("tampered")
        assert plan.to_dict()["ops"] == ["map"]

    def test_unsized_source_has_no_split_tree(self):
        plan = (
            Stream.of_iterable(iter(range(64)))
            .parallel()
            .map(_triple)
            .explain()
            .to_dict()
        )
        assert plan["source"]["size"] is None
        assert plan["execution"]["split_tree"] is None
        # A shape with no observed cost bootstraps with Java's rule.
        assert plan["execution"]["threshold_source"] == "auto"
        assert plan["execution"]["threshold_inputs"]["basis"] == (
            "bootstrap (no observed cost)"
        )
        # The reported target is what execution actually uses.
        from repro.streams.parallel import compute_target_size
        from repro.streams.spliterator import UNKNOWN_SIZE

        assert plan["execution"]["target_size"] == compute_target_size(
            UNKNOWN_SIZE, plan["execution"]["parallelism"]
        )

    def test_empty_pipeline(self):
        plan = Stream.range(0, 16).explain().to_dict()
        assert plan["ops"] == []
        assert plan["fusion"]["kernels"] == 0
        assert plan["execution"] == {"parallel": False, "mode": "chunked"}


class TestSplitTreeWalk:
    @pytest.mark.parametrize(
        "size,target,leaves,depth",
        [
            (4096, 512, 8, 3),
            (4096, 4096, 1, 0),
            (4096, 1, 4096, 12),
            (5, 2, 3, 2),  # odd split: prefix gets the extra element
        ],
    )
    def test_shapes(self, size, target, leaves, depth):
        assert _walk_split_tree(size, target) == (leaves, depth)


def _plus_one(x):
    return x + 1


class TestCountedWindowPlan:
    """A parallel limit/skip over maps: explain() reports the planner's
    window decision, and its leaf count matches the traced run."""

    N = 1 << 13

    def _counted(self, pool):
        return (
            Stream.of_iterable(list(range(self.N))).parallel().with_pool(pool)
            .map(_triple).map(_plus_one).limit(100)
        )

    def test_pinned_segments(self):
        with ForkJoinPool(parallelism=2, name="explain-window") as pool:
            plan = self._counted(pool).explain()
        ex = plan.to_dict()["execution"]
        assert ex["segments"] == [
            {
                "ops": ["fused(map|map)"],
                "mode": "chunked",
                "barrier": "limit",
                "window": {"lo": 0, "hi": 100, "of": self.N},
                "leaves": 1,
                "in_caller": True,
            },
            {"ops": [], "mode": "chunked", "barrier": None, "in_caller": True},
        ]
        # The leaf target is the un-narrowed source's, not the window's.
        assert ex["target_size"] == self.N // (4 * 2)
        assert ex["split_tree"] == {"leaves": 1, "depth": 0}
        text = plan.render()
        assert "window [0:100) of 8192, 1 leaf, in caller" in text
        assert "(passthrough)  mode=chunked  folded in caller" in text

    def test_process_backend_ships_the_narrowed_window(self):
        # Fewer, smaller leaves: one leaf runs in the caller, as on
        # threads; more ship to worker processes.  The op-free tail is
        # not folded in the caller.
        for target, leaves in ((2048, 1), (256, 4)):
            plan = (
                Stream.range(0, self.N).parallel().with_backend("process")
                .with_target_size(target).map(_triple).skip(1000).limit(1000)
                .explain()
            )
            first, tail = plan.to_dict()["execution"]["segments"]
            assert first["window"] == {"lo": 1000, "hi": 2000, "of": self.N}
            assert first["leaves"] == leaves
            assert first["in_caller"] is (leaves == 1)
            assert "in_caller" not in tail

    def test_filter_before_limit_keeps_the_budget(self):
        with ForkJoinPool(parallelism=2, name="explain-window") as pool:
            plan = (
                Stream.range(0, self.N).parallel().with_pool(pool)
                .map(_triple).filter(_even).limit(100).explain().to_dict()
            )
        first = plan["execution"]["segments"][0]
        assert first["budget"] == 100
        assert "window" not in first
        assert plan["execution"]["split_tree"] == {"leaves": 8, "depth": 3}

    def test_window_after_a_barrier_is_unsized(self):
        # The second segment reads a barrier buffer: the window rule
        # applies, but its size and leaf count are unknown until it runs.
        plan = (
            Stream.range(0, 64).parallel().filter(_even).limit(20)
            .map(_triple).skip(3).explain()
        )
        second = plan.to_dict()["execution"]["segments"][1]
        assert second["window"] == {"lo": 3, "hi": None, "of": None}
        assert "leaves" not in second
        assert "window [3:) of ?" in plan.render()

    @pytest.mark.parametrize("build,workers", [
        (lambda s: s.map(_triple).map(_plus_one).limit(100), 2),
        (lambda s: s.map(_triple).skip(1000).limit(3000), 2),
        (lambda s: s.sorted(), 2),
        # A zip with a mapped side refuses to split: one leaf.
        (lambda s: s.map(_plus_one).zip_with(
            Stream.of_iterable(list(range(1 << 13))), operator.add), 2),
        # The budgeted tree.  A satisfied budget stops splitting, so on
        # two workers a subtree still unsplit by then runs as one leaf;
        # one worker splits everything before the leftmost leaf runs.
        (lambda s: s.map(_triple).filter(_even).limit(100), 1),
    ], ids=["counted-one-leaf", "counted-narrowed", "sorted",
            "zip-mapped-side", "budgeted"])
    def test_predicted_leaves_match_traced_leaf_spans(self, build, workers):
        with ForkJoinPool(parallelism=workers, name="explain-window") as pool:
            def stream():
                return build(
                    Stream.of_iterable(list(range(self.N)))
                    .parallel().with_pool(pool)
                )

            plan = stream().explain().to_dict()
            with tracing() as tracer:
                stream().to_list()
        leaf_spans = [s for s in tracer.spans() if s.kind == "leaf"]
        assert len(leaf_spans) == plan["execution"]["split_tree"]["leaves"]


def _bucket(x):
    return x % 4093


def _predicted_traversals(execution):
    """The ``bulk_stats`` delta of a plan whose later segments run in the
    caller: one traversal per leaf of the first segment, one per later
    segment, each in its segment's mode."""
    counts = {"chunked": 0, "element": 0}
    tree = execution.get("split_tree")
    for i, seg in enumerate(execution["segments"]):
        if "leaves" in seg:
            runs = seg["leaves"]
        elif i == 0 and tree is not None:
            runs = tree["leaves"]
        else:
            runs = 1
        counts["chunked" if seg["mode"] == "chunked" else "element"] += runs
    return counts


class TestPlanMatchesRun:
    """The plan reports the segments the run executes: the kernels they
    build (``fusion_stats``) and their traversals (``bulk_stats``)."""

    N = 1 << 14

    def _agree(self, stream, run, expected):
        plan = stream().explain().to_dict()
        fusion_stats(reset=True)
        before = bulk_stats()
        assert run(stream()) == expected
        delta = {k: v - before[k] for k, v in bulk_stats().items()}
        stats = fusion_stats()
        assert stats["stages_fused"] == plan["fusion"]["stages_fused"]
        assert stats["kernels"] == plan["fusion"]["kernels"]
        assert delta == _predicted_traversals(plan["execution"])
        return plan

    def test_stateful_cut_fuses_only_its_segment(self):
        data = list(range(self.N))
        with ForkJoinPool(parallelism=2, name="explain-agree") as pool:
            plan = self._agree(
                lambda: Stream.of_iterable(data).parallel().with_pool(pool)
                .map(_triple).map(_plus_one).distinct(),
                Stream.to_list,
                [x * 3 + 1 for x in data],
            )
        assert plan["fusion"]["chain"] == ["fused(map|map)", "distinct"]
        assert [run["kernel"] for run in plan["fusion"]["runs"]] == [
            "comprehension"
        ]

    def test_window_builds_no_counted_kernel(self):
        data = list(range(self.N))
        with ForkJoinPool(parallelism=2, name="explain-agree") as pool:
            plan = self._agree(
                lambda: Stream.of_iterable(data).parallel().with_pool(pool)
                .map(_triple).map(_plus_one).limit(100),
                Stream.to_list,
                [x * 3 + 1 for x in range(100)],
            )
        # The window is sliced off the source: the leaves run the maps.
        assert plan["fusion"]["chain"] == ["fused(map|map)", "limit"]
        assert plan["fusion"]["stages_fused"] == 2

    def test_sequential_backend_reports_its_segments(self):
        # serve_mix's ``distinct`` tenant, and every degraded serve job.
        # Nothing runs in parallel, so the whole chain is one segment and
        # ``distinct`` fuses with its map.
        data = [(x * 7919) % 100_003 for x in range(1 << 13)]
        plan = self._agree(
            lambda: Stream.of_iterable(data).parallel()
            .with_backend("sequential").map(_bucket).distinct(),
            Stream.count,
            len({_bucket(x) for x in data}),
        )
        assert plan["fusion"]["kernels"] == 1
        assert plan["fusion"]["chain"] == ["fused(map|distinct)"]
        assert plan["execution"] == {
            "parallel": False,
            "mode": "chunked",
            "backend": "sequential",
            "segments": [
                {"ops": ["fused(map|distinct)"], "mode": "chunked",
                 "barrier": None},
            ],
        }
        text = (
            Stream.of_iterable(data).parallel().with_backend("sequential")
            .map(_bucket).distinct().explain().render()
        )
        assert "segment[0]: fused(map|distinct)  mode=chunked" in text
        assert "barrier" not in text

    def test_sequential_backend_one_pipeline_checks_the_deadline(self):
        expired = Deadline.after(0.001)
        time.sleep(0.01)
        stream = (
            Stream.of_iterable(list(range(64))).parallel()
            .with_backend("sequential").with_deadline(expired)
            .map(_bucket).distinct()
        )
        with pytest.raises(TaskTimeoutError):
            stream.count()

    def test_unsplittable_zip_runs_in_the_caller(self):
        n = 1 << 13
        with ForkJoinPool(parallelism=2, name="explain-agree") as pool:
            def stream():
                return (
                    Stream.of_iterable(list(range(n))).parallel()
                    .with_pool(pool).map(_plus_one)
                    .zip_with(Stream.of_iterable(list(range(n))), operator.add)
                )

            first = stream().explain().to_dict()["execution"]["segments"][0]
            before = pool.stats()["tasks_executed"]
            assert stream().to_list() == [2 * x + 1 for x in range(n)]
            assert pool.stats()["tasks_executed"] == before
        assert first["leaves"] == 1
        assert first["in_caller"] is True
