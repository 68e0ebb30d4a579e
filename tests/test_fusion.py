"""Stage fusion: rewrite structure, semantics, stats, and observability.

Covers the fusion optimizer (``repro.streams.fusion``): where barriers
land, that fused kernels preserve short-circuit and encounter-order
semantics on both traversal modes, that the ``fusion_*`` counters pin
the rewrite counts, and that traced runs carry ``fuse`` spans.
"""

import functools
import gc
import operator
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.forkjoin import ForkJoinPool
from repro.obs import tracing
from repro.obs.export import trace_snapshot
from repro.streams import (
    FusedOp,
    ListSpliterator,
    current_config,
    engine,
    stream_of,
)
from repro.streams.fusion import fuse_ops, maybe_fuse
from repro.streams.ops import (
    DistinctOp,
    DropWhileOp,
    FilterOp,
    FlatMapOp,
    LimitOp,
    MapMultiOp,
    MapOp,
    Op,
    PeekOp,
    Sink,
    SkipOp,
    SortedOp,
    TakeWhileOp,
    run_pipeline,
)


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="fusion-test")
    yield p
    p.shutdown()


def _kinds(ops):
    return [type(op).__name__ for op in ops]


class TestBarrierPlacement:
    def test_pure_stateless_chain_collapses_to_one_op(self):
        ops = [MapOp(abs), FilterOp(bool), MapOp(abs), PeekOp(print)]
        fused, stages = fuse_ops(ops)
        assert _kinds(fused) == ["FusedOp"]
        assert stages == 4
        assert fused[0].kinds == ("map", "filter", "map", "peek")

    @pytest.mark.parametrize("barrier", [SortedOp()])
    def test_unfusible_stateful_op_is_a_barrier(self, barrier):
        ops = [MapOp(abs), MapOp(abs), barrier, MapOp(abs), MapOp(abs)]
        fused, stages = fuse_ops(ops)
        assert _kinds(fused) == ["FusedOp", type(barrier).__name__, "FusedOp"]
        assert stages == 4

    @pytest.mark.parametrize("absorbed,kind", [
        (DistinctOp(), "distinct"), (LimitOp(3), "limit"), (SkipOp(3), "skip"),
        (TakeWhileOp(bool), "take_while"), (DropWhileOp(bool), "drop_while"),
    ])
    def test_counted_and_distinct_ops_fuse_through(self, absorbed, kind):
        ops = [MapOp(abs), MapOp(abs), absorbed, MapOp(abs), MapOp(abs)]
        fused, stages = fuse_ops(ops)
        assert _kinds(fused) == ["FusedOp"]
        assert stages == 5
        assert fused[0].kinds == ("map", "map", kind, "map", "map")

    def test_single_ops_are_one_stage_kernels(self):
        # Every fusible stage lands in a FusedOp, even alone; a one-stage
        # kernel merges nothing, so no stage counts as fused.
        ops = [MapOp(abs), SortedOp(), MapOp(abs)]
        fused, stages = fuse_ops(ops)
        assert _kinds(fused) == ["FusedOp", "SortedOp", "FusedOp"]
        assert fused[0].source_ops == (ops[0],) and fused[1] is ops[1]
        assert stages == 0

    def test_fused_op_requires_a_nonempty_run(self):
        # Singleton runs are legal now (a lone ``limit`` compiles to a
        # counted kernel); only an empty run is malformed.
        with pytest.raises(ValueError):
            FusedOp([])

    def test_rewrite_is_idempotent(self):
        ops = [MapOp(abs), MapOp(abs)]
        fused, stages = fuse_ops(ops)
        again, stages_again = fuse_ops(fused)
        assert again is fused and stages_again == 0

    def test_fused_op_flags(self):
        op = FusedOp([MapOp(abs), FilterOp(bool)])
        assert op.chunkable and not op.stateful and not op.short_circuit


class TestSemantics:
    DATA = list(range(-30, 30))

    def _both(self, build, chunked):
        with engine(bulk=chunked):
            with engine(fusion=True):
                fused = build(stream_of(self.DATA)).to_list()
            with engine(fusion=False):
                unfused = build(stream_of(self.DATA)).to_list()
        return fused, unfused

    @pytest.mark.parametrize("chunked", [True, False])
    def test_map_filter_flat_map_chain(self, chunked):
        def build(s):
            return (s.map(lambda x: x + 3)
                    .filter(lambda x: x % 4 != 0)
                    .flat_map(lambda x: [x, -x] if x % 5 == 0 else [x])
                    .map(lambda x: x * 2))

        fused, unfused = self._both(build, chunked)
        assert fused == unfused

    @pytest.mark.parametrize("chunked", [True, False])
    def test_peek_and_map_multi_chain(self, chunked):
        fused_seen, unfused_seen = [], []

        def build(s, seen):
            return (s.peek(seen.append)
                    .map_multi(lambda x, emit: (emit(x), emit(x * 10))[0])
                    .map(lambda x: x + 1))

        with engine(bulk=chunked):
            with engine(fusion=True):
                fused = build(stream_of(self.DATA), fused_seen).to_list()
            with engine(fusion=False):
                unfused = build(stream_of(self.DATA), unfused_seen).to_list()
        assert fused == unfused
        assert fused_seen == unfused_seen == self.DATA

    def test_filter_first_and_consecutive_filters(self):
        def build(s):
            return (s.filter(lambda x: x != 0)
                    .filter(lambda x: x % 2 == 0)
                    .map(lambda x: x + 1)
                    .filter(lambda x: x < 20))

        fused, unfused = self._both(build, True)
        assert fused == unfused

    def test_short_circuit_limit_after_fused_run(self):
        def build(s):
            return (s.map(lambda x: x + 1)
                    .map(lambda x: x * 2)
                    .limit(7))

        fused, unfused = self._both(build, True)
        assert fused == unfused and len(fused) == 7

    def test_infinite_flat_map_under_limit_terminates(self):
        # The fused kernel must poll downstream cancellation between an
        # expander's outputs, exactly like the unfused FlatMapSink —
        # otherwise this loops forever.
        with engine(fusion=True):
            out = (stream_of([1, 2, 3])
                   .flat_map(lambda x: iter(int, 1))
                   .map(lambda z: z + 1)
                   .limit(5)
                   .to_list())
        assert out == [1] * 5

    def test_take_while_downstream_of_fused_run(self):
        def build(s):
            return (s.map(lambda x: x + 30)
                    .map(lambda x: x * 2)
                    .take_while(lambda x: x < 90))

        fused, unfused = self._both(build, True)
        assert fused == unfused

    def test_stateful_sandwich(self):
        def build(s):
            return (s.map(lambda x: x % 17)
                    .map(lambda x: x + 2)
                    .distinct()
                    .map(lambda x: x * 3)
                    .filter(lambda x: x != 6)
                    .sorted())

        fused, unfused = self._both(build, True)
        assert fused == unfused

    def test_parallel_leaves_fuse_identically(self, pool):
        def build(s):
            return (s.map(lambda x: x + 1)
                    .filter(lambda x: x % 3 != 0)
                    .map(lambda x: x * 2)
                    .map(lambda x: x - 5))

        with engine(fusion=True):
            par = build(
                stream_of(self.DATA).parallel().with_pool(pool)
            ).to_list()
            seq = build(stream_of(self.DATA)).to_list()
        with engine(fusion=False):
            reference = build(stream_of(self.DATA)).to_list()
        assert par == seq == reference

    def test_parallel_match_and_find_with_fusion(self, pool):
        with engine(fusion=True):
            s = (stream_of(self.DATA).parallel().with_pool(pool)
                 .map(lambda x: x * 2).map(lambda x: x + 1))
            assert s.any_match(lambda x: x > 50)
            found = (stream_of(self.DATA).parallel().with_pool(pool)
                     .map(lambda x: x * 2)
                     .filter(lambda x: x > 40)
                     .find_first())
        assert found.get() == 42

    def test_ufunc_chain_stays_vectorized_and_exact(self):
        data = np.arange(1 << 10, dtype=np.int64)

        def build(s):
            return s.map(np.square).map(np.abs).map(np.sqrt)

        with engine(fusion=True):
            fused = build(stream_of(data)).to_list()
        with engine(fusion=False):
            unfused = build(stream_of(data)).to_list()
        assert fused == unfused

    def test_ufunc_prefix_with_python_tail(self):
        data = np.arange(1 << 10, dtype=np.int64)

        def build(s):
            return (s.map(np.square)
                    .map(lambda x: int(x) % 11)
                    .filter(lambda x: x != 4))

        def build_two_ufuncs(s):
            return (s.map(np.square)
                    .map(np.abs)
                    .map(lambda x: int(x) % 11)
                    .filter(lambda x: x != 4))

        for b in (build, build_two_ufuncs):
            with engine(fusion=True):
                fused = b(stream_of(data)).to_list()
            with engine(fusion=False):
                unfused = b(stream_of(data)).to_list()
            assert fused == unfused
        # A run ends where the maps' ufunc-ness changes: the ufunc maps
        # stay one whole-array expression, the Python tail one
        # comprehension.
        plan = build_two_ufuncs(stream_of(data)).explain().to_dict()
        assert [r["kernel"] for r in plan["fusion"]["runs"]] == [
            "whole-array", "comprehension"]

    def test_lazy_iterator_path_fuses(self, counters):
        with engine(fusion=True):
            delta = counters()
            it = iter(stream_of(self.DATA).map(lambda x: x + 1).map(abs))
            first = next(it)
        assert first == abs(self.DATA[0] + 1)
        assert delta("fusion_pipelines_fused") == 1

    def test_begin_size_preserved_for_map_only_runs(self):
        sizes = []

        class _Probe:
            def begin(self, size):
                sizes.append(size)

            def accept(self, item):
                pass

            def accept_chunk(self, chunk):
                pass

            def cancellation_requested(self):
                return False

            def end(self):
                pass

        map_run = FusedOp([MapOp(abs), MapOp(abs)])
        map_run.wrap_sink(_Probe()).begin(64)
        filter_run = FusedOp([MapOp(abs), FilterOp(bool)])
        filter_run.wrap_sink(_Probe()).begin(64)
        assert sizes == [64, -1]


class TestControlsAndStats:
    def test_set_fusion_roundtrip(self):
        previous = current_config().fusion
        with engine(fusion=False):
            assert not current_config().fusion
            ops = [MapOp(abs), MapOp(abs)]
            # No merge across stages: each map is its own kernel.
            assert [op.source_ops for op in maybe_fuse(ops, current_config())] == [
                (ops[0],), (ops[1],)]
        assert current_config().fusion == previous

    def test_stats_pin_fused_stage_counts(self, counters):
        with engine(fusion=True):
            delta = counters()
            (stream_of(range(50))
             .map(lambda x: x + 1)
             .map(lambda x: x * 2)
             .filter(lambda x: x % 3 != 0)
             .sorted()
             .map(lambda x: x - 1)
             .map(lambda x: x ^ 3)
             .to_list())
        assert delta("fusion_pipelines_fused") == 1
        assert delta("fusion_stages_fused") == 5
        assert delta("fusion_kernels") == 2

    def test_stats_count_unfusible_scans(self, counters):
        with engine(fusion=True):
            delta = counters()
            stream_of(range(10)).map(lambda x: x + 1).to_list()
        assert delta("fusion_pipelines_fused") == 0
        assert delta("fusion_unfused") == 1

    def test_stats_count_exactly_under_threads(self, counters):
        # Concurrent terminals (serve runners, fork/join leaves) update
        # the fusion and bulk counters from many threads at once; a
        # tiny switch interval makes an unlocked ``+=`` lose updates.
        threads, runs = 4, 300
        shared = [MapOp(abs), MapOp(abs)]

        def work():
            config = current_config()
            for _ in range(runs):
                stream_of(range(8)).map(_plus_one).map(abs).to_list()
                maybe_fuse(shared, config)

        with engine(fusion=True, bulk=True):
            delta = counters()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=work) for _ in range(threads)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        total = threads * runs
        assert sum(delta.traversals().values()) == total
        fused = delta("fusion_pipelines_fused")
        assert fused + delta("fusion_memo_hits") == 2 * total
        assert delta("fusion_stages_fused") == 2 * fused

    def test_parallel_terminal_fuses_once_via_memo(self, pool, counters):
        with engine(fusion=True):
            delta = counters()
            (stream_of(list(range(1 << 12))).parallel().with_pool(pool)
             .map(lambda x: x + 1)
             .map(lambda x: x * 2)
             .to_list())
        # One rewrite at the terminal; every fork/join leaf runs the
        # caller's kernels and reaches neither the fuser nor its memo.
        assert delta("fusion_pipelines_fused") == 1
        assert delta("fusion_memo_hits") == 0
        assert delta("fusion_unfused") == 0

    def test_disabled_fusion_still_correct(self):
        with engine(fusion=False):
            out = (stream_of(range(20))
                   .map(lambda x: x + 1)
                   .map(lambda x: x * 2)
                   .to_list())
        assert out == [(x + 1) * 2 for x in range(20)]

    def test_chunked_path_still_engages_with_fusion(self, counters):
        with engine(fusion=True):
            delta = counters()
            (stream_of(list(range(100)))
             .map(lambda x: x + 1)
             .map(lambda x: x * 2)
             .to_list())
        assert delta.traversals() == {
            "chunked": 1, "element": 0, "short_circuit": 0}


class TestObservability:
    def test_traced_run_emits_fuse_span(self):
        with tracing() as tracer:
            with engine(fusion=True):
                (stream_of(list(range(100)))
                 .map(lambda x: x + 1)
                 .map(lambda x: x * 2)
                 .to_list())
        snapshot = trace_snapshot(tracer.spans())
        assert snapshot["counts"].get("fuse") == 1
        fuse_span = [s for s in tracer.spans() if s.kind == "fuse"][0]
        assert fuse_span.args["stages"] == 2
        assert fuse_span.args["kernels"] == 1

    def test_untraced_rewrite_emits_nothing(self):
        with tracing() as tracer:
            pass
        with engine(fusion=True):
            stream_of(range(10)).map(abs).map(abs).to_list()
        assert [s for s in tracer.spans() if s.kind == "fuse"] == []

    def test_parallel_traced_run_has_fuse_and_leaf_spans(self, pool):
        with tracing() as tracer:
            with engine(fusion=True):
                (stream_of(list(range(1 << 12))).parallel().with_pool(pool)
                 .map(lambda x: x + 1)
                 .map(lambda x: x * 2)
                 .to_list())
        counts = trace_snapshot(tracer.spans())["counts"]
        assert counts.get("fuse", 0) >= 1
        assert counts.get("leaf", 0) >= 1


def _adder(k):
    def add(x):
        return x + k

    return add


class _Scaler:
    """A callable instance with ``__eq__`` and no ``__hash__``."""

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return isinstance(other, _Scaler) and other.k == self.k

    def __call__(self, x):
        return x * self.k


class _UnkeyedOp(Op):
    """A pass-through stage carrying unhashable state."""

    def __init__(self):
        self.seen = []

    def wrap_sink(self, downstream):
        return downstream


class _NullSink(Sink):
    pass


class TestKernelMemo:
    """One structure compiles once: later terminals bind their own
    callables into its kernel factory, whichever callables they carry."""

    DATA = list(range(64))

    def _stream(self, pool, backend):
        stream = stream_of(self.DATA)
        if backend == "threads":
            stream = stream.parallel().with_pool(pool)
        elif backend == "process":
            stream = stream.parallel().with_backend("process")
        return stream

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    def test_closures_of_one_factory_keep_their_own_kernels(self, pool, backend):
        # Same ``__qualname__`` and code, different captured values: each
        # terminal binds its own closure into the shared factory.
        for k in range(1, 6):
            out = self._stream(pool, backend).map(_adder(k)).map(abs).to_list()
            assert out == [x + k for x in self.DATA]

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    def test_partials_of_one_function_keep_their_own_kernels(self, pool, backend):
        for k in range(1, 6):
            add = functools.partial(operator.add, k)
            out = self._stream(pool, backend).map(add).filter(_is_even).to_list()
            assert out == [x + k for x in self.DATA if (x + k) % 2 == 0]

    def test_unhashable_callable_still_fuses(self, counters):
        def run(k):
            return stream_of(self.DATA).map(_Scaler(k)).map(_Scaler(5)).to_list()

        with engine(fusion=True):
            run(1)
            delta = counters()
            for k in (2, 3, 2):
                assert run(k) == [x * k * 5 for x in self.DATA]
        assert delta("fusion_pipelines_fused") == 3
        # Every instance is a new callable, and none compiles a kernel.
        assert delta("fusion_factories_compiled") == 0

    def test_unhashable_stage_key_rides_the_structural_memo(self, counters):
        # The rewrite memo reads each stage's type, never the values it
        # carries, so a stage holding unhashable state is memoized.
        config = current_config()
        ops = [MapOp(abs), MapOp(_plus_one), _UnkeyedOp()]
        with engine(fusion=True):
            first = maybe_fuse(ops, config)
            delta = counters()
            second = maybe_fuse(ops, config)
        assert _kinds(first) == _kinds(second) == ["FusedOp", "_UnkeyedOp"]
        assert second[1] is ops[2]
        assert delta("fusion_factories_compiled") == 0

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    def test_second_terminal_compiles_nothing(self, pool, backend, counters):
        def run():
            return (self._stream(pool, backend)
                    .map(_plus_one).filter(_is_even).to_list())

        with engine(fusion=True):
            expected = run()
            delta = counters()
            assert run() == expected
        assert delta("fusion_pipelines_fused") == 1
        assert delta("fusion_kernels") == 1
        assert delta("fusion_factories_compiled") == 0

    def test_second_terminal_reuses_kernel_and_sink_class(self):
        config = current_config()
        first = maybe_fuse([MapOp(_plus_one), FilterOp(_is_even)], config)
        second = maybe_fuse([MapOp(_plus_one), FilterOp(_is_even)], config)
        # Each terminal binds its own op to the one compiled shape.
        assert first is not second and first[0].shape is second[0].shape
        limited = maybe_fuse([MapOp(_plus_one), LimitOp(3)], config)[0]
        sinks = [op.wrap_sink(_NullSink()) for op in (first[0], second[0])]
        assert type(sinks[0]) is type(sinks[1])
        assert type(limited.wrap_sink(_NullSink())) is type(
            maybe_fuse([MapOp(_plus_one), LimitOp(3)], config)[0]
            .wrap_sink(_NullSink())
        )

    def test_compiled_counts_only_new_kernels(self, counters):
        # A structure no other test builds: eleven maps, a sort, a map.
        given = FusedOp([MapOp(abs), MapOp(_adder(1))])
        ops = [given, SortedOp(), *[MapOp(_adder(k)) for k in range(11)]]
        with engine(fusion=True):
            delta = counters()
            fused = maybe_fuse(ops, current_config())
            again = maybe_fuse(
                [given, SortedOp(), *[MapOp(abs) for _ in range(11)]],
                current_config(),
            )
        assert fused[0] is given and _kinds(fused) == [
            "FusedOp", "SortedOp", "FusedOp"]
        assert again[2].shape is fused[2].shape
        assert (
            delta("fusion_kernels"), delta("fusion_factories_compiled")
        ) == (2, 1)

    def test_barriers_come_from_the_chain_being_rewritten(self):
        config = current_config()
        chains = [
            [MapOp(_plus_one), MapOp(abs), SortedOp(), MapOp(abs)]
            for _ in range(2)
        ]
        first, second = (maybe_fuse(ops, config) for ops in chains)
        assert first[0].shape is second[0].shape
        assert first[0].source_ops == tuple(chains[0][:2])
        assert second[0].source_ops == tuple(chains[1][:2])
        assert first[1] is chains[0][2] and second[1] is chains[1][2]
        # The lone trailing map is a one-stage kernel, shared like a run.
        assert second[2].shape is first[2].shape

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    def test_fresh_lambdas_compile_nothing(self, pool, backend, counters):
        # Inline lambdas are new objects every terminal; once the
        # structure has run, no kernel factory is generated or exec'd.
        def run(k):
            return (self._stream(pool, backend)
                    .map(lambda x: x + k).filter(lambda x: x % 2 == 0)
                    .limit(5).to_list())

        with engine(fusion=True):
            run(0)
            delta = counters()
            for k in range(1000):
                assert run(k) == [x + k for x in self.DATA
                                  if (x + k) % 2 == 0][:5]
        assert delta("fusion_factories_compiled") == 0

    @pytest.mark.parametrize("backend", ["sequential", "threads", "process"])
    def test_no_cache_keeps_a_user_callable_alive(self, pool, backend):
        big = list(range(1 << 16))

        def closure(x):
            return x + len(big)

        if backend == "process":
            # Only a picklable callable crosses to the workers.
            closure, expected = _Scaler(3), [x * 3 for x in self.DATA]
        else:
            expected = [x + len(big) for x in self.DATA]
        ref = weakref.ref(closure)
        with engine(fusion=True):
            out = self._stream(pool, backend).map(closure).to_list()
        assert out == expected
        del closure, out
        gc.collect()
        assert ref() is None


class TestLoneStages:
    """Every fusible stage runs through the one kernel generator, alone
    or merged: no per-op sink classes, and a lone stage takes the chunked
    path when fusion is on while keeping its per-stage mode when off."""

    @pytest.mark.parametrize("make", [
        lambda: MapOp(_plus_one), lambda: FilterOp(_is_even),
        lambda: FlatMapOp(_pair), lambda: PeekOp(_plus_one),
        lambda: MapMultiOp(_emit_twice), lambda: DistinctOp(),
        lambda: LimitOp(3), lambda: SkipOp(3),
        lambda: TakeWhileOp(_is_even), lambda: DropWhileOp(_is_even),
        lambda: SortedOp(),
    ], ids=["map", "filter", "flat_map", "peek", "map_multi", "distinct",
            "limit", "skip", "take_while", "drop_while", "sorted"])
    def test_wrap_sink_classes_are_module_level(self, make):
        first = make().wrap_sink(_NullSink())
        second = make().wrap_sink(_NullSink())
        assert type(first) is type(second)
        assert "<locals>" not in type(first).__qualname__

    def test_wrap_sink_reuses_the_one_stage_kernel(self, counters):
        op = FilterOp(_is_even)
        delta = counters()
        first = op.wrap_sink(_NullSink())
        second = op.wrap_sink(_NullSink())
        # Each wrap binds the predicate into the one compiled shape.
        assert first._op.shape is second._op.shape
        assert first._op.kinds == ("filter",)
        assert first._op.source_ops[0].predicate is _is_even
        # Wrapping is not a terminal: it counts nothing.
        assert delta("fusion_factories_compiled") == 0

    def test_finished_sink_is_freed_without_the_gc(self):
        # A sink must not reference itself: a cycle would keep every
        # finished traversal's state vector and downstream alive until
        # the cyclic GC runs.
        op = FusedOp([MapOp(_plus_one), DistinctOp()])
        gc.disable()
        try:
            sink = op.wrap_sink(_NullSink())
            sink.begin(-1)
            sink.accept_chunk([1, 2, 1])
            ref = weakref.ref(sink)
            del sink
            assert ref() is None
        finally:
            gc.enable()

    # (stream builder, mode with fusion off); with fusion on all chunked.
    LONE = {
        "filter": (lambda s: s.filter(_is_even), "chunked"),
        "distinct": (lambda s: s.distinct(), "element"),
        "take_while": (lambda s: s.take_while(_below_40), "short_circuit"),
        "drop_while": (lambda s: s.drop_while(_below_40), "element"),
    }

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("name", sorted(LONE))
    def test_lone_stage_mode(self, name, fused, counters):
        build, unfused_mode = self.LONE[name]
        data = [x % 50 for x in range(100)]
        expected = {
            "filter": [x for x in data if x % 2 == 0],
            "distinct": list(range(50)),
            "take_while": list(range(40)),
            "drop_while": data[40:],
        }[name]
        with engine(fusion=fused, bulk=True):
            plan = build(stream_of(data)).explain().to_dict()
            delta = counters()
            assert build(stream_of(data)).to_list() == expected
        mode = "chunked" if fused else unfused_mode
        assert delta.traversals() == {
            m: int(m == mode) for m in ("chunked", "element", "short_circuit")}
        assert plan["execution"]["mode"] == {
            "chunked": "chunked", "element": "per-element",
            "short_circuit": "short-circuit-polled",
        }[mode]
        assert plan["fusion"]["chain"] == [name]
        assert plan["fusion"]["kernels"] == 0

    def test_merged_cut_stops_at_its_element(self, counters):
        # Default config: map|take_while is one kernel on the chunked
        # path, and it maps nothing past the first failing element.
        calls = []

        def inverse(x):
            calls.append(x)
            return 1 / x

        data = [1, 2, 4, -1, 0] + list(range(1, 100))
        delta = counters()
        got = stream_of(data).map(inverse).take_while(_is_positive).to_list()
        assert got == [1.0, 0.5, 0.25]
        assert calls == [1, 2, 4, -1]
        assert delta.traversals() == {
            "chunked": 1, "element": 0, "short_circuit": 0}

    @pytest.mark.parametrize("cut, seen_expected", [
        (lambda s: s.take_while(lambda v: v < -0.4), [1, 2, 4]),
        (lambda s: s.limit(2), [1, 2]),
    ], ids=["take_while", "limit"])
    def test_cut_behind_an_earlier_kernel_is_polled(
        self, cut, seen_expected, counters
    ):
        # The ufunc map splits the run, so the stages before it sit in
        # an earlier kernel: the cut must be polled per element, or they
        # would run on the whole chunk past it (here: divide by zero).
        seen = []

        def build():
            return cut(
                stream_of([1, 2, 4, 0]).peek(seen.append)
                .map(lambda x: 1 / x).map(np.negative)
            )

        plan = build().explain().to_dict()
        delta = counters()
        assert build().to_list() == [-1.0, -0.5]
        assert seen == seen_expected
        assert delta.traversals() == {
            "chunked": 0, "element": 0, "short_circuit": 1}
        assert plan["execution"]["mode"] == "short-circuit-polled"


def _pair(x):
    return (x, x)


def _emit_twice(x, emit):
    emit(x)
    emit(x)


def _below_40(x):
    return x < 40


def _plus_one(x):
    return x + 1


def _is_even(x):
    return x % 2 == 0


def _is_negative(x):
    return x < 0


def _is_positive(x):
    return x > 0


class _CountingListSpliterator(ListSpliterator):
    """Instrumented source: counts ``next_chunk`` fetches."""

    def __init__(self, data, counter):
        super().__init__(data)
        self._counter = counter

    def next_chunk(self, max_size):
        self._counter[0] += 1
        return super().next_chunk(max_size)


class TestCountedKernelEdgeCases:
    """Fused ``limit(0)`` / ``skip(n >= size)`` must match unfused
    semantics exactly — empty results, no over-fetching — across both
    traversal modes and all three backends."""

    DATA = list(range(257))

    def _run(self, build, *, fused, chunked):
        with engine(fusion=fused, bulk=chunked):
            return build(stream_of(self.DATA)).to_list()

    @pytest.mark.parametrize("chunked", [True, False])
    @pytest.mark.parametrize("edge", [
        lambda s: s.map(_plus_one).limit(0),
        lambda s: s.map(_plus_one).skip(257),
        lambda s: s.map(_plus_one).skip(10_000),
        lambda s: s.filter(_is_even).limit(0),
        lambda s: s.map(_plus_one).limit(257),
        lambda s: s.map(_plus_one).limit(10_000),
        lambda s: s.map(_plus_one).skip(256).limit(5),
    ])
    def test_edge_windows_match_unfused(self, edge, chunked):
        expect = self._run(edge, fused=False, chunked=chunked)
        got = self._run(edge, fused=True, chunked=chunked)
        assert got == expect

    @pytest.mark.parametrize("backend", ["sequential", "threads", "process"])
    @pytest.mark.parametrize("edge,expect", [
        (lambda s: s.map(_plus_one).limit(0), []),
        (lambda s: s.map(_plus_one).skip(300), []),
        (lambda s: s.filter(_is_even).skip(129), []),
        (lambda s: s.map(_plus_one).skip(250).limit(100),
         [x + 1 for x in range(250, 257)]),
    ])
    def test_edges_across_backends(self, backend, edge, expect):
        if backend == "process":
            pytest.importorskip("multiprocessing.shared_memory")
        with engine(fusion=True):
            got = edge(
                stream_of(self.DATA).parallel().with_backend(backend)
            ).to_list()
        assert got == expect

    def test_limit_zero_fetches_no_chunks(self):
        fetches = [0]
        sp = _CountingListSpliterator(self.DATA, fetches)
        from repro.streams import StreamSupport

        with engine(fusion=True, bulk=True):
            got = StreamSupport.stream(sp).map(_plus_one).limit(0).to_list()
        assert got == []
        assert fetches[0] == 0

    def test_bare_window_hands_ndarray_slices_downstream(self):
        chunks = []

        class _Probe(Sink):
            def accept_chunk(self, chunk):
                chunks.append(chunk)

        data = np.arange(100)
        sink = FusedOp([LimitOp(10)]).wrap_sink(_Probe())
        sink.begin(len(data))
        sink.accept_chunk(data)
        sink.end()
        whole = FusedOp([LimitOp(1000)]).wrap_sink(_Probe())
        whole.begin(len(data))
        whole.accept_chunk(data)
        # The cut is a view on the source and an uncut chunk passes as
        # is: a map-free window never copies.
        assert isinstance(chunks[0], np.ndarray)
        assert chunks[0].base is data
        assert chunks[0].tolist() == list(range(10))
        assert chunks[1] is data

    def test_kernel_class_pins(self):
        assert FusedOp([MapOp(abs), LimitOp(3)]).kernel_class == (
            "counted-window")
        assert FusedOp([MapOp(abs), SkipOp(2), LimitOp(3)]).kernel_class == (
            "counted-window")
        assert FusedOp([FilterOp(bool), LimitOp(3)]).kernel_class == (
            "loop")
        assert FusedOp([MapOp(abs), DistinctOp()]).kernel_class == (
            "loop")
        assert FusedOp([MapOp(np.negative), MapOp(np.abs)]).kernel_class == (
            "whole-array")

    @pytest.mark.parametrize("backend", ["sequential", "threads"])
    def test_limit_after_draining_barrier_empty_prefix(self, backend):
        # Regression: a parallel ``limit`` whose upstream barrier drained
        # the stream to nothing used to spin forever in the budget's
        # contiguous-interval walk (zero-width leaf intervals can never
        # advance the frontier).
        with engine(fusion=True):
            got = (
                stream_of(self.DATA).parallel().with_backend(backend)
                .take_while(_is_negative)
                .limit(3)
            ).to_list()
        assert got == []

    @pytest.mark.parametrize("fused", [True, False])
    def test_iterator_flushes_barrier_after_satisfied_limit(self, fused):
        # Regression (found by the zip fuzz): the lazy pull path broke
        # out on a satisfied limit without end()-flushing a downstream
        # barrier, so ``limit(n).sorted()`` lost its elements.
        with engine(fusion=fused):
            got = list(stream_of([3, 1, 2]).limit(2).sorted().iterator())
        assert got == [1, 3]


class _Poisoned(Exception):
    """Raised by a map stage on one chosen element."""


class TestCountedWindowPlan:
    """A parallel ``limit``/``skip`` over maps evaluates only its window,
    and a window that fits one leaf runs in the caller — pinned with
    call and task counts, not timings (2^13 list, ``ForkJoinPool(2)``)."""

    DATA = list(range(1 << 13))

    @pytest.fixture
    def pool2(self):
        p = ForkJoinPool(parallelism=2, name="window-test")
        yield p
        p.shutdown()

    def _stream(self, pool2):
        return stream_of(self.DATA).parallel().with_pool(pool2)

    @pytest.mark.parametrize("build,expect,pooled,f_calls", [
        # Pure-map prefix: the window [0, 100) is one leaf, in the caller.
        (lambda s, f: s.map(f).map(_plus_one).limit(100),
         [x + 2 for x in range(100)], False, 100),
        (lambda s, f: s.map(f).skip(8000).limit(100),
         [x + 1 for x in range(8000, 8100)], False, 100),
        # A window wider than the leaf target still splits, but only the
        # window is evaluated.
        (lambda s, f: s.map(f).skip(1000).limit(3000),
         [x + 1 for x in range(1000, 4000)], True, 3000),
        # A filter before the limit keeps the budgeted loop-kernel tree.
        (lambda s, f: s.map(f).filter(_is_even).limit(100),
         [x + 1 for x in range(1, 200, 2)], True, None),
    ])
    def test_calls_and_tasks(self, pool2, build, expect, pooled, f_calls):
        calls = [0]

        def f(x):
            calls[0] += 1
            return x + 1

        before = pool2.stats()["tasks_executed"]
        assert build(self._stream(pool2), f).to_list() == expect
        executed = pool2.stats()["tasks_executed"] - before
        assert (executed > 0) is pooled
        if f_calls is not None:
            assert calls[0] == f_calls

    @pytest.mark.parametrize("limit,pooled", [(100, False), (8000, True)])
    def test_expired_deadline_raises(self, pool2, limit, pooled):
        from repro.common import TaskTimeoutError
        from repro.faults import Deadline

        deadline = Deadline.after(1e-6)
        while not deadline.expired:
            pass
        before = pool2.stats()["tasks_executed"]
        with pytest.raises(TaskTimeoutError):
            self._stream(pool2).with_deadline(deadline).map(_plus_one).limit(
                limit
            ).to_list()
        assert pool2.stats()["tasks_executed"] == before

    @pytest.mark.parametrize("limit,pooled", [(100, False), (8000, True)])
    def test_map_exception_surfaces_unchanged(self, pool2, limit, pooled):
        def poison(x):
            if x == 50:
                raise _Poisoned(x)
            return x

        before = pool2.stats()["tasks_executed"]
        with pytest.raises(_Poisoned) as excinfo:
            self._stream(pool2).map(poison).limit(limit).to_list()
        assert excinfo.value.args == (50,)
        assert (pool2.stats()["tasks_executed"] > before) is pooled

    def test_in_caller_leaf_keeps_its_span(self, pool2):
        with tracing() as tracer:
            self._stream(pool2).map(_plus_one).limit(100).to_list()
        kinds = [s.kind for s in tracer.spans()]
        assert kinds.count("leaf") == 1
        assert "task" not in kinds

    def test_op_free_tail_folds_in_caller(self, pool2):
        before = pool2.stats()["tasks_executed"]
        # Java's 2^13 // (4 × 2) states the 8-leaf scan explicitly.
        assert self._stream(pool2).with_target_size(1024).sorted(
            reverse=True).to_list() == self.DATA[::-1]
        # Only the sort's input scan runs on the pool: 8 leaves, i.e. the
        # root plus 7 forked prefixes.  The sorted buffer is copied in the
        # caller instead of being re-split into another 8 tasks.
        assert pool2.stats()["tasks_executed"] - before == 8


# --------------------------------------------------------------------------- #
# One compile per run: leaves run the caller's kernels
# --------------------------------------------------------------------------- #


def _is_odd(x):
    return x % 2 == 1


def _below_100(x):
    return x < 100


class TestCompiledOncePerRun:
    """A run compiles its leaf chain and picks its mode once, in the
    caller: on a warm structure, eight leaves — pool tasks or process
    children — move the parent's counters by one rewrite and eight
    traversals, and consult neither the fuser nor its memo."""

    N, LEAF = 1 << 16, 1 << 13

    def _warm_run_delta(self, stream, counters):
        expected = [x + 1 for x in range(self.N) if (x + 1) % 2 == 1]
        assert stream().to_list() == expected  # compiles the structure
        delta = counters()
        assert stream().to_list() == expected
        assert stream().explain()["execution"]["split_tree"]["leaves"] == 8
        return delta

    def test_threads_leaves(self, counters):
        with ForkJoinPool(parallelism=2, name="compile-once") as pool:
            delta = self._warm_run_delta(
                lambda: stream_of(range(self.N)).parallel().with_pool(pool)
                .with_target_size(self.LEAF).map(_plus_one).filter(_is_odd),
                counters,
            )
        assert delta("fusion_pipelines_fused") == 1
        assert delta("fusion_memo_hits") == 0
        assert delta("fusion_unfused") == 0
        assert delta.traversals() == {
            "chunked": 8, "element": 0, "short_circuit": 0}

    def test_process_children(self, counters):
        delta = self._warm_run_delta(
            lambda: stream_of(range(self.N)).parallel().with_backend("process")
            .with_target_size(self.LEAF).map(_plus_one).filter(_is_odd),
            counters,
        )
        assert delta("fusion_pipelines_fused") == 1
        assert delta("fusion_memo_hits") == 0
        assert delta("fusion_unfused") == 0
        assert delta.traversals() == {
            "chunked": 8, "element": 0, "short_circuit": 0}


class _ListSink(Sink):
    def __init__(self):
        self.out = []

    def accept(self, item):
        self.out.append(item)

    def accept_chunk(self, chunk):
        self.out.extend(chunk)


def _drive(kernels, data, mode):
    """``kernels``' output over ``data`` in ``mode`` (chunks of 7)."""
    sink = _ListSink()
    run_pipeline(ListSpliterator(data), kernels, sink, mode, 7)
    return sink.out


class TestKernelPickling:
    """A compiled chain crosses a process boundary as its source ops and
    rebinds to its structure's factory: the clone is the same kernel
    class and emits the same outputs, element by element and per chunk."""

    @pytest.mark.parametrize("kernel,ops,data", [
        ("loop", [MapOp(_plus_one), PeekOp(_is_odd), DistinctOp()],
         [x % 17 for x in range(200)]),
        ("comprehension", [MapOp(_plus_one), FilterOp(_is_even)],
         list(range(200))),
        ("counted-window", [MapOp(_plus_one), SkipOp(3), LimitOp(50)],
         list(range(200))),
        ("whole-array", [MapOp(np.negative), MapOp(np.abs)],
         np.arange(200, dtype=np.int64)),
        ("loop", [MapOp(_plus_one), TakeWhileOp(_below_100)],
         list(range(200))),
        ("loop", [FilterOp(_is_even), LimitOp(20)], list(range(200))),
    ], ids=["loop", "comprehension", "counted-window", "whole-array",
            "take-while-cut", "limit-cut"])
    def test_round_trip(self, kernel, ops, data):
        kernels = maybe_fuse(ops, current_config())
        clone = pickle.loads(pickle.dumps(kernels))
        assert [k.kernel_class for k in clone] == [kernel]
        assert clone[0].kinds == kernels[0].kinds
        assert clone[0] is not kernels[0]
        for mode in ("short_circuit", "chunked"):
            expected = _drive(kernels, data, mode)
            assert expected  # every chain emits something
            assert _drive(clone, data, mode) == expected
