"""Tests for the run profiler (``repro.obs.profile``)."""

import pytest

from repro.forkjoin import ForkJoinPool
from repro.obs import (
    DEFAULT_PROFILE_SAMPLE,
    Profiler,
    RunProfile,
    current_profiler,
    profiled,
    set_profiler,
)
from repro.streams import Stream, bulk_stats, engine, fusion_stats
from repro.streams.stream_support import stream_of


def _triple(x):
    return x * 3


def _even(x):
    return x & 1 == 0


class TestLifecycle:
    def test_disabled_by_default(self):
        assert current_profiler() is None

    def test_profiled_installs_and_restores(self):
        with profiled() as profile:
            assert isinstance(profile, RunProfile)
            assert current_profiler() is not None
            assert current_profiler().profile is profile
        assert current_profiler() is None

    def test_nested_profiled_restores_outer(self):
        with profiled() as outer:
            with profiled() as inner:
                assert current_profiler().profile is inner
            assert current_profiler().profile is outer
        assert current_profiler() is None

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiled():
                raise RuntimeError("boom")
        assert current_profiler() is None

    def test_set_profiler_returns_previous(self):
        profiler = Profiler(sample_rate=1)
        previous = set_profiler(profiler)
        try:
            assert previous is None
            assert current_profiler() is profiler
        finally:
            set_profiler(previous)

    def test_default_sample_rate(self):
        with profiled() as profile:
            assert profile.sample_rate == DEFAULT_PROFILE_SAMPLE
        with profiled(sample=3) as profile:
            assert profile.sample_rate == 3


class TestSequentialAttribution:
    def test_stage_attribution_and_modes(self):
        with profiled(sample=1) as profile:
            result = Stream.range(0, 1024).map(_triple).filter(_even).to_list()
        assert result == [x * 3 for x in range(1024) if (x * 3) % 2 == 0]
        d = profile.to_dict()
        assert d["traversals"] == 1
        assert d["sampled_traversals"] == 1
        assert d["modes"] == {"chunked": 1, "element": 0, "short_circuit": 0}
        assert d["fused_kernels"] == 1
        # Stage keys: position:label, outermost first.
        assert list(d["stages"]) == [
            "0:fused(map|filter)",
            "1:terminal:AccumulatorSink",
        ]
        fused = d["stages"]["0:fused(map|filter)"]
        assert fused["elements"] == 1024
        assert fused["chunks"] == 1
        assert fused["traversals"] == 1
        assert fused["self_ns"] >= 0
        # The terminal sees only what the filter let through.
        assert d["stages"]["1:terminal:AccumulatorSink"]["elements"] == 512

    def test_counted_limit_rides_chunked_mode(self):
        # A fused counted kernel absorbs the limit, so the chain takes
        # the chunked path instead of per-element short-circuiting; the
        # window still cuts the traversal at exactly 3 elements.
        with profiled(sample=1) as profile:
            assert Stream.range(0, 4096).map(_triple).limit(3).to_list() == [
                0,
                3,
                6,
            ]
        d = profile.to_dict()
        assert d["modes"]["chunked"] == 1
        assert d["modes"]["short_circuit"] == 0
        assert d["fused_kernels"] == 1
        assert list(d["stages"]) == [
            "0:fused(map|limit)",
            "1:terminal:AccumulatorSink",
        ]
        # The kernel sees the raw source chunk (attribution counts stage
        # *input*); the window cut means the terminal sees exactly 3.
        assert d["stages"]["1:terminal:AccumulatorSink"]["elements"] == 3

    def test_short_circuit_mode_counted(self):
        # Without fusion the take_while cut is not merged into the map's
        # kernel, so a genuine short-circuit traversal still happens (and
        # is attributed).
        with engine(fusion=False), profiled(sample=1) as profile:
            assert (
                Stream.range(0, 4096)
                .map(_triple)
                .take_while(lambda x: x < 9)
                .to_list()
            ) == [0, 3, 6]
        d = profile.to_dict()
        assert d["modes"]["short_circuit"] == 1

    def test_profiled_run_matches_unprofiled_stats(self):
        """The profiled path must take the same traversal mode and fusion
        decisions as the unprofiled one."""
        fusion_stats(reset=True)
        before = bulk_stats()
        plain = Stream.range(0, 512).map(_triple).filter(_even).to_list()
        mid = bulk_stats()
        with profiled(sample=1):
            prof = Stream.range(0, 512).map(_triple).filter(_even).to_list()
        after = bulk_stats()
        assert plain == prof
        assert {k: mid[k] - before[k] for k in mid} == {
            k: after[k] - mid[k] for k in after
        }

    def test_sampling_skips_attribution_but_counts_totals(self):
        with profiled(sample=2) as profile:
            for _ in range(4):
                Stream.range(0, 64).map(_triple).sum()
        d = profile.to_dict()
        assert d["traversals"] == 4
        assert d["sampled_traversals"] == 2  # ticks 0 and 2
        assert d["modes"]["chunked"] == 4
        assert d["stages"]["0:map"]["traversals"] == 2

    def test_hot_stages_ranking(self):
        profile = RunProfile(sample_rate=1)
        profile.record_stage("0:cheap", 10, elements=1)
        profile.record_stage("1:costly", 1000, elements=1)
        ranked = profile.hot_stages()
        assert [name for name, _ in ranked] == ["1:costly", "0:cheap"]
        assert profile.hot_stages(limit=1) == ranked[:1]


class TestParallelAttribution:
    def test_leaves_and_pool_deltas(self):
        with ForkJoinPool(parallelism=2, name="prof-test") as pool:
            with profiled(sample=1, pool=pool) as profile:
                total = (
                    Stream.range(0, 4096)
                    .parallel()
                    .with_pool(pool)
                    .with_target_size(512)
                    .map(_triple)
                    .sum()
                )
        assert total == sum(x * 3 for x in range(4096))
        d = profile.to_dict()
        assert d["leaves"] == 8
        assert d["traversals"] == 8
        assert d["leaf_duration_ns"]["count"] == 8
        assert d["leaf_duration_ns"]["p50_bound"] > 0
        assert d["chunk_sizes"]["count"] == 8
        assert d["pool"]["pool"] == "prof-test"
        assert d["pool"]["parallelism"] == 2
        # Deltas for this run only: exactly the 8 leaf tasks.
        assert d["pool"]["tasks_executed"] == 8

    def test_pool_attaches_automatically_from_run(self):
        with ForkJoinPool(parallelism=2, name="auto-attach") as pool:
            with profiled(sample=1) as profile:
                stream_of(list(range(1024)), parallel=True, pool=pool).map(
                    _triple
                ).sum()
        assert profile.to_dict()["pool"].get("pool") == "auto-attach"

    def test_pool_histogram_fed_by_profiled_leaves(self):
        with ForkJoinPool(parallelism=2, name="hist-feed") as pool:
            with profiled(sample=1):
                (
                    Stream.range(0, 2048)
                    .parallel()
                    .with_pool(pool)
                    .with_target_size(512)
                    .map(_triple)
                    .sum()
                )
            snap = pool.metrics.snapshot()
        key = 'leaf_duration_ns{pool="hist-feed"}'
        assert snap[key]["count"] == 4


class TestStreamProfileMethod:
    def test_returns_result_and_profile(self):
        result, profile = (
            Stream.range(0, 256)
            .map(_triple)
            .profile(lambda s: s.to_list(), sample=1)
        )
        assert result == [x * 3 for x in range(256)]
        assert isinstance(profile, RunProfile)
        assert profile.to_dict()["traversals"] == 1
        assert current_profiler() is None

    def test_parallel_stream_profile_attaches_pool(self):
        with ForkJoinPool(parallelism=2, name="sp-prof") as pool:
            total, profile = (
                Stream.range(0, 1024)
                .parallel()
                .with_pool(pool)
                .map(_triple)
                .profile(lambda s: s.sum(), sample=1)
            )
        assert total == sum(x * 3 for x in range(1024))
        assert profile.to_dict()["pool"].get("pool") == "sp-prof"


class TestReport:
    def test_report_text(self):
        with profiled(sample=1) as profile:
            Stream.range(0, 128).map(_triple).filter(_even).count()
        text = profile.report()
        assert "traversal(s)" in text
        assert "hot stages" in text
        assert "fused(map|filter)" in text

    def test_empty_profile_report(self):
        profile = RunProfile(sample_rate=4)
        text = profile.report()
        assert "0 traversal(s)" in text
        d = profile.to_dict()
        assert d["leaf_duration_ns"]["count"] == 0
        assert d["stages"] == {}


class TestProcessExecutorStats:
    def test_stats_keys_unchanged_and_labeled(self):
        from repro.jplf.process_executor import ProcessExecutor

        executor = ProcessExecutor(processes=2)
        try:
            assert executor.stats() == {
                "runs": 0,
                "retries": 0,
                "degraded_runs": 0,
                "broken_pools": 0,
                "deadline_timeouts": 0,
                "workers": {},
            }
            snap = executor.metrics.snapshot()
            assert 'runs{pool="process",processes="2"}' in snap
        finally:
            executor.shutdown()
