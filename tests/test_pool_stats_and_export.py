"""Tests for pool observability counters and CSV export."""

import csv
import io
import threading

import pytest

from repro.bench.export import export_all, export_series, rows_to_csv
from repro.common import IllegalArgumentError
from repro.forkjoin import ForkJoinPool
from repro.streams import Stream


class TestPoolStats:
    def test_counters_accumulate(self):
        with ForkJoinPool(parallelism=4, name="stats") as pool:
            before = pool.stats()
            Stream.range(0, 50_000).parallel().with_pool(pool).sum()
            after = pool.stats()
            assert after["tasks_executed"] > before["tasks_executed"]
            assert len(after["per_worker"]) == 4

    def test_steals_happen_on_wide_work(self):
        # The root task reaches one worker; every forked task reaches
        # another worker only by being stolen.  The first worker to map an
        # element waits until a second worker has mapped one, so the run
        # cannot finish on one worker before the others wake.
        seen: set[str] = set()
        second_worker = threading.Condition()

        def gated(x):
            name = threading.current_thread().name
            if len(seen) < 2 and name.startswith("steals-worker-"):
                with second_worker:
                    seen.add(name)
                    second_worker.notify_all()
                    second_worker.wait_for(lambda: len(seen) >= 2, timeout=10.0)
            return x

        with ForkJoinPool(parallelism=4, name="steals") as pool:
            total = (
                Stream.range(0, 100_000)
                .parallel()
                .with_pool(pool)
                .with_target_size(1000)
                .map(gated)
                .sum()
            )
            assert total == sum(range(100_000))
            assert len(seen) >= 2
            assert pool.stats()["steals"] >= 1

    def test_totals_are_sums(self):
        with ForkJoinPool(parallelism=2, name="sum-check") as pool:
            Stream.range(0, 10_000).parallel().with_pool(pool).count()
            stats = pool.stats()
            assert stats["tasks_executed"] == sum(
                w["executed"] for w in stats["per_worker"]
            )
            assert stats["steals"] == sum(w["stolen"] for w in stats["per_worker"])

    def test_real_steals_qualitatively_match_simulation(self):
        # Both the real pool and the simulator steal a small number of
        # times on a balanced tree: each should be well below leaf count.
        from repro.simcore import CostModel, SimMachine, build_dc_dag

        n, target, workers = 2**14, 2**9, 4
        with ForkJoinPool(parallelism=workers, name="qual") as pool:
            Stream.range(0, n).parallel().with_pool(pool).with_target_size(
                target
            ).sum()
            real_steals = pool.stats()["steals"]
        sim = SimMachine(workers).run(build_dc_dag(n, target, CostModel()))
        leaves = n // target
        assert 0 < sim.steals < leaves
        assert 0 <= real_steals < leaves * 4  # helping joins add a few


class TestStatsTraceAgreement:
    def test_idle_wakeups_surfaced(self):
        with ForkJoinPool(parallelism=2, name="idle") as pool:
            stats = pool.stats()
            assert "idle_wakeups" in stats
            assert stats["idle_wakeups"] >= 0

    def test_task_and_steal_events_match_stats(self):
        """Per-worker trace event counts agree with the stats() counters:
        every executed increment pairs with one task span, every stolen
        increment with one steal instant."""
        from repro.obs import trace_snapshot, tracing

        with ForkJoinPool(parallelism=4, name="agree") as pool:
            with tracing() as tracer:
                Stream.range(0, 50_000).parallel().with_pool(pool).with_target_size(
                    2_000
                ).sum()
            stats = pool.stats()
        per_worker = trace_snapshot(tracer.spans())["per_worker"]
        for row in stats["per_worker"]:
            events = per_worker.get(row["worker"], {})
            assert events.get("task", 0) == row["executed"]
            assert events.get("steal", 0) == row["stolen"]

    def test_unfork_fast_path_keeps_invariant(self):
        """A single worker joins every forked child by popping it back off
        its own deque (the unfork fast path in ``help_join``); those runs
        must be counted and traced exactly like stolen ones."""
        from repro.forkjoin import RecursiveTask
        from repro.obs import trace_snapshot, tracing

        class Fib(RecursiveTask):
            def __init__(self, n):
                super().__init__()
                self.n = n

            def compute(self):
                if self.n < 2:
                    return self.n
                a = Fib(self.n - 1)
                a.fork()
                return Fib(self.n - 2).compute() + a.join()

        with ForkJoinPool(parallelism=1, name="unfork") as pool:
            with tracing() as tracer:
                assert pool.invoke(Fib(12)) == 144
            stats = pool.stats()
        counts = trace_snapshot(tracer.spans())["counts"]
        assert stats["tasks_executed"] == counts.get("task", 0)

    def test_invariant_survives_fail_fast_cancellation(self):
        """Cancelled tasks must inflate neither ``tasks_executed`` nor the
        ``task`` span count — the invariant holds even for aborted runs.

        The split is pinned so a cancellation is certain: one worker and
        16 leaves of 256.  Each split forks its prefix onto the worker's
        own deque and descends into the suffix, so the poisoned last leaf
        runs first, while every forked prefix is still queued with no
        thief to take it; the failure cancels them on the way up."""
        from repro.obs import trace_snapshot, tracing

        def poison(x):
            if x >= (1 << 12) - 64:
                raise ZeroDivisionError
            return x

        with ForkJoinPool(parallelism=1, name="agree-cancel") as pool:
            with tracing() as tracer:
                with pytest.raises(ZeroDivisionError):
                    Stream.range(0, 1 << 12).parallel().with_pool(
                        pool
                    ).with_target_size(256).map(poison).to_list()
            stats = pool.stats()
        per_worker = trace_snapshot(tracer.spans())["per_worker"]
        for row in stats["per_worker"]:
            events = per_worker.get(row["worker"], {})
            assert events.get("task", 0) == row["executed"]
        assert stats["tasks_cancelled"] > 0

    def test_stats_snapshot_is_consistent_under_load(self):
        """Totals always equal the per-worker sums, even while workers
        are actively mutating the counters (the old implementation could
        tear here)."""
        import threading

        with ForkJoinPool(parallelism=4, name="consistent") as pool:
            stop = threading.Event()
            failures = []

            def hammer():
                while not stop.is_set():
                    stats = pool.stats()
                    if stats["tasks_executed"] != sum(
                        w["executed"] for w in stats["per_worker"]
                    ):
                        failures.append(stats)
                    if stats["steals"] != sum(
                        w["stolen"] for w in stats["per_worker"]
                    ):
                        failures.append(stats)

            reader = threading.Thread(target=hammer, daemon=True)
            reader.start()
            for _ in range(5):
                Stream.range(0, 30_000).parallel().with_pool(pool).with_target_size(
                    1_000
                ).sum()
            stop.set()
            reader.join(timeout=5.0)
            assert not failures


class TestCsvExport:
    def test_rows_to_csv(self):
        text = rows_to_csv([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}])
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed == [{"a": "1", "b": "2.5"}, {"a": "3", "b": "4.5"}]

    def test_empty_rejected(self):
        with pytest.raises(IllegalArgumentError):
            rows_to_csv([])

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(IllegalArgumentError):
            rows_to_csv([{"a": 1}, {"b": 2}])

    def test_export_series(self, tmp_path):
        path = export_series([{"x": 1}], tmp_path / "sub" / "s.csv")
        assert path.exists()
        assert "x" in path.read_text()

    def test_export_all(self, tmp_path):
        paths = export_all(tmp_path)
        assert len(paths) == 6
        names = {p.stem for p in paths}
        assert "fig3_fig4" in names
        fig = next(p for p in paths if p.stem == "fig3_fig4")
        rows = list(csv.DictReader(io.StringIO(fig.read_text())))
        assert len(rows) == 7  # sizes 2^20..2^26
        assert "speedup" in rows[0]
