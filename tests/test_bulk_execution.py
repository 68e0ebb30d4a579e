"""Unit tests for the chunked bulk-execution fast path.

Covers the three layers of the bulk protocol:

* ``Spliterator.next_chunk`` — slice semantics on every stock
  spliterator, zero-copy views on numpy sources, strided slices and
  ``basic_case`` whole-remainder chunks on the specialized power
  spliterators, singleton view chunks on the vectorized mixin;
* ``Sink.accept_chunk`` — the chunk-aware rewrites of the stateless ops
  and the collector chunk accumulators;
* engagement — ``run_pipeline`` picks the chunked traversal exactly when
  the pipeline is eligible, and falls back otherwise, observable through
  ``bulk_stats``.
"""

import numpy as np
import pytest

from repro.forkjoin import ForkJoinPool
from repro.forkjoin.deques import WorkStealingDeque
from repro.streams import (
    ArraySpliterator,
    Collectors,
    EmptySpliterator,
    IteratorSpliterator,
    ListSpliterator,
    RangeSpliterator,
    Stream,
    bulk_stats,
    current_config,
    engine,
    stream_of,
)
from repro.core.power_spliterators import TieSpliterator, ZipSpliterator
from repro.core.vectorized import VTieSpliterator


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="bulk-test")
    yield p
    p.shutdown()


def drain(spliterator, max_size):
    """Pull chunks until exhaustion; returns the list of chunks."""
    chunks = []
    while True:
        chunk = spliterator.next_chunk(max_size)
        if chunk is None or len(chunk) == 0:
            return chunks
        chunks.append(chunk)


# --------------------------------------------------------------------------- #
# next_chunk on the stock spliterators
# --------------------------------------------------------------------------- #

class TestNextChunk:
    def test_list_spliterator_slices(self):
        sp = ListSpliterator(list(range(10)))
        chunks = drain(sp, 4)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert sp.next_chunk(4) == ()

    def test_list_spliterator_respects_prior_advance(self):
        sp = ListSpliterator([10, 11, 12, 13])
        got = []
        assert sp.try_advance(got.append)
        assert sp.next_chunk(8) == [11, 12, 13]
        assert got == [10]

    def test_array_spliterator_chunk_is_a_view(self):
        arr = np.arange(8)
        sp = ArraySpliterator(arr)
        chunk = sp.next_chunk(8)
        assert isinstance(chunk, np.ndarray)
        assert np.shares_memory(chunk, arr)

    def test_range_spliterator_chunk_is_a_range(self):
        sp = RangeSpliterator(0, 10)
        chunks = drain(sp, 4)
        assert chunks == [range(0, 4), range(4, 8), range(8, 10)]
        assert all(isinstance(c, range) for c in chunks)

    def test_iterator_spliterator_buffers(self):
        sp = IteratorSpliterator(iter(range(7)))
        assert drain(sp, 3) == [[0, 1, 2], [3, 4, 5], [6]]

    def test_iterator_spliterator_pulls_lazily(self):
        pulled = []

        def gen():
            for i in range(100):
                pulled.append(i)
                yield i

        sp = IteratorSpliterator(gen())
        assert sp.next_chunk(5) == [0, 1, 2, 3, 4]
        assert len(pulled) == 5

    def test_empty_spliterator(self):
        assert len(EmptySpliterator().next_chunk(4)) == 0

    def test_max_size_validated(self):
        with pytest.raises(ValueError):
            IteratorSpliterator(iter([1])).next_chunk(0)

    def test_tie_spliterator_strided_slice(self):
        sp = TieSpliterator(list(range(10)), start=0, count=5, incr=2)
        assert sp.next_chunk(3) == [0, 2, 4]
        assert sp.next_chunk(3) == [6, 8]

    def test_zip_split_then_chunk(self):
        sp = ZipSpliterator(list(range(8)))
        prefix = sp.try_split()
        assert prefix.next_chunk(8) == [0, 2, 4, 6]
        assert sp.next_chunk(8) == [1, 3, 5, 7]

    def test_power2_numpy_chunk_is_strided_view(self):
        arr = np.arange(8)
        sp = TieSpliterator(arr, start=0, count=4, incr=2)
        chunk = sp.next_chunk(4)
        assert np.shares_memory(chunk, arr)
        assert list(chunk) == [0, 2, 4, 6]

    def test_basic_case_leaf_is_indivisible(self):
        """With a connected ``basic_case`` the whole remainder comes back
        as one chunk regardless of max_size — the kernel must see the
        complete sub-view."""

        class FO:
            on_split = None

            @staticmethod
            def basic_case(view, incr):
                return [x * 10 for x in view]

        sp = TieSpliterator(list(range(6)), function_object=FO())
        assert sp.next_chunk(2) == [0, 10, 20, 30, 40, 50]
        assert sp.next_chunk(2) == ()

    def test_vectorized_mixin_singleton_chunk(self):
        arr = np.arange(8, dtype=float)
        sp = VTieSpliterator(arr, start=0, count=4, incr=2)
        chunk = sp.next_chunk(1)
        assert len(chunk) == 1
        view, incr = chunk[0]
        assert incr == 2
        assert np.shares_memory(view, arr)
        assert sp.next_chunk(1) == ()


# --------------------------------------------------------------------------- #
# accept_chunk rewrites and collector chunk accumulators
# --------------------------------------------------------------------------- #

class TestChunkedSemantics:
    DATA = list(range(-20, 20))

    def both(self, build):
        with engine(bulk=True):
            chunked = build()
        with engine(bulk=False):
            element = build()
        return chunked, element

    def test_map_filter_flatmap_parity(self):
        def build():
            return (
                stream_of(self.DATA)
                .map(lambda x: x * 3)
                .filter(lambda x: x % 2 == 0)
                .flat_map(lambda x: [x, -x])
                .to_list()
            )

        chunked, element = self.both(build)
        assert chunked == element

    def test_peek_sees_every_element_in_order(self):
        def build():
            seen = []
            out = stream_of(self.DATA).peek(seen.append).map(lambda x: x).to_list()
            return seen, out

        (seen_c, out_c), (seen_e, out_e) = self.both(build)
        assert seen_c == seen_e == self.DATA
        assert out_c == out_e

    def test_map_multi_parity(self):
        def emit_twice(x, consumer):
            consumer(x)
            consumer(x + 100)

        def build():
            return stream_of(self.DATA).map_multi(emit_twice).to_list()

        chunked, element = self.both(build)
        assert chunked == element

    def test_ufunc_map_on_ndarray_source(self):
        arr = np.arange(64, dtype=np.int64)
        def build():
            return stream_of(arr).map(np.square).to_list()

        chunked, element = self.both(build)
        assert list(chunked) == list(element) == [x * x for x in range(64)]

    def test_non_ufunc_map_on_ndarray_source(self):
        arr = np.arange(8, dtype=np.int64)
        with engine(bulk=True):
            assert stream_of(arr).map(str).to_list() == [str(x) for x in arr]

    @pytest.mark.parametrize("collector,expected", [
        (Collectors.to_list(), list(range(12))),
        (Collectors.to_set(), set(range(12))),
        (Collectors.counting(), 12),
        (Collectors.summing(), sum(range(12))),
        (Collectors.averaging(), sum(range(12)) / 12),
        (Collectors.joining(","), ",".join(map(str, range(12)))),
    ])
    def test_collector_chunk_accumulators(self, collector, expected):
        source = range(12) if not isinstance(expected, str) else map(str, range(12))
        with engine(bulk=True):
            bulk_stats(reset=True)
            result = stream_of(list(source)).collect(collector)
            assert bulk_stats()["chunked"] == 1
        assert result == expected

    def test_reduce_parity(self):
        def build():
            with_id = stream_of(self.DATA).reduce(0, lambda a, b: a + b)
            no_id = stream_of(self.DATA).map(lambda x: x + 1).reduce(lambda a, b: a + b)
            empty = Stream.empty().reduce(lambda a, b: a + b)
            return with_id, no_id.get(), empty.is_present()

        chunked, element = self.both(build)
        assert chunked == element == (sum(self.DATA), sum(self.DATA) + 40, False)

    def test_sum_over_range_stream(self):
        def build():
            return Stream.range(0, 1000).map(lambda x: x * 2).sum()

        chunked, element = self.both(build)
        assert chunked == element == 2 * sum(range(1000))


# --------------------------------------------------------------------------- #
# engagement and fallback
# --------------------------------------------------------------------------- #

class TestEngagement:
    def stats_after(self, run):
        bulk_stats(reset=True)
        run()
        return bulk_stats(reset=True)

    def test_stateless_pipeline_engages(self):
        stats = self.stats_after(
            lambda: stream_of(range(100)).map(lambda x: x + 1).to_list())
        assert stats == {"chunked": 1, "element": 0}

    def test_unfusible_stateful_op_falls_back(self):
        # Without fusion no stage merges, and a kernel that keeps state
        # (drop_while's flag) takes one element at a time.
        with engine(fusion=False):
            stats = self.stats_after(
                lambda: stream_of(range(100))
                .drop_while(lambda x: x < 10).to_list())
        assert stats["chunked"] == 0 and stats["element"] >= 1

    def test_sorted_rides_chunked_as_terminal_barrier(self):
        # sorted buffers chunk-at-a-time and flushes at end(): the chain
        # stays on the bulk path now instead of falling back.
        stats = self.stats_after(
            lambda: stream_of(range(100)).sorted(reverse=True).to_list())
        assert stats["chunked"] == 1 and stats["element"] == 0

    def test_fused_limit_rides_chunked(self):
        # limit compiles into a counted kernel that absorbs its own
        # short-circuit, so the chain takes the chunked path.
        stats = self.stats_after(
            lambda: stream_of(range(100)).limit(5).to_list())
        assert stats["chunked"] == 1 and stats["element"] == 0

    def test_raw_short_circuit_falls_back(self):
        # Without fusion an unmerged cut is polled per element.
        with engine(fusion=False):
            stats = self.stats_after(
                lambda: stream_of(range(100))
                .take_while(lambda x: x < 5).to_list())
        assert stats["chunked"] == 0 and stats["element"] >= 1

    def test_find_first_never_chunks(self):
        stats = self.stats_after(
            lambda: stream_of(range(100)).map(lambda x: x).find_first())
        assert stats["chunked"] == 0

    def test_disabled_globally(self):
        prev = current_config().bulk
        with engine(bulk=False):
            assert not current_config().bulk
            stats = self.stats_after(
                lambda: stream_of(range(100)).map(lambda x: x + 1).to_list())
            assert stats["chunked"] == 0 and stats["element"] >= 1
        assert current_config().bulk == prev

    def test_parallel_leaves_chunk(self, pool):
        stats = self.stats_after(
            lambda: stream_of(list(range(4096)))
            .parallel().with_pool(pool)
            .map(lambda x: x + 1).to_list())
        assert stats["chunked"] >= 1 and stats["element"] == 0

    def test_parallel_stateful_still_correct(self, pool):
        """A stateful op segments parallel evaluation: the stateless
        prefix is still traversed chunked at the leaves, and the barrier
        applies the stateful op afterwards — results must be exact."""
        data = list(range(2048)) * 2
        result = (stream_of(data)
                  .parallel().with_pool(pool)
                  .distinct().to_list())
        assert result == list(range(2048))

    def test_iterator_stays_lazy_under_bulk(self):
        """Stream.iterator() keeps per-element pull semantics even with
        bulk execution enabled — laziness trumps chunking there."""
        seen = []
        it = iter(stream_of(range(100)).peek(seen.append).map(lambda x: x))
        assert next(it) == 0
        assert len(seen) <= 2  # consumed prefix only, not the whole source


# --------------------------------------------------------------------------- #
# deque fast paths (satellite b)
# --------------------------------------------------------------------------- #

class TestDequeFastPaths:
    def test_empty_pop_and_steal(self):
        dq = WorkStealingDeque()
        assert dq.pop() is None
        assert dq.steal() is None
        assert not dq
        assert len(dq) == 0

    def test_order_preserved(self):
        dq = WorkStealingDeque()
        for i in range(3):
            dq.push(i)
        assert bool(dq)
        assert dq.pop() == 2      # owner LIFO
        assert dq.steal() == 0    # thief FIFO
        assert dq.pop() == 1
        assert dq.pop() is None
