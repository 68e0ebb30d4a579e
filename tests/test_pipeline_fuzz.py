"""Pipeline fuzzing: random op chains vs a reference interpreter.

Hypothesis composes random pipelines from the full intermediate-op
vocabulary — including the counted (``limit``/``skip``), ``distinct``,
and ``zip`` forms that fuse into kernels since PR 10 — and checks
agreement across every execution mode: sequential and parallel,
per-element and chunked, all three backends, against a plain-Python
reference interpreter.  This is the catch-all net over op-fusion,
barrier segmentation, ordering guarantees, and the bulk-execution fast
path's automatic fallback.

The CI ``fusion-fuzz`` job pins hypothesis's PRNG per run through the
``FUSION_FUZZ_SEED`` environment variable (seed list single-sourced in
``.github/fusion-fuzz-seeds.json``, mirrored by ``make fusion-fuzz``),
so a sweep failure replays locally with the same generated pipelines.
"""

import functools
import itertools
import operator
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given
from hypothesis import seed as hypothesis_seed
from hypothesis import settings
from hypothesis import strategies as st

from repro.forkjoin import ForkJoinPool
from repro.powerlist import PowerList, shm
from repro.obs.metrics import global_registry
from repro.streams import Stream, current_config, engine, stream_of
from repro.streams.fusion import _FUSIBLE_TYPES, FusedOp, fuse_ops, maybe_fuse
from repro.streams.ops import SortedOp, select_mode
from repro.streams.optional import Optional

_FUZZ_SEED = os.environ.get("FUSION_FUZZ_SEED")


def _seeded(test):
    """Pin hypothesis's PRNG when ``FUSION_FUZZ_SEED`` is set (the CI
    fusion-fuzz sweep); unseeded runs keep full randomized exploration."""
    if _FUZZ_SEED is not None:
        return hypothesis_seed(int(_FUZZ_SEED))(test)
    return test


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="fuzz")
    yield p
    p.shutdown()


# --------------------------------------------------------------------------- #
# Each op: (name, params) with a Stream applier and a reference applier.
# --------------------------------------------------------------------------- #

def _apply_stream(stream, op):
    name, arg = op
    if name == "map":
        return stream.map(lambda x, a=arg: x * a + 1)
    if name == "filter":
        return stream.filter(lambda x, a=arg: x % (a + 2) != 0)
    if name == "flat_map":
        return stream.flat_map(lambda x, a=arg: [x] * (abs(x + a) % 3))
    if name == "peek":
        return stream.peek(lambda x: None)
    if name == "map_multi":
        return stream.map_multi(
            lambda x, emit, a=arg: emit(x + a) if x % 2 else None
        )
    if name == "distinct":
        return stream.distinct()
    if name == "sorted":
        return stream.sorted(reverse=bool(arg % 2))
    if name == "limit":
        return stream.limit(arg)
    if name == "skip":
        return stream.skip(arg)
    if name == "take_while":
        return stream.take_while(lambda x, a=arg: abs(x) < a * 7 + 5)
    if name == "drop_while":
        return stream.drop_while(lambda x, a=arg: abs(x) < a * 3 + 2)
    raise AssertionError(name)


def _apply_reference(values, op):
    name, arg = op
    if name == "map":
        return [x * arg + 1 for x in values]
    if name == "filter":
        return [x for x in values if x % (arg + 2) != 0]
    if name == "flat_map":
        return [x for x in values for _ in range(abs(x + arg) % 3)]
    if name == "peek":
        return list(values)
    if name == "map_multi":
        return [x + arg for x in values if x % 2]
    if name == "distinct":
        return list(dict.fromkeys(values))
    if name == "sorted":
        return sorted(values, reverse=bool(arg % 2))
    if name == "limit":
        return values[:arg]
    if name == "skip":
        return values[arg:]
    if name == "take_while":
        out = []
        for x in values:
            if abs(x) >= arg * 7 + 5:
                break
            out.append(x)
        return out
    if name == "drop_while":
        out = []
        dropping = True
        for x in values:
            if dropping and abs(x) < arg * 3 + 2:
                continue
            dropping = False
            out.append(x)
        return out
    raise AssertionError(name)


# Picklable twins of the lambda-based appliers above: the process backend
# ships stage functions to worker children, so they must be module-level
# functions (bound via functools.partial), with identical semantics.

def _pk_map(x, a):
    return x * a + 1


def _pk_filter(x, a):
    return x % (a + 2) != 0


def _pk_flat_map(x, a):
    return [x] * (abs(x + a) % 3)


def _pk_peek(x):
    return None


def _pk_map_multi(x, emit, a):
    if x % 2:
        emit(x + a)


def _pk_take_while(x, a):
    return abs(x) < a * 7 + 5


def _pk_drop_while(x, a):
    return abs(x) < a * 3 + 2


def _apply_stream_picklable(stream, op):
    name, arg = op
    if name == "map":
        return stream.map(functools.partial(_pk_map, a=arg))
    if name == "filter":
        return stream.filter(functools.partial(_pk_filter, a=arg))
    if name == "flat_map":
        return stream.flat_map(functools.partial(_pk_flat_map, a=arg))
    if name == "peek":
        return stream.peek(_pk_peek)
    if name == "map_multi":
        return stream.map_multi(functools.partial(_pk_map_multi, a=arg))
    if name == "take_while":
        return stream.take_while(functools.partial(_pk_take_while, a=arg))
    if name == "drop_while":
        return stream.drop_while(functools.partial(_pk_drop_while, a=arg))
    # distinct/sorted/limit/skip hold no user callables — same as before.
    return _apply_stream(stream, op)


def _pk_square_add(acc, x):
    return acc + x * x


def _pk_over(x, t):
    return x > t


# Terminals drawn by the backend sweep: (name, threshold).  ``sum`` and
# ``min`` close over lambdas, which the process backend cannot ship, so
# its leg runs their picklable equivalents.
TERMINALS = [
    "to_list", "count", "sum", "reduce3", "min", "any_match", "all_match",
    "none_match", "find_first", "find_any", "for_each",
]


def _run_terminal(stream, name, t, process):
    """Run terminal ``name`` on ``stream``; ``for_each`` returns the
    elements it saw, gathered under a lock (nothing on process, where
    the action runs in the worker)."""
    predicate = functools.partial(_pk_over, t=t)
    if name == "to_list":
        return stream.to_list()
    if name == "count":
        return stream.count()
    if name == "sum":
        return stream.reduce(0, operator.add) if process else stream.sum()
    if name == "reduce3":
        return stream.reduce(0, _pk_square_add, operator.add)
    if name == "min":
        return stream.reduce(min) if process else stream.min()
    if name in ("any_match", "all_match", "none_match"):
        return getattr(stream, name)(predicate)
    if name == "find_first":
        return stream.find_first()
    if name == "find_any":
        return stream.find_any()
    if name == "for_each":
        if process:
            return stream.for_each(_pk_peek)
        seen, lock = [], threading.Lock()

        def record(x):
            with lock:
                seen.append(x)

        stream.for_each(record)
        return sorted(seen)
    raise AssertionError(name)


def _reference_terminal(values, name, t):
    """What terminal ``name`` returns over the reference list ``values``
    (``find_any`` and process ``for_each`` are checked separately)."""
    if name == "to_list":
        return values
    if name == "count":
        return len(values)
    if name == "sum":
        return sum(values)
    if name == "reduce3":
        return sum(x * x for x in values)
    if name == "min":
        return Optional.of(min(values)) if values else Optional.empty()
    if name == "any_match":
        return any(x > t for x in values)
    if name == "all_match":
        return all(x > t for x in values)
    if name == "none_match":
        return not any(x > t for x in values)
    if name == "find_first":
        return Optional.of(values[0]) if values else Optional.empty()
    if name == "for_each":
        return sorted(values)
    raise AssertionError(name)


terminals = st.tuples(st.sampled_from(TERMINALS), st.integers(-40, 40))


STATELESS = ["map", "filter", "flat_map", "peek", "map_multi"]
STATEFUL = ["distinct", "sorted", "limit", "skip", "take_while", "drop_while"]

OPS = st.tuples(st.sampled_from(STATELESS + STATEFUL), st.integers(0, 9))

pipelines = st.lists(OPS, max_size=6)
inputs = st.lists(st.integers(-40, 40), max_size=60)


class TestPipelineFuzz:
    @_seeded
    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_sequential_matches_reference(self, xs, ops):
        stream = stream_of(xs)
        expected = list(xs)
        for op in ops:
            stream = _apply_stream(stream, op)
            expected = _apply_reference(expected, op)
        assert stream.to_list() == expected

    @_seeded
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_parallel_matches_reference(self, xs, ops):
        stream = stream_of(xs).parallel()
        expected = list(xs)
        for op in ops:
            stream = _apply_stream(stream, op)
            expected = _apply_reference(expected, op)
        assert stream.to_list() == expected

    @_seeded
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_terminals_consistent(self, xs, ops):
        def build(parallel):
            s = stream_of(xs).parallel() if parallel else stream_of(xs)
            for op in ops:
                s = _apply_stream(s, op)
            return s

        expected = list(xs)
        for op in ops:
            expected = _apply_reference(expected, op)

        assert build(False).count() == build(True).count()
        assert build(False).count() == _reference_terminal(
            expected, "count", 0)
        seq_first = build(False).find_first()
        par_first = build(True).find_first()
        assert seq_first == par_first
        assert seq_first == _reference_terminal(expected, "find_first", 0)

    @_seeded
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_chunked_vs_element_all_modes(self, xs, ops):
        """Four-way parity: {sequential, parallel} × {chunked, per-element}
        all agree with the reference, including encounter order."""
        expected = list(xs)
        for op in ops:
            expected = _apply_reference(expected, op)

        def run(parallel, chunked):
            with engine(bulk=chunked):
                s = stream_of(xs).parallel() if parallel else stream_of(xs)
                for op in ops:
                    s = _apply_stream(s, op)
                return s.to_list()

        assert run(False, True) == expected
        assert run(False, False) == expected
        assert run(True, True) == expected
        assert run(True, False) == expected

    @_seeded
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_chunked_engagement_matches_select_mode(self, xs, ops):
        """The traversal the run actually takes matches what
        ``select_mode`` says about the fused chain — the same decision
        function execution and ``explain()`` share.  Merged kernels,
        cuts included, ride the chunked path; either way the results
        match the reference."""
        expected = list(xs)
        stream = stream_of(xs)
        for op in ops:
            stream = _apply_stream(stream, op)
            expected = _apply_reference(expected, op)
        config = current_config()
        mode = select_mode(maybe_fuse(stream._ops, config), config)
        before = global_registry().snapshot()
        assert stream.to_list() == expected
        after = global_registry().snapshot()
        runs = {
            key: after[key] - before[key]
            for key in after if key.startswith("stream_traversals")
        }
        chunked = runs.pop('stream_traversals{mode="chunked"}')
        if mode == "chunked":
            assert chunked == 1 and sum(runs.values()) == 0
        else:
            assert chunked == 0 and sum(runs.values()) >= 1

    @_seeded
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_fused_vs_unfused_all_engines(self, xs, ops):
        """Fusion on/off must agree element-for-element on every engine:
        {sequential, parallel} × {chunked, per-element}, all against the
        reference interpreter."""
        expected = list(xs)
        for op in ops:
            expected = _apply_reference(expected, op)

        def run(parallel, chunked, fuse):
            with engine(bulk=chunked, fusion=fuse):
                s = stream_of(xs).parallel() if parallel else stream_of(xs)
                for op in ops:
                    s = _apply_stream(s, op)
                return s.to_list()

        for parallel in (False, True):
            for chunked in (True, False):
                fused = run(parallel, chunked, fuse=True)
                unfused = run(parallel, chunked, fuse=False)
                assert fused == unfused == expected

    @_seeded
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines, terminals)
    def test_backend_sweep_matches_reference(self, xs, ops, terminal):
        """Six-way terminal parity: {sequential, threads, process}
        backends × {chunked, per-element} traversal, each drawn terminal
        exact against the reference interpreter (``find_any`` by
        membership; a process ``for_each`` must only raise nothing).
        Process-backend runs ship their op chains to worker children, so
        this leg uses the picklable op appliers."""
        name, t = terminal
        expected = list(xs)
        for op in ops:
            expected = _apply_reference(expected, op)

        def run(backend, chunked):
            with engine(bulk=chunked):
                s = stream_of(xs, parallel=True, backend=backend)
                for op in ops:
                    s = _apply_stream_picklable(s, op)
                return _run_terminal(s, name, t, backend == "process")

        for backend in ("sequential", "threads", "process"):
            for chunked in (True, False):
                got = run(backend, chunked)
                where = (name, backend, chunked)
                if name == "find_any":
                    assert got.is_present() == bool(expected), where
                    assert got.is_empty() or got.get() in expected, where
                elif name == "for_each" and backend == "process":
                    assert got is None, where
                else:
                    assert got == _reference_terminal(expected, name, t), where

    @_seeded
    @settings(deadline=None, max_examples=12,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_auto_threshold_matches_fixed(self, xs, ops):
        """The adaptive split policy is a scheduling decision, never a
        semantic one: ``target_size='auto'`` must produce results
        identical to a fixed threshold on every backend, warm or cold
        memo alike (each example runs auto twice — the second run uses
        the learned cost)."""
        from repro.streams import adaptive

        expected = list(xs)
        for op in ops:
            expected = _apply_reference(expected, op)

        def run(backend, target_size):
            s = stream_of(xs, parallel=True, backend=backend,
                          target_size=target_size)
            for op in ops:
                s = _apply_stream_picklable(s, op)
            return s.to_list()

        adaptive.reset_split_policy()
        try:
            for backend in ("sequential", "threads", "process"):
                assert run(backend, 7) == expected, backend
                assert run(backend, "auto") == expected, backend
                assert run(backend, "auto") == expected, backend
        finally:
            adaptive.reset_split_policy()

    @_seeded
    @settings(deadline=None, max_examples=120,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, pipelines)
    def test_fuse_rewrite_structure(self, xs, ops):
        """Structural invariants of the rewrite on random chains, merged
        and unmerged: every fusible stage lies in exactly one FusedOp,
        ``sorted`` is the only stage left outside one (the only barrier),
        and flattening the rewritten chain reproduces the original op
        objects exactly.  Merged, adjacent runs only split where the
        maps' ufunc-ness changes (never here), so two FusedOps are never
        neighbours; unmerged, every FusedOp holds one stage."""
        stream = stream_of(xs)
        for op in ops:
            stream = _apply_stream(stream, op)
        original = stream._ops
        for merge in (True, False):
            fused, stages = fuse_ops(original, merge)

            flattened = []
            for op in fused:
                if isinstance(op, FusedOp):
                    assert all(type(o) in _FUSIBLE_TYPES
                               for o in op.source_ops)
                    assert merge or len(op.source_ops) == 1
                    flattened.extend(op.source_ops)
                else:
                    assert type(op) is SortedOp
                    flattened.append(op)
            assert len(flattened) == len(original)
            assert all(a is b for a, b in zip(flattened, original))
            assert stages == sum(
                len(op.source_ops) for op in fused
                if isinstance(op, FusedOp) and len(op.source_ops) > 1
            )
            if merge:
                for left, right in zip(fused, fused[1:]):
                    assert not (isinstance(left, FusedOp)
                                and isinstance(right, FusedOp))


# --------------------------------------------------------------------------- #
# Counted windows: map…map.skip(a).limit(b) over contiguous sources
# --------------------------------------------------------------------------- #

WINDOW_SOURCES = ["list", "range", "shm", "powerlist"]


def _window_source(kind, n):
    """``(source, values)``: an ``n``-element source of ``kind`` and the
    same elements as a plain list.  ``powerlist`` is the odd half of a
    ``zip_split`` (a stride-2 view), so ``n`` is a power of two there;
    ``shm`` is a shared-memory ndarray that ships as a descriptor (the
    caller releases it)."""
    if kind == "range":
        return None, list(range(5, 5 + n))
    values = [(i * 37) % 101 - 50 for i in range(n)]
    if kind == "list":
        return values, values
    if kind == "shm":
        return shm.share_array(np.array(values, dtype=np.int64)), values
    spread = [v for pair in zip([0] * n, values) for v in pair]
    return PowerList(spread).zip_split()[1], values


class TestCountedWindowFuzz:
    """Windows cut by ``skip``/``limit`` after maps are planned against
    the source (narrowed before splitting, one leaf in the caller): every
    backend, fused or not, must still equal ``itertools.islice``."""

    @_seeded
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(WINDOW_SOURCES),
        st.integers(0, 160),
        st.lists(st.integers(0, 9), max_size=3),
        st.integers(0, 180),
        st.integers(0, 180),
        st.sampled_from([None, 1, 3, 16, 64]),
    )
    @example("list", 100, [2], 0, 0, 16)          # limit(0)
    @example("range", 100, [1, 3], 100, 5, 16)    # skip == size
    @example("shm", 100, [], 140, 5, None)        # skip > size
    @example("list", 100, [4], 90, 50, 16)        # runs past the end
    @example("powerlist", 7, [2], 10, 100, 16)    # 2^7 source; crosses 6 leaf edges
    @example("shm", 160, [5, 6], 15, 130, 32)     # no edge on a leaf boundary
    def test_window_matches_islice(self, kind, n, maps, a, b, target):
        if kind == "powerlist":
            n = 1 << (n % 8)  # PowerLists are power-of-two sized
        source, values = _window_source(kind, n)
        mapped = values
        for arg in maps:
            mapped = [_pk_map(x, arg) for x in mapped]
        expected = list(itertools.islice(mapped, a, a + b))

        def run(backend, fuse):
            with engine(fusion=fuse):
                s = Stream.range(5, 5 + n) if source is None else stream_of(source)
                if backend is not None:
                    s = s.parallel().with_backend(backend)
                    if target is not None:
                        s = s.with_target_size(target)
                for arg in maps:
                    s = s.map(functools.partial(_pk_map, a=arg))
                return s.skip(a).limit(b).to_list()

        try:
            for backend in (None, "sequential", "threads", "process"):
                for fuse in (True, False):
                    assert run(backend, fuse) == expected, (backend, fuse)
        finally:
            if kind == "shm":
                shm.release(source)


# --------------------------------------------------------------------------- #
# Zip fuzzing: two independently-fused sides drained in lockstep
# --------------------------------------------------------------------------- #

def _pk_zip_combine(a, b):
    return a * 2 - b


def _apply_zip_reference(xs, ys, left_ops, right_ops, combined):
    left = list(xs)
    for op in left_ops:
        left = _apply_reference(left, op)
    right = list(ys)
    for op in right_ops:
        right = _apply_reference(right, op)
    if combined:
        return [_pk_zip_combine(a, b) for a, b in zip(left, right)]
    return list(zip(left, right))


# Sides draw from the fusible vocabulary plus the cursor fallbacks:
# limit/skip/distinct/take_while compile into kernels (chunked cursor
# mode), sorted is a terminal barrier with a fused prefix, and an
# unmerged cut (fusion off) forces the per-element cursor fallback — all
# three fill modes get exercised.
ZIP_SIDE_OPS = st.tuples(
    st.sampled_from(STATELESS + ["limit", "skip", "distinct", "sorted",
                                 "take_while"]),
    st.integers(0, 9),
)
zip_sides = st.lists(ZIP_SIDE_OPS, max_size=4)


class TestZipFuzz:
    @_seeded
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, inputs, zip_sides, zip_sides,
           st.booleans())
    def test_zip_matches_reference_all_modes(self, xs, ys, left_ops,
                                             right_ops, combined):
        """zip of two random fused pipelines agrees with the reference
        under {chunked, per-element} × {fused, unfused} — the two-cursor
        lockstep drain must be invisible to semantics."""
        expected = _apply_zip_reference(xs, ys, left_ops, right_ops, combined)
        combine = _pk_zip_combine if combined else None
        for chunked in (True, False):
            for fuse in (True, False):
                with engine(bulk=chunked, fusion=fuse):
                    left = stream_of(xs)
                    for op in left_ops:
                        left = _apply_stream(left, op)
                    right = stream_of(ys)
                    for op in right_ops:
                        right = _apply_stream(right, op)
                    got = left.zip(right, combine).to_list()
                assert got == expected, (chunked, fuse)

    @_seeded
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    @given(inputs, inputs, zip_sides, zip_sides)
    def test_zip_downstream_pipeline_parallel(self, xs, ys, left_ops,
                                              right_ops):
        """Ops *after* the zip (including a counted limit) run on the
        pair stream, sequentially and on the fork/join pool."""
        expected = _apply_zip_reference(xs, ys, left_ops, right_ops, True)
        expected = [v + 1 for v in expected if v % 3 != 0][:7]

        def build():
            left = stream_of(xs)
            for op in left_ops:
                left = _apply_stream(left, op)
            right = stream_of(ys)
            for op in right_ops:
                right = _apply_stream(right, op)
            return (left.zip_with(right, _pk_zip_combine)
                    .filter(lambda v: v % 3 != 0)
                    .map(lambda v: v + 1)
                    .limit(7))

        assert build().to_list() == expected
        assert build().parallel().to_list() == expected
