"""The per-run ``EngineConfig``: scoped, never process-global.

* ``engine(...)`` scopes are per thread (a ``ContextVar``): a pipeline
  running in one thread never sees another thread's scope;
* the config a terminal resolves travels explicitly into fork/join
  leaves (pool worker threads) and process-backend children;
* the default is parsed from ``REPRO_PARALLEL_BACKEND`` with the same
  accept and reject rules as before; the split policy is not a switch,
  so ``REPRO_SPLIT_POLICY`` is not read.
"""

import dataclasses
import pickle
import sys
import threading

import pytest

from repro.common import IllegalArgumentError
from repro.forkjoin import ForkJoinPool
from repro.streams import (
    EngineConfig,
    Stream,
    current_config,
    engine,
)
from repro.streams.config import _from_env
from repro.streams.ops import TerminalSink
from repro.streams.terminal import Terminal

TIMEOUT = 10.0


def _inc(x):
    return x + 1


def _odd(x):
    return x % 2 == 1


def _double(x):
    return x * 2


def _pipeline():
    return Stream.range(0, 4096).map(_inc).filter(_odd).map(_double)


def _measured_run(counters):
    """Run one map-filter-map pipeline; return its result and the deltas
    of the (process-wide) fusion and traversal counters it caused."""
    delta = counters()
    out = _pipeline().to_list()
    fused = delta("fusion_pipelines_fused") + delta("fusion_memo_hits")
    return out, fused, delta.traversals()


EXPECTED = [2 * (x + 1) for x in range(4096) if (x + 1) % 2 == 1]


class TestConcurrentScopes:
    def test_opposite_configs_in_two_threads(self, counters):
        """Both threads sit inside opposite ``engine`` scopes at once;
        Events order the two runs so the process-wide counters tell
        them apart.  Each pipeline takes its own thread's modes."""
        a_entered, b_entered = threading.Event(), threading.Event()
        a_done, b_done = threading.Event(), threading.Event()
        seen, errors = {}, []

        def thread_a():
            try:
                with engine(bulk=False, fusion=False):
                    a_entered.set()
                    assert b_entered.wait(TIMEOUT)
                    seen["a"] = _measured_run(counters)
                    a_done.set()
                    assert b_done.wait(TIMEOUT)
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                a_done.set()

        def thread_b():
            try:
                assert a_entered.wait(TIMEOUT)
                with engine(bulk=True, fusion=True):
                    b_entered.set()
                    assert a_done.wait(TIMEOUT)
                    seen["b"] = _measured_run(counters)
                    b_done.set()
            except BaseException as exc:
                errors.append(exc)
                b_done.set()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT)
            assert not t.is_alive()
        assert not errors, errors

        out_a, fused_a, modes_a = seen["a"]
        assert out_a == EXPECTED
        assert fused_a == 0
        assert modes_a == {"chunked": 0, "element": 1, "short_circuit": 0}

        out_b, fused_b, modes_b = seen["b"]
        assert out_b == EXPECTED
        assert fused_b == 1
        assert modes_b == {"chunked": 1, "element": 0, "short_circuit": 0}

    def test_new_thread_sees_the_default(self):
        seen = []
        with engine(fusion=False, backend="sequential"):
            worker = threading.Thread(target=lambda: seen.append(current_config()))
            worker.start()
            worker.join(TIMEOUT)
        assert seen == [_from_env()]

    def test_scope_restores_on_error(self):
        before = current_config()
        with pytest.raises(RuntimeError):
            with engine(bulk=False):
                raise RuntimeError("boom")
        assert current_config() == before


# --------------------------------------------------------------------------- #
# The resolved config reaches every leaf
# --------------------------------------------------------------------------- #


class _ProbeSink(TerminalSink):
    def __init__(self):
        self.kernel = None
        self.chunks = 0
        self.elements = 0

    def begin(self, size):
        # The caller is the ``begin`` of the kernel sink feeding this one;
        # its op's stages are the last kernel the leaf runs.
        self.kernel = sys._getframe(1).f_locals["self"]._op.kinds

    def accept(self, item):
        self.elements += 1

    def accept_chunk(self, chunk):
        self.chunks += 1


class _ModeProbe(Terminal):
    """Each leaf reports how it ran: ``chunked`` or ``element`` delivery,
    and the stages of the kernel that fed its sink — one merged
    ``map|filter`` kernel, or the lone ``filter`` of an unmerged chain."""

    label = "probe"

    def sink(self, cancel):
        return _ProbeSink()

    def partial(self, sink):
        if sink.chunks == 0 and sink.elements == 0:
            return set()
        return {("chunked" if sink.chunks else "element", sink.kernel)}

    def merge(self, a, b):
        return a | b


MERGED, UNMERGED = ("map", "filter"), ("filter",)


def _probe(stream):
    return stream.map(_inc).filter(_odd)._evaluate(_ModeProbe())


class TestConfigReachesLeaves:
    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({}, {("chunked", MERGED)}),
            ({"bulk": False, "fusion": False}, {("element", UNMERGED)}),
            ({"bulk": False}, {("element", MERGED)}),
        ],
    )
    def test_forkjoin_leaves(self, overrides, expected):
        with ForkJoinPool(parallelism=2, name="config-leaves") as pool:
            with engine(**overrides):
                stream = (
                    Stream.range(0, 4096).parallel().with_pool(pool)
                    .with_target_size(256)
                )
                assert _probe(stream) == expected

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({}, {("chunked", MERGED)}),
            ({"bulk": False, "fusion": False}, {("element", UNMERGED)}),
        ],
    )
    def test_process_children(self, overrides, expected):
        with engine(backend="process", **overrides):
            stream = Stream.range(0, 4096).parallel().with_target_size(512)
            assert _probe(stream) == expected

    def test_stress_many_threads_opposite_bulk(self):
        """More threads than cores, half inside ``engine(bulk=False)``,
        all running pipelines (sequential and on one shared pool) with a
        tiny switch interval: every leaf takes its own thread's mode."""
        errors = []
        start = threading.Barrier(8)

        def worker(bulk, pool):
            try:
                want = {"chunked" if bulk else "element"}
                with engine(bulk=bulk):
                    start.wait(TIMEOUT)
                    for i in range(10):
                        stream = Stream.range(0, 2048)
                        if i % 2:
                            stream = (
                                stream.parallel().with_pool(pool)
                                .with_target_size(512)
                            )
                        assert {mode for mode, _ in _probe(stream)} == want
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ForkJoinPool(parallelism=2, name="config-stress") as pool:
                threads = [
                    threading.Thread(target=worker, args=(i % 2 == 0, pool))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(TIMEOUT)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors

    def test_with_backend_overrides_the_scope(self):
        with engine(backend="process"):
            stream = Stream.range(0, 64).parallel().with_backend("sequential")
            assert stream._config() == dataclasses.replace(
                current_config(), backend="sequential"
            )


# --------------------------------------------------------------------------- #
# The config value and its environment default
# --------------------------------------------------------------------------- #


class TestEngineConfig:
    def test_three_frozen_fields(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "bulk", "fusion", "backend",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            EngineConfig().bulk = False

    def test_pickles_by_value(self):
        config = EngineConfig(bulk=False, fusion=False, backend="process")
        assert pickle.loads(pickle.dumps(config)) == config

    def test_unknown_values_rejected(self):
        with pytest.raises(IllegalArgumentError, match="unknown parallel backend"):
            EngineConfig(backend="gpu")


class TestEnvDefault:
    def test_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert _from_env().backend == "process"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "")
        assert _from_env().backend == "threads"
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "bogus")
        with pytest.raises(IllegalArgumentError):
            _from_env()

    def test_split_policy_env_override(self, monkeypatch):
        # The split policy is no longer a switch: the variable it was
        # read from overrides nothing, and no value is rejected.
        monkeypatch.setenv("REPRO_SPLIT_POLICY", "dynamic")
        assert _from_env() == EngineConfig()

    def test_unset_env_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        assert _from_env() == EngineConfig()
