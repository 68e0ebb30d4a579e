"""Tests for the service's runner threads.

``ExecutionService`` has no dispatcher: ``max_workers`` runner threads
each take their next job off the fair scheduler themselves, run it and
settle it.  These tests pin the thread inventory, the in-flight bound,
DRR order through one runner, survival of whatever a job raises, and the
shutdown paths (drain joins the runners, ``shutdown_now`` does not wait,
and a service nobody shuts down does not hold up interpreter exit).
"""

import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.serve import CANCELLED, DONE, FAILED, ExecutionService

DATA = list(range(100))


def _count(stream):
    return stream.count()


class _Blocker:
    """A pipeline that parks its runner thread until released."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def __call__(self, stream):
        self.entered.set()
        assert self.release.wait(10.0), "blocker never released"
        return "blocked"


class _Recorder:
    """Pipelines that log ``(tag, thread)`` in the order they run."""

    def __init__(self):
        self.runs = []

    def job(self, tag):
        def pipeline(stream):
            self.runs.append((tag, threading.current_thread()))
            return tag

        return pipeline


def _service(workers, **tenants):
    svc = ExecutionService(max_workers=workers, global_queue_limit=32)
    svc.register_dataset("data", DATA)
    for name in tenants or ("alice",):
        svc.register_tenant(name, queue_limit=16)
    return svc


def test_runner_threads_replace_the_dispatcher():
    svc = _service(3).start()
    try:
        names = [thread.name for thread in threading.enumerate()]
        assert "serve-dispatcher" not in names
        assert len(svc._runners) == 3
        assert all(runner.is_alive() for runner in svc._runners)
        alive = [t for t in threading.enumerate() if t in svc._runners]
        assert sorted(t.name for t in alive) == [
            "serve-runner-0", "serve-runner-1", "serve-runner-2",
        ]
        recorder = _Recorder()
        assert svc.submit("alice", "data", recorder.job("a")).result(10.0)
        assert recorder.runs[0][1] in svc._runners
        svc.start()  # idempotent: no second set of runners
        assert len(svc._runners) == 3
    finally:
        svc.shutdown()


def test_submit_starts_the_runners_lazily():
    svc = _service(2)
    assert svc._runners == []
    try:
        assert svc.submit("alice", "data", _count).result(10.0) == len(DATA)
        assert len(svc._runners) == 2
    finally:
        svc.shutdown()


def test_in_flight_never_exceeds_max_workers():
    svc = _service(2)
    lock = threading.Lock()
    running = [0]
    peak = [0]
    seen_in_flight = []

    def pipeline(stream):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        seen_in_flight.append(svc.stats()["in_flight"])
        time.sleep(0.01)
        with lock:
            running[0] -= 1
        return stream.count()

    try:
        tickets = [svc.submit("alice", "data", pipeline) for _ in range(12)]
        assert all(t.result(10.0) == len(DATA) for t in tickets)
    finally:
        svc.shutdown()
    assert peak[0] == 2
    assert max(seen_in_flight) <= 2
    assert svc.stats()["in_flight"] == 0


def test_one_runner_serves_tenants_in_drr_order_on_its_own_thread():
    svc = _service(1, alice=None, bob=None)
    blocker = _Blocker()
    recorder = _Recorder()
    try:
        first = svc.submit("alice", "data", blocker)
        assert blocker.entered.wait(5.0)
        tickets = []
        for i in range(3):
            tickets.append(svc.submit("alice", "data", recorder.job(f"a{i}")))
        for i in range(3):
            tickets.append(svc.submit("bob", "data", recorder.job(f"b{i}")))
        blocker.release.set()
        assert first.result(10.0) == "blocked"
        assert all(t.wait(10.0) and t.state == DONE for t in tickets)
    finally:
        blocker.release.set()
        svc.shutdown()
    tags = [tag for tag, _ in recorder.runs]
    # Equal weights alternate; the blocker was alice's turn, so bob goes
    # first.  Each tenant's jobs keep their FIFO order.
    assert tags == ["b0", "a0", "b1", "a1", "b2", "a2"]
    # One runner, no hand-off: every queued job ran on the thread that
    # finished the job before it.
    assert {thread for _, thread in recorder.runs} == {svc._runners[0]}


@pytest.mark.parametrize("raised", [SystemExit, KeyboardInterrupt])
def test_base_exception_does_not_lose_a_runner(raised):
    svc = _service(1)

    def pipeline(stream):
        raise raised("job gave up")

    try:
        ticket = svc.submit("alice", "data", pipeline)
        assert ticket.wait(10.0)
        assert ticket.state == FAILED
        assert isinstance(ticket.error, raised)
        assert svc._runners[0].is_alive()
        assert svc.submit("alice", "data", _count).result(10.0) == len(DATA)
        assert svc.stats()["in_flight"] == 0
        assert svc.stats()["tenants"]["alice"]["failed"] == 1
    finally:
        svc.shutdown()


def test_raising_done_callback_does_not_lose_a_runner():
    svc = _service(1)
    blocker = _Blocker()

    def bad_callback(ticket):
        raise RuntimeError("callback bug")

    try:
        svc.submit("alice", "data", blocker)
        assert blocker.entered.wait(5.0)
        ticket = svc.submit("alice", "data", _count)
        ticket.add_done_callback(bad_callback)
        blocker.release.set()
        assert ticket.result(10.0) == len(DATA)
        assert svc.submit("alice", "data", _count).result(10.0) == len(DATA)
        assert svc._runners[0].is_alive()
    finally:
        blocker.release.set()
        svc.shutdown()


def test_drain_shutdown_runs_the_queue_then_joins_the_runners():
    svc = _service(2)

    def slow(stream):
        time.sleep(0.005)
        return stream.count()

    tickets = [svc.submit("alice", "data", slow) for _ in range(10)]
    svc.shutdown()  # drain=True
    assert all(t.state == DONE for t in tickets)
    assert all(t.result(0.0) == len(DATA) for t in tickets)
    assert not any(runner.is_alive() for runner in svc._runners)


def test_shutdown_now_does_not_wait_for_in_flight_jobs():
    svc = _service(1)
    blocker = _Blocker()
    running = svc.submit("alice", "data", blocker)
    assert blocker.entered.wait(5.0)
    queued = svc.submit("alice", "data", _count)
    start = time.monotonic()
    svc.shutdown_now()
    assert time.monotonic() - start < 1.0
    assert queued.state == CANCELLED
    assert svc._runners[0].is_alive()  # still running the blocker
    blocker.release.set()
    assert running.result(10.0) == "blocked"
    svc._runners[0].join(10.0)
    assert not svc._runners[0].is_alive()


def test_service_never_shut_down_does_not_hang_exit():
    # One job settles, one is still running at exit: the interpreter must
    # exit at once instead of waiting for either runner.
    script = textwrap.dedent(
        """
        import time
        from repro.serve import ExecutionService

        svc = ExecutionService(max_workers=2)
        svc.register_dataset("data", list(range(10)))
        svc.register_tenant("alice")
        count = svc.submit("alice", "data", lambda stream: stream.count())
        assert count.result(10.0) == 10
        svc.submit("alice", "data", lambda stream: time.sleep(60))
        time.sleep(0.1)
        print("exiting")
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "exiting"
    assert time.monotonic() - start < 20.0


def test_stress_many_runners_and_submitters_lose_no_job():
    """More runners than cores and a tiny switch interval: every job
    settles exactly once, the in-flight bound holds, and the counters
    add up."""
    workers = 4
    svc = ExecutionService(max_workers=workers, global_queue_limit=64)
    svc.register_dataset("data", DATA)
    for name in ("alice", "bob"):
        svc.register_tenant(name, queue_limit=32)
    lock = threading.Lock()
    running = [0]
    peak = [0]

    def pipeline(stream):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            return stream.count()
        finally:
            with lock:
                running[0] -= 1

    tickets = []
    errors = []

    def client(tenant):
        try:
            for _ in range(25):
                ticket = svc.submit(tenant, "data", pipeline)
                tickets.append(ticket)
                ticket.wait(30.0)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [
            threading.Thread(target=client, args=(name,))
            for name in ("alice", "bob") * 3
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
        svc.shutdown()
    assert errors == []
    assert len(tickets) == 150
    assert all(t.state == DONE and t.result(0.0) == len(DATA) for t in tickets)
    assert 1 <= peak[0] <= workers
    stats = svc.stats()
    assert stats["in_flight"] == 0 and stats["queued"] == 0
    assert sum(t["completed"] for t in stats["tenants"].values()) == 150
    assert not any(runner.is_alive() for runner in svc._runners)
