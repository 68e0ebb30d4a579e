"""Guards for the test suite.

The shared-memory backing store (``repro.powerlist.shm``) creates named
OS-level segments that outlive the process if not unlinked — a leak that
survives the interpreter.  The session guard below asserts every segment
created during the run was released by the code under test before the
session ends, then tears down the shared worker-process pool so no child
outlives pytest.

The split policy learns per pipeline shape, so a shape one test ran
would change the plans of later tests; every test starts from an empty
memo instead, whatever order the tests run in.

Engine counters live in the process-wide metrics registry and only ever
grow, so a test reads what its own run added: the ``counters`` fixture
starts a :class:`CounterDelta`.
"""

import pytest

from repro.obs.metrics import global_registry, metric_key
from repro.powerlist import shm
from repro.streams import adaptive


class CounterDelta:
    """What the process-wide counters gained since this object was made."""

    def __init__(self) -> None:
        self._before = global_registry().snapshot()

    def __call__(self, name: str, **labels) -> int:
        key = metric_key(name, **labels)
        after = global_registry().snapshot().get(key, 0)
        return after - self._before.get(key, 0)

    def traversals(self) -> dict:
        """``stream_traversals`` by mode."""
        return {
            mode: self("stream_traversals", mode=mode)
            for mode in ("chunked", "element", "short_circuit")
        }


@pytest.fixture
def counters():
    """Start a :class:`CounterDelta` with ``counters()``."""
    return CounterDelta


@pytest.fixture(autouse=True)
def _fresh_split_policy():
    adaptive.reset_split_policy()


@pytest.fixture(scope="session", autouse=True)
def _shm_leak_guard():
    yield
    from repro.streams import process_backend

    process_backend.shutdown_shared_executor()
    leaked = shm.active_segments()
    # Clean up even when the assertion is about to fail: a leaked segment
    # must not survive the test process just because we reported it.
    shm.release_all()
    shm.detach_all()
    assert leaked == [], (
        f"shared-memory segments leaked by the test session: {leaked}"
    )
