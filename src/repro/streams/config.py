"""The per-run engine configuration.

Three switches steer how a terminal runs: the chunked bulk path, stage
fusion and the parallel backend.  They live in one frozen
:class:`EngineConfig` that a terminal resolves once and reads only
while it starts: the planner picks the backend, and the compile step
fuses the chain and picks the traversal mode, whose result every leaf —
fork/join task or process-backend child — runs.  So no
process-global toggle exists for a concurrent pipeline to observe.  Precedence, highest first: the stream builder
(``Stream.with_backend``), the caller's :func:`engine` scope, the
``REPRO_PARALLEL_BACKEND`` environment variable (read once, at import),
the field defaults.  The split threshold is not a switch: it is the
adaptive policy of :mod:`repro.streams.adaptive`, or an explicit
``Stream.with_target_size(n)``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

from repro.common import IllegalArgumentError

#: ``threads`` — the fork/join pool (default; no shipping cost, but
#: pure-Python leaves serialize on the GIL); ``process`` — worker
#: processes (Python-heavy leaves scale with cores; crossing functions
#: must pickle); ``sequential`` — the calling thread.
VALID_BACKENDS = ("threads", "process", "sequential")


def _validate_backend(name: str) -> None:
    if name not in VALID_BACKENDS:
        raise IllegalArgumentError(
            f"unknown parallel backend {name!r}: valid backends are "
            + ", ".join(repr(b) for b in VALID_BACKENDS)
        )


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """How one terminal runs; frozen and picklable."""

    bulk: bool = True
    fusion: bool = True
    backend: str = "threads"

    def __post_init__(self) -> None:
        _validate_backend(self.backend)


def _from_env() -> EngineConfig:
    """The default config: the environment variable over the defaults."""
    backend = os.environ.get("REPRO_PARALLEL_BACKEND", "").strip()
    return EngineConfig(backend=backend or "threads")


_current: ContextVar[EngineConfig] = ContextVar("engine_config", default=_from_env())


def current_config() -> EngineConfig:
    """The config of the calling context (a new thread sees the default)."""
    return _current.get()


@contextmanager
def engine(**overrides):
    """Run the block under the current config with ``overrides`` applied,
    e.g. ``with engine(fusion=False, backend="process"):``; yields it."""
    config = replace(_current.get(), **overrides)
    token = _current.set(config)
    try:
        yield config
    finally:
        _current.reset(token)
