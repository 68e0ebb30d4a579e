"""The per-run engine configuration.

Four switches steer how a terminal runs: the chunked bulk path, stage
fusion, the split policy and the parallel backend.  They live in one
frozen :class:`EngineConfig` that a terminal resolves once and hands to
everything it runs — fork/join leaves and process-backend children
included — so no process-global toggle exists for a concurrent pipeline
to observe.  Precedence, highest first: the stream builder
(``Stream.with_backend``), the caller's :func:`engine` scope, the
``REPRO_PARALLEL_BACKEND`` / ``REPRO_SPLIT_POLICY`` environment
variables (read once, at import), the field defaults.
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

#: ``fixed`` — Java's ``size // (4 × parallelism)``; ``auto`` — the
#: metrics-driven thresholds of :mod:`repro.streams.adaptive`.
VALID_POLICIES = ("fixed", "auto")


def _validate_backend(name: str) -> None:
    if name not in VALID_BACKENDS:
        raise IllegalArgumentError(
            f"unknown parallel backend {name!r}: valid backends are "
            + ", ".join(repr(b) for b in VALID_BACKENDS)
        )


def _validate_policy(mode: str) -> None:
    if mode not in VALID_POLICIES:
        raise IllegalArgumentError(
            f"unknown split policy {mode!r}: valid policies are "
            + ", ".join(repr(m) for m in VALID_POLICIES)
        )


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """How one terminal runs; picklable, so it ships in process payloads."""

    bulk: bool = True
    fusion: bool = True
    split_policy: str = "fixed"
    backend: str = "threads"

    def __post_init__(self) -> None:
        _validate_policy(self.split_policy)
        _validate_backend(self.backend)


def _from_env() -> EngineConfig:
    """The default config: the two environment variables over defaults."""
    backend = os.environ.get("REPRO_PARALLEL_BACKEND", "").strip()
    policy = os.environ.get("REPRO_SPLIT_POLICY", "").strip()
    return EngineConfig(split_policy=policy or "fixed", backend=backend or "threads")


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
