"""A from-scratch reimplementation of the Java Streams API core in Python.

This package reproduces the machinery that the paper builds on:

* :mod:`repro.streams.spliterator` — the ``Spliterator`` protocol with
  characteristic flags (including the paper's ``POWER2`` extension);
* :mod:`repro.streams.spliterators` — standard sources (list, range,
  iterator, array, empty);
* :mod:`repro.streams.collector` / :mod:`repro.streams.collectors` — the
  ``Collector`` triple *(supplier, accumulator, combiner)* used as the
  divide-and-conquer template method, plus a library of stock collectors;
* :mod:`repro.streams.stream` — the lazy pipeline (``map`` / ``filter`` /
  ``flat_map`` / ``sorted`` / ``limit`` / … with sequential and parallel
  terminal operations);
* :mod:`repro.streams.parallel` — fork/join evaluation of pipelines driven
  by ``try_split`` decomposition;
* :mod:`repro.streams.adaptive` — the metrics-driven ``auto`` split
  policy: leaf thresholds and chunk sizes chosen from observed
  per-element cost and scheduler feedback;
* :mod:`repro.streams.config` — the per-run :class:`EngineConfig` (bulk
  path, fusion, backend), scoped with :func:`engine`;
* :mod:`repro.streams.stream_support` — ``StreamSupport``-style factory.

Naming follows Python conventions (``try_split`` for ``trySplit``), with the
Java semantics preserved: mutable reduction via ``collect`` uses the
combiner only on parallel execution, splitting is directed entirely by the
spliterator, and collector characteristics drive evaluation choices.
"""

from repro.streams.spliterator import Characteristics, Spliterator
from repro.streams.spliterators import (
    ArraySpliterator,
    EmptySpliterator,
    IteratorSpliterator,
    ListSpliterator,
    RangeSpliterator,
    spliterator_of,
)
from repro.streams.optional import Optional
from repro.streams.collector import Collector, CollectorCharacteristics
from repro.streams import collectors as Collectors
from repro.streams.config import (
    VALID_BACKENDS,
    EngineConfig,
    current_config,
    engine,
)
from repro.streams.ops import CHUNK_SIZE
from repro.streams.fusion import FusedOp
from repro.streams.explain import ExplainPlan
from repro.streams.adaptive import reset_split_policy
from repro.streams.stream import Stream
from repro.streams.stream_support import StreamSupport, stream_of

__all__ = [
    "ArraySpliterator",
    "CHUNK_SIZE",
    "Characteristics",
    "Collector",
    "CollectorCharacteristics",
    "Collectors",
    "EmptySpliterator",
    "EngineConfig",
    "ExplainPlan",
    "IteratorSpliterator",
    "ListSpliterator",
    "Optional",
    "RangeSpliterator",
    "Spliterator",
    "Stream",
    "StreamSupport",
    "FusedOp",
    "VALID_BACKENDS",
    "current_config",
    "engine",
    "reset_split_policy",
    "spliterator_of",
    "stream_of",
]
