"""The paper's PowerList collectors agree with an independent reference on
every backend.

Each ``repro.core`` collector runs through ``power_stream(...).collect``
on the sequential, threads and process backends, over PowerLists of
several lengths and at several leaf target sizes, and its result is
checked against numpy or a plain-Python oracle.  Zip collectors such as
``PolynomialValue`` and ``FftCollector`` depend on partials merging in
the exact shape of the split tree, which this matrix pins on every
backend.
"""

import operator

import numpy as np
import pytest

from repro.core import (
    FftCollector,
    InvCollector,
    PolynomialValue,
    PowerReduceCollector,
    PrefixSumCollector,
    power_stream,
)
from repro.core.inv import inv_indices
from repro.core.sorting import BatcherSortCollector, BitonicSortCollector

X = 0.9


def _ints(n):
    return [int(v) for v in np.random.default_rng(n).integers(-9, 10, n)]


def _close(got, want):
    return np.allclose(got, want, rtol=1e-9, atol=1e-9)


# name -> (collector factory, input builder, oracle(got, data) -> bool)
CASES = {
    "polynomial": (
        lambda: PolynomialValue(X),
        lambda n: [float(v) for v in _ints(n)],
        lambda got, data: _close(got, np.polyval(data, X)),
    ),
    "fft": (
        FftCollector,
        lambda n: [complex(v) for v in _ints(n)],
        lambda got, data: _close(got, np.fft.fft(data)),
    ),
    "inv-tie": (
        lambda: InvCollector("tie"),
        lambda n: list(range(n)),
        lambda got, data: got == inv_indices(len(data)),
    ),
    "inv-zip": (
        lambda: InvCollector("zip"),
        lambda n: list(range(n)),
        lambda got, data: got == inv_indices(len(data)),
    ),
    "prefix-sums": (
        lambda: PrefixSumCollector(operator.add),
        _ints,
        lambda got, data: got == np.cumsum(data).tolist(),
    ),
    "reduce-tie": (
        lambda: PowerReduceCollector(operator.add, "tie"),
        _ints,
        lambda got, data: got == sum(data),
    ),
    "reduce-zip": (
        lambda: PowerReduceCollector(operator.add, "zip"),
        _ints,
        lambda got, data: got == sum(data),
    ),
    "batcher": (
        BatcherSortCollector,
        _ints,
        lambda got, data: got == sorted(data),
    ),
    "bitonic": (
        BitonicSortCollector,
        _ints,
        lambda got, data: got == sorted(data),
    ),
}

MATRIX = [
    (n, target)
    for n in (4, 64, 1024)
    for target in sorted({1, max(n // 8, 1), n // 2})
]


@pytest.mark.parametrize("n,target", MATRIX, ids=[f"n{n}-t{t}" for n, t in MATRIX])
@pytest.mark.parametrize("backend", ["sequential", "threads", "process"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_collector_matches_reference(name, backend, n, target):
    make, build, oracle = CASES[name]
    data = build(n)
    collector = make()
    got = (
        power_stream(collector, data, True, target_size=target)
        .with_backend(backend)
        .collect(collector)
    )
    assert oracle(got, data), (name, backend, n, target, got)
