"""Tests for the vectorized (numpy bulk-leaf) collectors."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import IllegalArgumentError
from repro.core.vectorized import (
    ArrayBox,
    VectorizedFftCollector,
    VectorizedMapCollector,
    VectorizedPolynomialValue,
    VectorizedReduceCollector,
    vectorized_fft,
    vectorized_polynomial_value,
)
from repro.core.power_collector import power_collect
from repro.forkjoin import ForkJoinPool


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="vec-test")
    yield p
    p.shutdown()


class TestArrayBox:
    def test_tie_all(self):
        a = ArrayBox(np.array([1, 2]))
        b = ArrayBox(np.array([3, 4]))
        np.testing.assert_array_equal(a.tie_all(b).data, [1, 2, 3, 4])

    def test_zip_all(self):
        a = ArrayBox(np.array([1, 3]))
        b = ArrayBox(np.array([2, 4]))
        np.testing.assert_array_equal(a.zip_all(b).data, [1, 2, 3, 4])

    def test_zip_all_dissimilar(self):
        from repro.common import NotSimilarError

        with pytest.raises(NotSimilarError):
            ArrayBox(np.array([1])).zip_all(ArrayBox(np.array([1, 2])))

    def test_zip_promotes_dtype(self):
        a = ArrayBox(np.array([1, 2], dtype=np.int64))
        b = ArrayBox(np.array([0.5, 1.5]))
        assert a.zip_all(b).data.dtype == np.float64


class TestVectorizedMap:
    @pytest.mark.parametrize("operator", ["tie", "zip"])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_matches_numpy(self, operator, parallel, pool):
        data = np.arange(128, dtype=np.float64)
        out = power_collect(
            VectorizedMapCollector(np.sqrt, operator), data, parallel, pool
        )
        np.testing.assert_allclose(out, np.sqrt(data))

    @pytest.mark.parametrize("target", [1, 4, 32])
    def test_any_leaf_size(self, target, pool):
        data = np.arange(64, dtype=np.float64)
        out = power_collect(
            VectorizedMapCollector(lambda c: c * 2, "zip"), data, pool=pool,
            target_size=target,
        )
        np.testing.assert_array_equal(out, data * 2)

    def test_bad_operator(self):
        with pytest.raises(IllegalArgumentError):
            VectorizedMapCollector(np.abs, "bogus")

    def test_agrees_with_scalar_collector(self, pool):
        from repro.core import PowerMapCollector

        data = list(range(64))
        scalar = power_collect(
            PowerMapCollector(lambda x: x * x, "tie"), data, pool=pool
        )
        vector = power_collect(
            VectorizedMapCollector(lambda c: c * c, "tie"),
            np.array(data, dtype=np.float64), pool=pool,
        )
        np.testing.assert_allclose(vector, scalar)


class TestVectorizedReduce:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_sum(self, parallel, pool):
        data = np.arange(256, dtype=np.float64)
        out = power_collect(VectorizedReduceCollector(np.add), data, parallel, pool)
        assert out == pytest.approx(data.sum())

    def test_maximum(self, pool):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(128)
        out = power_collect(VectorizedReduceCollector(np.maximum), data, pool=pool)
        assert out == pytest.approx(data.max())

    def test_empty_chunk_semantics(self):
        # A reduce over a singleton input works (single chunk of size 1).
        out = power_collect(
            VectorizedReduceCollector(np.add), np.array([7.0]), parallel=False
        )
        assert out == 7.0


class TestVectorizedPolynomial:
    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("size_log", [4, 8, 12])
    def test_matches_numpy(self, parallel, size_log, pool):
        rng = random.Random(size_log)
        coeffs = [rng.uniform(-1, 1) for _ in range(2**size_log)]
        out = vectorized_polynomial_value(coeffs, 0.998, parallel=parallel, pool=pool)
        assert out == pytest.approx(np.polyval(coeffs, 0.998), rel=1e-9)

    @pytest.mark.parametrize("target", [1, 4, 64])
    def test_any_leaf_size(self, target, pool):
        rng = random.Random(44)
        coeffs = [rng.uniform(-1, 1) for _ in range(256)]
        out = vectorized_polynomial_value(coeffs, 0.93, pool=pool, target_size=target)
        assert out == pytest.approx(np.polyval(coeffs, 0.93), rel=1e-9)

    def test_agreement_with_scalar_and_tupled(self, pool):
        from repro.core import polynomial_value, polynomial_value_tupled

        rng = random.Random(45)
        coeffs = [rng.uniform(-1, 1) for _ in range(512)]
        vec = vectorized_polynomial_value(coeffs, 0.97, pool=pool)
        assert vec == pytest.approx(polynomial_value(coeffs, 0.97, pool=pool), rel=1e-9)
        assert vec == pytest.approx(
            polynomial_value_tupled(coeffs, 0.97, pool=pool), rel=1e-9
        )

    def test_powers_cache_reused(self, pool):
        collector = VectorizedPolynomialValue(0.9)
        power_collect(collector, np.ones(256), pool=pool, target_size=16)
        # uniform leaves → exactly one (incr, m) key
        assert len(collector._powers_cache) == 1

    @settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(0, 6).flatmap(
            lambda k: st.lists(
                st.floats(-1, 1, allow_nan=False), min_size=2**k, max_size=2**k
            )
        ),
        st.floats(-1.25, 1.25, allow_nan=False),
    )
    def test_property(self, coeffs, x):
        out = vectorized_polynomial_value(coeffs, x, parallel=False)
        assert out == pytest.approx(np.polyval(coeffs, x), rel=1e-6, abs=1e-6)


class TestVectorizedFft:
    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("n_log", [0, 4, 10])
    def test_matches_numpy(self, parallel, n_log, pool):
        rng = np.random.default_rng(n_log)
        data = rng.standard_normal(2**n_log) + 1j * rng.standard_normal(2**n_log)
        out = vectorized_fft(data, parallel=parallel, pool=pool)
        np.testing.assert_allclose(out, np.fft.fft(data), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("target", [1, 8, 64])
    def test_any_leaf_size(self, target, pool):
        rng = np.random.default_rng(9)
        data = rng.standard_normal(256) * 1j
        out = vectorized_fft(data, pool=pool, target_size=target)
        np.testing.assert_allclose(out, np.fft.fft(data), rtol=1e-9, atol=1e-9)

    def test_agrees_with_scalar_collector(self, pool):
        from repro.core import fft

        rng = np.random.default_rng(10)
        data = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        np.testing.assert_allclose(
            vectorized_fft(data, pool=pool),
            fft(list(data), pool=pool),
            rtol=1e-9, atol=1e-9,
        )


class _CountingPolynomialValue(VectorizedPolynomialValue):
    """Records the length of every chunk its accumulator is handed."""

    def __init__(self, x: float) -> None:
        super().__init__(x)
        self.chunks: list[int] = []

    def accumulator(self):
        accumulate = super().accumulator()

        def counting(box, chunk_incr) -> None:
            self.chunks.append(len(chunk_incr[0]))
            accumulate(box, chunk_incr)

        return counting


class TestVectorizedLeavesAreWhole:
    """The point of vectorization: each leaf is one numpy call over its
    whole slice, so the heavy math leaves the interpreter loop.  Counted
    here, deterministically; the wall-clock gain is measured with
    repeats by AB7 (``benchmarks/bench_ab7_transformations.py``)."""

    N = 2**16

    def _coeffs(self):
        return np.random.default_rng(1).uniform(-1, 1, self.N)

    def test_sequential_run_is_one_accumulator_call(self):
        from repro.core import polynomial_value

        coeffs = self._coeffs()
        function = _CountingPolynomialValue(0.9999)
        vector = power_collect(function, coeffs, False)
        assert function.chunks == [self.N]
        scalar = polynomial_value(list(coeffs), 0.9999, parallel=False)
        assert vector == pytest.approx(scalar, rel=1e-6)

    def test_one_accumulator_call_per_parallel_leaf(self, pool):
        coeffs = self._coeffs()
        function = _CountingPolynomialValue(0.9999)
        vector = power_collect(function, coeffs, True, pool, self.N // 8)
        assert function.chunks == [self.N // 8] * 8
        assert vector == pytest.approx(
            vectorized_polynomial_value(coeffs, 0.9999, parallel=False),
            rel=1e-9,
        )
