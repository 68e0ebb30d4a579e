"""Tests for the PowerList functions expressed as stream collectors."""

import cmath
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common import NotPowerOfTwoError, NotSimilarError
from repro.core import (
    FftCollector,
    IdentityCollector,
    InvCollector,
    PolynomialValue,
    PowerArray,
    PowerMapCollector,
    PowerReduceCollector,
    PrefixSumCollector,
    batcher_merge_sort,
    bitonic_sort,
    fft,
    gray_code_sequence,
    inv,
    polynomial_value,
    power_collect,
    prefix_sum,
    to_gray,
    walsh_hadamard,
)
from repro.core.fft import fft_sequential, powers
from repro.core.gray import from_gray, gray_map
from repro.core.inv import inv_indices
from repro.core.polynomial import horner
from repro.core.sorting import bitonic_merge, odd_even_merge
from repro.forkjoin import ForkJoinPool
from repro.streams import engine


@pytest.fixture(scope="module")
def pool():
    p = ForkJoinPool(parallelism=4, name="core-test")
    yield p
    p.shutdown()


def pow2_lists(elements=st.integers(-1000, 1000), max_log=7, min_log=0):
    return st.integers(min_log, max_log).flatmap(
        lambda k: st.lists(elements, min_size=2**k, max_size=2**k)
    )


class TestPowerArray:
    def test_add_and_len(self):
        a = PowerArray()
        a.add(1)
        a.add(2)
        assert len(a) == 2
        assert a.to_list() == [1, 2]

    def test_tie_all(self):
        a, b = PowerArray([1, 2]), PowerArray([3, 4])
        assert a.tie_all(b).to_list() == [1, 2, 3, 4]

    def test_zip_all(self):
        a, b = PowerArray([1, 3]), PowerArray([2, 4])
        assert a.zip_all(b).to_list() == [1, 2, 3, 4]

    def test_zip_all_requires_similar(self):
        with pytest.raises(NotSimilarError):
            PowerArray([1]).zip_all(PowerArray([1, 2]))

    def test_replace(self):
        a = PowerArray([1])
        assert a.replace([9, 9]).to_list() == [9, 9]

    def test_eq_iter_getitem(self):
        a = PowerArray([1, 2])
        assert a == PowerArray([1, 2])
        assert list(a) == [1, 2]
        assert a[1] == 2
        assert a.__eq__(3) is NotImplemented

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PowerArray())


class TestIdentity:
    @pytest.mark.parametrize("operator", ["tie", "zip"])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_roundtrip(self, operator, parallel, pool):
        data = list(range(64))
        out = power_collect(
            IdentityCollector(operator), data, parallel=parallel, pool=pool
        )
        assert out == data

    def test_paper_snippet_shape(self, pool):
        # The paper's first example: ZipSpliterator + PowerList::zipAll.
        data = [float(i) for i in range(16)]
        assert power_collect(IdentityCollector("zip"), data, pool=pool) == data

    @pytest.mark.parametrize("target", [1, 2, 4, 16])
    def test_any_leaf_size(self, target, pool):
        data = list(range(32))
        out = power_collect(
            IdentityCollector("zip"), data, pool=pool, target_size=target
        )
        assert out == data

    def test_rejects_non_power_of_two(self, pool):
        with pytest.raises(NotPowerOfTwoError):
            power_collect(IdentityCollector(), [1, 2, 3], pool=pool)

    def test_bad_operator(self):
        with pytest.raises(Exception):
            IdentityCollector("bogus")

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pow2_lists())
    def test_property_roundtrip(self, data):
        assert power_collect(IdentityCollector("zip"), data, parallel=False) == data


class TestMapReduce:
    @pytest.mark.parametrize("operator", ["tie", "zip"])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_map(self, operator, parallel, pool):
        data = list(range(64))
        out = power_collect(
            PowerMapCollector(lambda x: x * x, operator), data, parallel, pool
        )
        assert out == [x * x for x in data]

    @pytest.mark.parametrize("operator", ["tie", "zip"])
    def test_reduce_commutative(self, operator, pool):
        data = list(range(128))
        out = power_collect(PowerReduceCollector(lambda a, b: a + b, operator), data, pool=pool)
        assert out == sum(data)

    def test_reduce_non_commutative_needs_tie(self, pool):
        # String concatenation: associative but not commutative.
        data = [chr(ord("a") + i) for i in range(32)]
        out = power_collect(
            PowerReduceCollector(lambda a, b: a + b, "tie"), data, pool=pool
        )
        assert out == "".join(data)

    def test_reduce_max(self, pool):
        data = [(i * 37) % 101 for i in range(64)]
        assert power_collect(PowerReduceCollector(max), data, pool=pool) == max(data)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pow2_lists(max_log=6))
    def test_map_property(self, data):
        out = power_collect(
            PowerMapCollector(lambda x: x + 1, "zip"), data, parallel=False
        )
        assert out == [x + 1 for x in data]


class TestPolynomial:
    def test_horner_matches_numpy(self):
        coeffs = [3.0, -2.0, 1.0, 5.0]
        assert horner(coeffs, 2.0) == pytest.approx(np.polyval(coeffs, 2.0))

    @pytest.mark.parametrize("parallel", [False, True])
    def test_small_polynomial(self, parallel, pool):
        coeffs = [1.0, 2.0, 3.0, 4.0]  # x³ + 2x² + 3x + 4
        out = polynomial_value(coeffs, 2.0, parallel=parallel, pool=pool)
        assert out == pytest.approx(1 * 8 + 2 * 4 + 3 * 2 + 4)

    @pytest.mark.parametrize("size_log", [4, 8, 12])
    @pytest.mark.parametrize("x", [0.5, 1.0, -0.7, 1.001])
    def test_matches_numpy_polyval(self, size_log, x, pool):
        rng = random.Random(42 + size_log)
        coeffs = [rng.uniform(-1, 1) for _ in range(2**size_log)]
        out = polynomial_value(coeffs, x, pool=pool)
        assert out == pytest.approx(np.polyval(coeffs, x), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("target", [1, 4, 64])
    def test_any_uniform_leaf_size(self, target, pool):
        rng = random.Random(7)
        coeffs = [rng.uniform(-1, 1) for _ in range(256)]
        out = polynomial_value(coeffs, 0.9, pool=pool, target_size=target)
        assert out == pytest.approx(np.polyval(coeffs, 0.9), rel=1e-9)

    @pytest.mark.parametrize("source", ["list", "ndarray"])
    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("x", [0.9, -1.1, 1.001])
    def test_chunked_and_per_element_paths_agree_bit_for_bit(
        self, source, parallel, x, pool, counters
    ):
        # The chunk accumulator hoists ``x ** x_degree``; every step stays
        # ``val * y + d``, so the two traversal modes agree exactly.
        rng = random.Random(11)
        coeffs = [rng.uniform(-1, 1) for _ in range(1 << 12)]
        if source == "ndarray":
            coeffs = np.array(coeffs)
        results, modes = {}, {}
        for bulk in (True, False):
            with engine(bulk=bulk):
                delta = counters()
                results[bulk] = polynomial_value(
                    coeffs, x, parallel=parallel, pool=pool,
                    target_size=256 if parallel else None,
                )
                modes[bulk] = delta.traversals()
        assert modes[True]["chunked"] > 0 and modes[False]["chunked"] == 0
        assert results[True] == results[False]
        assert results[True] == pytest.approx(
            np.polyval(coeffs, x), rel=1e-9, abs=1e-9
        )

    def test_x_degree_reaches_leaf_depth(self, pool):
        pv = PolynomialValue(1.0)
        power_collect(pv, [1.0] * 16, pool=pool, target_size=1)
        assert pv.x_degree == 16

    def test_sequential_keeps_degree_one(self):
        pv = PolynomialValue(2.0)
        out = power_collect(pv, [1.0, 1.0, 1.0, 1.0], parallel=False)
        assert pv.x_degree == 1
        assert out == pytest.approx(8 + 4 + 2 + 1)

    @settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pow2_lists(st.floats(-1, 1, allow_nan=False), max_log=6),
        st.floats(-1.25, 1.25, allow_nan=False),
    )
    def test_property_matches_numpy(self, coeffs, x):
        out = polynomial_value(coeffs, x, parallel=False)
        assert out == pytest.approx(np.polyval(coeffs, x), rel=1e-6, abs=1e-6)


class TestInv:
    @pytest.mark.parametrize("operator", ["tie", "zip"])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_matches_bit_reversal(self, operator, parallel, pool):
        n = 64
        data = list(range(n))
        out = inv(data, operator=operator, parallel=parallel, pool=pool)
        expected = [None] * n
        for i, target in enumerate(inv_indices(n)):
            expected[target] = data[i]
        assert out == expected

    def test_involution(self, pool):
        data = [(i * 13) % 64 for i in range(64)]
        assert inv(inv(data, pool=pool), pool=pool) == data

    def test_singleton(self):
        assert inv([42], parallel=False) == [42]

    @pytest.mark.parametrize("target", [1, 2, 8])
    def test_any_leaf_size(self, target, pool):
        data = list(range(32))
        out = power_collect(InvCollector("tie"), data, pool=pool, target_size=target)
        assert out == inv(data, parallel=False)


class TestFft:
    def test_powers_are_roots_of_unity(self):
        u = powers(4)
        w = cmath.exp(-2j * cmath.pi / 8)
        for k, val in enumerate(u):
            assert val == pytest.approx(w**k)

    @pytest.mark.parametrize("n_log", [0, 1, 4, 8])
    def test_sequential_matches_numpy(self, n_log):
        rng = random.Random(n_log)
        data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2**n_log)]
        out = fft_sequential(data)
        np.testing.assert_allclose(out, np.fft.fft(data), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("n_log", [4, 8, 10])
    def test_collector_matches_numpy(self, parallel, n_log, pool):
        rng = random.Random(100 + n_log)
        data = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2**n_log)]
        out = fft(data, parallel=parallel, pool=pool)
        np.testing.assert_allclose(out, np.fft.fft(data), rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("target", [1, 4, 32])
    def test_any_leaf_size(self, target, pool):
        rng = random.Random(5)
        data = [complex(rng.uniform(-1, 1)) for _ in range(128)]
        out = fft(data, pool=pool, target_size=target)
        np.testing.assert_allclose(out, np.fft.fft(data), rtol=1e-8, atol=1e-8)

    def test_inverse_roundtrip_via_conjugate(self, pool):
        data = [complex(i, -i) for i in range(16)]
        forward = fft(data, pool=pool)
        back = [v.conjugate() for v in fft([v.conjugate() for v in forward], pool=pool)]
        np.testing.assert_allclose([v / 16 for v in back], data, atol=1e-9)


class TestPrefixSum:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_matches_accumulate(self, parallel, pool):
        import itertools

        data = [(i * 7) % 13 for i in range(128)]
        out = prefix_sum(data, parallel=parallel, pool=pool)
        assert out == list(itertools.accumulate(data))

    def test_custom_operator_max(self, pool):
        import itertools

        data = [(i * 29) % 17 for i in range(64)]
        out = prefix_sum(data, op=max, pool=pool)
        assert out == list(itertools.accumulate(data, max))

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pow2_lists(max_log=6))
    def test_property(self, data):
        import itertools

        assert prefix_sum(data, parallel=False) == list(itertools.accumulate(data))


class TestWalshHadamard:
    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("n_log", [0, 1, 3, 6])
    def test_matches_scipy_hadamard(self, parallel, n_log, pool):
        from scipy.linalg import hadamard

        rng = random.Random(n_log)
        n = 2**n_log
        data = [rng.uniform(-1, 1) for _ in range(n)]
        out = walsh_hadamard(data, parallel=parallel, pool=pool)
        expected = hadamard(n) @ np.array(data)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("target", [1, 2, 8])
    def test_any_leaf_size(self, target, pool):
        from scipy.linalg import hadamard

        data = [float(i) for i in range(32)]
        out = walsh_hadamard(data, pool=pool, target_size=target)
        np.testing.assert_allclose(out, hadamard(32) @ np.array(data), atol=1e-9)

    def test_self_inverse_scaled(self, pool):
        data = [1.0, -2.0, 3.0, 0.5]
        twice = walsh_hadamard(walsh_hadamard(data, pool=pool), pool=pool)
        np.testing.assert_allclose([v / 4 for v in twice], data, atol=1e-12)


class TestSorting:
    @given(
        st.lists(st.integers(-100, 100), min_size=4, max_size=4),
        st.lists(st.integers(-100, 100), min_size=4, max_size=4),
    )
    def test_odd_even_merge(self, a, b):
        out = odd_even_merge(sorted(a), sorted(b))
        assert out == sorted(a + b)

    def test_odd_even_merge_rejects_dissimilar(self):
        with pytest.raises(ValueError):
            odd_even_merge([1], [1, 2])

    @pytest.mark.parametrize("parallel", [False, True])
    def test_batcher_sort(self, parallel, pool):
        rng = random.Random(3)
        data = [rng.randint(0, 1000) for _ in range(128)]
        assert batcher_merge_sort(data, parallel=parallel, pool=pool) == sorted(data)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pow2_lists(max_log=6))
    def test_batcher_property(self, data):
        assert batcher_merge_sort(data, parallel=False) == sorted(data)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pow2_lists(max_log=6))
    def test_bitonic_property(self, data):
        assert bitonic_sort(data) == sorted(data)

    def test_bitonic_descending(self):
        assert bitonic_sort([3, 1, 2, 4], ascending=False) == [4, 3, 2, 1]

    def test_bitonic_merge_on_bitonic_input(self):
        bitonic = [1, 3, 5, 7, 6, 4, 2, 0]
        assert bitonic_merge(bitonic) == sorted(bitonic)


class TestGray:
    def test_sequence_small(self):
        assert gray_code_sequence(1) == [0, 1]
        assert gray_code_sequence(2) == [0, 1, 3, 2]
        assert gray_code_sequence(3) == [0, 1, 3, 2, 6, 7, 5, 4]

    @pytest.mark.parametrize("bits", [1, 2, 5, 8])
    def test_sequence_properties(self, bits):
        seq = gray_code_sequence(bits)
        n = 1 << bits
        assert sorted(seq) == list(range(n))  # a permutation
        for a, b in zip(seq, seq[1:]):
            assert bin(a ^ b).count("1") == 1  # adjacent codes differ by 1 bit
        assert bin(seq[0] ^ seq[-1]).count("1") == 1  # cyclic too

    def test_sequence_matches_formula(self):
        assert gray_code_sequence(6) == [to_gray(i) for i in range(64)]

    @given(st.integers(0, 10**6))
    def test_to_from_gray_roundtrip(self, i):
        assert from_gray(to_gray(i)) == i

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_gray(-1)
        with pytest.raises(ValueError):
            from_gray(-1)

    def test_gray_map_collector(self, pool):
        values = list(range(64))
        assert gray_map(values, pool=pool) == [to_gray(i) for i in values]
