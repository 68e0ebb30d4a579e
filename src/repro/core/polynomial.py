"""Polynomial evaluation — the paper's running example (Equation 4).

The PowerList definition::

    vp([a], x)      = [a]
    vp(p ♮ q, x)    = vp(p, x²) + x · vp(q, x²)

needs *descending-phase* computation: every zip split squares the
evaluation point, i.e. doubles the exponent ``x_degree``.  The paper's Java
solution defines ``PZipSpliterator`` as an inner class of the
``PolynomialValue`` collector so splits can update the outer object's
``x_degree`` (max-update inside a synchronized block, because task
execution order is nondeterministic).  :class:`PolynomialValue` is the
direct Python port: the spliterator holds an explicit ``function_object``
reference instead of an implicit ``Outer.this``.

Coefficient convention: decreasing degree —
``value = coeffs[0]·x^(n-1) + coeffs[1]·x^(n-2) + … + coeffs[n-1]``,
identical to ``numpy.polyval``.  With this convention the accumulator is a
forward Horner step ``val = val·x^{x_degree} + coeff`` and the correctness
argument in the paper goes through unchanged.

The scheme *relies on all decompositions reaching the same layer*
(paper, Section V): power-of-two lengths with midpoint/zip splitting and a
uniform target size guarantee equal leaf depth, hence one global
``x_degree`` value is consistent for every leaf.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.power_collector import PowerCollector
from repro.core.power_spliterators import SpliteratorPower2, ZipSpliterator
from repro.forkjoin.pool import ForkJoinPool


class PZipSpliterator(ZipSpliterator[float]):
    """``ZipSpliterator`` that doubles a local exponent on every split and
    publishes the maximum to the shared function object (the paper's inner
    class, with the ``PolynomialValue.this`` link made explicit)."""

    __slots__ = ("x_degree",)

    def __init__(self, source, start=0, count=None, incr=1, function_object=None,
                 x_degree: int = 1) -> None:
        super().__init__(source, start, count, incr, function_object)
        self.x_degree = x_degree

    def try_split(self):
        if self.count < 2:
            return None
        self.x_degree *= 2  # the next level evaluates at the squared point
        fo = self.function_object
        if fo is not None:
            # Non-deterministic task order: only ever raise the global
            # exponent (paper's synchronized max-update).
            with fo._state_lock:
                if fo.x_degree < self.x_degree:
                    fo.x_degree = self.x_degree
        lo = self.start
        step = self.incr
        even_count = (self.count + 1) // 2
        odd_count = self.count // 2
        self.start = lo + step
        self.incr = step * 2
        self.count = odd_count
        return PZipSpliterator(
            self.source, lo, even_count, step * 2, self.function_object, self.x_degree
        )


class _PolyContainer:
    """Leaf/interior result container: a copy of the function object state."""

    __slots__ = ("x", "val", "x_degree")

    def __init__(self, x: float, x_degree: int) -> None:
        self.x = x
        self.val = 0.0
        self.x_degree = x_degree

    def __repr__(self) -> str:
        return f"_PolyContainer(x={self.x}, val={self.val}, x_degree={self.x_degree})"


class PolynomialValue(PowerCollector[float, _PolyContainer, float]):
    """The ``Collector<Double, PolynomialValue, PolynomialValue>`` of the
    paper: evaluates a polynomial given by its coefficient list.

    Args:
        x: the evaluation point.
    """

    operator = "zip"

    def __init__(self, x: float) -> None:
        super().__init__()
        self.x = x
        self.x_degree = 1  # shared descending-phase state

    def reset(self) -> None:
        # Splits publish max x_degree into this object; a retry or a
        # sequential fallback after a faulted run must not inherit the
        # exponent of the aborted decomposition.
        with self._state_lock:
            self.x_degree = 1

    def specialized_spliterator(self, data: Sequence[float]) -> SpliteratorPower2:
        return PZipSpliterator(
            data, 0, len(data), 1, function_object=self, x_degree=self.x_degree
        )

    def supplier(self) -> Callable[[], _PolyContainer]:
        def supply() -> _PolyContainer:
            # Step 3 of the mechanism: the fresh container is a *copy* of
            # the function object, inheriting the published exponent.
            with self._state_lock:
                return _PolyContainer(self.x, self.x_degree)

        return supply

    def accumulator(self) -> Callable[[_PolyContainer, float], None]:
        def accumulate(pv: _PolyContainer, d: float) -> None:
            pv.val = pv.val * pv.x ** pv.x_degree + d

        return accumulate

    def chunk_accumulator(
        self,
    ) -> Callable[[_PolyContainer, Sequence[float]], None]:
        def accumulate_chunk(pv: _PolyContainer, chunk: Sequence[float]) -> None:
            # The per-element step with its loop invariant hoisted: CPython
            # does not hoist ``x ** x_degree`` the way the JVM JIT does.
            # Each step is the same ``val * y + d``, so the result is
            # bit-identical to folding the chunk element by element.
            y = pv.x ** pv.x_degree
            val = pv.val
            for d in chunk:
                val = val * y + d
            pv.val = val

        return accumulate_chunk

    def combiner(self) -> Callable[[_PolyContainer, _PolyContainer], _PolyContainer]:
        def combine(pv1: _PolyContainer, pv2: _PolyContainer) -> _PolyContainer:
            pv1.x_degree //= 2
            pv1.val = pv1.val * pv1.x ** pv1.x_degree + pv2.val
            return pv1

        return combine

    def finisher(self) -> Callable[[_PolyContainer], float]:
        return lambda pv: pv.val


def horner(coeffs: Sequence[float], x: float) -> float:
    """Sequential reference: Horner's rule, decreasing-degree coefficients."""
    val = 0.0
    for c in coeffs:
        val = val * x + c
    return val


def polynomial_value(
    coeffs: Sequence[float],
    x: float,
    parallel: bool = True,
    pool: ForkJoinPool | None = None,
    target_size: int | None = None,
    *,
    retry=None,
    fallback: bool = False,
    deadline=None,
) -> float:
    """Evaluate the polynomial with the stream adaptation.

    This is the paper's execution snippet: create a ``PolynomialValue``,
    derive its ``PZipSpliterator`` over the coefficients, build the
    (parallel) stream and ``collect`` with the same object.  The
    keyword-only resilience knobs pass straight through to
    :func:`~repro.core.power_collector.power_collect`.
    """
    from repro.core.power_collector import power_collect

    pv = PolynomialValue(x)
    return power_collect(
        pv, coeffs, parallel, pool, target_size,
        retry=retry, fallback=fallback, deadline=deadline,
    )
