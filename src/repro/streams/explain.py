"""``Stream.explain()``: the execution plan, predicted without executing.

The engine now makes four layered decisions per terminal — the fusion
rewrite, the bulk-vs-per-element mode selection, the parallel segmenting
at stateful barriers, and the split-tree shape from the target size.
This module re-runs exactly those decision functions against the *plan*
(op list + source metadata) instead of the data, so the report it builds
is the same decision the engine will take, not a parallel reimplementation
that can drift:

* fusion goes through the pure :func:`~repro.streams.fusion.fuse_ops`
  (not ``maybe_fuse`` — explaining must not pollute the stats/memo that
  tests and benchmarks pin);
* mode selection goes through :func:`~repro.streams.ops.select_mode`,
  the decision ``run_pipeline`` branches on;
* the leaf threshold goes through the real
  :func:`~repro.streams.adaptive.decide_threshold` — the same function
  the terminals call, including the ``auto`` split-policy path (read-only
  against the memo, so explaining never records a decision) — and the
  split tree is walked with the real halving rule (prefix gets
  ``size - size // 2``).

Every decision reads the :class:`~repro.streams.config.EngineConfig`
the stream's terminal would resolve (``Stream._config``).  Everything is
returned as a plain dict (pinned by tests) with a pretty
text rendering via :meth:`ExplainPlan.render`.
"""

from __future__ import annotations

import copy

from repro.streams.config import EngineConfig
from repro.streams.fusion import FusedOp, fuse_ops
from repro.streams.ops import (
    LimitOp,
    Op,
    select_mode,
)
from repro.streams.adaptive import decide_threshold, shape_key
from repro.streams.parallel import (
    _walk_split_tree,
    backend_parallelism,
    plan_window,
    residual_backend,
    window_run,
)
from repro.streams.spliterator import UNKNOWN_SIZE, Characteristics, Spliterator

#: Mode names reported under ``execution.mode`` / ``segments[].mode`` —
#: the three branches of ``run_pipeline``.
MODE_SHORT_CIRCUIT = "short-circuit-polled"
MODE_CHUNKED = "chunked"
MODE_ELEMENT = "per-element"


def _op_label(op: Op) -> str:
    """Same label scheme as the profiler: ``MapOp`` → ``map``."""
    if isinstance(op, FusedOp):
        return f"fused({'|'.join(op.kinds)})"
    name = type(op).__name__
    if name.endswith("Op"):
        name = name[:-2]
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


#: ``select_mode`` return value → reported mode name.
_MODE_NAMES = {
    "short_circuit": MODE_SHORT_CIRCUIT,
    "chunked": MODE_CHUNKED,
    "element": MODE_ELEMENT,
}


def _predict_mode(
    ops: list[Op], config: EngineConfig, force_short_circuit: bool = False
) -> str:
    """The branch ``run_pipeline`` would take for this (fused) chain.

    Delegates to :func:`repro.streams.ops.select_mode` — the *same*
    decision function execution runs — so counted fused kernels that
    absorb their short-circuit report ``chunked`` here exactly when the
    traversal takes the chunked path.
    """
    return _MODE_NAMES[select_mode(ops, config, force_short_circuit)]


def _fusion_section(
    ops: list[Op], config: EngineConfig
) -> tuple[dict, list[Op]]:
    """The fusion rewrite report and the rewritten chain.

    Uses the pure :func:`fuse_ops` so explaining never touches the
    ``fusion_stats`` counters or the identity memo.
    """
    enabled = config.fusion
    if enabled:
        rewritten, stages_fused = fuse_ops(ops)
    else:
        rewritten, stages_fused = ops, 0
    runs = [
        op.describe() for op in rewritten if isinstance(op, FusedOp)
    ]
    # Fused kernels are never barriers: a counted kernel may *be*
    # short-circuiting (it carries a compiled limit), but it manages its
    # own cut inside the chunked path instead of splitting the chain.
    barriers = [
        {
            "op": _op_label(op),
            "stateful": op.stateful,
            "short_circuit": op.short_circuit,
        }
        for op in rewritten
        if not isinstance(op, FusedOp) and (op.stateful or op.short_circuit)
    ]
    section = {
        "enabled": enabled,
        "chain": [_op_label(op) for op in rewritten],
        "stages_fused": stages_fused,
        "kernels": len(runs),
        "runs": runs,
        "barriers": barriers,
    }
    return section, rewritten


def _sequential_execution(fused_ops: list[Op], config: EngineConfig) -> dict:
    return {"parallel": False, "mode": _predict_mode(fused_ops, config)}


def _parallel_execution(
    ops: list[Op],
    size: int | None,
    pool,
    explicit_target: int | None,
    config: EngineConfig,
    spliterator: Spliterator | None = None,
) -> dict:
    """Predict segments, target size, and the split tree for parallel runs.

    Mirrors ``Stream._barrier_stateful``: the chain is cut at each
    stateful op; every stateless segment runs as its own fork/join
    reduction (each re-fused and mode-selected independently), with the
    stateful op applied as a sequential barrier between segments.  A
    ``limit``/``skip`` cut over maps is reported from the planner itself
    (:func:`~repro.streams.parallel.plan_window`): its window, leaf count
    and whether it runs in the caller — as is a first segment the
    threshold makes one leaf, and an op-free tail folded in the caller
    (:func:`~repro.streams.parallel.residual_backend`).

    With ``backend='process'`` the pool is the worker-process pool and the
    plan additionally predicts the *shipping* mode — whether leaves travel
    as zero-copy shared-memory descriptors, compact range bounds, or
    pickled element copies.
    """
    shipping = None
    backend = config.backend
    parallelism = backend_parallelism(backend, pool)
    if backend == "process":
        from repro.streams import process_backend as _pb

        pool_name = "process"
        if spliterator is not None:
            shipping = _pb.shipping_mode(spliterator)
    else:
        pool_name = pool.name if pool is not None else "common"

    def fused_labels(chain):
        fused, _ = fuse_ops(chain) if config.fusion else (chain, 0)
        return [_op_label(op) for op in fused], _predict_mode(fused, config)

    segments = []
    first_window = None
    remaining = list(ops)
    while True:
        # Only the first segment reads the real source; later ones read a
        # barrier buffer whose size is unknown until it runs.
        if not segments and spliterator is not None:
            window = plan_window(
                spliterator, remaining, parallelism, explicit_target,
                config, record=False,
            )
            first_window = window
        else:
            window = window_run(remaining)
        if window is not None:
            labels, mode = fused_labels(window.maps)
            segment = {
                "ops": labels,
                "mode": mode,
                "barrier": "|".join(_op_label(op) for op in window.counted),
                "window": {"lo": window.lo, "hi": window.hi, "of": window.size},
            }
            if window.split_tree is not None:
                segment["leaves"] = window.split_tree[0]
                segment["in_caller"] = segment["leaves"] == 1
            segments.append(segment)
            remaining = window.rest
            continue
        cut = next(
            (i for i, op in enumerate(remaining) if op.stateful), None
        )
        if cut is None:
            prefix, barrier, remaining = remaining, None, []
        else:
            prefix, barrier = remaining[:cut], remaining[cut]
            remaining = remaining[cut + 1 :]
        # A limit barrier passes its count to the collect as the *budget*:
        # each leaf actually runs ``prefix + [LimitOp(n)]`` (re-fused into
        # a counted kernel), so the plan predicts the mode of exactly that
        # chain — mirroring ``Stream._barrier_stateful``.
        budget = None
        leaf_chain = prefix
        if barrier is not None and isinstance(barrier, LimitOp):
            budget = barrier.n
            leaf_chain = prefix + [barrier]
        labels, mode = fused_labels(leaf_chain)
        segment = {
            "ops": labels,
            # Leaves of a parallel reduction run the chain through
            # run_pipeline; match/find leaves poll (short-circuit).
            "mode": mode,
            "barrier": _op_label(barrier) if barrier is not None else None,
        }
        if budget is not None:
            segment["budget"] = budget
        if (
            barrier is None and segments
            and residual_backend(backend, prefix) != backend
        ):
            segment["in_caller"] = True
        segments.append(segment)
        if barrier is None:
            break

    execution: dict = {
        "parallel": True,
        "backend": backend,
        "pool": pool_name,
        "parallelism": parallelism,
        "segments": segments,
    }
    if shipping is not None:
        execution["shipping"] = shipping

    # The threshold comes from the SAME decision function the terminals
    # call (repro.streams.adaptive.decide_threshold), keyed by the first
    # stateless segment's shape — so a policy override (e.g. the ``auto``
    # split policy) can never make the plan drift from execution.
    # ``record=False``: explaining must not bump the policy's stats.
    first_cut = next((i for i, op in enumerate(ops) if op.stateful), None)
    first_segment = ops if first_cut is None else ops[:first_cut]
    key = None
    if spliterator is not None:
        key = shape_key(first_segment, spliterator, parallelism, backend=backend)
    decision = decide_threshold(
        size if size is not None else UNKNOWN_SIZE,
        parallelism,
        explicit=explicit_target,
        key=key,
        record=False,
    )
    target = decision.target_size
    execution["threshold_source"] = decision.source
    if decision.inputs is not None:
        execution["threshold_inputs"] = decision.inputs
    execution["target_size"] = target

    # The split tree is only predictable for a sized source; the shape of
    # later segments depends on barrier output sizes (e.g. after filter),
    # so the prediction covers the first segment — for a counted window,
    # the narrowed tree the planner splits.
    if first_window is not None:
        leaves, depth = first_window.split_tree
        execution["split_tree"] = {"leaves": leaves, "depth": depth}
    elif size is not None:
        leaves, depth = _walk_split_tree(size, target)
        execution["split_tree"] = {"leaves": leaves, "depth": depth}
        if leaves == 1:
            # ``parallel.evaluate`` runs a one-leaf plan in the caller.
            segments[0].update(leaves=1, in_caller=True)
    else:
        execution["split_tree"] = None
    return execution


def _leaves(count: int) -> str:
    return f"{count} leaf" if count == 1 else f"{count} leaves"


class ExplainPlan:
    """A structured, renderable execution plan (see :func:`explain_stream`)."""

    def __init__(self, plan: dict) -> None:
        self._plan = plan

    def to_dict(self) -> dict:
        return copy.deepcopy(self._plan)

    def __getitem__(self, key: str):
        return self._plan[key]

    def render(self) -> str:
        """Pretty text tree of the plan."""
        p = self._plan
        src = p["source"]
        size = src["size"] if src["size"] is not None else "?"
        flags = []
        if src["sized"]:
            flags.append("sized")
        if src["power2"]:
            flags.append("power2")
        lines = [
            "explain",
            f"├─ source: {src['spliterator']} "
            f"(size={size}{', ' + '+'.join(flags) if flags else ''})",
        ]
        if "zip" in src:
            z = src["zip"]
            lines.append(
                f"│    zip: combine={z['combine']}, "
                f"left={z['left']['mode']}, right={z['right']['mode']}"
            )
        lines.append(
            f"├─ ops: {' → '.join(p['ops']) if p['ops'] else '(none)'}"
        )
        fusion = p["fusion"]
        if not fusion["enabled"]:
            lines.append("├─ fusion: disabled")
        elif fusion["kernels"] == 0:
            lines.append("├─ fusion: nothing to fuse")
        else:
            lines.append(
                f"├─ fusion: {fusion['stages_fused']} stages → "
                f"{fusion['kernels']} kernel(s): {' → '.join(fusion['chain'])}"
            )
            for run in fusion["runs"]:
                window = (
                    f", window[{run['window'][0]}:{run['window'][1]}]"
                    if "window" in run
                    else ""
                )
                lines.append(
                    f"│    kernel[{'|'.join(run['stages'])}] "
                    f"{run['kernel']}"
                    f"{', ufunc×' + str(run['ufunc_prefix']) if run['ufunc_prefix'] else ''}"
                    f"{window}"
                )
        for barrier in fusion["barriers"]:
            why = "stateful" if barrier["stateful"] else "short-circuit"
            lines.append(f"│    barrier: {barrier['op']} ({why})")
        ex = p["execution"]
        if not ex["parallel"]:
            suffix = (
                f" [backend={ex['backend']}]" if "backend" in ex else ""
            )
            lines.append(f"└─ execution: sequential, mode={ex['mode']}{suffix}")
            return "\n".join(lines)
        lines.append(
            f"└─ execution: parallel on {ex['pool']!r} "
            f"(backend={ex.get('backend', 'threads')}, "
            f"parallelism={ex['parallelism']})"
        )
        if "shipping" in ex:
            lines.append(f"     shipping: {ex['shipping']}")
        lines.append(
            f"     target_size={ex['target_size']} "
            f"[{ex['threshold_source']}]"
        )
        inputs = ex.get("threshold_inputs")
        if inputs is not None:
            lines.append(
                f"     threshold inputs: {inputs['basis']}; "
                f"cost≈{inputs['cost_per_element_ns']}ns/element, "
                f"bias={inputs['bias']}, "
                f"observed_runs={inputs['observed_runs']}"
            )
        for i, seg in enumerate(ex["segments"]):
            chain = " → ".join(seg["ops"]) if seg["ops"] else "(passthrough)"
            tail = f" ⊣ barrier {seg['barrier']}" if seg["barrier"] else ""
            if "budget" in seg:
                tail += f" (budget={seg['budget']})"
            if "window" in seg:
                w = seg["window"]
                hi = "" if w["hi"] is None else w["hi"]
                of = "?" if w["of"] is None else w["of"]
                tail += f", window [{w['lo']}:{hi}) of {of}"
            if "leaves" in seg:
                tail += f", {_leaves(seg['leaves'])}"
            if seg.get("in_caller"):
                folded = "leaves" not in seg and not seg["barrier"]
                tail += "  folded in caller" if folded else ", in caller"
            lines.append(f"     segment[{i}]: {chain}  mode={seg['mode']}{tail}")
        tree = ex["split_tree"]
        if tree is not None:
            lines.append(
                f"     split tree: {_leaves(tree['leaves'])}, depth {tree['depth']}"
            )
        else:
            lines.append("     split tree: unknown (unsized source)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"ExplainPlan({self._plan['execution']})"


def explain_stream(stream) -> ExplainPlan:
    """Build the plan for ``stream`` without consuming or executing it."""
    spliterator: Spliterator = stream._spliterator
    ops: list[Op] = list(stream._ops)

    exact = spliterator.get_exact_size_if_known()
    size = exact if exact >= 0 else None
    source = {
        "spliterator": type(spliterator).__name__,
        "size": size,
        "sized": spliterator.has_characteristics(Characteristics.SIZED),
        "power2": spliterator.has_characteristics(Characteristics.POWER2),
    }
    from repro.streams.zipper import ZipSpliterator

    if isinstance(spliterator, ZipSpliterator):
        source["zip"] = spliterator.describe()

    config = stream._config()
    fusion_section, fused_ops = _fusion_section(ops, config)

    if stream._parallel:
        if config.backend == "sequential":
            # The backend switch downgrades parallel terminals to an
            # in-thread run; the plan reports the downgrade explicitly.
            execution = _sequential_execution(fused_ops, config)
            execution["backend"] = "sequential"
        else:
            execution = _parallel_execution(
                ops, size, stream._pool, stream._target_size,
                config, spliterator,
            )
    else:
        execution = _sequential_execution(fused_ops, config)

    return ExplainPlan(
        {
            "source": source,
            "ops": [_op_label(op) for op in ops],
            "fusion": fusion_section,
            "execution": execution,
        }
    )
