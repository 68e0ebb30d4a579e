"""``Stream.explain()``: the execution plan, without executing it.

The engine makes four layered decisions per terminal — the fusion
rewrite, the bulk-vs-per-element mode selection, the parallel segmenting
at stateful barriers, and the split-tree shape from the target size.
This module makes none of them itself; it reports the engine's own:

* a parallel stream's segments, each one's leaf chain, barrier, window,
  budget, backend, threshold decision and split tree come from
  :func:`~repro.streams.parallel.plan_segment` — the planner
  ``Stream._evaluate`` runs — walked with ``record=False`` so
  explaining never records a decision;
* fusion goes through the pure :func:`~repro.streams.fusion.fuse_ops`
  that ``maybe_fuse`` runs, under either fusion setting (not
  ``maybe_fuse`` itself — explaining must not pollute the stats/memo that
  tests and benchmarks pin), over the chain each traversal fuses: the
  whole chain of a sequential stream, each segment's leaf chain of a
  parallel one;
* mode selection goes through :func:`~repro.streams.ops.select_mode`,
  the decision ``run_pipeline`` branches on.

Every decision reads the :class:`~repro.streams.config.EngineConfig`
the stream's terminal would resolve (``Stream._config``).  Everything is
returned as a plain dict (pinned by tests) with a pretty
text rendering via :meth:`ExplainPlan.render`.
"""

from __future__ import annotations

import copy

from repro.obs.profile import op_label
from repro.streams.config import EngineConfig
from repro.streams.fusion import FusedOp, fuse_ops
from repro.streams.ops import Op, select_mode
from repro.streams.parallel import backend_parallelism, plan_segment
from repro.streams.spliterator import Characteristics, Spliterator
from repro.streams.zipper import ZipSpliterator

#: Mode names reported under ``execution.mode`` / ``segments[].mode`` —
#: the three branches of ``run_pipeline``.
MODE_SHORT_CIRCUIT = "short-circuit-polled"
MODE_CHUNKED = "chunked"
MODE_ELEMENT = "per-element"


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


def _fuse(chain: list[Op], config: EngineConfig) -> tuple[list[Op], int]:
    """``chain`` as the run compiles it, through the pure :func:`fuse_ops`
    that ``maybe_fuse`` runs, under either fusion setting (explaining
    never touches the ``fusion_stats`` counters or memo)."""
    return fuse_ops(chain, config.fusion)


def _fusion_section(pieces: list, config: EngineConfig) -> dict:
    """The fusion rewrite report over ``(fused chain, stages, barrier)``
    pieces: the whole chain of a sequential stream, or each segment's
    leaf chain followed by its barrier ops."""
    rewritten, stages_fused = [], 0
    for fused, stages, barrier in pieces:
        rewritten += [*fused, *barrier]
        stages_fused += stages
    # A run merges stages; a one-stage kernel is reported as its op.
    runs = [
        op.describe() for op in rewritten
        if isinstance(op, FusedOp) and len(op.kinds) > 1
    ]
    # Kernels are never barriers: a cut kernel *is* short-circuiting (it
    # carries a compiled limit or take_while), but a merged one manages
    # its own cut inside the chunked path.
    barriers = [
        {
            "op": op_label(op),
            "stateful": op.stateful,
            "short_circuit": op.short_circuit,
        }
        for op in rewritten
        if not isinstance(op, FusedOp) and (op.stateful or op.short_circuit)
    ]
    return {
        "enabled": config.fusion,
        "chain": [op_label(op) for op in rewritten],
        "stages_fused": stages_fused,
        "kernels": len(runs),
        "runs": runs,
        "barriers": barriers,
    }


def _plan_segments(stream, config: EngineConfig) -> list:
    """The segments :func:`~repro.streams.parallel.plan_segment` plans
    for ``stream``, without recording a decision.  Only the first reads
    the real source; later ones read a barrier buffer, unknown until the
    run fills it."""
    parallelism = backend_parallelism(config.backend, stream._pool)
    segments = []
    source, ops = stream._spliterator, list(stream._ops)
    while True:
        segment = plan_segment(
            source, ops, parallelism, stream._target_size, config,
            record=False, after_barrier=bool(segments),
        )
        segments.append(segment)
        if not segment.barrier:
            return segments
        source, ops = None, segment.rest


def _segment_entry(segment, fused: list[Op], backend: str, config) -> dict:
    """One ``segments[]`` entry: the leaf chain, its mode and the cut."""
    entry = {
        "ops": [op_label(op) for op in fused],
        # Leaves of a parallel reduction run the chain through
        # run_pipeline; match/find leaves poll (short-circuit).
        "mode": _predict_mode(fused, config),
        "barrier": "|".join(op_label(op) for op in segment.barrier) or None,
    }
    if segment.budget is not None:
        entry["budget"] = segment.budget
    if segment.window is not None:
        lo, hi, of = segment.window
        entry["window"] = {"lo": lo, "hi": hi, "of": of}
    tree = segment.split_tree
    if tree is not None and (segment.window is not None or tree[0] == 1):
        # A window reports its narrowed tree; any segment reports a
        # one-leaf plan, which ``parallel.evaluate`` runs in the caller.
        entry.update(leaves=tree[0], in_caller=tree[0] == 1)
    elif segment.backend != backend:
        entry["in_caller"] = True  # an op-free tail folded in the caller
    return entry


def _parallel_execution(
    segments: list, fused: list, pool, config: EngineConfig, spliterator
) -> dict:
    """Report the planned segments, the first segment's threshold
    decision and its split tree.

    With ``backend='process'`` the pool is the worker-process pool and the
    plan additionally predicts the *shipping* mode — whether leaves travel
    as zero-copy shared-memory descriptors, compact range bounds, or
    pickled element copies.  The ``sequential`` backend runs the whole
    chain as one segment in the caller: one traversal, no split.
    """
    backend = config.backend
    entries = [
        _segment_entry(segment, chain, backend, config)
        for segment, chain in zip(segments, fused)
    ]
    if backend == "sequential":
        return {
            "parallel": False, "mode": entries[-1]["mode"],
            "backend": backend, "segments": entries,
        }
    execution: dict = {
        "parallel": True,
        "backend": backend,
        "pool": pool.name if pool is not None else "common",
        "parallelism": backend_parallelism(backend, pool),
        "segments": entries,
    }
    if backend == "process":
        from repro.streams import process_backend as _pb

        execution["pool"] = "process"
        execution["shipping"] = _pb.shipping_mode(spliterator)
    decision = segments[0].decision
    execution["threshold_source"] = decision.source
    if decision.inputs is not None:
        execution["threshold_inputs"] = decision.inputs
    execution["target_size"] = decision.target_size
    # Later segments split barrier buffers whose sizes are unknown until
    # the run, so the tree reported is the first segment's — for a
    # counted window, the narrowed tree it splits.
    tree = segments[0].split_tree
    execution["split_tree"] = (
        None if tree is None else {"leaves": tree[0], "depth": tree[1]}
    )
    return execution


def _leaves(count: int) -> str:
    return f"{count} leaf" if count == 1 else f"{count} leaves"


def _segment_lines(segments) -> list[str]:
    lines = []
    for i, seg in enumerate(segments):
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
    return lines


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
                    f"{run['kernel']}{window}"
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
            lines += _segment_lines(ex.get("segments", ()))
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
                f"observed_runs={inputs['observed_runs']}"
            )
        lines += _segment_lines(ex["segments"])
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
    if isinstance(spliterator, ZipSpliterator):
        source["zip"] = spliterator.describe()

    config = stream._config()
    if stream._parallel:
        segments = _plan_segments(stream, config)
        pieces = [(*_fuse(seg.ops, config), seg.barrier) for seg in segments]
        execution = _parallel_execution(
            segments, [piece[0] for piece in pieces], stream._pool, config,
            spliterator,
        )
    else:
        pieces = [(*_fuse(ops, config), ())]
        execution = {
            "parallel": False, "mode": _predict_mode(pieces[0][0], config),
        }

    return ExplainPlan(
        {
            "source": source,
            "ops": [op_label(op) for op in ops],
            "fusion": _fusion_section(pieces, config),
            "execution": execution,
        }
    )
