"""The one batch-execution core every serving path shares.

The offline path (:meth:`InferenceEngine.predict`), each thread worker
and each process worker own one :class:`SkeletonPlan` — their own
model skeleton plus its single compiled :class:`~repro.nn.plan.EvalPlan`
— and run every batch through :func:`execute_batch`:

1. **rebuild** — fetch every compressed layer with one
   :meth:`RebuildEngine.layer_weights` call, in spec order (the call
   :class:`~repro.serving.simulator.CacheSimulator` replays);
2. **compute** — run the plan, in float32, with those read-only
   arrays: the plan casts each lowered layer's weight into its own
   float32 array, and nothing is copied into the skeleton except the
   weights of layers the plan could not lower (which run through
   autograd).  Served rows are float32; the fetched weights (and the
   cache, tiers and arena behind them) stay float64.

With a tracer, each phase is a span (``rebuild`` / ``compute``) and
the per-layer ``rebuild.layer`` spans nest under the first.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, ContextManager, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import nn
from repro.nn.plan import EvalPlan, compile_eval


class ServingError(Exception):
    """Engine-level configuration or execution failure."""


def _layer_names(model: nn.Module, specs: Mapping[str, Any]) -> Tuple[str, ...]:
    """The bundle's layer names in spec order, after checking that each
    names a module of ``model`` whose weight has the layer's shape."""
    modules = dict(model.named_modules())
    for name, spec in specs.items():
        module = modules.get(name)
        if module is None:
            raise ServingError(f"model has no module {name!r} for bundle layer")
        weight = getattr(module, "weight", None)
        shape = tuple(spec.weight_shape)
        if weight is None or tuple(weight.data.shape) != shape:
            raise ServingError(
                f"module {name!r} weight shape "
                f"{None if weight is None else weight.data.shape} does "
                f"not match bundle layer shape {shape}"
            )
    return tuple(specs)


class SkeletonPlan:
    """One skeleton and the single float32 eval plan compiled for it.

    The plan is compiled on the first batch and again whenever the
    sample shape changes; a shape that does not fit the model raises
    from :meth:`plan_for` and leaves the current plan in place.  Owned
    by one thread at a time (the engine's forward lock, a worker
    thread, or a worker process).
    """

    def __init__(self, model: nn.Module, specs: Mapping[str, Any]) -> None:
        self.model = model
        self.layers = _layer_names(model, specs)
        self._plan: Optional[EvalPlan] = None

    def plan_for(self, sample_shape: Tuple[int, ...]) -> EvalPlan:
        plan = self._plan
        if plan is None or plan.sample_shape != tuple(sample_shape):
            plan = self._plan = compile_eval(
                self.model, sample_shape, np.float32
            )
        return plan


@dataclass
class BatchRun:
    """One executed batch: fresh output rows (or the ``error`` either
    phase raised), phase boundaries in ``perf_counter`` seconds
    (``installed`` is None when the layer fetch raised) and, when
    traced, the phase spans."""

    rows: Optional[np.ndarray]
    start: float
    installed: Optional[float]
    finished: float
    rebuild_span: Any = None
    compute_span: Any = None
    error: Optional[BaseException] = None


def execute_batch(
    plan: SkeletonPlan,
    rebuild,
    batch: np.ndarray,
    tracer=None,
    parent=None,
    tags: Optional[Dict] = None,
    attribution: Optional[ContextManager] = None,
) -> BatchRun:
    """Fetch every layer through ``rebuild``, then run ``plan`` on
    ``batch``.  ``tracer``/``parent``/``tags`` open the phase spans,
    which start and end on the run's own stamps; ``attribution`` (a
    tenant-ledger activation) wraps the fetches so rebuild seconds are
    charged to the batch's tenants.  An exception from either phase is
    returned on the run, after closing its span with the error, so a
    caller fails the batch with the phase times it reached."""
    rebuild_span = compute_span = installed = None
    start = time.perf_counter()
    try:
        if tracer is not None:
            rebuild_span = tracer.start_span(
                "rebuild", parent=parent, tags=tags, start_s=start
            )
        active = (
            tracer.activate(rebuild_span)
            if rebuild_span is not None
            else contextlib.nullcontext()
        )
        with active, attribution or contextlib.nullcontext():
            weights = dict(zip(plan.layers, rebuild.layer_weights(plan.layers)))
        installed = time.perf_counter()
        if tracer is not None:
            tracer.finish_span(rebuild_span, end_s=installed)
            compute_span = tracer.start_span(
                "compute",
                parent=parent,
                tags={**(tags or {}), "batch_size": len(batch)},
                start_s=installed,
            )
        rows = plan.plan_for(batch.shape[1:])(batch, weights)
        finished = time.perf_counter()
        if tracer is not None:
            tracer.finish_span(compute_span, end_s=finished)
    except Exception as error:
        finished = time.perf_counter()
        for span in (rebuild_span, compute_span):
            if span is not None and not span.finished:
                tracer.finish_span(
                    span, end_s=finished, error=type(error).__name__
                )
        return BatchRun(
            None, start, installed, finished, rebuild_span, compute_span, error
        )
    return BatchRun(rows, start, installed, finished, rebuild_span, compute_span)
