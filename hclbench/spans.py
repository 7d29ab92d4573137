"""Timing wrappers swapped in at hcl's module boundaries for a traced run.

A :class:`Tracer` replaces public functions such as ``hcl.mlp.forward`` or
``hcl.losses.hier_transform`` with wrappers that record one span per call
(name, start, end, parent) and restores the originals when it is done. hcl
looks these functions up through their modules at call time (``forward``
inside ``mlp.train``, ``losses.hier_transform`` inside ``curriculum``), so
the wrapped calls nest, and a span's self time is its duration minus the
durations of its direct children. Span times are process CPU time, as the
end-to-end timings are. ``src/hcl`` itself is not edited.

Work the tracer does for a ratio (routing counts, flop counts) runs in a
``trace.hook`` span of its own, so it never lands in a layer's self time.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from hcl import curriculum, data, losses, metrics, mlp, taxonomy

MODULES = {
    "curriculum": curriculum,
    "data": data,
    "losses": losses,
    "metrics": metrics,
    "mlp": mlp,
    "taxonomy": taxonomy,
}

# Functions timed as spans, as "module.attribute".
SPAN_TARGETS = (
    "mlp.train",
    "mlp.forward",
    "mlp.backward",
    "mlp.save_checkpoint",
    "mlp.load_checkpoint",
    "losses.bce_loss",
    "losses.bce_grad",
    "losses.hier_transform",
    "losses.hier_transform_backward",
    "curriculum.hcl_loss",
    "curriculum.select_classes",
    "metrics.evaluate",
    "data.synth_generate",
    "data.split",
    "data.normalize",
)

# Functions only counted: called thousands of times per pass, so a span
# each would cost more than the call.
COUNT_TARGETS = ("taxonomy.Taxonomy.lca",)

HOOK = "trace.hook"


class TraceTargetMissing(RuntimeError):
    """A function the tracer wraps is gone from hcl, so the trace would be
    silently incomplete."""


def _resolve(target: str):
    """(owner object, attribute name, current value) for a dotted target."""
    module_name, *path = target.split(".")
    owner = MODULES[module_name]
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetMissing(f"hcl.{target}: {part!r} no longer exists")
    fn = getattr(owner, path[-1], None)
    if not callable(fn):
        raise TraceTargetMissing(f"hcl.{target} no longer exists or is not callable")
    return owner, path[-1], fn


class Tracer:
    """Spans and counts collected while :meth:`installed` is active.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in call
    order; ``parent_index`` is -1 for a span with no traced caller.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.flops = 0.0  # computed from array shapes, not measured
        self.routed = 0
        self.routed_of = 0
        self._stack: list[int] = []

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; always put the originals back.

        Every target is resolved before any is swapped, so a missing one
        raises :class:`TraceTargetMissing` with hcl left untouched.
        """
        swaps = []
        for target in SPAN_TARGETS:
            owner, attr, fn = _resolve(target)
            swaps.append((owner, attr, fn, self._span_wrapper(target, fn)))
        for target in COUNT_TARGETS:
            owner, attr, fn = _resolve(target)
            swaps.append((owner, attr, fn, self._count_wrapper(target, fn)))
        try:
            for owner, attr, _, wrapper in swaps:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn, _ in reversed(swaps):
                setattr(owner, attr, fn)

    def _span_wrapper(self, target, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time
        name_of = _NAMERS.get(target, lambda args, kwargs: target)
        after = _HOOKS.get(target)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name_of(args, kwargs), 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook = [HOOK, clock(), 0.0, parent]
                spans.append(hook)
                after(self, args, result, spans[parent][0] if parent >= 0 else None)
                hook[2] = clock()
            return result

        return wrapper

    def _count_wrapper(self, target, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[target] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total`` and ``self`` seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            stats = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            stats["calls"] += 1
            stats["total"] += end - start
            stats["self"] += end - start - child[i]
        return out

    def time_under(self, name: str, parent_name: str) -> float:
        """Seconds spent in ``name`` spans whose direct caller is ``parent_name``."""
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def _transform_name(args, kwargs):
    scope = kwargs.get("scope", args[2] if len(args) > 2 else losses.SCOPE_ALL_SHALLOWER)
    return f"losses.hier_transform.{scope}"


def _forward_flops(tracer, args, result, parent_name):
    d, h, c = args[0].dims
    tracer.flops += 2.0 * len(args[1]) * (d * h + h * c)


def _backward_flops(tracer, args, result, parent_name):
    d, h, c = args[0].dims
    tracer.flops += 2.0 * len(args[1].x) * (d * h + 2 * h * c)


def _count_routing(tracer, args, result, parent_name):
    # only the batch path's routing carries gradient into the model
    if parent_name != "mlp.train":
        return
    routing = result[1]
    tracer.routed += int(np.count_nonzero(routing != np.arange(routing.shape[1])))
    tracer.routed_of += routing.size


_NAMERS = {"losses.hier_transform": _transform_name}
_HOOKS = {
    "mlp.forward": _forward_flops,
    "mlp.backward": _backward_flops,
    "losses.hier_transform": _count_routing,
}
