"""Class-based curriculum selection over hierarchy-constrained losses.

The curriculum objective for a binary class-selection vector s is

    max( sum_j s_j * L[j],  C - sum_j s_j + e_total )

where L[j] aggregates the transformed base loss of class j over all examples
and e_total is the total transformed 0-1 loss. Minimizing over s admits a
prefix-optimal solution in the classes sorted by ascending L, which
``select_classes`` computes in O(C log C); ``brute_force_select`` is the
exhaustive 2^C oracle used to certify it.

A training loss is a ``LossSpec``: a base loss (bce or focal), the
hierarchy transform on or off, and the curriculum on or off. The loss modes
are named presets of it (``LOSS_PRESETS``). ``hcl_loss`` runs a spec's
epoch-end pass, which yields the selection vector, and ``hcl_grad`` the
gradient of a batch under a fixed selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import losses
from .taxonomy import Taxonomy

RULE_OPTIMAL_PREFIX = "optimal-prefix"
RULE_FIXED_THRESHOLD = "fixed-threshold"


@dataclass
class ClassLossAggregate:
    """Column sums of a transformed loss surface plus the total 0-1 mass."""

    L: np.ndarray  # length C, per-class aggregated transformed base loss
    e_h_total: float  # total transformed 0-1 loss
    n_examples: int

    @property
    def n_classes(self) -> int:
        return len(self.L)


def aggregate_class_losses(lh, e_h) -> ClassLossAggregate:
    """Aggregate per-class sums of lh and the grand total of e_h."""
    lh = np.asarray(lh, dtype=np.float64)
    e_h = np.asarray(e_h, dtype=np.float64)
    if lh.shape != e_h.shape or lh.ndim != 2:
        raise ValueError(f"surface shape mismatch: {lh.shape} vs {e_h.shape}")
    return ClassLossAggregate(
        L=lh.sum(axis=0), e_h_total=float(e_h.sum()), n_examples=lh.shape[0]
    )


def curriculum_objective(s, agg: ClassLossAggregate, n_classes: int) -> float:
    """Evaluate the selection objective for a fixed binary vector s."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (n_classes,) or len(agg.L) != n_classes:
        raise ValueError(f"selection length {s.shape} does not match C={n_classes}")
    return float(max(s @ agg.L, n_classes - s.sum() + agg.e_h_total))


def brute_force_select(agg: ClassLossAggregate, n_classes: int):
    """Exhaustive minimizer of the objective over all 2^C selections.

    Ties prefer more selected classes, then the lexicographically smallest
    vector. Only valid for C <= 20; enumeration runs in 64k-mask blocks to
    bound memory.
    """
    if n_classes > 20:
        raise ValueError(f"brute force enumeration limited to C <= 20, got {n_classes}")
    if len(agg.L) != n_classes:
        raise ValueError("aggregate length does not match C")
    bits = np.arange(n_classes, dtype=np.uint32)
    best_key, best_s = None, None
    total = 1 << n_classes
    for lo in range(0, total, 1 << 16):
        masks = np.arange(lo, min(lo + (1 << 16), total), dtype=np.uint32)
        sel = ((masks[:, None] >> bits) & 1).astype(np.float64)
        counts = sel.sum(axis=1)
        obj = np.maximum(sel @ agg.L, n_classes - counts + agg.e_h_total)
        cand = np.flatnonzero(obj == obj.min())
        cand = cand[counts[cand] == counts[cand].max()]
        if len(cand) > 1:
            rows = sel[cand]
            cand = cand[np.lexsort(tuple(rows[:, i] for i in reversed(range(n_classes))))[:1]]
        i = int(cand[0])
        key = (float(obj[i]), -int(counts[i]), tuple(sel[i]))
        if best_key is None or key < best_key:
            best_key, best_s = key, sel[i].copy()
    return best_s, best_key[0]


def select_classes(
    agg: ClassLossAggregate,
    n_classes: int,
    rule: str = RULE_OPTIMAL_PREFIX,
    thresh: float | None = None,
) -> np.ndarray:
    """Pick the curriculum selection vector.

    optimal-prefix (default): classes sorted ascending by L (ties by id);
    the prefix length K minimizing max(prefixSum(K), C - K + e_total) is
    selected, largest K on ties.

    fixed-threshold: simpler fixed-cutoff rule; finds the smallest K with
    prefixSum(K) > thresh + 1 - K and selects sorted ranks strictly below K
    (all classes if no K qualifies). Requires an explicit thresh.
    """
    if len(agg.L) != n_classes:
        raise ValueError("aggregate length does not match C")
    L = np.asarray(agg.L, dtype=np.float64)
    e_total = agg.e_h_total
    order = np.argsort(L, kind="stable")
    s = np.zeros(n_classes, dtype=np.float64)

    if rule == RULE_OPTIMAL_PREFIX:
        psum = np.concatenate(([0.0], np.cumsum(L[order])))
        k_range = np.arange(n_classes + 1)
        obj = np.maximum(psum, n_classes - k_range + e_total)
        k_best = n_classes - int(np.argmin(obj[::-1]))  # largest minimizer
        s[order[:k_best]] = 1.0
        return s
    if rule == RULE_FIXED_THRESHOLD:
        if thresh is None:
            raise ValueError(
                "fixed-threshold rule needs an explicit thresh; pass thresh= "
                "or use the optimal-prefix rule"
            )
        psum = np.cumsum(L[order])
        k_cross = None
        for k in range(1, n_classes + 1):
            if psum[k - 1] > thresh + 1 - k:
                k_cross = k
                break
        if k_cross is None:
            k_cross = n_classes + 1  # condition never trips: keep everything
        s[order[: k_cross - 1]] = 1.0
        return s
    raise ValueError(f"unknown selection rule {rule!r}")


BASE_LOSSES = ("bce", "focal")


@dataclass(frozen=True)
class LossSpec:
    """A training loss as three switches: the base loss, whether the
    level-max transform is applied, and whether the curriculum selects the
    trained classes."""

    base: str = "bce"
    transform: bool = True
    curriculum: bool = True

    def __post_init__(self):
        if self.base not in BASE_LOSSES:
            raise ValueError(f"unknown base loss {self.base!r}, expected one of {BASE_LOSSES}")


# The loss modes that training and the CLI accept, each a preset spec.
LOSS_PRESETS = {
    "ce": LossSpec("bce", transform=False, curriculum=False),
    "focal": LossSpec("focal", transform=False, curriculum=False),
    "hcl-hier": LossSpec("bce", transform=True, curriculum=False),
    "hcl-cl": LossSpec("bce", transform=False, curriculum=True),
    "hcl": LossSpec("bce", transform=True, curriculum=True),
}
LOSS_MODES = tuple(LOSS_PRESETS)


def _base_fns(spec: LossSpec, gamma: float):
    """The spec's base loss surface and its gradient, looked up through
    ``losses`` at call time."""
    if spec.base == "focal":
        return (partial(losses.focal_loss, gamma=gamma),
                partial(losses.focal_grad, gamma=gamma))
    return losses.bce_loss, losses.bce_grad


def hcl_loss(
    y,
    scores,
    taxonomy: Taxonomy,
    spec: LossSpec = LOSS_PRESETS["hcl"],
    gamma: float = 2.0,
    scope: str = losses.SCOPE_ALL_SHALLOWER,
    decision_threshold: float = 0.5,
    rule: str = RULE_OPTIMAL_PREFIX,
    thresh: float | None = None,
):
    """Full pass of a loss spec: base loss -> transform -> selection -> objective.

    Returns ``(value, s)``. With the curriculum, ``s`` is the selection
    vector minimizing the objective over the base loss and the 0-1 loss
    (both transformed when the spec has the transform), and ``value`` is
    that objective. Without it, ``s`` is all ones and ``value`` is the
    total (transformed) base loss. ``value`` sums over all N x C elements;
    ``hcl_grad`` gives the gradient of the loss that ``s`` weights.
    """
    loss_fn, _ = _base_fns(spec, gamma)
    surface = loss_fn(y, scores)
    if spec.transform:
        surface, _ = losses.hier_transform(surface, taxonomy, scope=scope)
    if not spec.curriculum:
        return float(surface.sum()), np.ones(taxonomy.n_classes)
    e01 = losses.zero_one_loss(y, scores, decision_threshold=decision_threshold)
    if spec.transform:
        e01, _ = losses.hier_transform(e01, taxonomy, scope=scope)
    agg = aggregate_class_losses(surface, e01)
    s = select_classes(agg, taxonomy.n_classes, rule=rule, thresh=thresh)
    return curriculum_objective(s, agg, taxonomy.n_classes), s


def hcl_grad(
    y,
    scores,
    s,
    taxonomy: Taxonomy,
    spec: LossSpec = LOSS_PRESETS["hcl"],
    gamma: float = 2.0,
    scope: str = losses.SCOPE_ALL_SHALLOWER,
):
    """Per-element gradient w.r.t. the scores of ``sum_ij s_j * surface[i, j]``,
    the surface being the spec's (transformed) base loss and ``s`` frozen.

    With the transform, each element's weight ``s_j`` is routed to the base
    element that realized its max; without it, column j is scaled by ``s_j``.
    """
    s = np.asarray(s, dtype=np.float64)
    loss_fn, grad_fn = _base_fns(spec, gamma)
    base_grad = grad_fn(y, scores)
    if not spec.transform:
        return s[None, :] * base_grad
    _, routing = losses.hier_transform(loss_fn(y, scores), taxonomy, scope=scope)
    weights = losses.hier_transform_backward(routing, np.broadcast_to(s, routing.shape))
    return weights * base_grad
