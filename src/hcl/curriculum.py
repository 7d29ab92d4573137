"""Class-based curriculum selection over hierarchy-constrained losses.

The curriculum objective for a binary class-selection vector s is

    max( sum_j s_j * L[j],  C - sum_j s_j + e_total )

where L[j] aggregates the transformed base loss of class j over all examples
and e_total is the total transformed 0-1 loss. Minimizing over s admits a
prefix-optimal solution in the classes sorted by ascending L, which
``select_classes`` computes in O(C log C); ``brute_force_select`` is the
exhaustive 2^C oracle used to certify it.

A training loss is a ``LossSpec``: a base loss (bce or focal), the
hierarchy transform on or off, the curriculum on or off, and the settings
they read (the transform's scope, the focal gamma, the 0-1 decision
threshold, the selection rule and its threshold), each checked when the
spec is made. The loss modes are named presets of it (``LOSS_PRESETS``).
``hcl_loss`` runs a spec's epoch-end pass, which yields the selection
vector, and ``hcl_grad`` the gradient of a batch under a fixed selection;
neither takes a setting the spec does not carry.

The epoch-end pass computes only what selection reads: the column sums L
of the (transformed) base loss and, with the curriculum, the scalar
e_total. It sweeps row blocks of ``losses._row_blocks`` (256 rows, the
remainder merged into the last) for every spec, so no N x C surface is ever
live. The scores come as the N x C array or as an iterator of those row
blocks (``mlp.train`` scores the train split block by block, so no N x C
scores are live either); each block is folded into the sums before the next
is drawn. Per block: the base loss, written into one block-sized buffer
made once per pass (the last block is the longest), the transform in place
without routing (``losses.hier_transform_in_place``), the column sums, and
a count of the (transformed, in place) bool 0-1 surface of
``losses.zero_one_errors`` rather than a sum of a float one. numpy sums a
C-contiguous surface of several columns over axis 0 row by row, in order;
adding the running sums into a block's first row before summing the block
continues that order, so L has the bits of the whole surface's column sums.
Everything else reads one row at a time, so the pass gives the same bits as
``hier_transform`` followed by column sums over the whole surface (L is
``lh.sum(axis=0)`` and e_total is ``float(eh.sum())`` of the two
transformed surfaces), the reference that ``verify`` uses: a count of at
most 2^53 errors converts to the float sum of zeros and ones exactly. A
spec without the curriculum skips the 0-1 count and logs the sum of L.

The batch path, ``hcl_grad``, calls the spec's base loss, which the
transform routes by, and its gradient; each clamps the raw scores itself.
The selection holds only 0.0 and 1.0, checked on entry, so the weight
routed to base element (i, k) is the number of selected j with
``routing[i, j] == k``: one ``bincount`` over the selected columns of the
routing, gathered with ``compress``, which keeps them C-ordered where a
mask index would not. A sum of ones is exact in any order, so it has the
bits of ``losses.hier_transform_backward`` of the broadcast selection. The
batch still takes that routing from ``losses.hier_transform``.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def curriculum_objective(s, agg: ClassLossAggregate) -> float:
    """Evaluate the selection objective for a fixed binary vector s; C is
    ``len(agg.L)``."""
    s = np.asarray(s, dtype=np.float64)
    n_classes = len(agg.L)
    if s.shape != (n_classes,):
        raise ValueError(f"selection length {s.shape} does not match C={n_classes}")
    return float(max(s @ agg.L, n_classes - s.sum() + agg.e_h_total))


def brute_force_select(agg: ClassLossAggregate):
    """Exhaustive minimizer of the objective over all 2^C selections.

    Ties prefer more selected classes, then the lexicographically smallest
    vector. Only valid for C <= 20; enumeration runs in 64k-mask blocks to
    bound memory.
    """
    n_classes = len(agg.L)
    if n_classes > 20:
        raise ValueError(f"brute force enumeration limited to C <= 20, got {n_classes}")
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


def check_selection_rule(rule: str, thresh: float | None) -> None:
    """Reject an unknown rule, fixed-threshold without a threshold, a
    non-finite threshold (NaN and +inf would select every class, -inf none),
    and a threshold given to the optimal-prefix rule, which reads none."""
    if rule not in (RULE_OPTIMAL_PREFIX, RULE_FIXED_THRESHOLD):
        raise ValueError(f"unknown selection rule {rule!r}")
    if rule == RULE_FIXED_THRESHOLD and thresh is None:
        raise ValueError(
            "fixed-threshold rule needs an explicit thresh; pass thresh= "
            "or use the optimal-prefix rule"
        )
    if thresh is not None and not np.isfinite(thresh):
        raise ValueError(f"selection thresh must be finite, got {thresh}")
    if rule == RULE_OPTIMAL_PREFIX and thresh is not None:
        raise ValueError(f"selection thresh {thresh} is read only by the fixed-threshold rule")


def select_classes(agg: ClassLossAggregate, rule: str, thresh: float | None) -> np.ndarray:
    """Pick the curriculum selection vector.

    optimal-prefix (``LossSpec``'s default): classes sorted ascending by L
    (ties by id); the prefix length K minimizing max(prefixSum(K), C - K +
    e_total) is selected, largest K on ties. It takes no thresh.

    fixed-threshold: simpler fixed-cutoff rule; finds the smallest K with
    prefixSum(K) > thresh + 1 - K and selects sorted ranks strictly below K
    (all classes if no K qualifies). Requires an explicit thresh.
    """
    check_selection_rule(rule, thresh)
    L = np.asarray(agg.L, dtype=np.float64)
    n_classes = len(L)
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
    # fixed-threshold
    # trips[K - 1]: prefixSum(K) > thresh + 1 - K; the ranks below the first K are selected
    trips = np.cumsum(L[order]) > thresh + 1 - np.arange(1, n_classes + 1)
    k_cross = np.argmax(trips) if trips.any() else n_classes
    s[order[:k_cross]] = 1.0
    return s


BASE_LOSSES = ("bce", "focal")


@dataclass(frozen=True)
class LossSpec:
    """A training loss: the base loss, whether the level-max transform is
    applied and whether the curriculum selects the trained classes, plus the
    settings they read. ``scope`` is the transform's scope, ``gamma`` the
    focal exponent, ``decision_threshold`` the score above which the 0-1
    loss predicts +1, and ``rule`` and ``thresh`` the selection rule and its
    threshold (see ``select_classes``). Every value is checked here."""

    base: str = "bce"
    transform: bool = True
    curriculum: bool = True
    scope: str = losses.SCOPE_ALL_SHALLOWER
    gamma: float = 2.0
    decision_threshold: float = 0.5
    rule: str = RULE_OPTIMAL_PREFIX
    thresh: float | None = None

    def __post_init__(self):
        if self.base not in BASE_LOSSES:
            raise ValueError(f"unknown base loss {self.base!r}, expected one of {BASE_LOSSES}")
        if self.scope not in losses.SCOPES:
            raise ValueError(f"unknown transform_scope {self.scope!r}")
        losses.check_decision_threshold(self.decision_threshold)
        losses.check_gamma(self.gamma)
        check_selection_rule(self.rule, self.thresh)


# The loss modes that training and the CLI accept, each a preset spec.
LOSS_PRESETS = {
    "ce": LossSpec("bce", transform=False, curriculum=False),
    "focal": LossSpec("focal", transform=False, curriculum=False),
    "hcl-hier": LossSpec("bce", transform=True, curriculum=False),
    "hcl-cl": LossSpec("bce", transform=False, curriculum=True),
    "hcl": LossSpec("bce", transform=True, curriculum=True),
}
LOSS_MODES = tuple(LOSS_PRESETS)


def _base_fns(spec: LossSpec):
    """The spec's base loss surface and its gradient, looked up through
    ``losses`` at call time."""
    if spec.base == "focal":
        return (partial(losses.focal_loss, gamma=spec.gamma),
                partial(losses.focal_grad, gamma=spec.gamma))
    return losses.bce_loss, losses.bce_grad


def hcl_loss(y, scores, taxonomy: Taxonomy, spec: LossSpec = LossSpec()):
    """Full pass of a loss spec: base loss -> transform -> selection -> objective.

    Returns ``(value, s)``. With the curriculum, ``s`` is the selection
    vector minimizing the objective over the base loss and the 0-1 loss
    (both transformed when the spec has the transform), and ``value`` is
    that objective. Without it, ``s`` is all ones and ``value`` is the
    total (transformed) base loss, the sum of its per-class sums. ``value``
    sums over all N x C elements; ``hcl_grad`` gives the gradient of the
    loss that ``s`` weights.

    ``scores`` is the N x C array, or an iterator that yields its
    ``losses._row_blocks`` blocks in order; a block is read before the next
    is drawn, so the iterator may overwrite one buffer. Too few or too many
    blocks, or a block of the wrong shape, raise ValueError. Both forms give
    the same bits. Each block's base loss goes into one buffer, sized by the
    longest (last) block and made once per call.
    """
    loss_fn, _ = _base_fns(spec)
    y = np.asarray(y)
    blocks = losses._row_blocks(len(y))
    if not isinstance(scores, Iterator):
        y, whole = losses._check_pair(y, scores)
        scores = (whole[rows] for rows in blocks)
    # one buffer for every block's base loss; the last block is the longest
    buf = np.empty((blocks[-1].stop - blocks[-1].start, y.shape[-1]))
    L, e_total = None, 0
    for rows, block in zip(blocks, scores, strict=True):
        surface = loss_fn(y[rows], block, out=buf[:rows.stop - rows.start])
        if spec.transform:
            losses.hier_transform_in_place(surface, taxonomy, spec.scope)
        if L is None:
            L = surface.sum(axis=0)
        else:  # carry the running sums in as the block's first row
            surface[0] += L
            surface.sum(axis=0, out=L)
        if spec.curriculum:
            errors = losses.zero_one_errors(y[rows], block, spec.decision_threshold)
            if spec.transform:
                losses.hier_transform_in_place(errors, taxonomy, spec.scope)
            e_total += np.count_nonzero(errors)
    if not spec.curriculum:
        return float(L.sum()), np.ones(taxonomy.n_classes)
    agg = ClassLossAggregate(L=L, e_h_total=float(e_total))
    s = select_classes(agg, rule=spec.rule, thresh=spec.thresh)
    return curriculum_objective(s, agg), s


def hcl_grad(y, scores, s, taxonomy: Taxonomy, spec: LossSpec = LossSpec()):
    """Per-element gradient w.r.t. the scores of ``sum_ij s_j * surface[i, j]``,
    the surface being the spec's (transformed) base loss and ``s`` frozen, a
    length-C vector of 0.0 and 1.0 (ValueError otherwise).

    With the transform, each element's weight ``s_j`` is routed to the base
    element that realized its max (a count, see the module docstring);
    without it, column j is scaled by ``s_j``.
    """
    s = np.asarray(s, dtype=np.float64)
    c = taxonomy.n_classes
    if s.shape != (c,) or not ((s == 0.0) | (s == 1.0)).all():
        raise ValueError(f"selection must be a length-{c} vector of 0.0 and 1.0")
    loss_fn, grad_fn = _base_fns(spec)
    if not spec.transform:
        grad = grad_fn(y, scores)
        grad *= s
        return grad
    _, routing = losses.hier_transform(loss_fn(y, scores), taxonomy, scope=spec.scope)
    grad = grad_fn(y, scores)
    n = len(routing)
    flat = routing.compress(s == 1.0, axis=1)  # C-ordered, unlike routing[:, s == 1.0]
    flat += (np.arange(n) * c)[:, None]
    grad *= np.bincount(flat.ravel(), minlength=n * c).reshape(n, c)
    return grad
