"""Per-element base losses and the hierarchical constraint transform.

All losses are N x C surfaces: rows are examples, columns are classes.
Labels are in {-1, +1} and scores are per-class sigmoid outputs in (0, 1).

The transform replaces each element with the max of itself and every element
of the same example at a strictly shallower level (default scope), which
forces per-example losses to be non-decreasing in depth while staying an
element-wise lower bound among all loss surfaces with that property. An
``ancestors-only`` scope restricts the max to the class's own root path.

The epoch-end selection pass reads only column sums of the transformed base
loss and a count of transformed 0-1 errors, so it has fast paths that keep
the bits of the general ones:

- ``hier_transform_in_place`` is ``hier_transform`` without the routing,
  written over its input. Both run the same per-scope sweep, which writes
  the transformed value with one shared line and computes the routing only
  when asked for it.
- ``zero_one_errors`` is the 0-1 loss as a bool surface. ``np.maximum`` on
  bool is OR, so the sweep transforms it as it does the float surface, and
  counting its True entries gives the float sum of the transformed 0/1
  float surface exactly: a sum of at most 2^53 zeros and ones has no
  rounding, whatever its order.
- ``bce_loss`` and ``bce_grad`` run no masked ufunc. They run the y <= 0
  branch over every element, then put the y > 0 branch over the
  positives, by flat C-order position (``np.flatnonzero``); the
  positives' clamped scores are gathered before any write. Hierarchical
  labels are sparse, so the second step is short. Every element gets the
  same operations on the same value as in the two-branch ``np.where``
  form, so the same bits. The output is the C-ordered clamped copy of the
  scores that each base function makes for itself (whatever the scores'
  order), or a buffer the caller passes as ``out``: ``curriculum.hcl_loss``
  passes one per pass. ``focal_loss`` writes over its copy the same way
  and keeps one more block-sized array, the factor ``(1-p_t)^gamma``.

The batch gradient (``curriculum.hcl_grad``) needs both the bce loss, which
the transform routes by, and the bce gradient. ``bce_loss_grad`` gives the
two from one clamped copy and one list of the positives, with the bits of
the two functions. The routing sweeps do their id arithmetic in the narrowest
signed integer type that holds C (``_id_dtype``; int16 at C=584), selecting
with mask arithmetic rather than ``np.where``, and write int64 routing. The
routing array stays, though the batch reads no transformed value: each base
element's weight is a count of the selected classes routed to it, one
``bincount`` over the routing, and the routing is what a traced run reads
for the share of elements routed to a shallower class.
"""

from __future__ import annotations

import numpy as np

from .taxonomy import VIRTUAL_ROOT, Taxonomy

LOG_EPS = 1e-7  # score clamp for log losses; keeps saturated sigmoids finite

SCOPE_ALL_SHALLOWER = "all-shallower"
SCOPE_ANCESTORS_ONLY = "ancestors-only"
SCOPES = (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY)

# Rows per block in the row-local loops: the transform sweeps, the backward
# scatter and the sigmoid. It bounds their temporaries however many rows a
# pass has, and at C=584 a block's temporaries stay in cache: on a 3072-row
# pass, 64-row blocks ran the ancestors-only sweep about twice as fast as
# 128 or more.
_BLOCK_ROWS = 64

# Rows per block of a pass over a whole split (``mlp.forward`` and the
# hidden layer that ``mlp.backward`` rebuilds, the curriculum's
# ``hcl_loss``).
_PASS_ROWS = 256


def _row_blocks(n: int, rows: int = _PASS_ROWS) -> list[slice]:
    """Consecutive slices of ``rows`` rows covering ``range(n)``, the
    remainder merged into the last one: with ``n < 2 * rows`` that is one
    slice of all ``n`` rows (also when n is 0), and no slice is shorter than
    ``rows`` otherwise. Every blocked loop of the package iterates these."""
    starts = range(0, max(rows, n // rows * rows), rows)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def _check_pair(y, s):
    y = np.asarray(y)
    s = np.asarray(s, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 2:
        raise ValueError(f"label/score shape mismatch: {y.shape} vs {s.shape}")
    return y, s


def check_decision_threshold(decision_threshold: float) -> None:
    if not 0.0 < decision_threshold < 1.0:
        raise ValueError(f"decision_threshold must lie in (0,1), got {decision_threshold}")


def check_gamma(gamma: float) -> None:
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == np.inf:  # (1 - p)**inf * ... gives NaN gradients
        raise ValueError(f"gamma must be finite, got {gamma}")


def zero_one_errors(y, s, decision_threshold: float) -> np.ndarray:
    """Bool 0-1 surface: True where the thresholded score disagrees with the label.

    A score exactly at the threshold (or NaN) predicts -1. A label that is
    neither positive nor negative (0 or NaN) is an error whatever the score.
    """
    check_decision_threshold(decision_threshold)
    y, s = _check_pair(y, s)
    pred = s > decision_threshold
    # a hit predicts +1 on a positive label or -1 on a negative one
    hit = pred & (y > 0)
    hit |= ~pred & (y < 0)
    return np.logical_not(hit, out=hit)


def _clamped_pair(y, s, out=None):
    """Labels and the scores clamped to [eps, 1-eps], the values every log
    loss reads, written into ``out`` (a new C-ordered array when None). The
    bce functions and ``focal_loss`` write their output over it, as their
    branch ops only ever read an element before writing it."""
    y, s = _check_pair(y, s)
    return y, np.clip(s, LOG_EPS, 1.0 - LOG_EPS, out=np.empty(s.shape) if out is None else out)


def _bce_loss_into(sc, pos, out):
    """The bce loss of the clamped scores ``sc`` into ``out`` (which may be
    ``sc``): the y <= 0 branch over every element, then the logs of the
    positives (flat C-order ids ``pos``) put over their places."""
    at_pos = np.log(np.take(sc, pos))
    np.negative(sc, out=out)
    np.log1p(out, out=out)
    np.put(out, pos, at_pos)
    return np.negative(out, out=out)


def _bce_grad_into(sc, pos, out):
    """The bce gradient of ``sc`` into ``out`` (which may be ``sc``), as
    ``_bce_loss_into`` does: the positives are read before any write."""
    at_pos = np.divide(-1.0, np.take(sc, pos))
    np.subtract(1.0, sc, out=out)
    np.divide(1.0, out, out=out)
    np.put(out, pos, at_pos)
    return out


def bce_loss(y, s, out=None) -> np.ndarray:
    """Binary cross entropy per element, scores clamped to [eps, 1-eps]:
    ``-log(sc)`` where y > 0, ``-log1p(-sc)`` elsewhere. Written into
    ``out`` when it is given (an array of the scores' shape)."""
    y, sc = _clamped_pair(y, s, out)
    return _bce_loss_into(sc, np.flatnonzero(y > 0), out=sc)


def bce_grad(y, s) -> np.ndarray:
    """d(bce)/d(score) per element, evaluated on the clamped score:
    ``-1 / sc`` where y > 0, ``1 / (1 - sc)`` elsewhere."""
    y, sc = _clamped_pair(y, s)
    return _bce_grad_into(sc, np.flatnonzero(y > 0), out=sc)


def bce_loss_grad(y, s) -> tuple[np.ndarray, np.ndarray]:
    """``(bce_loss(y, s), bce_grad(y, s))``, bit for bit, from one clamped
    copy of the scores and one list of the positives: the loss goes into a
    new array, then the gradient over the clamped copy."""
    y, sc = _clamped_pair(y, s)
    pos = np.flatnonzero(y > 0)
    loss = _bce_loss_into(sc, pos, out=np.empty_like(sc))
    return loss, _bce_grad_into(sc, pos, out=sc)


def focal_loss(y, s, gamma: float, out=None) -> np.ndarray:
    """Focal surface (1-p_t)^gamma * (-ln p_t), p_t the true-class score,
    written into ``out`` when it is given (an array of the scores' shape).

    gamma=0 reduces exactly to bce_loss.
    """
    check_gamma(gamma)
    y, pt = _clamped_pair(y, s, out)
    np.subtract(1.0, pt, out=pt, where=~(y > 0))
    factor = 1.0 - pt
    factor **= gamma
    np.log(pt, out=pt)
    np.negative(pt, out=pt)
    return np.multiply(factor, pt, out=pt)


def focal_grad(y, s, gamma: float) -> np.ndarray:
    """d(focal)/d(score) per element."""
    check_gamma(gamma)
    y, sc = _clamped_pair(y, s)
    pt = np.where(y > 0, sc, 1.0 - sc)
    # d/dp [(1-p)^g * (-ln p)] = g (1-p)^(g-1) ln p - (1-p)^g / p
    if gamma == 0.0:
        dpt = -1.0 / pt
    else:
        dpt = gamma * (1.0 - pt) ** (gamma - 1.0) * np.log(pt) - (1.0 - pt) ** gamma / pt
    return np.where(y > 0, dpt, -dpt)


def _check_surface(base, taxonomy: Taxonomy, scope: str) -> None:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}, expected one of {SCOPES}")
    if base.ndim != 2 or base.shape[1] != taxonomy.n_classes:
        raise ValueError(
            f"loss surface has {base.shape[-1] if base.ndim else 0} columns, "
            f"taxonomy has {taxonomy.n_classes} classes"
        )


def _sweep(base, taxonomy: Taxonomy, scope: str, out, routing=None) -> None:
    """Run the scope's sweep over ``_row_blocks`` of ``_BLOCK_ROWS`` rows."""
    sweep = _all_shallower_sweep if scope == SCOPE_ALL_SHALLOWER else _ancestors_sweep
    for rows in _row_blocks(base.shape[0], _BLOCK_ROWS):
        sweep(base[rows], taxonomy, out[rows], None if routing is None else routing[rows])


def hier_transform(base, taxonomy: Taxonomy, scope: str = SCOPE_ALL_SHALLOWER):
    """Apply the level-monotone max transform to a loss surface.

    Returns ``(transformed, routing)``. Element (i, j) of ``transformed`` is
    the max of ``base[i, j]`` and the in-scope elements of row i: every class
    at a strictly shallower level (``all-shallower``), or the strict
    ancestors of j (``ancestors-only``). ``routing[i, j]`` is the class id
    whose base element realized that max. Ties go to j itself, then to the
    smallest class id among maximizers. An element whose transformed value
    is NaN routes to j itself, so routing always holds ids in [0, C).

    Both scopes sweep the level buckets in ascending order, O(C) per
    example, over ``_row_blocks`` of ``_BLOCK_ROWS`` rows so that the
    per-level temporaries stay small. ``all-shallower`` carries one running
    max (and its id) per row across levels. ``ancestors-only`` gathers, per
    level, each class's parent column of the running max and of its
    smallest maximizing id: parents sit one level up, so both are final by
    then, and the running max of a class's chain is its transformed value.
    """
    base = np.asarray(base, dtype=np.float64)
    _check_surface(base, taxonomy, scope)
    out = np.empty_like(base)
    routing = np.empty(base.shape, dtype=np.int64)
    _sweep(base, taxonomy, scope, out, routing)
    return out, routing


def hier_transform_in_place(surface, taxonomy: Taxonomy, scope: str) -> None:
    """Overwrite ``surface`` with ``hier_transform(surface, taxonomy,
    scope)[0]``, bit for bit, without computing the routing.

    ``surface`` is a float64 or a bool array; a bool surface is transformed
    as its 0/1 float surface would be, since ``np.maximum`` on bool is OR.
    Writing in place is safe: a sweep reads each column before it writes
    that column, and reads a shallower column only once it holds its
    transformed value.
    """
    if not isinstance(surface, np.ndarray) or surface.dtype not in (np.float64, np.bool_):
        raise ValueError("the surface must be a float64 or bool array to transform in place")
    _check_surface(surface, taxonomy, scope)
    _sweep(surface, taxonomy, scope, surface)


_ID_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _id_dtype(n_classes: int):
    """The narrowest signed integer type that holds ``n_classes`` and its
    negation: every class id, the -1 of no id yet and every difference the
    routing sweeps form."""
    return next(t for t in _ID_TYPES if n_classes <= np.iinfo(t).max)


def _all_shallower_sweep(base, taxonomy: Taxonomy, out, routing=None):
    """One row block of the all-shallower transform, written into the
    ``out`` view, and into ``routing`` unless it is None."""
    n = base.shape[0]
    run_val = np.full(n, False if base.dtype == np.bool_ else -np.inf, dtype=base.dtype)
    if routing is not None:
        id_type = _id_dtype(taxonomy.n_classes)
        run_id = np.full(n, -1, dtype=id_type)
    for ids in taxonomy.levels_index[1:]:
        sub = base[:, ids]
        lev_max = sub.max(axis=1)
        if routing is not None:
            ids = ids.astype(id_type)
            # j wins unless strictly below: a NaN on either side routes to j
            routing[:, ids] = ids - (sub < run_val[:, None]) * (ids - run_id[:, None])
            # fold this level into the running shallower max; argmax picks the
            # first (= smallest id, buckets are ascending) and cross-level ties
            # keep the smaller id. The masks are exclusive, and NaN sets neither.
            step = ids[np.argmax(sub, axis=1)] - run_id
            run_id += (lev_max > run_val) * step + (lev_max == run_val) * np.minimum(step, 0)
        out[:, ids] = np.maximum(sub, run_val[:, None], out=sub)
        run_val = np.maximum(run_val, lev_max)


def _ancestors_sweep(base, taxonomy: Taxonomy, out, routing=None):
    """One row block of the ancestors-only transform, written into the
    ``out`` view, and into ``routing`` unless it is None."""
    roots, *deeper = taxonomy.levels_index[1:]
    out[:, roots] = base[:, roots]
    if routing is not None:
        # smallest id among the maximizers of each class's root-path chain
        id_type = _id_dtype(taxonomy.n_classes)
        chain_min = np.empty(base.shape, dtype=id_type)
        routing[:, roots] = roots
        chain_min[:, roots] = roots
    for ids in deeper:
        parents = taxonomy.parent_ids[ids]
        col = base[:, ids]
        anc_val = out[:, parents]
        if routing is not None:
            ids = ids.astype(id_type)
            # ids follow path order, so every ancestor id is below ids: a tie
            # keeps the parent's chain_min as the chain's smallest maximizer.
            # Selecting with mask * step is exact and faster than np.where.
            step = chain_min[:, parents]
            np.subtract(ids, step, out=step)
            # j wins unless strictly below: a NaN on either side routes to j
            routing[:, ids] = ids - (col < anc_val) * step
            chain_min[:, ids] = ids - ~(col > anc_val) * step
        out[:, ids] = np.maximum(col, anc_val, out=col)


def hier_transform_backward(routing, upstream) -> np.ndarray:
    """Scatter upstream gradient of each transformed element to its argmax.

    out[i, k] = sum over j of upstream[i, j] where routing[i, j] == k, added
    in ascending j from 0.0. Routing ids outside [0, C) raise ValueError.
    """
    routing = np.asarray(routing)
    upstream = np.asarray(upstream, dtype=np.float64)
    if routing.shape != upstream.shape or routing.ndim != 2:
        raise ValueError(f"routing/upstream shape mismatch: {routing.shape} vs {upstream.shape}")
    n, c = routing.shape
    out = np.empty((n, c))
    for rows in _row_blocks(n, _BLOCK_ROWS):
        block = routing[rows]
        if not block.size:  # no rows or no classes: nothing to check or scatter
            continue
        lo, hi = int(block.min()), int(block.max())
        if lo < 0 or hi >= c:
            raise ValueError(f"routing ids must lie in [0, {c}), found {lo if lo < 0 else hi}")
        m = len(block)
        # bincount adds each row's entries in order from 0.0, as np.add.at would
        flat = block + (np.arange(m) * c)[:, None]
        out[rows] = np.bincount(
            flat.ravel(), weights=upstream[rows].ravel(), minlength=m * c
        ).reshape(m, c)
    return out


def check_label_matrix(y, taxonomy: Taxonomy) -> np.ndarray:
    """Validate a {-1,+1} label matrix: ancestor-closed, >=1 positive per row.

    The entries take two N x C passes, one per sign, into one bool mask.
    Everything else runs through the positions of the positives: the rows
    that hold one, and closure, each positive's parent read in the
    positive's own row, so its cost follows the positives, not N x C. A
    failure names the orphaned class of smallest id. Returns ``y`` itself
    (after ``np.asarray``)."""
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1] != taxonomy.n_classes:
        raise ValueError(f"label matrix shape {y.shape} does not match C={taxonomy.n_classes}")
    pos = y == 1
    r, c = np.divmod(np.flatnonzero(pos), y.shape[1])
    # +1 and -1 are disjoint, so their counts fill the matrix only when
    # every entry is one of them; the -1 pass writes over the +1 mask
    if len(r) + np.count_nonzero(np.equal(y, -1, out=pos)) != y.size:
        raise ValueError("label matrix entries must be -1 or +1")
    has_pos = np.zeros(len(y), dtype=bool)
    has_pos[r] = True
    if not has_pos.all():
        bad = int(np.flatnonzero(~has_pos)[0])
        raise ValueError(f"example {bad} has no positive class")
    # each positive's parent, read in the positive's own row (a top-level
    # class's VIRTUAL_ROOT reads the last column, which the mask discards)
    parent = taxonomy.parent_ids[c]
    orphaned = c[(parent != VIRTUAL_ROOT) & (y[r, parent] != 1)]
    if len(orphaned):
        c = int(orphaned.min())
        raise ValueError(
            f"label matrix is not ancestor-closed: class "
            f"{taxonomy.class_names[c]!r} positive without its parent"
        )
    return y
