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

- ``hier_transform(..., out=surface)`` writes the transformed values over
  the surface it reads, which the per-scope sweeps allow.
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

The batch gradient (``curriculum.hcl_grad``) needs no transformed value,
only where each selected class's transformed element came from. Each
selected class puts one unit on the base element that realizes its max:
its own, or the smallest maximizing id of its scope. ``_hier_weights``
writes those counts over the base loss in one sweep per scope, with no
routing array: a class keeps its unit unless its base element is strictly
below the max of its scope, and a losing unit goes to the running max's id
(all-shallower) or to the nearest ancestor that is its root path's
smallest maximizer (ancestors-only). A count of ones is exact in any
order, so the weights have the bits of ``hier_transform_backward`` of the
routing that ``tests/slow_reference.py`` keeps. Nothing in the package
calls ``hier_transform_backward``; it stays as the public scatter of a
general upstream, which the benchmark's tracer (``hclbench/spans.py``)
wraps.
"""

from __future__ import annotations

import numpy as np

from .taxonomy import VIRTUAL_ROOT, Taxonomy

LOG_EPS = 1e-7  # score clamp for log losses; keeps saturated sigmoids finite

SCOPE_ALL_SHALLOWER = "all-shallower"
SCOPE_ANCESTORS_ONLY = "ancestors-only"
SCOPES = (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY)

# Rows per block in the row-local loops: the transform sweeps, the sigmoid
# and the rank counts of ``metrics``. It bounds their temporaries however
# many rows a pass has, and at C=584 a block's temporaries stay in cache: on
# a 3072-row pass, 64-row blocks ran the ancestors-only sweep about twice as
# fast as 128 or more.
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


def bce_loss(y, s, out=None) -> np.ndarray:
    """Binary cross entropy per element, scores clamped to [eps, 1-eps]:
    ``-log(sc)`` where y > 0, ``-log1p(-sc)`` elsewhere. Written into
    ``out`` when it is given (an array of the scores' shape)."""
    y, sc = _clamped_pair(y, s, out)
    pos = np.flatnonzero(y > 0)
    at_pos = np.log(np.take(sc, pos))
    np.negative(sc, out=sc)
    np.log1p(sc, out=sc)
    np.put(sc, pos, at_pos)
    return np.negative(sc, out=sc)


def bce_grad(y, s) -> np.ndarray:
    """d(bce)/d(score) per element, evaluated on the clamped score:
    ``-1 / sc`` where y > 0, ``1 / (1 - sc)`` elsewhere."""
    y, sc = _clamped_pair(y, s)
    pos = np.flatnonzero(y > 0)
    at_pos = np.divide(-1.0, np.take(sc, pos))
    np.subtract(1.0, sc, out=sc)
    np.divide(1.0, sc, out=sc)
    np.put(sc, pos, at_pos)
    return sc


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
    # d/dp [(1-p)^g * (-ln p)] = g (1-p)^(g-1) ln p - (1-p)^g / p; at g = 0
    # the first term is -0.0, so the sum has the bits of -1/p
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


def hier_transform(base, taxonomy: Taxonomy, scope: str = SCOPE_ALL_SHALLOWER, out=None):
    """Apply the level-monotone max transform to a loss surface.

    Element (i, j) of the result is the max of ``base[i, j]`` and the
    in-scope elements of row i: every class at a strictly shallower level
    (``all-shallower``), or the strict ancestors of j (``ancestors-only``).
    A NaN in scope gives NaN.

    The result is a new float64 array, or ``out`` when it is given: a
    float64 or bool array of the surface's shape, which may be ``base``
    itself. A bool surface is transformed as its 0/1 float surface would
    be, since ``np.maximum`` on bool is OR. Writing over ``base`` is safe: a
    sweep reads each column before it writes that column, and reads a
    shallower column only once it holds its transformed value.

    Both scopes sweep the level buckets in ascending order, O(C) per
    example, over ``_row_blocks`` of ``_BLOCK_ROWS`` rows so that the
    per-level temporaries stay small. ``all-shallower`` carries one running
    max per row across levels; ``ancestors-only`` takes, per level, the max
    of each class and its parent's column, which is final by then.
    """
    base = np.asarray(base, dtype=np.float64 if out is None else None)
    if out is None:
        out = np.empty_like(base)
    elif not (isinstance(out, np.ndarray) and out.dtype in (np.float64, np.bool_)
              and (out.dtype, out.shape) == (base.dtype, base.shape)):
        raise ValueError("out must be a float64 or bool array of the surface's type and shape")
    _check_surface(base, taxonomy, scope)
    sweep = _all_shallower_sweep if scope == SCOPE_ALL_SHALLOWER else _ancestors_sweep
    for rows in _row_blocks(base.shape[0], _BLOCK_ROWS):
        sweep(base[rows], taxonomy, out[rows])
    return out


def _all_shallower_sweep(base, taxonomy: Taxonomy, out):
    """One row block of the all-shallower transform, written into ``out``."""
    run_val = np.full(base.shape[0], False if base.dtype == np.bool_ else -np.inf, dtype=base.dtype)
    for ids in taxonomy.levels_index[1:]:
        sub = base[:, ids]
        lev_max = sub.max(axis=1)
        out[:, ids] = np.maximum(sub, run_val[:, None], out=sub)
        run_val = np.maximum(run_val, lev_max)


def _ancestors_sweep(base, taxonomy: Taxonomy, out):
    """One row block of the ancestors-only transform, written into ``out``."""
    roots, *deeper = taxonomy.levels_index[1:]
    out[:, roots] = base[:, roots]
    for ids in deeper:
        col = base[:, ids]
        out[:, ids] = np.maximum(col, out[:, taxonomy.parent_ids[ids]], out=col)


def _hier_weights(surface, taxonomy: Taxonomy, scope: str, selected) -> None:
    """Overwrite the base loss ``surface`` with the weight that a 0/1
    selection puts on each of its elements through the transform.

    ``selected`` is a length-C bool vector. Each selected class j puts one
    unit on the base element that realizes the transformed element (i, j):
    (i, j) itself unless ``surface[i, j]`` is strictly below the max of its
    scope (a NaN on either side keeps it there), else the smallest id among
    the scope's maximizers. Element (i, k) becomes the number of units on
    it, a count of ones, so exact in float64 whatever the order of adding.
    This is ``hier_transform_backward`` of the routing with the selection
    broadcast as its upstream, with no routing array.
    """
    _check_surface(surface, taxonomy, scope)
    sweep = _all_shallower_weights if scope == SCOPE_ALL_SHALLOWER else _ancestors_weights
    sweep(surface, taxonomy, selected)


def _all_shallower_weights(base, taxonomy: Taxonomy, selected):
    """``_hier_weights`` under all-shallower, written over ``base``.

    Level by level, a selected class keeps its unit unless it is strictly
    below the running max of the shallower levels, and each row's losing
    units go to the running max's id, whose level already holds weights.
    The running id is the smallest maximizing id: ``argmax`` picks the first
    of a level (buckets are ascending), a tie across levels keeps the
    smaller id, and NaN moves neither. A row with no finite running max yet
    loses nothing, so its id -1 only adds 0 to the last column, which leaves
    every comparison as it was. The deepest level feeds no running max."""
    run_val = np.full(len(base), -np.inf)
    run_id = np.full(len(base), -1)
    rows = np.arange(len(base))
    for ids in taxonomy.levels_index[1:]:
        sub = base[:, ids]
        lose = sub < run_val[:, None]
        lose &= selected[ids]
        base[:, ids] = lose ^ selected[ids]
        base[rows, run_id] += np.count_nonzero(lose, axis=1)
        if ids is taxonomy.levels_index[-1]:
            return
        lev_max = sub.max(axis=1)
        # the masks are exclusive, and NaN sets neither
        step = ids[np.argmax(sub, axis=1)] - run_id
        run_id += (lev_max > run_val) * step + (lev_max == run_val) * np.minimum(step, 0)
        run_val = np.maximum(run_val, lev_max)


def _ancestors_weights(base, taxonomy: Taxonomy, selected):
    """``_hier_weights`` under ancestors-only, written over ``base``.

    A base element loses exactly where its transformed value is above it,
    and a class is the smallest maximizer of its root path exactly where its
    transformed value is above its parent's (it wins; a root always wins).
    A losing unit goes to its nearest winning strict ancestor, its parent's
    smallest maximizer. So up the levels, a class keeps its own unit unless
    it loses, and keeps the units passed up to it if it wins; it passes the
    rest to its parent. Ids follow lexicographic path order, in which the
    names under one prefix are consecutive, so each parent's children are
    one run of their bucket (ValueError otherwise), and one ``reduceat`` per
    level adds up what each parent is passed."""
    levels, parent_ids = taxonomy.levels_index, taxonomy.parent_ids
    transformed = np.empty_like(base)
    _ancestors_sweep(base, taxonomy, transformed)
    lose = transformed > base  # a NaN on either side sets neither
    lose &= selected
    base[:] = lose ^ selected
    up = lose[:, levels[-1]].astype(np.float64)  # nothing is passed to the deepest level
    for below, ids in zip(levels[:1:-1], levels[-2:0:-1]):
        parents = parent_ids[below]
        runs = np.flatnonzero(np.diff(parents, prepend=VIRTUAL_ROOT))
        at = np.searchsorted(ids, parents[runs])  # where each run's parent sits in ids
        if np.bincount(at).max() > 1:
            raise ValueError("class ids do not follow lexicographic path order")
        passed = np.zeros((len(base), len(ids)))
        passed[:, at] = np.add.reduceat(up, runs, axis=1)
        kept = passed
        if ids is not levels[1]:  # a root always wins
            kept = passed * (transformed[:, ids] > transformed[:, parent_ids[ids]])
        base[:, ids] += kept
        up = passed - kept
        up += lose[:, ids]


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
    if routing.size and not 0 <= routing.min() <= routing.max() < c:
        raise ValueError(f"routing ids must lie in [0, {c})")
    # bincount adds each row's entries in order from 0.0, as np.add.at would
    flat = routing + (np.arange(n) * c)[:, None]
    return np.bincount(flat.ravel(), weights=upstream.ravel(), minlength=n * c).reshape(n, c)


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
