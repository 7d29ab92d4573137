"""Ranking-based evaluation: Hit@1, mean reciprocal rank, hierarchy distance.

All three depend only on the per-example ordering of class scores; the
hierarchy distance additionally consults the taxonomy. A top-1 prediction
that is itself a positive label scores distance 0; otherwise the distance is
the minimum, over positive classes, of the height of their lowest common
ancestor with the prediction. The virtual root is never a ranked candidate.

That minimum is read off the prediction's root path (a row of
``Taxonomy.path_ids``). The LCA of any class with the prediction lies on that
path, and the LCA of a positive is an ancestor of it, so it is positive too,
the label matrix being ancestor-closed. Conversely, each positive on the path
is its own LCA with the prediction. The candidates are thus the positives on
the path, which form a prefix of it; heights fall strictly down a path, so
the deepest of them has the minimum height. With no positive on the path
every LCA is the virtual root, whose height is the tree's ``max_level``.

Classes rank by descending score, ties to the lower class id, NaN last, and
-0.0 ties with 0.0: the order in which a stable ascending ordering of the
negated scores lists the columns. The metrics read two facts of that order,
and neither needs the row put in order. The top class is the first column
at the row's largest non-NaN score (column 0 when the row is all NaN). The
order is strict and total, so a column's 1-based position in the ordered
row is one plus the number of columns ahead of it: those that score
higher, or the same with a lower id; behind a NaN, every non-NaN column and
every NaN of lower id. The rank of the first positive is that count for the
best-ranked positive, the first column in the same order among the
positives alone.

The cost follows the misses, not the N x C matrix. The first positive has
rank 1 exactly when it is the top class, so a row is a hit exactly when its
top class is positive; a hit has reciprocal rank 1 and distance 0 with
nothing more to compute. Only the rows that miss (and have a positive
candidate) find their first positive and count the columns ahead of it,
and only they read a root path. They go in row blocks, so no temporary
holds all the misses' rows: a block's first positives come from the
positions and scores of its positives, and the columns ahead of one are
the higher scores plus the equal ones of lower id, the latter counted from
their positions, as a row rarely ties more than itself. The top class
itself is one ``np.argmax`` per row. ``np.argmax`` stops at a row's first
NaN, so a NaN at the argmax marks exactly the rows that hold one, and only
those take the NaN-skipping form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import _BLOCK_ROWS, _row_blocks, check_label_matrix
from .taxonomy import VIRTUAL_ROOT, Taxonomy


@dataclass
class EvalReport:
    hit_at_1: float
    mrr: float
    hier_dist: float
    n_examples: int = 0

    def to_json_dict(self) -> dict:
        """Percentage-scaled hit/MRR and raw-mean distance, two decimals."""
        return {
            "hit1": round(100.0 * self.hit_at_1, 2),
            "mrr": round(100.0 * self.mrr, 2),
            "hierdist": round(self.hier_dist, 2),
        }


def _first_in_rank(scores, allowed=None) -> np.ndarray:
    """Each row's first column in rank order among the ``allowed`` ones
    (all columns when None); a row whose allowed scores are all NaN gives
    its first allowed column."""
    if allowed is None:
        first = np.argmax(scores, axis=1)
        nan = np.flatnonzero(np.isnan(scores[np.arange(len(scores)), first]))
        if len(nan):
            first[nan] = _first_in_rank(scores[nan], ~np.isnan(scores[nan]))
        return first
    s = np.where(allowed, scores, np.nan)
    top = np.fmax.reduce(s, axis=1)
    first = np.argmax(s == top[:, None], axis=1)
    return np.where(np.isnan(top), np.argmax(allowed, axis=1), first)


def _rank_of(scores, col) -> np.ndarray:
    """1-based rank of column ``col[i]`` in row i: one plus the number of
    columns ahead of it."""
    n = len(scores)
    own = scores[np.arange(n), col][:, None]
    mask = np.greater(scores, own)
    ahead = np.count_nonzero(mask, axis=1)
    # equal scores ahead only with a lower id; a row ties itself and rarely
    # more, so they are counted from their positions
    r, j = np.divmod(np.flatnonzero(np.equal(scores, own, out=mask)), scores.shape[1])
    ahead += np.bincount(r[j < col[r]], minlength=n)
    nan = np.flatnonzero(np.isnan(own[:, 0]))
    if len(nan):  # both masks are empty on these rows
        lower = np.arange(scores.shape[1]) < col[nan, None]
        ahead[nan] = np.count_nonzero(~np.isnan(scores[nan]) | lower, axis=1)
    return 1 + ahead


def _miss_ranks(y, scores, miss) -> np.ndarray:
    """1-based rank of the first positive of each row in ``miss``, 0 for a
    row with no positive, in row blocks of ``losses._BLOCK_ROWS``."""
    first = np.zeros(len(miss), dtype=np.int64)
    for block in _row_blocks(len(miss), _BLOCK_ROWS):
        m = miss[block]
        r, c = np.divmod(np.flatnonzero(y[m] == 1), y.shape[1])
        if not len(r):
            continue
        # the first positive in rank order: each row's largest non-NaN
        # score, the lowest id on ties (-0.0 ties with 0.0), and its first
        # positive when all are NaN. r ascends, and c within a row.
        v = scores[m[r], c]
        new_row = np.r_[True, r[1:] != r[:-1]]
        group = np.cumsum(new_row) - 1
        top = np.fmax.reduceat(v, np.flatnonzero(new_row))[group]
        best = np.flatnonzero((v == top) | np.isnan(top))
        best = best[np.r_[True, group[best[1:]] != group[best[:-1]]]]
        first[block.start + r[best]] = _rank_of(scores[m[r[best]]], c[best])
    return first


def evaluate(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> EvalReport:
    """Compute all metrics in one ranking pass, after checking ``y`` with
    ``check_label_matrix``."""
    y = check_label_matrix(y, taxonomy)
    if len(y) == 0:
        raise ValueError("cannot evaluate a label matrix with no rows")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != y.shape:
        raise ValueError(f"score shape {scores.shape} does not match labels {y.shape}")
    sc, yc = scores, y
    if leaves_only:
        # take keeps rows contiguous; a fancy column index gives F order
        cand = taxonomy.leaf_ids
        sc, yc = scores.take(cand, axis=1), y.take(cand, axis=1)
    top1 = _first_in_rank(sc)
    ex = np.arange(len(y))
    # 1-based rank of the first positive: 1 on a hit; on a miss, 0 when no
    # candidate is positive (possible only under a leaves-only restriction)
    first = (yc[ex, top1] == 1).astype(np.int64)
    miss = np.flatnonzero(first == 0)
    first[miss] = _miss_ranks(yc, sc, miss)
    if leaves_only:
        top1 = cand[top1]
    hits = (first == 1).astype(np.float64)
    rr = np.where(first > 0, 1.0 / np.maximum(first, 1), 0.0)
    # the positives on the prediction's root path are a prefix of it
    dist = np.zeros(len(y))
    path = taxonomy.path_ids[top1[miss]]
    depth = ((y[miss[:, None], path] == 1) & (path != VIRTUAL_ROOT)).sum(axis=1)
    deepest = path[np.arange(len(miss)), np.maximum(depth - 1, 0)]
    dist[miss] = np.where(depth > 0, taxonomy.heights[deepest], taxonomy.max_level)
    return EvalReport(
        hit_at_1=float(hits.mean()),
        mrr=float(rr.mean()),
        hier_dist=float(dist.mean()),
        n_examples=len(y),
    )
