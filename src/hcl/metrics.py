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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .losses import check_label_matrix
from .taxonomy import VIRTUAL_ROOT, Taxonomy


@dataclass
class EvalReport:
    hit_at_1: float
    mrr: float
    hier_dist: float
    n_examples: int = 0
    per_example: list | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        """Percentage-scaled hit/MRR and raw-mean distance, two decimals."""
        return {
            "hit1": round(100.0 * self.hit_at_1, 2),
            "mrr": round(100.0 * self.mrr, 2),
            "hierdist": round(self.hier_dist, 2),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def rank_classes(scores) -> np.ndarray:
    """Class ids of each row sorted by descending score, ties broken by
    ascending id; NaN ranks last."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")


def hit_at_1(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> float:
    """Fraction of examples whose top-ranked class is a positive label."""
    return evaluate(y, scores, taxonomy, leaves_only).hit_at_1


def mrr(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> float:
    """Mean reciprocal rank of the first positive class, ranks from 1."""
    return evaluate(y, scores, taxonomy, leaves_only).mrr


def hier_dist(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> float:
    """Mean over examples of the LCA-height distance of the top-1 prediction."""
    return evaluate(y, scores, taxonomy, leaves_only).hier_dist


def evaluate(
    y, scores, taxonomy: Taxonomy, leaves_only: bool = False, per_example: bool = False
) -> EvalReport:
    """Compute all metrics in one ranking pass."""
    y = check_label_matrix(y, taxonomy)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != y.shape:
        raise ValueError(f"score shape {scores.shape} does not match labels {y.shape}")
    cand = taxonomy.leaf_ids if leaves_only else np.arange(taxonomy.n_classes)
    ex = np.arange(len(y))
    ranked = cand[rank_classes(scores[:, cand])]  # ids, best first
    top1 = ranked[:, 0]
    pos_ranked = y[ex[:, None], ranked] == 1
    # 1-based rank of the first positive; 0 when no candidate is positive
    # (possible only under a leaves-only restriction)
    first = np.where(pos_ranked.any(axis=1), np.argmax(pos_ranked, axis=1) + 1, 0)
    hits = pos_ranked[:, 0].astype(np.float64)
    rr = np.where(first > 0, 1.0 / np.maximum(first, 1), 0.0)
    # the positives on the prediction's root path are a prefix of it
    path = taxonomy.path_ids[top1]
    depth = ((y[ex[:, None], path] == 1) & (path != VIRTUAL_ROOT)).sum(axis=1)
    deepest = path[ex, np.maximum(depth - 1, 0)]
    dist = np.where(depth > 0, taxonomy.heights[deepest], taxonomy.max_level)
    dist = np.where(hits > 0, 0, dist).astype(np.float64)
    rows = None
    if per_example:
        rows = [
            (taxonomy.class_names[int(t)], int(f), float(d))
            for t, f, d in zip(top1, first, dist)
        ]
    return EvalReport(
        hit_at_1=float(hits.mean()),
        mrr=float(rr.mean()),
        hier_dist=float(dist.mean()),
        n_examples=len(y),
        per_example=rows,
    )
