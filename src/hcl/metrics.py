"""Ranking-based evaluation: Hit@1, mean reciprocal rank, hierarchy distance.

All three depend only on the per-example ordering of class scores; the
hierarchy distance additionally consults the taxonomy. A top-1 prediction
that is itself a positive label scores distance 0; otherwise the distance is
the minimum, over positive classes, of the height of their lowest common
ancestor with the prediction. The virtual root is never a ranked candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .losses import check_label_matrix
from .taxonomy import Taxonomy


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


def rank_classes(score_row) -> np.ndarray:
    """Class ids sorted by descending score, ties broken by ascending id."""
    row = np.asarray(score_row, dtype=np.float64)
    return np.lexsort((np.arange(len(row)), -row))


def _candidate_ids(taxonomy: Taxonomy, leaves_only: bool) -> np.ndarray:
    return taxonomy.leaf_ids if leaves_only else np.arange(taxonomy.n_classes)


def _top1_and_first_pos_rank(y, scores, cand):
    """Per-example top candidate and the 1-based rank of the first positive.

    Rank is 0 when no candidate class is positive (possible only under a
    leaves-only restriction).
    """
    sub = scores[:, cand]
    order = np.lexsort((np.broadcast_to(cand, sub.shape), -sub), axis=1)
    ranked = cand[order]  # ids, best first
    top1 = ranked[:, 0]
    first = np.zeros(len(y), dtype=np.int64)
    for i in range(len(y)):
        hits = np.flatnonzero(y[i, ranked[i]] == 1)
        first[i] = hits[0] + 1 if len(hits) else 0
    return top1, first


def hit_at_1(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> float:
    """Fraction of examples whose top-ranked class is a positive label."""
    return evaluate(y, scores, taxonomy, leaves_only).hit_at_1


def mrr(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> float:
    """Mean reciprocal rank of the first positive class, ranks from 1."""
    return evaluate(y, scores, taxonomy, leaves_only).mrr


def hier_dist(y, scores, taxonomy: Taxonomy, leaves_only: bool = False) -> float:
    """Mean over examples of the LCA-height distance of the top-1 prediction."""
    return evaluate(y, scores, taxonomy, leaves_only).hier_dist


def _per_example_dist(y, top1, taxonomy: Taxonomy) -> np.ndarray:
    dist = np.zeros(len(y), dtype=np.float64)
    for i in range(len(y)):
        p = int(top1[i])
        if y[i, p] == 1:
            continue  # the prediction is itself correct
        positives = np.flatnonzero(y[i] == 1)
        dist[i] = min(taxonomy.node_height(taxonomy.lca(c, p)) for c in positives)
    return dist


def evaluate(
    y, scores, taxonomy: Taxonomy, leaves_only: bool = False, per_example: bool = False
) -> EvalReport:
    """Compute all metrics in one ranking pass."""
    y = check_label_matrix(y, taxonomy)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != y.shape:
        raise ValueError(f"score shape {scores.shape} does not match labels {y.shape}")
    cand = _candidate_ids(taxonomy, leaves_only)
    top1, first = _top1_and_first_pos_rank(y, scores, cand)
    hits = (y[np.arange(len(y)), top1] == 1).astype(np.float64)
    rr = np.where(first > 0, 1.0 / np.maximum(first, 1), 0.0)
    dist = _per_example_dist(y, top1, taxonomy)
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
