"""Ranking metrics: Hit@1, MRR, and the LCA-height distance."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import verify
from hcl.metrics import EvalReport, evaluate
from hcl.taxonomy import parse_hierarchy
from slow_reference import slow_close_labels


def labels_for(tax, rows):
    y = -np.ones((len(rows), tax.n_classes))
    for i, names in enumerate(rows):
        for nm in names:
            y[i, tax.id_of(nm)] = 1.0
    return y


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def ranks(scores):
    """Each class's 1-based rank in one row of scores over a flat taxonomy,
    read as evaluate's first-positive rank with that class the only positive."""
    c = len(scores)
    tax = parse_hierarchy([f"k{j}" for j in range(c)])
    y = -np.ones((c, c))
    np.fill_diagonal(y, 1.0)
    return [round(1.0 / evaluate(y[j:j + 1], scores[None, :], tax).mrr) for j in range(c)]


def test_rank_descending_scores():
    assert ranks(np.array([0.1, 0.9, 0.5])) == [3, 1, 2]


def test_rank_ties_broken_by_class_id():
    assert ranks(np.array([0.4, 0.4, 0.4])) == [1, 2, 3]


def test_rank_single_class():
    assert ranks(np.array([0.3])) == [1]


# ---------------------------------------------------------------------------
# hit@1 / mrr
# ---------------------------------------------------------------------------


def test_hit_all_correct(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"], ["A", "A/C"]])
    s = np.array([[0.2, 0.9, 0.1], [0.2, 0.1, 0.9]])
    assert evaluate(y, s, abc_taxonomy).hit_at_1 == 1.0


def test_hit_one_of_two(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"], ["A", "A/C"]])
    s = np.array([[0.2, 0.9, 0.1], [0.2, 0.8, 0.7]])
    assert evaluate(y, s, abc_taxonomy).hit_at_1 == 0.5


def test_mrr_first_positive_at_rank_four():
    tax = parse_hierarchy(["a", "b", "c", "d"])
    y = labels_for(tax, [["d"]])
    s = np.array([[0.9, 0.8, 0.7, 0.1]])
    assert evaluate(y, s, tax).mrr == pytest.approx(0.25)


def test_mrr_mean_over_examples(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"], ["A", "A/C"]])
    # row 1: first positive at rank 1; row 2: A/B outranks A/C -> rank 2
    s = np.array([[0.2, 0.9, 0.1], [0.1, 0.8, 0.7]])
    assert evaluate(y, s, abc_taxonomy).mrr == pytest.approx((1.0 + 0.5) / 2.0)


def test_metrics_reject_missing_positive(abc_taxonomy):
    y = -np.ones((1, 3))
    with pytest.raises(ValueError):
        evaluate(y, np.array([[0.5, 0.4, 0.3]]), abc_taxonomy)


def test_metrics_reject_shape_mismatch(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A"]])
    with pytest.raises(ValueError):
        evaluate(y, np.array([[0.5, 0.4]]), abc_taxonomy)


@pytest.mark.parametrize("leaves_only", (False, True))
def test_metrics_reject_zero_rows(abc_taxonomy, leaves_only):
    with pytest.raises(ValueError, match="no rows"):
        evaluate(np.empty((0, 3)), np.empty((0, 3)), abc_taxonomy, leaves_only=leaves_only)


# ---------------------------------------------------------------------------
# LCA-height distance
# ---------------------------------------------------------------------------


def test_dist_zero_when_top_prediction_is_positive(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"]])
    s = np.array([[0.9, 0.1, 0.2]])  # top-1 = A, an internal positive
    assert evaluate(y, s, abc_taxonomy).hier_dist == 0.0


def test_dist_sibling_miss_fixture(abc_taxonomy):
    # positives {A, A/B}, top-1 = A/C: nearest shared node is A at height 1
    y = labels_for(abc_taxonomy, [["A", "A/B"]])
    s = np.array([[0.3, 0.2, 0.9]])
    assert evaluate(y, s, abc_taxonomy).hier_dist == 1.0


def test_dist_disjoint_subtrees_is_tree_height(height4_forest):
    tax = height4_forest
    y = labels_for(tax, [["1", "1/2", "1/2/3", "1/2/3/4"]])
    s = np.full((1, tax.n_classes), 0.1)
    s[0, tax.id_of("5")] = 0.9
    assert evaluate(y, s, tax).hier_dist == 4.0


def test_dist_never_exceeds_tree_height(rng):
    tax = verify.random_taxonomy(rng, max_classes=20)
    max_h = tax.max_level
    for _ in range(20):
        y = slow_close_labels([[int(rng.integers(0, tax.n_classes))] for _ in range(4)],
                              tax.class_names)
        s = rng.uniform(0.0, 1.0, size=y.shape)
        assert evaluate(y, s, tax).hier_dist <= max_h


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


def test_report_consistency_and_invariants(rng, height4_forest):
    tax = height4_forest
    y = slow_close_labels([[int(rng.integers(0, tax.n_classes))] for _ in range(30)],
                          tax.class_names)
    s = rng.uniform(0.0, 1.0, size=y.shape)
    rep = evaluate(y, s, tax)
    # the means agree with the rows evaluated one at a time
    rows = [evaluate(y[i:i + 1], s[i:i + 1], tax) for i in range(len(y))]
    assert rep.hit_at_1 == np.mean([r.hit_at_1 for r in rows])
    assert rep.mrr == np.mean([r.mrr for r in rows])
    assert rep.hier_dist == np.mean([r.hier_dist for r in rows])
    assert 0.0 <= rep.hit_at_1 <= 1.0
    assert 0.0 < rep.mrr <= 1.0
    assert rep.hit_at_1 <= rep.mrr


def test_distance_is_zero_when_every_top_prediction_hits(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"], ["A"]])
    s = np.array([[0.1, 0.9, 0.2], [0.9, 0.1, 0.2]])
    rep = evaluate(y, s, abc_taxonomy)
    assert rep.hit_at_1 == 1.0
    assert rep.hier_dist == 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_metrics_depend_only_on_score_order(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=12)
    y = slow_close_labels([[int(rng.integers(0, tax.n_classes))] for _ in range(8)],
                          tax.class_names)
    s = rng.uniform(0.01, 0.99, size=y.shape)
    base = evaluate(y, s, tax)
    for transform in (lambda x: x**3, lambda x: 0.5 * x + 0.1, np.sqrt):
        rep = evaluate(y, transform(s), tax)
        assert rep.hit_at_1 == base.hit_at_1
        assert rep.mrr == base.mrr
        assert rep.hier_dist == base.hier_dist


def test_one_row_rank_and_distance(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"]])
    s = np.array([[0.3, 0.2, 0.9]])  # A/C on top, the positive A second
    rep = evaluate(y, s, abc_taxonomy)
    assert 1.0 / rep.mrr == 2
    assert rep.hier_dist == 1.0


def test_leaves_only_restricts_candidates(abc_taxonomy):
    y = labels_for(abc_taxonomy, [["A", "A/B"]])
    s = np.array([[0.9, 0.5, 0.1]])  # top overall is the internal node A
    assert evaluate(y, s, abc_taxonomy).hit_at_1 == 1.0
    assert evaluate(y, s, abc_taxonomy, leaves_only=True).hit_at_1 == 1.0  # A/B wins among leaves
    s2 = np.array([[0.9, 0.1, 0.5]])
    assert evaluate(y, s2, abc_taxonomy, leaves_only=True).hit_at_1 == 0.0


def test_report_json_uses_two_decimal_percentages():
    rep = EvalReport(hit_at_1=0.74449, mrr=0.5, hier_dist=1.2345)
    d = rep.to_json_dict()
    assert d == {"hit1": 74.45, "mrr": 50.0, "hierdist": 1.23}
    assert json.loads(json.dumps(d, sort_keys=True)) == d
