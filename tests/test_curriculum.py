"""Class-selection objective, fast selection rule, and the exhaustive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import losses, verify
from hcl.curriculum import (
    RULE_FIXED_THRESHOLD,
    ClassLossAggregate,
    aggregate_class_losses,
    brute_force_select,
    curriculum_objective,
    LOSS_PRESETS,
    LossSpec,
    hcl_grad,
    hcl_loss,
    select_classes,
)
from hcl.taxonomy import parse_hierarchy


def agg_of(L, e_total, n_examples=1):
    return ClassLossAggregate(
        L=np.asarray(L, dtype=np.float64), e_h_total=float(e_total), n_examples=n_examples
    )


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_zeros():
    agg = aggregate_class_losses(np.zeros((3, 4)), np.zeros((3, 4)))
    assert np.array_equal(agg.L, np.zeros(4))
    assert agg.e_h_total == 0.0
    assert agg.n_examples == 3


def test_aggregate_column_sum():
    lh = np.zeros((2, 3))
    lh[:, 1] = [0.2, 0.3]
    agg = aggregate_class_losses(lh, np.zeros((2, 3)))
    assert agg.L[1] == pytest.approx(0.5)


def test_aggregate_counts_zero_one_total():
    e = np.zeros((2, 3))
    e[0, 0] = e[0, 2] = e[1, 1] = 1.0
    assert aggregate_class_losses(np.zeros((2, 3)), e).e_h_total == 3.0


def test_aggregate_shape_mismatch():
    with pytest.raises(ValueError):
        aggregate_class_losses(np.zeros((2, 3)), np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_all_ones_takes_max_of_sums():
    agg = agg_of([0.5, 0.7], 3.0)
    assert curriculum_objective(np.ones(2), agg, 2) == pytest.approx(max(1.2, 3.0))


def test_objective_all_zeros_is_count_plus_errors():
    agg = agg_of([0.5, 0.7], 3.0)
    assert curriculum_objective(np.zeros(2), agg, 2) == pytest.approx(5.0)


def test_objective_hand_fixture():
    agg = agg_of([0.1, 0.4, 2.0], 1.0)
    assert curriculum_objective(np.array([1.0, 1.0, 0.0]), agg, 3) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_brute_force_all_zero_losses_selects_everything():
    s, value = brute_force_select(agg_of([0.0, 0.0, 0.0], 0.0), 3)
    assert s.tolist() == [1.0, 1.0, 1.0]
    assert value == 0.0


def test_brute_force_single_expensive_class():
    s, value = brute_force_select(agg_of([5.0], 0.0), 1)
    assert s.tolist() == [0.0]
    assert value == 1.0


def test_brute_force_hand_fixture_value():
    s, value = brute_force_select(agg_of([0.1, 0.4, 2.0], 1.0), 3)
    assert value == pytest.approx(2.0)
    assert s.tolist() == [1.0, 1.0, 0.0]


def test_brute_force_tie_prefers_more_classes():
    # K=1 and K=2 both give objective 2; the larger selection wins.
    s, value = brute_force_select(agg_of([1.0, 1.0], 1.0), 2)
    assert value == pytest.approx(2.0)
    assert s.tolist() == [1.0, 1.0]


def test_brute_force_rejects_large_c():
    with pytest.raises(ValueError):
        brute_force_select(agg_of(np.zeros(21), 0.0), 21)


# ---------------------------------------------------------------------------
# fast selection
# ---------------------------------------------------------------------------


def test_select_all_when_losses_vanish():
    s = select_classes(agg_of([0.0, 0.0, 0.0], 0.0), 3)
    assert s.tolist() == [1.0, 1.0, 1.0]


def test_select_matches_oracle_on_hand_fixture():
    agg = agg_of([0.1, 0.4, 2.0], 1.0)
    s = select_classes(agg, 3)
    s_star, value = brute_force_select(agg, 3)
    assert np.array_equal(s, s_star)
    assert curriculum_objective(s, agg, 3) == pytest.approx(value)


def test_select_takes_largest_minimizing_prefix():
    s = select_classes(agg_of([1.0, 1.0], 1.0), 2)
    assert s.tolist() == [1.0, 1.0]


def test_select_rejects_length_mismatch():
    with pytest.raises(ValueError):
        select_classes(agg_of([1.0], 0.0), 2)


def test_select_rejects_unknown_rule():
    with pytest.raises(ValueError):
        select_classes(agg_of([1.0], 0.0), 1, rule="nope")


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_selection_achieves_exhaustive_optimum(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 13))
    if rng.random() < 0.3:  # tie-prone integer losses
        L = rng.integers(0, 4, size=c).astype(np.float64)
    else:
        L = rng.uniform(0.0, 3.0, size=c)
    agg = agg_of(L, float(rng.uniform(0.0, 2.0 * c)))
    s = select_classes(agg, c)
    _, best = brute_force_select(agg, c)
    assert curriculum_objective(s, agg, c) == pytest.approx(best, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_selected_set_is_a_prefix_of_the_sorted_losses(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 10))
    L = rng.uniform(0.0, 3.0, size=c)
    s = select_classes(agg_of(L, float(rng.uniform(0.0, c))), c)
    k = int(s.sum())
    order = np.argsort(L, kind="stable")
    assert np.array_equal(np.sort(np.flatnonzero(s == 1.0)), np.sort(order[:k]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000), bump=st.floats(0.1, 5.0))
def test_harder_zero_one_totals_never_shrink_the_selection(seed, bump):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 10))
    L = rng.uniform(0.0, 3.0, size=c)
    e = float(rng.uniform(0.0, c))
    k_before = select_classes(agg_of(L, e), c).sum()
    k_after = select_classes(agg_of(L, e + bump), c).sum()
    assert k_after >= k_before


# ---------------------------------------------------------------------------
# fixed-threshold rule
# ---------------------------------------------------------------------------


def test_threshold_rule_requires_thresh():
    with pytest.raises(ValueError, match="thresh"):
        select_classes(agg_of([1.0], 0.0), 1, rule=RULE_FIXED_THRESHOLD)


def test_threshold_rule_hand_fixture():
    # sorted L = [0.1, 0.4, 2.0]; prefix sums 0.1, 0.5, 2.5
    # condition prefixSum(K) > thresh + 1 - K with thresh = 1:
    #   K=1: 0.1 > 1 false; K=2: 0.5 > 0 true -> selected ranks < 2 -> one class
    s = select_classes(agg_of([0.1, 0.4, 2.0], 1.0), 3, rule=RULE_FIXED_THRESHOLD, thresh=1.0)
    assert s.tolist() == [1.0, 0.0, 0.0]


def test_threshold_rule_selects_all_when_never_tripped():
    s = select_classes(
        agg_of([0.1, 0.2], 0.0), 2, rule=RULE_FIXED_THRESHOLD, thresh=100.0
    )
    assert s.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def random_closed_labels(rng, tax, n):
    """Random ancestor-closed labels with at least one positive per row."""
    y = -np.ones((n, tax.n_classes))
    for i in range(n):
        c = int(rng.integers(0, tax.n_classes))
        y[i, c] = 1.0
        for a in tax.ancestors(c):
            y[i, a] = 1.0
    return y


def separable_instance(tax, rng, n=6):
    y = -np.ones((n, tax.n_classes))
    y[:, tax.id_of("a")] = 1.0
    y[: n // 2, tax.id_of("a/b")] = 1.0
    y[n // 2 :, tax.id_of("a/c")] = 1.0
    scores = np.where(y > 0, 0.99, 0.01) + rng.uniform(-0.005, 0.005, size=y.shape)
    return y, scores


def test_pipeline_easy_instance_selects_everything(rng):
    tax = parse_hierarchy(["a", "a/b", "a/c"])
    y, scores = separable_instance(tax, rng)
    value, s = hcl_loss(y, scores, tax)
    assert s.tolist() == [1.0, 1.0, 1.0]
    lh, _ = losses.hier_transform(losses.bce_loss(y, scores), tax)
    assert value == pytest.approx(lh.sum())
    assert hcl_grad(y, scores, s, tax).shape == y.shape


def test_pipeline_weights_vanish_for_unselected_unrouted_columns(rng):
    tax = parse_hierarchy(["a", "a/b", "a/c"])
    y, scores = separable_instance(tax, rng)
    # make one leaf column expensive enough to be dropped
    bad = tax.id_of("a/c")
    scores[:, bad] = np.where(y[:, bad] > 0, 0.01, 0.99)
    value, s = hcl_loss(y, scores, tax)
    assert s[bad] == 0.0
    # leaf columns route to themselves here (their base loss realizes the max),
    # so an unselected leaf receives zero weight and hence zero gradient
    grad = hcl_grad(y, scores, s, tax)
    assert np.all(grad[:, bad] == 0.0)


def test_pipeline_matches_exhaustive_search_on_random_instances():
    rng = np.random.default_rng(7)
    tax = verify.random_taxonomy(rng, max_classes=5, max_depth=3)
    c = tax.n_classes
    for _ in range(20):
        y = random_closed_labels(rng, tax, n=10)
        scores = rng.uniform(0.05, 0.95, size=y.shape)
        value, s = hcl_loss(y, scores, tax)
        lh, _ = losses.hier_transform(losses.bce_loss(y, scores), tax)
        eh, _ = losses.hier_transform(losses.zero_one_loss(y, scores), tax)
        agg = aggregate_class_losses(lh, eh)
        _, best = brute_force_select(agg, c)
        assert value == pytest.approx(best, abs=1e-9)


def test_pipeline_flat_hierarchy_reduces_to_plain_class_selection(rng):
    """One level + ancestors-only scope: the transform is the identity, so the
    pipeline is exactly curriculum selection on the raw base loss."""
    tax = parse_hierarchy(["u", "v", "w"])
    y = random_closed_labels(rng, tax, n=8)
    scores = rng.uniform(0.05, 0.95, size=y.shape)
    value, s = hcl_loss(y, scores, tax, scope=losses.SCOPE_ANCESTORS_ONLY)
    base = losses.bce_loss(y, scores)
    agg = aggregate_class_losses(base, losses.zero_one_loss(y, scores))
    s_ref = select_classes(agg, 3)
    assert np.array_equal(s, s_ref)
    assert value == pytest.approx(curriculum_objective(s_ref, agg, 3))
    grad = hcl_grad(y, scores, s, tax, scope=losses.SCOPE_ANCESTORS_ONLY)
    assert np.array_equal(grad, s_ref * losses.bce_grad(y, scores))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_objective_sits_between_zero_one_total_and_transformed_total(seed):
    """With a base loss that dominates the 0-1 loss element-wise, the optimal
    objective value is sandwiched between the two transformed totals."""
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=8, max_depth=4)
    n = int(rng.integers(1, 6))
    y = random_closed_labels(rng, tax, n)
    scores = rng.uniform(0.05, 0.95, size=y.shape)
    e01 = losses.zero_one_loss(y, scores)
    base = e01 + rng.uniform(0.0, 1.0, size=e01.shape)  # dominates 0-1
    lh, _ = losses.hier_transform(base, tax)
    eh, _ = losses.hier_transform(e01, tax)
    agg = aggregate_class_losses(lh, eh)
    s = select_classes(agg, tax.n_classes)
    value = curriculum_objective(s, agg, tax.n_classes)
    assert eh.sum() - 1e-9 <= value <= lh.sum() + 1e-9


# ---------------------------------------------------------------------------
# loss specs
# ---------------------------------------------------------------------------


def test_loss_modes_are_the_presets_in_order():
    from hcl import mlp

    assert mlp.LOSS_MODES == tuple(LOSS_PRESETS) == ("ce", "focal", "hcl-hier", "hcl-cl", "hcl")
    assert LOSS_PRESETS["hcl"] == LossSpec()
    assert LOSS_PRESETS["focal"] == LossSpec("focal", transform=False, curriculum=False)


def test_loss_spec_rejects_unknown_base():
    with pytest.raises(ValueError, match="base loss"):
        LossSpec("mse")


def test_specs_without_curriculum_select_every_class(rng):
    tax = parse_hierarchy(["a", "a/b", "a/c"])
    y, scores = separable_instance(tax, rng)
    bad = tax.id_of("a/c")
    scores[:, bad] = np.where(y[:, bad] > 0, 0.01, 0.99)
    assert hcl_loss(y, scores, tax)[1][bad] == 0.0  # the curriculum drops it
    for spec in (LossSpec("bce", False, False), LossSpec("focal", True, False)):
        value, s = hcl_loss(y, scores, tax, spec)
        assert s.tolist() == [1.0, 1.0, 1.0]
        base_fn = losses.focal_loss if spec.base == "focal" else losses.bce_loss
        surface = base_fn(y, scores)
        if spec.transform:
            surface, _ = losses.hier_transform(surface, tax)
        assert value == float(surface.sum())


def test_focal_spec_with_transform_and_curriculum_uses_focal_throughout(rng):
    tax = parse_hierarchy(["a", "a/b", "a/c"])
    y, scores = separable_instance(tax, rng)
    spec = LossSpec("focal", transform=True, curriculum=True)
    value, s = hcl_loss(y, scores, tax, spec, gamma=1.5)
    lh, routing = losses.hier_transform(losses.focal_loss(y, scores, 1.5), tax)
    eh, _ = losses.hier_transform(losses.zero_one_loss(y, scores), tax)
    agg = aggregate_class_losses(lh, eh)
    assert np.array_equal(s, select_classes(agg, 3))
    assert value == curriculum_objective(s, agg, 3)
    w = losses.hier_transform_backward(routing, np.broadcast_to(s, y.shape))
    grad = hcl_grad(y, scores, s, tax, spec, gamma=1.5)
    assert np.array_equal(grad, w * losses.focal_grad(y, scores, 1.5))
