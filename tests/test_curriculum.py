"""Class-selection objective, fast selection rule, and the exhaustive oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import curriculum, data, losses, mlp, verify
from hcl.curriculum import (
    RULE_FIXED_THRESHOLD,
    RULE_OPTIMAL_PREFIX,
    ClassLossAggregate,
    brute_force_select,
    curriculum_objective,
    LOSS_MODES,
    LOSS_PRESETS,
    LossSpec,
    hcl_grad,
    hcl_loss,
    select_classes,
)
from hcl.mlp import TrainConfig
from hcl.taxonomy import parse_hierarchy
from slow_reference import slow_close_labels, slow_hcl_grad, slow_hcl_loss


def agg_of(L, e_total):
    return ClassLossAggregate(L=np.asarray(L, dtype=np.float64), e_h_total=float(e_total))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_all_ones_takes_max_of_sums():
    agg = agg_of([0.5, 0.7], 3.0)
    assert curriculum_objective(np.ones(2), agg) == pytest.approx(max(1.2, 3.0))


def test_objective_all_zeros_is_count_plus_errors():
    agg = agg_of([0.5, 0.7], 3.0)
    assert curriculum_objective(np.zeros(2), agg) == pytest.approx(5.0)


def test_objective_hand_fixture():
    agg = agg_of([0.1, 0.4, 2.0], 1.0)
    assert curriculum_objective(np.array([1.0, 1.0, 0.0]), agg) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_brute_force_all_zero_losses_selects_everything():
    s, value = brute_force_select(agg_of([0.0, 0.0, 0.0], 0.0))
    assert s.tolist() == [1.0, 1.0, 1.0]
    assert value == 0.0


def test_brute_force_single_expensive_class():
    s, value = brute_force_select(agg_of([5.0], 0.0))
    assert s.tolist() == [0.0]
    assert value == 1.0


def test_brute_force_hand_fixture_value():
    s, value = brute_force_select(agg_of([0.1, 0.4, 2.0], 1.0))
    assert value == pytest.approx(2.0)
    assert s.tolist() == [1.0, 1.0, 0.0]


def test_brute_force_tie_prefers_more_classes():
    # K=1 and K=2 both give objective 2; the larger selection wins.
    s, value = brute_force_select(agg_of([1.0, 1.0], 1.0))
    assert value == pytest.approx(2.0)
    assert s.tolist() == [1.0, 1.0]


def test_brute_force_rejects_large_c():
    with pytest.raises(ValueError):
        brute_force_select(agg_of(np.zeros(21), 0.0))


# ---------------------------------------------------------------------------
# fast selection
# ---------------------------------------------------------------------------


def test_select_all_when_losses_vanish():
    s = select_classes(agg_of([0.0, 0.0, 0.0], 0.0), RULE_OPTIMAL_PREFIX, None)
    assert s.tolist() == [1.0, 1.0, 1.0]


def test_select_matches_oracle_on_hand_fixture():
    agg = agg_of([0.1, 0.4, 2.0], 1.0)
    s = select_classes(agg, RULE_OPTIMAL_PREFIX, None)
    s_star, value = brute_force_select(agg)
    assert np.array_equal(s, s_star)
    assert curriculum_objective(s, agg) == pytest.approx(value)


def test_select_takes_largest_minimizing_prefix():
    s = select_classes(agg_of([1.0, 1.0], 1.0), RULE_OPTIMAL_PREFIX, None)
    assert s.tolist() == [1.0, 1.0]


def test_objective_rejects_a_selection_of_another_length():
    with pytest.raises(ValueError, match="does not match C=1"):
        curriculum_objective(np.ones(2), agg_of([1.0], 0.0))


def test_select_rejects_unknown_rule():
    with pytest.raises(ValueError):
        select_classes(agg_of([1.0], 0.0), rule="nope", thresh=None)


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
    s = select_classes(agg, RULE_OPTIMAL_PREFIX, None)
    _, best = brute_force_select(agg)
    assert curriculum_objective(s, agg) == pytest.approx(best, abs=1e-9)


def _size_objectives(L, e_total):
    """Per K, the smallest objective over the selections of K classes.

    Among them the smallest sum of L is the sum of the K smallest L (swap
    any selected class for a cheaper unselected one), which one
    ``np.partition`` per K gives with no stable sort; ``math.fsum`` adds
    them exactly rounded. O(C^2), for any C."""
    c = len(L)
    sums = [0.0] + [math.fsum(np.partition(L, k - 1)[:k]) for k in range(1, c + 1)]
    return np.maximum(sums, c - np.arange(c + 1) + e_total)


def _certify_selection(agg, s, value, tol=1e-9):
    """``s`` holds K smallest losses, K the largest size whose objective is
    the minimum, and ``value`` is that minimum, within ``tol`` relative."""
    L, k = agg.L, int(s.sum())
    objective = _size_objectives(L, agg.e_h_total)
    best = objective.min()
    slack = tol * max(1.0, abs(best))
    assert abs(value - best) <= slack
    assert objective[k] <= best + slack and (objective[k + 1:] > best + slack).all()
    if 0 < k < len(L):
        assert L[s == 1].max() <= L[s == 0].min()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_selection_matches_the_partition_oracle_at_any_c(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 300))
    kind = int(rng.integers(3))
    if kind == 0:  # small integers: many exact ties between sizes
        L = rng.integers(0, 4, size=c).astype(np.float64)
    elif kind == 1:  # quarters, exact in any order
        L = rng.integers(0, 40, size=c) / 4.0
    else:
        L = rng.uniform(0.0, 3.0, size=c)
    agg = agg_of(L, float(rng.integers(0, 2 * c + 1)))
    s = select_classes(agg, RULE_OPTIMAL_PREFIX, None)
    _certify_selection(agg, s, curriculum_objective(s, agg))


def test_partition_oracle_takes_the_largest_size_on_ties():
    # K = 1 and K = 2 both reach 2.0, so both classes are selected
    agg = agg_of([1.0, 1.0], 1.0)
    assert _size_objectives(agg.L, agg.e_h_total).tolist() == [3.0, 2.0, 2.0]
    s = select_classes(agg, RULE_OPTIMAL_PREFIX, None)
    _certify_selection(agg, s, curriculum_objective(s, agg))
    with pytest.raises(AssertionError):
        _certify_selection(agg, np.array([1.0, 0.0]), 2.0)


@pytest.mark.parametrize("scope", losses.SCOPES)
def test_every_epoch_of_a_wide_training_selects_the_oracle_optimum(scope, monkeypatch):
    """A short training on the 584-class taxonomy (levels=4, branching=8):
    each epoch's selection and logged loss against the partition oracle."""
    d = data.split(data.synth_generate(data.SynthConfig(
        levels=4, branching=8, examples_per_leaf=10, feature_dim=16, seed=5)), seed=5)
    d, _ = data.normalize(d)
    assert d.taxonomy.n_classes == 584
    passes = []  # [aggregate, value, selection] per epoch-end pass
    select, full_pass = curriculum.select_classes, curriculum.hcl_loss

    def spy_select(agg, *args, **kwargs):
        passes.append([agg])
        return select(agg, *args, **kwargs)

    def spy_pass(*args, **kwargs):
        value, s = full_pass(*args, **kwargs)
        passes[-1] += [value, s]
        return value, s

    monkeypatch.setattr(curriculum, "select_classes", spy_select)
    monkeypatch.setattr(curriculum, "hcl_loss", spy_pass)
    cfg = TrainConfig(hidden_width=16, epochs=3, seed=5, transform_scope=scope)
    _, log = mlp.train(d, d.taxonomy, cfg)
    assert len(passes) == len(log) == 3
    n_train = len(d.indices("train"))
    for (agg, value, s), entry in zip(passes, log):
        _certify_selection(agg, s, value)
        assert np.array_equal(entry.selected, s) and entry.loss == value / n_train
    assert any(0 < entry.selected.sum() < 584 for entry in log)  # a real choice


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_selected_set_is_a_prefix_of_the_sorted_losses(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 10))
    L = rng.uniform(0.0, 3.0, size=c)
    s = select_classes(agg_of(L, float(rng.uniform(0.0, c))), RULE_OPTIMAL_PREFIX, None)
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
    k_before = select_classes(agg_of(L, e), RULE_OPTIMAL_PREFIX, None).sum()
    k_after = select_classes(agg_of(L, e + bump), RULE_OPTIMAL_PREFIX, None).sum()
    assert k_after >= k_before


# ---------------------------------------------------------------------------
# fixed-threshold rule
# ---------------------------------------------------------------------------


def test_threshold_rule_requires_thresh():
    with pytest.raises(ValueError, match="thresh"):
        select_classes(agg_of([1.0], 0.0), rule=RULE_FIXED_THRESHOLD, thresh=None)


@pytest.mark.parametrize("thresh", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("rule", (RULE_FIXED_THRESHOLD, RULE_OPTIMAL_PREFIX))
def test_selection_rejects_non_finite_thresh(rule, thresh):
    # before the check, NaN and +inf selected every class and -inf none
    with pytest.raises(ValueError, match=f"selection thresh must be finite, got {thresh}"):
        select_classes(agg_of([0.1, 0.2], 0.0), rule=rule, thresh=thresh)


def test_threshold_rule_hand_fixture():
    # sorted L = [0.1, 0.4, 2.0]; prefix sums 0.1, 0.5, 2.5
    # condition prefixSum(K) > thresh + 1 - K with thresh = 1:
    #   K=1: 0.1 > 1 false; K=2: 0.5 > 0 true -> selected ranks < 2 -> one class
    s = select_classes(agg_of([0.1, 0.4, 2.0], 1.0), rule=RULE_FIXED_THRESHOLD, thresh=1.0)
    assert s.tolist() == [1.0, 0.0, 0.0]


def test_threshold_rule_selects_all_when_never_tripped():
    s = select_classes(
        agg_of([0.1, 0.2], 0.0), rule=RULE_FIXED_THRESHOLD, thresh=100.0
    )
    assert s.tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


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
    assert value == pytest.approx(slow_hcl_loss(y, scores, tax, LossSpec())[0].sum())
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


@pytest.mark.parametrize("transform", (True, False))
@pytest.mark.parametrize("bad", ([1.0, 1.0], [1.0, 0.5, 1.0], [1.0, np.nan, 0.0],
                                 [[1.0, 1.0, 1.0]]))
def test_gradient_rejects_a_selection_that_is_not_c_zeros_and_ones(rng, bad, transform):
    """A wrong length would weight the wrong columns, and a weight other
    than 0 or 1 is no count of selected classes."""
    tax = parse_hierarchy(["a", "a/b", "a/c"])
    y, scores = separable_instance(tax, rng)
    spec = LossSpec(transform=transform)
    with pytest.raises(ValueError, match=r"^selection must be a length-3 vector of 0\.0 and 1\.0$"):
        hcl_grad(y, scores, np.array(bad), tax, spec)


def test_pipeline_matches_exhaustive_search_on_random_instances():
    rng = np.random.default_rng(7)
    tax = verify.random_taxonomy(rng, max_classes=5, max_depth=3)
    c = tax.n_classes
    for _ in range(20):
        y = slow_close_labels([[int(rng.integers(0, c))] for _ in range(10)], tax.class_names)
        scores = rng.uniform(0.05, 0.95, size=y.shape)
        value, s = hcl_loss(y, scores, tax)
        L, e_total, _, _ = slow_hcl_loss(y, scores, tax, LossSpec())
        _, best = brute_force_select(agg_of(L, e_total))
        assert value == pytest.approx(best, abs=1e-9)


def test_pipeline_flat_hierarchy_reduces_to_plain_class_selection(rng):
    """One level + ancestors-only scope: the transform is the identity, so the
    pipeline is exactly curriculum selection on the raw base loss."""
    tax = parse_hierarchy(["u", "v", "w"])
    y = slow_close_labels([[int(rng.integers(0, 3))] for _ in range(8)], tax.class_names)
    scores = rng.uniform(0.05, 0.95, size=y.shape)
    spec = LossSpec(scope=losses.SCOPE_ANCESTORS_ONLY)
    value, s = hcl_loss(y, scores, tax, spec)
    flat = replace(spec, transform=False)
    _, _, s_ref, value_ref = slow_hcl_loss(y, scores, tax, flat)
    assert np.array_equal(s, s_ref) and value == value_ref
    grad = hcl_grad(y, scores, s, tax, spec)
    assert np.array_equal(grad, slow_hcl_grad(y, scores, s_ref, tax, flat))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_objective_sits_between_zero_one_total_and_transformed_total(seed):
    """With a base loss that dominates the 0-1 loss element-wise, the optimal
    objective value is sandwiched between the two transformed totals."""
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=8, max_depth=4)
    n = int(rng.integers(1, 6))
    y = slow_close_labels([[int(rng.integers(0, tax.n_classes))] for _ in range(n)],
                          tax.class_names)
    scores = rng.uniform(0.05, 0.95, size=y.shape)
    e01 = losses.zero_one_errors(y, scores, 0.5)
    base = e01 + rng.uniform(0.0, 1.0, size=e01.shape)  # dominates 0-1
    lh, _ = losses.hier_transform(base, tax)
    eh, _ = losses.hier_transform(e01, tax)
    agg = agg_of(lh.sum(axis=0), eh.sum())
    s = select_classes(agg, RULE_OPTIMAL_PREFIX, None)
    value = curriculum_objective(s, agg)
    assert eh.sum() - 1e-9 <= value <= lh.sum() + 1e-9


# ---------------------------------------------------------------------------
# loss specs
# ---------------------------------------------------------------------------


def test_loss_modes_are_the_presets_in_order():
    assert LOSS_MODES == tuple(LOSS_PRESETS) == ("ce", "focal", "hcl-hier", "hcl-cl", "hcl")
    assert LOSS_PRESETS["hcl"] == LossSpec()
    assert LOSS_PRESETS["focal"] == LossSpec("focal", transform=False, curriculum=False)
    assert TrainConfig().loss_spec() == LossSpec()
    for mode, preset in LOSS_PRESETS.items():
        cfg = TrainConfig(loss_mode=mode, transform_scope=losses.SCOPE_ANCESTORS_ONLY,
                          focal_gamma=1.5, decision_threshold=0.4,
                          selection_rule=RULE_FIXED_THRESHOLD, selection_thresh=3.0)
        assert cfg.loss_spec() == replace(preset, scope=losses.SCOPE_ANCESTORS_ONLY, gamma=1.5,
                                          decision_threshold=0.4, rule=RULE_FIXED_THRESHOLD,
                                          thresh=3.0)


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
        assert value == slow_hcl_loss(y, scores, tax, spec)[3]  # the sum of the per-class sums


def test_focal_spec_with_transform_and_curriculum_uses_focal_throughout(rng):
    tax = parse_hierarchy(["a", "a/b", "a/c"])
    y, scores = separable_instance(tax, rng)
    spec = LossSpec("focal", gamma=1.5)
    value, s = hcl_loss(y, scores, tax, spec)
    _, _, s_ref, value_ref = slow_hcl_loss(y, scores, tax, spec)
    assert np.array_equal(s, s_ref) and value == value_ref
    grad = hcl_grad(y, scores, s, tax, spec)
    assert np.array_equal(grad, slow_hcl_grad(y, scores, s, tax, spec))
