"""Base losses and the level-constrained loss transform."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import losses, verify
from hcl.losses import (
    SCOPE_ALL_SHALLOWER,
    SCOPE_ANCESTORS_ONLY,
    bce_grad,
    bce_loss,
    check_label_matrix,
    focal_grad,
    focal_loss,
    hier_transform,
    hier_transform_backward,
    zero_one_errors,
)
from hcl.taxonomy import parse_hierarchy
from slow_reference import SLOW_TRANSFORMS


# ---------------------------------------------------------------------------
# zero-one loss
# ---------------------------------------------------------------------------


def one_row(tax, names):
    y = -np.ones((1, tax.n_classes))
    for nm in names:
        y[0, tax.id_of(nm)] = 1.0
    return y


def test_zero_one_correct_side_is_zero(two_level_chain):
    y = one_row(two_level_chain, ["p", "p/q"])
    s = np.array([[0.7, 0.9]])
    assert zero_one_errors(y, s, 0.5).tolist() == [[False, False]]


def test_zero_one_boundary_score_predicts_negative(two_level_chain):
    y = one_row(two_level_chain, ["p", "p/q"])
    s = np.array([[0.5, 0.9]])
    assert zero_one_errors(y, s, 0.5)[0, 0]


def test_zero_one_negative_label_low_score_is_zero(two_level_chain):
    y = one_row(two_level_chain, ["p"])
    s = np.array([[0.9, 0.3]])
    assert not zero_one_errors(y, s, 0.5)[0, 1]


def test_zero_one_respects_threshold(two_level_chain):
    y = one_row(two_level_chain, ["p", "p/q"])
    s = np.array([[0.4, 0.4]])
    assert zero_one_errors(y, s, decision_threshold=0.3).sum() == 0
    assert zero_one_errors(y, s, decision_threshold=0.5).sum() == 2


def test_zero_one_shape_mismatch(two_level_chain):
    y = one_row(two_level_chain, ["p"])
    with pytest.raises(ValueError):
        zero_one_errors(y, np.array([[0.5]]), 0.5)


# ---------------------------------------------------------------------------
# bce / focal
# ---------------------------------------------------------------------------


def test_bce_at_half_is_ln2(two_level_chain):
    y = one_row(two_level_chain, ["p"])
    s = np.array([[0.5, 0.5]])
    out = bce_loss(y, s)
    assert out[0, 0] == pytest.approx(math.log(2.0), abs=1e-6)
    assert out[0, 1] == pytest.approx(math.log(2.0), abs=1e-6)  # symmetric


def test_bce_clamps_saturated_scores(two_level_chain):
    y = one_row(two_level_chain, ["p", "p/q"])
    s = np.array([[1.0, 0.0]])
    out = bce_loss(y, s)
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(-math.log(1.0 - 1e-7), rel=1e-6)


def test_focal_gamma_zero_equals_bce(rng, two_level_chain):
    y = one_row(two_level_chain, ["p", "p/q"]).repeat(8, axis=0)
    y[4:, 1] = -1.0
    s = rng.uniform(0.05, 0.95, size=y.shape)
    assert np.allclose(focal_loss(y, s, gamma=0.0), bce_loss(y, s), atol=1e-12)


def test_focal_fixture_values(two_level_chain):
    y = one_row(two_level_chain, ["p", "p/q"])
    s = np.array([[0.5, 0.9]])
    out = focal_loss(y, s, gamma=2.0)
    assert out[0, 0] == pytest.approx(0.25 * math.log(2.0), abs=1e-6)
    assert out[0, 1] == pytest.approx(0.01 * -math.log(0.9), abs=1e-8)


def test_focal_rejects_negative_gamma(two_level_chain):
    y = one_row(two_level_chain, ["p"])
    with pytest.raises(ValueError):
        focal_loss(y, np.array([[0.5, 0.5]]), gamma=-1.0)


@pytest.mark.parametrize("fn", (focal_loss, focal_grad))
def test_focal_rejects_infinite_gamma(two_level_chain, fn):
    # (1 - p)**inf times a finite term gave NaN gradients
    y = one_row(two_level_chain, ["p"])
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        fn(y, np.array([[0.5, 0.5]]), gamma=np.inf)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bce_and_focal_grads_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    y = np.where(rng.random((3, 4)) < 0.5, 1.0, -1.0)
    s = rng.uniform(0.1, 0.9, size=(3, 4))
    h = 1e-6
    for fn, gn in ((bce_loss, bce_grad),
                   (partial(focal_loss, gamma=2.0), partial(focal_grad, gamma=2.0))):
        analytic = gn(y, s)
        fd = np.zeros_like(s)
        for idx in np.ndindex(s.shape):
            sp, sm = s.copy(), s.copy()
            sp[idx] += h
            sm[idx] -= h
            fd[idx] = (fn(y, sp).sum() - fn(y, sm).sum()) / (2 * h)
        assert verify.max_rel_err(analytic, fd) < 1e-4


# ---------------------------------------------------------------------------
# level-constrained transform
# ---------------------------------------------------------------------------


def test_transform_two_class_chain_fixture(two_level_chain):
    base = np.array([[0.2, 0.1]])
    out = hier_transform(base, two_level_chain)
    _, routing = SLOW_TRANSFORMS[SCOPE_ALL_SHALLOWER](base, two_level_chain)
    assert out.tolist() == [[0.2, 0.2]]
    p, q = two_level_chain.id_of("p"), two_level_chain.id_of("p/q")
    assert routing[0, q] == p  # deeper element inherits the shallower max
    assert routing[0, p] == p


def test_transform_scope_fixture():
    # C is a child of A; B is an unrelated top-level class with a large loss.
    t = parse_hierarchy(["A", "A/C", "B"])
    a, c, b = t.id_of("A"), t.id_of("A/C"), t.id_of("B")
    base = np.zeros((1, 3))
    base[0, a], base[0, b], base[0, c] = 0.3, 0.9, 0.1
    out_all = hier_transform(base, t, scope=SCOPE_ALL_SHALLOWER)
    out_anc = hier_transform(base, t, scope=SCOPE_ANCESTORS_ONLY)
    assert out_all[0, c] == 0.9  # any shallower class counts, related or not
    assert out_anc[0, c] == 0.3  # only the ancestor chain counts


def test_transform_identity_on_level_monotone_input(two_level_chain):
    base = np.array([[0.2, 0.7], [0.0, 0.0]])
    out = hier_transform(base, two_level_chain)
    _, routing = SLOW_TRANSFORMS[SCOPE_ALL_SHALLOWER](base, two_level_chain)
    assert np.array_equal(out, base)
    assert np.array_equal(routing, np.tile(np.arange(2), (2, 1)))


def test_transform_tie_prefers_own_class_then_smallest_id():
    t = parse_hierarchy(["a", "b", "a/c"])
    ids = {nm: t.id_of(nm) for nm in ("a", "b", "a/c")}
    base = np.zeros((1, 3))
    base[0, ids["a"]] = 0.5
    base[0, ids["b"]] = 0.5
    base[0, ids["a/c"]] = 0.5
    routing = SLOW_TRANSFORMS[SCOPE_ALL_SHALLOWER](base, t)[1]
    assert routing[0, ids["a/c"]] == ids["a/c"]  # own class attains the max
    # the weight sweep follows the same rule: every class keeps its unit
    weights = base.copy()
    losses._hier_weights(weights, t, SCOPE_ALL_SHALLOWER, np.ones(3, dtype=bool))
    assert weights.tolist() == [[1.0, 1.0, 1.0]]
    base[0, ids["a/c"]] = 0.2
    routing = SLOW_TRANSFORMS[SCOPE_ALL_SHALLOWER](base, t)[1]
    assert routing[0, ids["a/c"]] == min(ids["a"], ids["b"])
    weights = base.copy()
    losses._hier_weights(weights, t, SCOPE_ALL_SHALLOWER, np.ones(3, dtype=bool))
    assert weights[0, min(ids["a"], ids["b"])] == 2.0 and weights[0, ids["a/c"]] == 0.0


def test_transform_rejects_column_mismatch(two_level_chain):
    with pytest.raises(ValueError):
        hier_transform(np.zeros((1, 3)), two_level_chain)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transform_matches_quadratic_reference(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=12, max_depth=4)
    base = verify.random_surface(rng, rng.integers(1, 6), tax.n_classes)
    for scope, slow in SLOW_TRANSFORMS.items():
        out = hier_transform(base, tax, scope=scope)
        ref_out, routing = slow(base, tax)
        assert np.array_equal(out, ref_out)
        # the reference's routing points at in-scope classes attaining the max
        for i in range(base.shape[0]):
            for j in range(tax.n_classes):
                src = routing[i, j]
                assert tax.level[src] <= tax.level[j]
                assert out[i, j] == base[i, src]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transform_level_ordering_and_bounds(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    base = verify.random_surface(rng, rng.integers(1, 8), tax.n_classes)
    out = hier_transform(base, tax)
    assert np.all(out >= base)  # never below the input
    lv = tax.level
    for i in range(out.shape[0]):  # deeper classes never carry less loss, exactly
        row = out[i]
        for level in range(1, lv.max()):
            shallow = row[lv <= level]
            deep = row[lv > level]
            if len(shallow) and len(deep):
                assert deep.min() >= shallow.max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transform_idempotent_and_monotone(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=15)
    base = verify.random_surface(rng, 4, tax.n_classes)
    out = hier_transform(base, tax)
    again = hier_transform(out, tax)
    assert np.array_equal(out, again)
    bigger = base + rng.uniform(0.0, 0.5, size=base.shape)
    out_b = hier_transform(bigger, tax)
    assert np.all(out_b >= out)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transform_is_minimal_among_dominating_level_ordered_surfaces(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=15)
    base = verify.random_surface(rng, 4, tax.n_classes)
    out = hier_transform(base, tax)
    lv = tax.level
    for _ in range(3):
        g = verify.dominating_monotone_surface(rng, out, tax)
        assert np.all(g >= base)
        for level in range(1, lv.max()):  # g keeps the level ordering
            if (lv <= level).any() and (lv > level).any():
                assert np.all(
                    g[:, lv > level].min(axis=1) >= g[:, lv <= level].max(axis=1)
                )
        assert np.all(out <= g)


def test_transform_of_zero_one_loss_stays_binary(rng, height4_forest):
    tax = height4_forest
    pos = [tax.id_of("1"), tax.id_of("1/2")]
    y = -np.ones((5, tax.n_classes))
    y[:, pos] = 1.0
    s = rng.uniform(0.0, 1.0, size=y.shape)
    out = hier_transform(zero_one_errors(y, s, 0.5), tax)
    assert set(np.unique(out)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# transform backward
# ---------------------------------------------------------------------------


def test_backward_identity_routing_passes_through():
    routing = np.tile(np.arange(3), (2, 1))
    upstream = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert np.array_equal(hier_transform_backward(routing, upstream), upstream)


def test_backward_accumulates_routed_mass(two_level_chain):
    p, q = two_level_chain.id_of("p"), two_level_chain.id_of("p/q")
    routing = np.zeros((1, 2), dtype=np.int64)
    routing[0, p], routing[0, q] = p, p  # deep column routed to shallow
    upstream = np.ones((1, 2))
    out = hier_transform_backward(routing, upstream)
    assert out[0, p] == 2.0 and out[0, q] == 0.0


def test_backward_shape_mismatch():
    with pytest.raises(ValueError):
        hier_transform_backward(np.zeros((1, 2), dtype=np.int64), np.zeros((1, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_backward_matches_finite_differences_away_from_ties(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng, max_classes=4, max_depth=3)
    n = 3
    # pairwise-distinct entries per row keep the max's argument stable
    base = rng.permuted(
        np.arange(n * tax.n_classes, dtype=np.float64).reshape(n, -1) * 0.37 + 0.1,
        axis=1,
    )
    upstream = rng.uniform(0.5, 1.5, size=base.shape)
    _, routing = SLOW_TRANSFORMS[SCOPE_ALL_SHALLOWER](base, tax)
    analytic = hier_transform_backward(routing, upstream)
    h = 1e-5
    fd = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        bp, bm = base.copy(), base.copy()
        bp[idx] += h
        bm[idx] -= h
        fp = (hier_transform(bp, tax) * upstream).sum()
        fm = (hier_transform(bm, tax) * upstream).sum()
        fd[idx] = (fp - fm) / (2 * h)
    assert verify.max_rel_err(analytic, fd) < 1e-4


# ---------------------------------------------------------------------------
# label-matrix validation
# ---------------------------------------------------------------------------


def test_label_matrix_requires_ancestor_closure(two_level_chain):
    y = -np.ones((1, 2))
    y[0, two_level_chain.id_of("p/q")] = 1.0  # child positive, parent negative
    with pytest.raises(ValueError):
        check_label_matrix(y, two_level_chain)


def test_label_matrix_requires_a_positive(two_level_chain):
    with pytest.raises(ValueError):
        check_label_matrix(-np.ones((1, 2)), two_level_chain)


def test_label_matrix_rejects_other_values(two_level_chain):
    y = np.array([[1.0, 0.5]])
    with pytest.raises(ValueError):
        check_label_matrix(y, two_level_chain)


def test_label_matrix_names_the_first_orphaned_class_in_id_order():
    t = parse_hierarchy(["a", "a/x", "b", "b/y"])
    y = -np.ones((2, 4))
    y[0, [t.id_of("b/y")]] = 1.0  # first row breaks closure at the later id
    y[1, [t.id_of("a/x")]] = 1.0
    with pytest.raises(ValueError, match=r"class 'a/x' positive without its parent"):
        check_label_matrix(y, t)
    y[1, t.id_of("a")] = 1.0
    with pytest.raises(ValueError, match=r"class 'b/y' positive without its parent"):
        check_label_matrix(y, t)
    y[0, t.id_of("b")] = 1.0
    assert check_label_matrix(y, t) is y
