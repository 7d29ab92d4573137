"""Each vectorised hot path against the slow version it replaced.

The references below are the per-class ancestors-only loop, an independent
per-class all-shallower scan, the ``np.add.at`` scatter, the allocating
Adam step, the per-mode dispatch of the training loss that the loss
specs in ``curriculum`` replaced, the parent-walking tree queries that the
``Taxonomy.path_ids`` table replaced, the per-example ranking and LCA loops
of ``metrics.evaluate``, and the per-class loops of label closure and of the
native label writer. The fast paths keep their arithmetic, so every
comparison is bitwise (``np.array_equal``), not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import curriculum, data, losses, metrics, mlp, verify
from hcl.losses import SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY, hier_transform
from hcl.taxonomy import VIRTUAL_ROOT, parse_hierarchy

BLOCK = losses._BLOCK_ROWS
# one row, exactly one block, and several blocks plus a partial one
ROW_COUNTS = (1, BLOCK, 2 * BLOCK + BLOCK // 3)


def slow_ancestors_only(base, tax):
    """Per-class loop down each root path, one column at a time."""
    base = np.asarray(base, dtype=np.float64)
    out = np.empty_like(base)
    routing = np.empty(base.shape, dtype=np.int64)
    chain_val = np.empty_like(base)
    chain_min = np.empty(base.shape, dtype=np.int64)
    for ids in tax.levels_index[1:]:
        for j in ids:
            col = base[:, j]
            p = tax.parent[j]
            if p is None:
                out[:, j] = col
                routing[:, j] = j
                chain_val[:, j] = col
                chain_min[:, j] = j
                continue
            anc_val = chain_val[:, p]
            anc_min = chain_min[:, p]
            own_wins = ~(col < anc_val)
            out[:, j] = np.maximum(col, anc_val)
            routing[:, j] = np.where(own_wins, j, anc_min)
            tie = col == anc_val
            chain_min[:, j] = np.where(
                col > anc_val, j, np.where(tie, np.minimum(anc_min, j), anc_min)
            )
            chain_val[:, j] = np.maximum(col, anc_val)
    return out, routing


def slow_all_shallower(base, tax):
    """Per-class scan of every strictly shallower column."""
    base = np.asarray(base, dtype=np.float64)
    out = base.copy()
    routing = np.tile(np.arange(tax.n_classes), (base.shape[0], 1))
    lv = np.asarray(tax.level)
    for j in range(tax.n_classes):
        shallower = np.flatnonzero(lv < lv[j])  # ascending ids
        if not len(shallower):
            continue
        sub = base[:, shallower]
        val = sub.max(axis=1)
        arg = shallower[np.argmax(sub, axis=1)]  # smallest id among maximizers
        col = base[:, j]
        out[:, j] = np.maximum(col, val)
        routing[:, j] = np.where(~(col < val), j, arg)
    return out, routing


SLOW_TRANSFORMS = {
    SCOPE_ALL_SHALLOWER: slow_all_shallower,
    SCOPE_ANCESTORS_ONLY: slow_ancestors_only,
}


def slow_backward(routing, upstream):
    """The ``np.add.at`` scatter."""
    upstream = np.asarray(upstream, dtype=np.float64)
    out = np.zeros_like(upstream)
    rows = np.broadcast_to(np.arange(routing.shape[0])[:, None], routing.shape)
    np.add.at(out, (rows, routing), upstream)
    return out


def slow_adam_step(state, params, grads, lr):
    """Allocating Adam step; ``state`` holds ``m``, ``v`` lists and ``t``."""
    state["t"] += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    for i, (p, g) in enumerate(zip(params.arrays(), grads.arrays())):
        state["m"][i] = b1 * state["m"][i] + (1 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1 - b2) * g * g
        mhat = state["m"][i] / (1 - b1 ** state["t"])
        vhat = state["v"][i] / (1 - b2 ** state["t"])
        p -= lr * mhat / (np.sqrt(vhat) + eps)


def slow_selection_and_loss(scores, y, taxonomy, cfg):
    """The retired per-mode epoch-end pass: selection vector and logged
    loss, with the hcl mode's pipeline written out."""
    n = len(y)
    c = taxonomy.n_classes
    mode = cfg.loss_mode
    if mode == "ce":
        return np.ones(c), float(losses.bce_loss(y, scores).sum() / n)
    if mode == "focal":
        return np.ones(c), float(losses.focal_loss(y, scores, cfg.focal_gamma).sum() / n)
    if mode == "hcl-hier":
        lh, _ = losses.hier_transform(losses.bce_loss(y, scores), taxonomy, cfg.transform_scope)
        return np.ones(c), float(lh.sum() / n)
    if mode == "hcl-cl":
        base = losses.bce_loss(y, scores)
        e01 = losses.zero_one_loss(y, scores, cfg.decision_threshold)
        agg = curriculum.aggregate_class_losses(base, e01)
        s = curriculum.select_classes(agg, c, cfg.selection_rule, cfg.selection_thresh)
        return s, curriculum.curriculum_objective(s, agg, c) / n
    lh, _ = losses.hier_transform(losses.bce_loss(y, scores), taxonomy, cfg.transform_scope)
    e01 = losses.zero_one_loss(y, scores, cfg.decision_threshold)
    e_h, _ = losses.hier_transform(e01, taxonomy, cfg.transform_scope)
    agg = curriculum.aggregate_class_losses(lh, e_h)
    s = curriculum.select_classes(agg, c, cfg.selection_rule, cfg.selection_thresh)
    return s, curriculum.curriculum_objective(s, agg, c) / n


def slow_batch_dscores(xb_scores, yb, s, taxonomy, cfg):
    """The retired per-mode gradient of the batch loss w.r.t. the scores."""
    b = len(yb)
    mode = cfg.loss_mode
    if mode == "ce":
        return losses.bce_grad(yb, xb_scores) / b
    if mode == "focal":
        return losses.focal_grad(yb, xb_scores, cfg.focal_gamma) / b
    base_grad = losses.bce_grad(yb, xb_scores)
    if mode == "hcl-cl":
        return (s[None, :] * base_grad) / b
    base = losses.bce_loss(yb, xb_scores)
    _, routing = losses.hier_transform(base, taxonomy, cfg.transform_scope)
    upstream = np.ones_like(base) if mode == "hcl-hier" else np.broadcast_to(s, base.shape)
    w = losses.hier_transform_backward(routing, upstream)
    return (w * base_grad) / b


def _forest(rng):
    """A random forest with leaves at several depths, at least three levels."""
    while True:
        tax = verify.random_taxonomy(rng, max_classes=30, max_depth=5)
        depths = {tax.level[c] for c in tax.leaf_ids}
        if tax.max_level >= 3 and len(depths) >= 2:
            return tax


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
def test_transform_matches_slow_reference_across_row_blocks(scope, n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        tax = _forest(rng)
        base = verify.random_surface(rng, n, tax.n_classes)
        out, routing = hier_transform(base, tax, scope=scope)
        ref_out, ref_routing = SLOW_TRANSFORMS[scope](base, tax)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(routing, ref_routing)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transform_matches_slow_reference_on_random_forests(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    base = verify.random_surface(rng, int(rng.integers(1, 40)), tax.n_classes)
    for scope, slow in SLOW_TRANSFORMS.items():
        out, routing = hier_transform(base, tax, scope=scope)
        ref_out, ref_routing = slow(base, tax)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(routing, ref_routing)


@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
def test_nan_elements_route_to_themselves(scope):
    t = parse_hierarchy(["a", "a/x", "a/y", "b", "b/z"])
    a, bz = t.id_of("a"), t.id_of("b/z")
    base = np.ones((2, t.n_classes))
    base[0, a] = np.nan
    out, routing = hier_transform(base, t, scope=scope)
    nan = np.isnan(out)
    assert nan[0, a] and not nan[1].any()
    cols = np.broadcast_to(np.arange(t.n_classes), routing.shape)
    assert np.array_equal(routing[nan], cols[nan])
    assert routing.min() >= 0 and routing.max() < t.n_classes
    # nothing reaches b/z but its own upstream: no wrap-around from id -1
    grad = losses.hier_transform_backward(routing, np.ones_like(base))
    assert grad[0, bz] == 1.0
    ref_out, ref_routing = SLOW_TRANSFORMS[scope](base, t)
    assert np.array_equal(out, ref_out, equal_nan=True)
    assert np.array_equal(routing, ref_routing)


# ---------------------------------------------------------------------------
# backward scatter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_backward_matches_add_at_for_general_upstream(n):
    rng = np.random.default_rng(100 + n)
    tax = _forest(rng)
    c = tax.n_classes
    base = verify.random_surface(rng, n, c)
    for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
        _, routing = hier_transform(base, tax, scope=scope)
        selection = (rng.random(c) < 0.5).astype(np.float64)
        upstreams = (
            rng.normal(size=(n, c)),  # mixed signs
            np.zeros((n, c)),
            np.where(rng.random((n, c)) < 0.3, 0.0, -rng.uniform(0.1, 3.0, (n, c))),
            np.broadcast_to(selection, (n, c)),  # the curriculum's upstream
        )
        for upstream in upstreams:
            fast = losses.hier_transform_backward(routing, upstream)
            assert np.array_equal(fast, slow_backward(routing, upstream))


@pytest.mark.parametrize("bad", (-1, 3))
def test_backward_rejects_out_of_range_routing(bad):
    routing = np.tile(np.arange(3), (BLOCK + 2, 1))
    routing[-1, 0] = bad  # in the last, partial block
    with pytest.raises(ValueError, match="routing ids"):
        losses.hier_transform_backward(routing, np.ones(routing.shape))


# ---------------------------------------------------------------------------
# optimizer step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", (mlp._ADAM_CHUNK, 7))  # 7: many chunks, rows wider than one
@pytest.mark.parametrize("optimizer", ("adam", "sgd"))
def test_optimizer_step_matches_allocating_reference(optimizer, chunk, monkeypatch):
    monkeypatch.setattr(mlp, "_ADAM_CHUNK", chunk)
    rng = np.random.default_rng(7)
    cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=3e-3, hidden_width=9)
    params = mlp.init_params(5, 9, 4, seed=3)
    ref = params.copy()
    opt = mlp._Optimizer(cfg, params)
    state = {"m": [np.zeros_like(a) for a in ref.arrays()],
             "v": [np.zeros_like(a) for a in ref.arrays()], "t": 0}
    for _ in range(4):
        grads = mlp.MlpParams(*(rng.normal(scale=2.0, size=a.shape) for a in params.arrays()))
        opt.step(params, grads)
        if optimizer == "adam":
            slow_adam_step(state, ref, grads, cfg.learning_rate)
        else:
            for p, g in zip(ref.arrays(), grads.arrays()):
                p -= cfg.learning_rate * g
        for fast, slow in zip(params.arrays(), ref.arrays()):
            assert np.array_equal(fast, slow)
    if optimizer == "adam":
        for fast, slow in zip(opt.m + opt.v, state["m"] + state["v"]):
            assert np.array_equal(fast, slow)


# ---------------------------------------------------------------------------
# loss core
# ---------------------------------------------------------------------------


def _random_scores(rng, shape):
    """Sigmoid outputs, some drawn from a small grid so that losses tie,
    scores sit on the decision threshold and saturate past the clamp."""
    if rng.random() < 0.5:
        return rng.uniform(0.0, 1.0, size=shape)
    return rng.choice([0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0], size=shape)


def _random_train_config(rng, mode, scope):
    rule, thresh = curriculum.RULE_OPTIMAL_PREFIX, None
    if rng.random() < 0.25:
        rule, thresh = curriculum.RULE_FIXED_THRESHOLD, float(rng.uniform(0.0, 20.0))
    return mlp.TrainConfig(
        loss_mode=mode,
        transform_scope=scope,
        focal_gamma=float(rng.choice([0.0, 1.5, 2.0])),
        decision_threshold=float(rng.choice([0.5, 0.3])),
        selection_rule=rule,
        selection_thresh=thresh,
    )


@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
@pytest.mark.parametrize("mode", mlp.LOSS_MODES)
def test_loss_core_matches_retired_per_mode_dispatch(mode, scope):
    rng = np.random.default_rng(sum(map(ord, mode + scope)))
    spec = curriculum.LOSS_PRESETS[mode]
    for _ in range(12):
        tax = verify.random_taxonomy(rng)
        cfg = _random_train_config(rng, mode, scope)
        n = int(rng.integers(1, 2 * BLOCK + 10))
        y = np.where(rng.random((n, tax.n_classes)) < 0.3, 1.0, -1.0)
        scores = _random_scores(rng, y.shape)

        s_ref, loss_ref = slow_selection_and_loss(scores, y, tax, cfg)
        value, s = curriculum.hcl_loss(
            y, scores, tax, spec, gamma=cfg.focal_gamma, scope=scope,
            decision_threshold=cfg.decision_threshold,
            rule=cfg.selection_rule, thresh=cfg.selection_thresh,
        )
        assert np.array_equal(s, s_ref)
        assert value / n == loss_ref

        # a batch under the epoch's selection, as the training loop forms it
        batch = rng.permutation(n)[:BLOCK]
        yb, sb = y[batch], scores[batch]
        grad = curriculum.hcl_grad(yb, sb, s, tax, spec, cfg.focal_gamma, scope) / len(batch)
        assert np.array_equal(grad, slow_batch_dscores(sb, yb, s, tax, cfg))


def _focal_tie_free_scores(rng, y, margin=1e-3):
    """Scores with true-class probability in [0.05, 0.7], where focal loss
    is steep, and pairwise-distinct focal losses per example."""
    for _ in range(200):
        pt = rng.uniform(0.05, 0.7, size=y.shape)
        scores = np.where(y > 0, pt, 1.0 - pt)
        rows = np.sort(losses.focal_loss(y, scores, 2.0), axis=1)
        if y.shape[1] < 2 or np.diff(rows, axis=1).min() > margin:
            return scores
    raise RuntimeError("could not draw tie-free focal losses")


@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
def test_focal_transform_curriculum_gradient_matches_finite_differences(scope):
    """The spec no loss mode names: focal base, transform and curriculum."""
    spec = curriculum.LossSpec("focal", transform=True, curriculum=True)
    rng = np.random.default_rng(17)
    for _ in range(10):
        tax = verify.random_taxonomy(rng, max_classes=6, max_depth=3)
        n, c = int(rng.integers(2, 5)), tax.n_classes
        y = np.where(rng.random((n, c)) < 0.5, -1.0, 1.0)
        scores = _focal_tie_free_scores(rng, y)
        _, s_epoch = curriculum.hcl_loss(y, scores, tax, spec, gamma=2.0, scope=scope)
        for s in (s_epoch, (rng.random(c) < 0.5).astype(np.float64)):

            def objective(sc, s=s):
                lh, _ = hier_transform(losses.focal_loss(y, sc, 2.0), tax, scope)
                return float((s[None, :] * lh).sum())

            analytic = curriculum.hcl_grad(y, scores, s, tax, spec, 2.0, scope)
            fd = verify._fd_grad(objective, scores)
            assert verify.max_rel_err(analytic, fd) < verify.GRAD_RTOL


# ---------------------------------------------------------------------------
# tree queries, metrics and label encoding
# ---------------------------------------------------------------------------


def slow_ancestors(tax, c):
    """Strict ancestors, nearest first, by walking ``parent``."""
    out = []
    p = tax.parent[c]
    while p is not None:
        out.append(p)
        p = tax.parent[p]
    return out


def slow_lca(tax, a, b):
    """Climb the deeper class to the other's level, then both in step."""
    while tax.level[a] > tax.level[b]:
        a = tax.parent[a]
    while tax.level[b] > tax.level[a]:
        b = tax.parent[b]
    while a != b:
        pa, pb = tax.parent[a], tax.parent[b]
        if pa is None or pb is None:
            return VIRTUAL_ROOT
        a, b = pa, pb
    return a


def slow_heights(tax):
    """Post-order over ``children`` by descending level."""
    h = np.zeros(tax.n_classes, dtype=np.int64)
    for c in sorted(range(tax.n_classes), key=lambda c: -tax.level[c]):
        if tax.children[c]:
            h[c] = 1 + max(h[k] for k in tax.children[c])
    return h


def slow_leaf_ids(tax):
    return np.asarray([c for c in range(tax.n_classes) if not tax.children[c]], dtype=np.int64)


def slow_top1_and_first_pos_rank(y, scores, cand):
    """The retired per-example scan for the first positive in rank order."""
    sub = scores[:, cand]
    order = np.lexsort((np.broadcast_to(cand, sub.shape), -sub), axis=1)
    ranked = cand[order]
    top1 = ranked[:, 0]
    first = np.zeros(len(y), dtype=np.int64)
    for i in range(len(y)):
        hits = np.flatnonzero(y[i, ranked[i]] == 1)
        first[i] = hits[0] + 1 if len(hits) else 0
    return top1, first


def slow_per_example_dist(y, top1, tax):
    """The retired minimum over positives of the height of their LCA with
    the prediction, the virtual root counting as the whole tree's height."""
    heights = slow_heights(tax)

    def node_height(v):
        return max(tax.level) if v == VIRTUAL_ROOT else int(heights[v])

    dist = np.zeros(len(y), dtype=np.float64)
    for i in range(len(y)):
        p = int(top1[i])
        if y[i, p] == 1:
            continue
        positives = np.flatnonzero(y[i] == 1)
        dist[i] = min(node_height(slow_lca(tax, int(c), p)) for c in positives)
    return dist


def slow_evaluate(y, scores, tax, leaves_only):
    cand = slow_leaf_ids(tax) if leaves_only else np.arange(tax.n_classes)
    top1, first = slow_top1_and_first_pos_rank(y, scores, cand)
    hits = (y[np.arange(len(y)), top1] == 1).astype(np.float64)
    rr = np.where(first > 0, 1.0 / np.maximum(first, 1), 0.0)
    dist = slow_per_example_dist(y, top1, tax)
    rows = [(tax.class_names[int(t)], int(f), float(d)) for t, f, d in zip(top1, first, dist)]
    return float(hits.mean()), float(rr.mean()), float(dist.mean()), rows


def slow_close_labels(positives_per_row, tax):
    """The retired nested loop: each positive, then each of its ancestors."""
    y = np.full((len(positives_per_row), tax.n_classes), -1, dtype=np.int8)
    for i, pos in enumerate(positives_per_row):
        for c in pos:
            y[i, c] = 1
            for a in slow_ancestors(tax, c):
                y[i, a] = 1
    return y


def slow_native_label_lines(labels, tax):
    """The retired per-child scan: a positive is listed unless a child is."""
    lines = []
    for yrow in labels:
        pos = np.flatnonzero(yrow == 1)
        maximal = [c for c in pos if not any(yrow[k] == 1 for k in tax.children[c])]
        lines.append(";".join(tax.class_names[c] for c in maximal))
    return lines


def _big_forest(rng):
    return verify.random_taxonomy(rng, max_classes=40, max_depth=6)


def _random_positives(rng, tax, n, allow_empty=False):
    """Per-row positive id lists with several entries, repeats, and classes
    listed together with their own ancestors."""
    lo = 0 if allow_empty else 1
    return [
        [int(c) for c in rng.integers(0, tax.n_classes, size=int(rng.integers(lo, 5)))]
        for _ in range(n)
    ]


def _tie_prone_scores(rng, shape):
    """Uniform scores, or draws from a small grid with NaN, infinities and
    both signed zeros, so that ranks tie often."""
    if rng.random() < 0.3:
        return rng.uniform(0.0, 1.0, size=shape)
    grid = [np.nan, -np.inf, np.inf, -0.0, 0.0, 0.25, 0.5, 1.0]
    return rng.choice(grid, size=shape)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_tree_queries_match_parent_walks(seed):
    tax = _big_forest(np.random.default_rng(seed))
    c = tax.n_classes
    assert np.array_equal(tax.heights, slow_heights(tax))
    assert tax.heights.dtype == np.int64
    assert np.array_equal(tax.leaf_ids, slow_leaf_ids(tax))
    assert tax.leaf_ids.dtype == np.int64
    assert tax.max_level == max(tax.level)
    assert tax.node_height(VIRTUAL_ROOT) == max(tax.level)
    for a in range(c):
        assert tax.ancestors(a) == slow_ancestors(tax, a)
        for b in range(c):
            assert tax.lca(a, b) == slow_lca(tax, a, b)


@pytest.mark.parametrize("leaves_only", (False, True))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_evaluate_matches_retired_per_example_loops(seed, leaves_only):
    rng = np.random.default_rng(seed)
    tax = _big_forest(rng)
    n = int(rng.integers(1, 30))
    y = slow_close_labels(_random_positives(rng, tax, n), tax)
    scores = _tie_prone_scores(rng, y.shape)
    report = metrics.evaluate(y, scores, tax, leaves_only=leaves_only, per_example=True)
    hit, rr, dist, rows = slow_evaluate(y, scores, tax, leaves_only)
    assert (report.hit_at_1, report.mrr, report.hier_dist) == (hit, rr, dist)
    assert report.per_example == rows


def test_rank_classes_matches_lexsort_on_rows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = _tie_prone_scores(rng, (int(rng.integers(1, 20)), int(rng.integers(1, 40))))
        ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
        ref = np.lexsort((ids, -scores), axis=1)
        assert np.array_equal(metrics.rank_classes(scores), ref)
        assert np.array_equal(metrics.rank_classes(scores[0]), ref[0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_close_labels_matches_nested_loop(seed):
    rng = np.random.default_rng(seed)
    tax = _big_forest(rng)
    positives = _random_positives(rng, tax, int(rng.integers(0, 30)), allow_empty=True)
    y = data.close_labels(positives, tax)
    ref = slow_close_labels(positives, tax)
    assert y.dtype == ref.dtype and np.array_equal(y, ref)


def test_emit_native_labels_match_per_child_scan(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(20):
        tax = _big_forest(rng)
        y = slow_close_labels(_random_positives(rng, tax, int(rng.integers(1, 30))), tax)
        d = data.Dataset(features=rng.normal(size=(len(y), 2)), labels=y, taxonomy=tax)
        out = tmp_path / str(trial)
        data.emit_native(d, out)
        lines = (out / "labels.txt").read_text(encoding="utf-8").splitlines()
        assert lines == slow_native_label_lines(y, tax)
        assert np.array_equal(data.load_native_dir(out).labels, y)
