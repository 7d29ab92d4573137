"""Each vectorised hot path against the slow version it replaced.

The references below are the per-class ancestors-only loop, an independent
per-class all-shallower scan, the ``np.add.at`` scatter, the allocating
Adam step, the masked gather/scatter sigmoid and the allocating MLP
forward and backward passes (whose cache kept the pre-ReLU ``z1``), the
per-mode dispatch of the training loss that the loss
specs in ``curriculum`` replaced, the two-branch ``np.where`` bce loss and
gradient, the float 0-1 surface that the epoch-end pass summed, the
training loop that allocated each dropout mask afresh, the parent-walking
tree queries that the ``Taxonomy.path_ids`` table replaced, the per-example
ranking and LCA loops of ``metrics.evaluate``, the column-gather check of
``losses.check_label_matrix``, the per-class loops of label closure and
of the native label writer, and the per-example synthetic generator. The
tree references read each class's parent, children and level off its path
string (``tree_from_names``), not off the ``Taxonomy`` arrays under test.
The fast paths keep their arithmetic, so every comparison is bitwise
(``np.array_equal``), not within a tolerance.
"""

import json
from typing import NamedTuple

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


class Tree(NamedTuple):
    parent: list  # class id, or None for a top-level class
    children: list  # lists of class ids, ascending
    level: list


def tree_from_names(tax):
    """Parent, children and level of every class, read off the path strings."""
    sep = tax.separator
    ids = {name: i for i, name in enumerate(tax.class_names)}
    parts = [name.split(sep) for name in tax.class_names]
    parent = [ids[sep.join(q[:-1])] if len(q) > 1 else None for q in parts]
    children = [[] for _ in parts]
    for c, p in enumerate(parent):
        if p is not None:
            children[p].append(c)
    return Tree(parent, children, [len(q) for q in parts])


def slow_ancestors_only(base, tax):
    """Per-class loop down each root path, one column at a time."""
    base = np.asarray(base, dtype=np.float64)
    tree = tree_from_names(tax)
    out = np.empty_like(base)
    routing = np.empty(base.shape, dtype=np.int64)
    chain_val = np.empty_like(base)
    chain_min = np.empty(base.shape, dtype=np.int64)
    for lvl in range(1, max(tree.level) + 1):
        for j in [j for j in range(tax.n_classes) if tree.level[j] == lvl]:
            col = base[:, j]
            p = tree.parent[j]
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
    lv = np.asarray(tree_from_names(tax).level)
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


def _views(params):
    return params.W1, params.b1, params.W2, params.b2


def slow_adam_step(state, params, grads, lr):
    """Allocating Adam step over the four arrays; ``state`` holds ``m``,
    ``v`` lists and ``t``."""
    state["t"] += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    for i, (p, g) in enumerate(zip(_views(params), _views(grads))):
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


@pytest.mark.parametrize("chunk", (mlp._ADAM_CHUNK, 7))  # 7: many chunks, some across two arrays
@pytest.mark.parametrize("optimizer", ("adam", "sgd"))
def test_optimizer_step_matches_allocating_reference(optimizer, chunk, monkeypatch):
    monkeypatch.setattr(mlp, "_ADAM_CHUNK", chunk)
    rng = np.random.default_rng(7)
    cfg = mlp.TrainConfig(optimizer=optimizer, learning_rate=3e-3, hidden_width=9)
    params = mlp.init_params(5, 9, 4, seed=3)
    ref = params.copy()
    opt = mlp._Optimizer(cfg, params)
    state = {"m": [np.zeros_like(a) for a in _views(ref)],
             "v": [np.zeros_like(a) for a in _views(ref)], "t": 0}
    for _ in range(4):
        grads = mlp.MlpParams(rng.normal(scale=2.0, size=params.flat.size), params.dims)
        opt.step(params, grads)
        if optimizer == "adam":
            slow_adam_step(state, ref, grads, cfg.learning_rate)
        else:
            for p, g in zip(_views(ref), _views(grads)):
                p -= cfg.learning_rate * g
        for fast, slow in zip(_views(params), _views(ref)):
            assert np.array_equal(fast, slow)
    if optimizer == "adam":
        for fast, slow in ((opt.m, state["m"]), (opt.v, state["v"])):
            assert np.array_equal(fast, np.concatenate([a.ravel() for a in slow]))


# ---------------------------------------------------------------------------
# MLP forward and backward
# ---------------------------------------------------------------------------


def slow_sigmoid(z):
    """The masked gather/scatter sigmoid."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def slow_mlp_forward(params, x, dropout_mask=None, dropout_rate=0.0):
    """The allocating forward pass; its cache keeps the pre-ReLU ``z1``."""
    z1 = x @ params.W1 + params.b1
    hidden = np.maximum(z1, 0.0)
    mask_scale = None
    if dropout_mask is not None:
        mask_scale = dropout_mask / (1.0 - dropout_rate)
        hidden = hidden * mask_scale
    scores = slow_sigmoid(hidden @ params.W2 + params.b2)
    return scores, dict(x=x, z1=z1, hidden=hidden, mask_scale=mask_scale, scores=scores)


def slow_mlp_backward(params, cache, dscores):
    """The allocating backward pass, masking the ReLU with ``z1 > 0``."""
    dz2 = dscores * cache["scores"] * (1.0 - cache["scores"])
    dW2 = cache["hidden"].T @ dz2
    db2 = dz2.sum(axis=0)
    dhidden = dz2 @ params.W2.T
    if cache["mask_scale"] is not None:
        dhidden = dhidden * cache["mask_scale"]
    dz1 = dhidden * (cache["z1"] > 0)
    return cache["x"].T @ dz1, dz1.sum(axis=0), dW2, db2


def _same_bits(a, b):
    """Equal bit patterns: tells -0.0 from 0.0, unlike ``np.array_equal``."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("rate", (None, 0.25, 0.5))  # None: eval mode
@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("n_classes", (12, 584))  # desk and wide output widths
def test_mlp_forward_and_backward_match_allocating_reference(n_classes, n, rate):
    rng = np.random.default_rng(n_classes + n)
    params = mlp.init_params(16, 800, n_classes, seed=n)
    params.b1[:] = rng.normal(scale=0.5, size=800)
    params.b1[:8] = (0.0, -0.0) * 4  # exact zeros reach the ReLU from zero rows
    params.b2[:] = rng.normal(scale=4.0, size=n_classes)  # logits of both signs, some large
    x = rng.normal(scale=2.0, size=(n, 16))
    x[::7] = 0.0
    mask = None if rate is None else (rng.random((n, 800)) >= rate).astype(np.float64)
    kw = {} if rate is None else dict(dropout_mask=mask, dropout_rate=rate)

    scores, cache = mlp.forward(params, x, **kw)
    ref_scores, ref_cache = slow_mlp_forward(params, x, **kw)
    assert _same_bits(scores, ref_scores)
    assert _same_bits(cache.hidden, ref_cache["hidden"])
    upstreams = (
        rng.normal(size=(n, n_classes)),  # mixed signs
        -rng.uniform(0.1, 3.0, (n, n_classes)),  # dropped units give -0.0
        np.zeros((n, n_classes)),
    )
    reused = mlp.MlpParams(np.full_like(params.flat, np.nan), params.dims)
    for dscores in upstreams:
        ref = slow_mlp_backward(params, ref_cache, dscores)
        fresh = mlp.MlpParams(np.empty_like(params.flat), params.dims)
        for dest in (fresh, reused):  # reused holds NaN, then the last upstream's gradients
            grads = mlp.backward(params, cache, dscores, dest)
            assert grads is dest
            for fast, slow in zip(_views(grads), ref):
                assert _same_bits(fast, slow)


def test_sigmoid_matches_masked_reference_on_edge_logits():
    rng = np.random.default_rng(3)
    edges = np.array([np.inf, -np.inf, 0.0, -0.0, 745.0, -745.0, 800.0, -800.0,
                      -709.0, -720.0, -740.0, -744.5, np.nan, -np.nan])  # -7xx: subnormal
    z = rng.normal(scale=20.0, size=(2 * BLOCK + BLOCK // 3, 7))
    flat = z.reshape(-1)
    flat[rng.choice(flat.size, size=200, replace=False)] = np.resize(edges, 200)
    fast = mlp._sigmoid(z.copy())
    slow = slow_sigmoid(z)
    assert np.any((slow > 0) & (slow < np.finfo(np.float64).tiny))  # subnormal results occur
    nan = np.isnan(slow)
    assert np.array_equal(fast, slow, equal_nan=True)
    assert _same_bits(fast[~nan], slow[~nan])
    buf = z.copy()
    assert mlp._sigmoid(buf) is buf  # written into the logits


# ---------------------------------------------------------------------------
# loss core
# ---------------------------------------------------------------------------


def _random_scores(rng, shape):
    """Sigmoid outputs, some drawn from a small grid so that losses tie,
    scores sit on the decision threshold, saturate past the clamp or are
    NaN."""
    if rng.random() < 0.5:
        return rng.uniform(0.0, 1.0, size=shape)
    grid = [0.0, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0]
    if rng.random() < 0.5:
        grid.append(np.nan)
    return rng.choice(grid, size=shape)


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
        assert np.array_equal(value / n, loss_ref, equal_nan=True)

        # a batch under the epoch's selection, as the training loop forms it
        batch = rng.permutation(n)[:BLOCK]
        yb, sb = y[batch], scores[batch]
        grad = curriculum.hcl_grad(yb, sb, s, tax, spec, cfg.focal_gamma, scope) / len(batch)
        assert np.array_equal(grad, slow_batch_dscores(sb, yb, s, tax, cfg), equal_nan=True)


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
# epoch-end selection pass, batch loss and training loop
# ---------------------------------------------------------------------------


def slow_bce_loss(y, s):
    """The two-branch ``np.where`` bce loss, both branches on every element."""
    sc = np.clip(np.asarray(s, dtype=np.float64), losses.LOG_EPS, 1.0 - losses.LOG_EPS)
    return np.where(y > 0, -np.log(sc), -np.log1p(-sc))


def slow_bce_grad(y, s):
    """The two-branch ``np.where`` bce gradient."""
    sc = np.clip(np.asarray(s, dtype=np.float64), losses.LOG_EPS, 1.0 - losses.LOG_EPS)
    return np.where(y > 0, -1.0 / sc, 1.0 / (1.0 - sc))


def slow_zero_one_loss(y, s, decision_threshold):
    """The float 0-1 surface: the thresholded prediction against sign(y)."""
    pred = np.where(np.asarray(s, dtype=np.float64) > decision_threshold, 1.0, -1.0)
    return (pred != np.sign(y)).astype(np.float64)


def slow_train(dataset, taxonomy, cfg):
    """The training loop that drew each batch's dropout mask into fresh
    arrays, ``(rng.random((B, H)) >= rate).astype(float64)``, and wrote
    each batch's gradients into a fresh vector."""
    x_tr, y_tr = (a[dataset.indices("train")] for a in (dataset.features, dataset.labels))
    x_va, y_va = (a[dataset.indices("valid")] for a in (dataset.features, dataset.labels))
    spec = curriculum.LOSS_PRESETS[cfg.loss_mode]
    rng = np.random.default_rng(cfg.seed)
    params = mlp.init_params(dataset.n_features, cfg.hidden_width, taxonomy.n_classes, cfg.seed)
    opt = mlp._Optimizer(cfg, params)
    s = np.ones(taxonomy.n_classes)
    log = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(y_tr))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            mask = (rng.random((len(batch), cfg.hidden_width))
                    >= cfg.dropout_rate).astype(np.float64)
            scores, cache = mlp.forward(params, x_tr[batch], mask, cfg.dropout_rate)
            dscores = curriculum.hcl_grad(y_tr[batch], scores, s, taxonomy, spec,
                                          cfg.focal_gamma, cfg.transform_scope) / len(batch)
            grads = mlp.MlpParams(np.empty_like(params.flat), params.dims)
            opt.step(params, mlp.backward(params, cache, dscores, grads))
        value, s = curriculum.hcl_loss(
            y_tr, mlp.forward(params, x_tr)[0], taxonomy, spec, gamma=cfg.focal_gamma,
            scope=cfg.transform_scope, decision_threshold=cfg.decision_threshold,
            rule=cfg.selection_rule, thresh=cfg.selection_thresh,
        )
        rep = metrics.evaluate(y_va, mlp.forward(params, x_va)[0], taxonomy)
        log.append(mlp.EpochLog(epoch, value / len(y_tr), rep.hit_at_1, rep.mrr,
                                rep.hier_dist, s.copy()))
    return params, log


# 5e-324 and 1e-310 are subnormal
EDGE_SCORES = (0.0, -0.0, 1.0, losses.LOG_EPS, 1.0 - losses.LOG_EPS, 1e-9, 1.0 - 1e-9,
               5e-324, 1e-310, 0.5, 2.0, -1.0, np.inf, -np.inf, np.nan, -np.nan)


def _edge_scores(rng, shape):
    """Uniform scores with every edge value planted at random positions."""
    scores = rng.uniform(0.0, 1.0, size=shape)
    flat = scores.reshape(-1)
    k = min(flat.size, 400)
    flat[rng.choice(flat.size, size=k, replace=False)] = np.resize(EDGE_SCORES, k)
    return scores


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_bce_loss_and_grad_match_two_branch_where_on_edge_scores(n):
    rng = np.random.default_rng(40 + n)
    scores = _edge_scores(rng, (n, 37))
    assert len(np.unique(scores[~np.isnan(scores)])) >= len(EDGE_SCORES) - 3
    labels = (
        rng.choice([-1, 1], size=scores.shape).astype(np.int8),  # as datasets hold them
        rng.choice([-1.0, 1.0, 0.0, np.nan], size=scores.shape),
    )
    for y in labels:
        clamped = losses.clamp_scores(scores)
        before = clamped.copy()
        for fast, slow in ((losses.bce_loss, slow_bce_loss), (losses.bce_grad, slow_bce_grad)):
            ref = slow(y, scores)
            assert _same_bits(fast(y, scores), ref)
            assert _same_bits(fast(y, clamped, clamped=True), ref)
        assert _same_bits(clamped, before)  # read, never written


def _nan_tie_surface(rng, n, c):
    """A tie-prone surface, with NaN planted half of the time."""
    base = verify.random_surface(rng, n, c)
    if rng.random() < 0.5:
        base[rng.random(base.shape) < 0.1] = np.nan
    return base


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_in_place_value_sweep_equals_hier_transform_values(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    base = _nan_tie_surface(rng, int(rng.integers(1, 3 * BLOCK)), tax.n_classes)
    for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
        ref, _ = hier_transform(base, tax, scope=scope)
        surface = base.copy()
        assert losses.hier_transform_in_place(surface, tax, scope) is None
        assert _same_bits(surface, ref)
        # a bool surface is transformed as its 0/1 float surface
        bits = base >= 2.0
        ref01, _ = hier_transform(bits.astype(np.float64), tax, scope=scope)
        losses.hier_transform_in_place(bits, tax, scope)
        assert bits.dtype == np.bool_ and np.array_equal(bits, ref01 != 0)


@pytest.mark.parametrize("surface", (
    [[0.0, 1.0]],  # not an array
    np.zeros((1, 2), dtype=np.float32),
    np.zeros((1, 2), dtype=np.int64),
))
def test_in_place_value_sweep_rejects_what_it_cannot_overwrite_exactly(surface):
    tax = parse_hierarchy(["a", "a/x"])
    with pytest.raises(ValueError, match="float64 or bool array"):
        losses.hier_transform_in_place(surface, tax)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_error_count_equals_float_sum_of_transformed_zero_one_loss(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    shape = (int(rng.integers(1, 3 * BLOCK)), tax.n_classes)
    y = rng.choice([-1.0, 1.0, 0.0, np.nan], size=shape, p=[0.5, 0.3, 0.1, 0.1])
    if rng.random() < 0.5:
        y = rng.choice([-1, 1], size=shape).astype(np.int8)
    threshold = float(rng.choice([0.5, 0.3, 1e-9, 1.0 - 1e-9]))
    scores = _edge_scores(rng, shape)
    scores[rng.random(shape) < 0.1] = threshold  # on the threshold: predicts -1
    errors = losses.zero_one_errors(y, scores, decision_threshold=threshold)
    ref01 = slow_zero_one_loss(y, scores, threshold)
    assert errors.dtype == np.bool_ and np.array_equal(errors, ref01 != 0)
    assert _same_bits(losses.zero_one_loss(y, scores, threshold), ref01)
    for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
        e_h, _ = hier_transform(ref01, tax, scope=scope)
        e_bits = errors.copy()
        losses.hier_transform_in_place(e_bits, tax, scope)
        assert float(np.count_nonzero(e_bits)) == float(e_h.sum())


@pytest.mark.parametrize("threshold", (0.0, 1.0, -0.5, np.nan))
def test_zero_one_errors_validate_the_threshold(threshold):
    with pytest.raises(ValueError, match=r"decision_threshold must lie in \(0,1\)"):
        losses.zero_one_errors(np.ones((1, 2)), np.full((1, 2), 0.5), threshold)


@pytest.mark.parametrize("batch_size", (24, 1000))  # a short last batch; one partial batch
def test_dropout_training_matches_per_batch_mask_reference(batch_size):
    d = data.split(data.synth_generate(data.SynthConfig(
        levels=3, branching=2, examples_per_leaf=15, feature_dim=5, seed=2)), seed=0)
    n_train = len(d.indices("train"))
    assert n_train % 24 and n_train < 1000
    cfg = mlp.TrainConfig(hidden_width=16, epochs=3, seed=5, batch_size=batch_size,
                          dropout_rate=0.25)
    params, log = mlp.train(d, d.taxonomy, cfg)
    ref_params, ref_log = slow_train(d, d.taxonomy, cfg)
    as_jsonl = [json.dumps(e.jsonl_dict(), sort_keys=True) for e in log]  # as metrics.jsonl
    assert as_jsonl == [json.dumps(e.jsonl_dict(), sort_keys=True) for e in ref_log]
    assert _same_bits(params.flat, ref_params.flat)


# ---------------------------------------------------------------------------
# tree queries, metrics and label encoding
# ---------------------------------------------------------------------------


def slow_ancestors(tree, c):
    """Strict ancestors, nearest first, by walking ``parent``."""
    out = []
    p = tree.parent[c]
    while p is not None:
        out.append(p)
        p = tree.parent[p]
    return out


def slow_lca(tree, a, b):
    """Climb the deeper class to the other's level, then both in step."""
    while tree.level[a] > tree.level[b]:
        a = tree.parent[a]
    while tree.level[b] > tree.level[a]:
        b = tree.parent[b]
    while a != b:
        pa, pb = tree.parent[a], tree.parent[b]
        if pa is None or pb is None:
            return VIRTUAL_ROOT
        a, b = pa, pb
    return a


def slow_heights(tree):
    """Post-order over ``children`` by descending level."""
    h = np.zeros(len(tree.level), dtype=np.int64)
    for c in sorted(range(len(tree.level)), key=lambda c: -tree.level[c]):
        if tree.children[c]:
            h[c] = 1 + max(h[k] for k in tree.children[c])
    return h


def slow_leaf_ids(tree):
    return np.asarray([c for c, kids in enumerate(tree.children) if not kids], dtype=np.int64)


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


def slow_per_example_dist(y, top1, tree):
    """The retired minimum over positives of the height of their LCA with
    the prediction, the virtual root counting as the whole tree's height."""
    heights = slow_heights(tree)

    def node_height(v):
        return max(tree.level) if v == VIRTUAL_ROOT else int(heights[v])

    dist = np.zeros(len(y), dtype=np.float64)
    for i in range(len(y)):
        p = int(top1[i])
        if y[i, p] == 1:
            continue
        positives = np.flatnonzero(y[i] == 1)
        dist[i] = min(node_height(slow_lca(tree, int(c), p)) for c in positives)
    return dist


def slow_evaluate(y, scores, tax, leaves_only):
    tree = tree_from_names(tax)
    cand = slow_leaf_ids(tree) if leaves_only else np.arange(tax.n_classes)
    top1, first = slow_top1_and_first_pos_rank(y, scores, cand)
    hits = (y[np.arange(len(y)), top1] == 1).astype(np.float64)
    rr = np.where(first > 0, 1.0 / np.maximum(first, 1), 0.0)
    dist = slow_per_example_dist(y, top1, tree)
    rows = [(tax.class_names[int(t)], int(f), float(d)) for t, f, d in zip(top1, first, dist)]
    return float(hits.mean()), float(rr.mean()), float(dist.mean()), rows


def slow_close_labels(positives_per_row, tax):
    """The retired nested loop: each positive, then each of its ancestors."""
    tree = tree_from_names(tax)
    y = np.full((len(positives_per_row), tax.n_classes), -1, dtype=np.int8)
    for i, pos in enumerate(positives_per_row):
        for c in pos:
            y[i, c] = 1
            for a in slow_ancestors(tree, c):
                y[i, a] = 1
    return y


def slow_synth_generate(cfg):
    """The retired per-example generator: a dict of centers keyed by path,
    one draw per direction and per example row, positives as per-row lists
    closed by the nested loop. Class order, leaves and siblings are read
    off the path strings."""
    rng = np.random.default_rng(cfg.seed)
    frontier, names = [""], []
    for _ in range(cfg.levels - 1):
        frontier = [f"{p}/{k}" if p else f"{k}" for p in frontier for k in range(cfg.branching)]
        names += frontier
    names = sorted(names)
    ids = {name: i for i, name in enumerate(names)}
    centers = {"": np.zeros(cfg.feature_dim)}
    for name in names:
        parts = name.split("/")
        direction = rng.standard_normal(cfg.feature_dim)
        direction /= np.linalg.norm(direction)
        scale = cfg.cluster_separation * 0.5 ** (len(parts) - 1)
        centers[name] = centers["/".join(parts[:-1])] + scale * direction
    leaves = [name for name in names if name.count("/") == cfg.levels - 2]
    features, positives = [], []
    for leaf in leaves:
        parent = leaf.rpartition("/")[0]
        siblings = [ids[s] for s in leaves if s.rpartition("/")[0] == parent and s != leaf]
        for _ in range(cfg.examples_per_leaf):
            features.append(centers[leaf]
                            + data.FEATURE_NOISE_SCALE * rng.standard_normal(cfg.feature_dim))
            labeled = ids[leaf]
            if cfg.label_noise > 0 and siblings and rng.random() < cfg.label_noise:
                labeled = siblings[rng.integers(len(siblings))]
            positives.append([labeled])
    return np.array(features), slow_close_labels(positives, parse_hierarchy(names)), tuple(names)


def slow_native_label_lines(labels, tax):
    """The retired per-child scan: a positive is listed unless a child is."""
    children = tree_from_names(tax).children
    lines = []
    for yrow in labels:
        pos = np.flatnonzero(yrow == 1)
        maximal = [c for c in pos if not any(yrow[k] == 1 for k in children[c])]
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


def _edge_rows(rng, tax, n):
    """Labels and scores in which each row is, at random: all NaN; NaN on
    every positive; all tied (signed zeros); -inf on every positive with NaN
    or 0.5 on the negatives; positive only above the leaves (no positive
    leaf); or, half of the time, tie-prone throughout."""
    inner = np.flatnonzero(tax.heights > 0)
    kinds = rng.integers(0, 10, size=n)
    positives = _random_positives(rng, tax, n)
    for i in np.flatnonzero(kinds == 4):
        if len(inner):
            positives[i] = [int(rng.choice(inner))]
    y = slow_close_labels(positives, tax)
    scores = _tie_prone_scores(rng, y.shape)
    for i, kind in enumerate(kinds):
        pos = y[i] == 1
        if kind == 0:
            scores[i] = np.nan
        elif kind == 1:
            scores[i, pos] = np.nan
        elif kind == 2:
            scores[i] = rng.choice([-0.0, 0.0], size=tax.n_classes)
        elif kind == 3:
            scores[i] = rng.choice([np.nan, 0.5], size=tax.n_classes)
            scores[i, pos] = -np.inf
    return y, scores


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_tree_queries_match_parent_walks(seed):
    tax = _big_forest(np.random.default_rng(seed))
    tree = tree_from_names(tax)
    c = tax.n_classes
    assert np.array_equal(tax.parent_ids, [VIRTUAL_ROOT if p is None else p for p in tree.parent])
    assert np.array_equal(tax.level, tree.level)
    assert tax.parent_ids.dtype == tax.level.dtype == np.int64
    assert np.array_equal(tax.heights, slow_heights(tree))
    assert tax.heights.dtype == np.int64
    assert np.array_equal(tax.leaf_ids, slow_leaf_ids(tree))
    assert tax.leaf_ids.dtype == np.int64
    assert tax.max_level == max(tree.level)
    for a in range(c):
        assert tax.ancestors(a) == slow_ancestors(tree, a)
        for b in range(c):
            assert tax.lca(a, b) == slow_lca(tree, a, b)


@pytest.mark.parametrize("leaves_only", (False, True))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_evaluate_matches_retired_per_example_loops(seed, leaves_only):
    rng = np.random.default_rng(seed)
    tax = _big_forest(rng)
    n = int(rng.integers(1, 30))
    y, scores = _edge_rows(rng, tax, n)
    _check_evaluate(y, scores, tax, leaves_only)


def _wide_forest(rng):
    """A random forest of at least 100 classes."""
    while True:
        tax = verify.random_taxonomy(rng, max_classes=160, max_depth=6)
        if tax.n_classes >= 100:
            return tax


def _scores_with_top(rng, y, want_hit):
    """Uniform scores, NaN on about a tenth of the entries, and one column
    per row lifted to 2.0: a positive where ``want_hit[i]``, else a negative.
    Rows with no negative take a positive either way."""
    scores = rng.uniform(0.0, 1.0, size=y.shape)
    scores[rng.random(y.shape) < 0.1] = np.nan
    for i, hit in enumerate(want_hit):
        pool = np.flatnonzero((y[i] == 1) == hit)
        if len(pool) == 0:
            pool = np.flatnonzero(y[i] == 1)
        scores[i, rng.choice(pool)] = 2.0
    return scores


def _check_evaluate(y, scores, tax, leaves_only):
    report = metrics.evaluate(y, scores, tax, leaves_only=leaves_only, per_example=True)
    hit, rr, dist, rows = slow_evaluate(y, scores, tax, leaves_only)
    assert (report.hit_at_1, report.mrr, report.hier_dist) == (hit, rr, dist)
    assert report.per_example == rows
    return report


@pytest.mark.parametrize("kind", ("all-hit", "all-miss", "mixed"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_evaluate_matches_retired_loops_on_hits_and_misses(seed, kind):
    rng = np.random.default_rng(seed)
    tax = _wide_forest(rng)
    n = int(rng.integers(1, 40))
    y = slow_close_labels(_random_positives(rng, tax, n), tax)
    want_hit = {"all-hit": np.ones(n, bool), "all-miss": np.zeros(n, bool),
                "mixed": rng.random(n) < 0.5}[kind]
    report = _check_evaluate(y, _scores_with_top(rng, y, want_hit), tax, leaves_only=False)
    if kind != "mixed":
        assert report.hit_at_1 == want_hit[0]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_evaluate_leaves_only_without_a_positive_leaf(seed):
    rng = np.random.default_rng(seed)
    tax = _wide_forest(rng)
    inner = np.flatnonzero(tax.heights > 0)
    n = int(rng.integers(1, 30))
    y = slow_close_labels([[int(rng.choice(inner))] for _ in range(n)], tax)
    scores = rng.choice([np.nan, 0.0, 0.25, 0.5, 1.0], size=y.shape)
    report = _check_evaluate(y, scores, tax, leaves_only=True)
    assert report.hit_at_1 == report.mrr == 0.0
    assert [first for _, first, _ in report.per_example] == [0] * n


# ---------------------------------------------------------------------------
# label-matrix check
# ---------------------------------------------------------------------------


def slow_check_label_matrix(y, tax):
    """The retired check: each non-root class's column gathered against its
    parent's column, the parent read off the path strings."""
    parent = tree_from_names(tax).parent
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1] != tax.n_classes:
        raise ValueError(f"label matrix shape {y.shape} does not match C={tax.n_classes}")
    pos = y == 1
    if not (pos | (y == -1)).all():
        raise ValueError("label matrix entries must be -1 or +1")
    has_pos = pos.any(axis=1)
    if not has_pos.all():
        bad = int(np.flatnonzero(~has_pos)[0])
        raise ValueError(f"example {bad} has no positive class")
    children = np.asarray([c for c, p in enumerate(parent) if p is not None], dtype=np.int64)
    parents = np.asarray([parent[c] for c in children], dtype=np.int64)
    orphaned = (pos[:, children] & ~pos[:, parents]).any(axis=0)
    if orphaned.any():
        c = int(children[np.argmax(orphaned)])
        raise ValueError(
            f"label matrix is not ancestor-closed: class "
            f"{tax.class_names[c]!r} positive without its parent"
        )
    return y


def _outcome(check, y, tax):
    """``check``'s result: True when it returns ``y`` itself, else its message."""
    try:
        return check(y, tax) is y
    except ValueError as exc:
        return str(exc)


def _corrupt_labels(rng, y, tax):
    """Closed labels with, at random: orphans made by clearing the parents of
    positives at several depths, entries other than +-1, or rows with no
    positive."""
    y = y.copy()
    kind = int(rng.integers(0, 4))
    if kind == 1:
        r, c = np.nonzero(y == 1)
        deep = np.flatnonzero(tax.parent_ids[c] != VIRTUAL_ROOT)
        for k in rng.choice(deep, size=min(len(deep), int(rng.integers(1, 4))), replace=False):
            y[r[k], tax.parent_ids[c[k]]] = -1
    elif kind == 2:
        bad = [0, 2, -2, 127] if y.dtype == np.int8 else [0.0, 0.5, 2.0, np.nan, np.inf]
        y[rng.integers(0, len(y)), rng.integers(0, tax.n_classes)] = rng.choice(bad)
    elif kind == 3:
        y[rng.integers(0, len(y))] = -1
    return y


@pytest.mark.parametrize("dtype", (np.int8, np.float64, np.float32))
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_label_check_matches_retired_column_gather(seed, dtype):
    rng = np.random.default_rng(seed)
    tax = _big_forest(rng)
    positives = _random_positives(rng, tax, int(rng.integers(1, 30)))
    y = _corrupt_labels(rng, slow_close_labels(positives, tax).astype(dtype), tax)
    want = _outcome(slow_check_label_matrix, y, tax)
    assert _outcome(losses.check_label_matrix, y, tax) == want


def _lexsort_rows(scores):
    """Column ids of each row in rank order by the retired ``lexsort``."""
    ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    return np.lexsort((ids, -scores), axis=1)


def _rank_test_scores(rng):
    scores = _tie_prone_scores(rng, (int(rng.integers(1, 20)), int(rng.integers(1, 40))))
    scores[rng.random(len(scores)) < 0.2] = np.nan
    return scores


def test_rank_of_is_the_lexsort_position():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = _rank_test_scores(rng)
        n, c = scores.shape
        position = np.argsort(_lexsort_rows(scores), axis=1) + 1
        for j in range(c):
            assert np.array_equal(metrics._rank_of(scores, np.full(n, j)), position[:, j])


def test_first_in_rank_is_the_first_allowed_column_in_lexsort_order():
    rng = np.random.default_rng(6)
    for _ in range(20):
        scores = _rank_test_scores(rng)
        n, c = scores.shape
        order = _lexsort_rows(scores)
        assert np.array_equal(metrics._first_in_rank(scores), order[:, 0])
        allowed = rng.random((n, c)) < 0.3
        allowed[np.arange(n), rng.integers(0, c, size=n)] = True
        ref = [row[allowed[i, row]][0] for i, row in enumerate(order)]
        assert np.array_equal(metrics._first_in_rank(scores, allowed), ref)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_close_labels_matches_nested_loop(seed):
    rng = np.random.default_rng(seed)
    tax = _big_forest(rng)
    positives = _random_positives(rng, tax, int(rng.integers(0, 30)), allow_empty=True)
    rows = np.array([i for i, pos in enumerate(positives) for _ in pos], dtype=np.int64)
    ids = np.array([c for pos in positives for c in pos], dtype=np.int64)
    order = rng.permutation(len(ids))  # closure must not depend on the pairs' order
    y = data.close_labels(rows[order], ids[order], len(positives), tax)
    ref = slow_close_labels(positives, tax)
    assert y.dtype == ref.dtype and np.array_equal(y, ref)


@pytest.mark.parametrize("label_noise", (0.0, 0.05, 0.3))
# branching 1: no leaf has a sibling, so no label-noise draw; levels 2: the
# siblings are the other top-level classes; branching 11: id order is not
# numeric order ("10" < "2")
@pytest.mark.parametrize("levels, branching", ((2, 1), (2, 5), (3, 1), (3, 3), (3, 11), (5, 2)))
def test_synth_generate_matches_retired_per_example_loop(label_noise, levels, branching):
    for dim, per_leaf, seed in ((1, 1, 0), (3, 4, 7), (16, 2, 123), (40, 3, 5)):
        cfg = data.SynthConfig(levels=levels, branching=branching, examples_per_leaf=per_leaf,
                               feature_dim=dim, label_noise=label_noise, seed=seed)
        d = data.synth_generate(cfg)
        features, labels, names = slow_synth_generate(cfg)
        assert d.features.dtype == features.dtype and d.features.shape == features.shape
        assert d.features.tobytes() == features.tobytes()
        assert d.labels.dtype == labels.dtype and np.array_equal(d.labels, labels)
        assert d.taxonomy.class_names == names


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
