"""Each vectorised hot path against its slow reference in ``slow_reference``.

The fast paths keep their arithmetic, so every comparison is bitwise
(``np.array_equal`` or equal bit patterns), not within a tolerance. The
blocked passes also run on no rows and peak at a few blocks in every loss
preset.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import curriculum, data, losses, metrics, mlp, verify
from hcl.losses import SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY, hier_transform
from hcl.taxonomy import VIRTUAL_ROOT, Taxonomy, parse_hierarchy
from slow_reference import (
    SLOW_MODES,
    SLOW_TRANSFORMS,
    slow_ancestors,
    slow_backward,
    slow_bce_grad,
    slow_bce_loss,
    slow_blocked_forward,
    slow_check_label_matrix,
    slow_close_labels,
    slow_evaluate_loops,
    slow_focal_grad,
    slow_focal_loss,
    slow_hcl_grad,
    slow_hcl_loss,
    slow_heights,
    slow_lca,
    slow_leaf_ids,
    slow_mlp_backward,
    slow_mlp_forward,
    slow_native_label_lines,
    slow_optimizer_step,
    slow_parse_hierarchy,
    slow_rank_order,
    slow_row_blocks,
    slow_sigmoid,
    slow_synth_generate,
    slow_train,
    slow_zero_one_loss,
    tree_from_names,
    views,
)

BLOCK = losses._BLOCK_ROWS
# one row, exactly one block, and several blocks plus a partial one
ROW_COUNTS = (1, BLOCK, 2 * BLOCK + BLOCK // 3)


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
        ref_out, ref_routing = SLOW_TRANSFORMS[scope](base, tax)
        assert np.array_equal(hier_transform(base, tax, scope=scope), ref_out)
        _check_weights(base, tax, scope, ref_routing, (rng.random(tax.n_classes) < 0.5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_transform_matches_slow_reference_on_random_forests(seed):
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    base = verify.random_surface(rng, int(rng.integers(1, 40)), tax.n_classes)
    for scope, slow in SLOW_TRANSFORMS.items():
        ref_out, ref_routing = slow(base, tax)
        assert np.array_equal(hier_transform(base, tax, scope=scope), ref_out)
        _check_weights(base, tax, scope, ref_routing, (rng.random(tax.n_classes) < 0.5))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_weights_of_a_row_add_up_to_its_selected_classes(seed):
    """Each selected class puts one unit on one element of its row, NaN
    and ties included, so a row's weights add up to the selected count."""
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    base = _nan_tie_surface(rng, int(rng.integers(1, 3 * BLOCK)), tax.n_classes)
    selected = rng.random(tax.n_classes) < rng.random()
    for scope in losses.SCOPES:
        weights = base.copy()
        losses._hier_weights(weights, tax, scope, selected)
        assert (weights >= 0).all() and (weights == np.round(weights)).all()
        assert (weights.sum(axis=1) == selected.sum()).all()


def test_ancestors_weights_reject_ids_out_of_path_order():
    """A parent's children must be one run of their level bucket, as ids in
    lexicographic path order are: here "a/z" comes after "b/y"."""
    t = Taxonomy(class_names=("a", "b", "a/x", "b/y", "a/z"),
                 parent_ids=np.array([VIRTUAL_ROOT, VIRTUAL_ROOT, 0, 1, 0]),
                 level=np.array([1, 1, 2, 2, 2]))
    with pytest.raises(ValueError, match="lexicographic path order"):
        losses._hier_weights(np.ones((1, 5)), t, SCOPE_ANCESTORS_ONLY, np.ones(5, dtype=bool))


def _check_weights(base, tax, scope, routing, selected):
    """The weight sweep over ``base`` equals the ``np.add.at`` scatter of the
    broadcast selection along the slow routing, bit for bit."""
    weights = np.array(base, dtype=np.float64)
    assert losses._hier_weights(weights, tax, scope, selected) is None
    want = slow_backward(routing, np.broadcast_to(selected, routing.shape).astype(np.float64))
    assert _same_bits(weights, want)


@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
def test_nan_elements_route_to_themselves(scope):
    t = parse_hierarchy(["a", "a/x", "a/y", "b", "b/z"])
    a, bz = t.id_of("a"), t.id_of("b/z")
    base = np.ones((2, t.n_classes))
    base[0, a] = np.nan
    out = hier_transform(base, t, scope=scope)
    nan = np.isnan(out)
    assert nan[0, a] and not nan[1].any()
    # a NaN transformed element keeps its own unit, and nothing wraps to b/z,
    # the last column, from the id -1 of row 0, whose running max is NaN
    weights = base.copy()
    losses._hier_weights(weights, t, scope, np.ones(t.n_classes, dtype=bool))
    assert (weights[nan] >= 1.0).all() and weights[0, bz] == 1.0
    ref_out, ref_routing = SLOW_TRANSFORMS[scope](base, t)
    assert np.array_equal(out, ref_out, equal_nan=True)
    _check_weights(base, t, scope, ref_routing, np.ones(t.n_classes, dtype=bool))


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
        _, routing = SLOW_TRANSFORMS[scope](base, tax)
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
    ref = mlp.MlpParams(params.flat.copy(), params.dims)
    opt = mlp._Optimizer(cfg, params)
    state = {"m": [np.zeros_like(a) for a in views(ref)],
             "v": [np.zeros_like(a) for a in views(ref)], "t": 0}
    for _ in range(4):
        grads = mlp.MlpParams(rng.normal(scale=2.0, size=params.flat.size), params.dims)
        opt.step(params, grads)
        slow_optimizer_step(state, ref, grads, optimizer, cfg.learning_rate)
        for fast, slow in zip(views(params), views(ref)):
            assert np.array_equal(fast, slow)
    if optimizer == "adam":
        for fast, slow in ((opt.m, state["m"]), (opt.v, state["v"])):
            assert np.array_equal(fast, np.concatenate([a.ravel() for a in slow]))


# ---------------------------------------------------------------------------
# MLP forward and backward
# ---------------------------------------------------------------------------


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
            for fast, slow in zip(views(grads), ref):
                assert _same_bits(fast, slow)


# values that meet the dropout multiply: signed zeros, NaN of both signs,
# infinities, and magnitudes that stay finite (1e308) or overflow (1.7e308)
# when scaled by 1/(1-rate) = 4/3
DROPOUT_EDGES = (0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                 1e308, -1e308, 1.7e308, -1.7e308)


def test_dropout_by_mask_then_scale_matches_float_mask_on_edge_values():
    """Both passes multiply by the 0/1 mask and then by 1/(1-rate); the
    references multiply once by the float mask ``mask / (1 - rate)``. On
    one-row calls, whose bias gradient is the row's ReLU gradient itself,
    they agree bit for bit with the edge values in the hidden layer (odd
    trials) or in its upstream gradient (even trials: dead units whose
    output weights are +-1e308 or +-1.7e308, and an edge value in the
    scores' upstream). A NaN score's sign bit is the sigmoid's own (see
    ``test_sigmoid_matches_masked_reference_on_edge_logits``), so both
    backward passes start from the fast scores."""
    rng = np.random.default_rng(13)
    d, h, c, rate = 4, 32, 6, 0.25
    seen = np.zeros(4, dtype=bool)  # NaN and inf hidden units; NaN and finite dz1
    for trial in range(200):
        params = mlp.init_params(d, h, c, seed=trial)
        params.b1[:] = rng.normal(size=h)
        units = rng.permutation(h)[:6]
        if trial % 2:
            params.b1[units] = rng.choice(DROPOUT_EDGES, 6)
        else:
            params.b1[units] = -1e3
            params.W2[units] = rng.choice(DROPOUT_EDGES[6:], (6, c))
        x = np.zeros((1, d)) if trial % 4 < 2 else rng.normal(size=(1, d))  # zeros: relu(b1)
        mask = rng.random((1, h)) >= rate
        dscores = rng.normal(scale=5.0, size=(1, c))
        dscores[0, rng.integers(c)] = rng.choice(DROPOUT_EDGES)
        with np.errstate(all="ignore"):  # NaN and overflow are what is tested
            scores, cache = mlp.forward(params, x, mask, rate)
            grads = mlp.backward(params, cache, dscores,
                                 mlp.MlpParams(np.empty_like(params.flat), params.dims))
            ref_scores, ref_cache = slow_mlp_forward(params, x, mask.astype(np.float64), rate)
            ref = slow_mlp_backward(params, dict(ref_cache, scores=scores), dscores)
        assert _same_bits(cache.hidden, ref_cache["hidden"])
        assert np.array_equal(scores, ref_scores, equal_nan=True)
        assert _same_bits(scores[~np.isnan(scores)], ref_scores[~np.isnan(scores)])
        for fast, slow in zip(views(grads), ref):
            assert _same_bits(fast, slow)
        seen |= (np.isnan(cache.hidden).any(), np.isinf(cache.hidden).any(),
                 np.isnan(grads.b1).any(), (np.isfinite(grads.b1) & (grads.b1 != 0)).any())
    assert seen.all()


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
# row-blocked forward pass and epoch-end pass
# ---------------------------------------------------------------------------

# (D, H, C) for H in {800, 4} and C in {3, 12, 584}, then one-column
# products (H=1 or C=1), which numpy runs as gemv
BLOCKED_DIMS = ((16, 800, 3), (16, 800, 12), (16, 800, 584),
                (3, 4, 3), (12, 4, 12), (250, 4, 584), (16, 1, 12), (16, 800, 1))


def _block_row_counts(r):
    """One row short of a block, one block, the most one block holds, two
    blocks, two blocks with one row merged in, and three blocks and a third."""
    return (r - 1, r, 2 * r - 1, 2 * r, 2 * r + 1, 3 * r + r // 3)


def _blocked_forward_case(dims, which, rate):
    d, h, c = dims
    n = _block_row_counts(losses._PASS_ROWS)[which]
    rng = np.random.default_rng(n + c)
    params = mlp.init_params(d, h, c, seed=n)
    params.b1[:] = rng.normal(scale=0.5, size=h)
    params.b1[:2] = (0.0, -0.0)[:h]  # exact zeros reach the ReLU from zero rows
    params.b2[:] = rng.normal(scale=4.0, size=c)
    x = rng.normal(scale=2.0, size=(n, d))
    x[::7] = 0.0
    kw = {}
    if rate is not None:
        kw = dict(dropout_mask=rng.random((n, h)) >= rate, dropout_rate=rate)
    return rng, params, x, kw


@pytest.mark.parametrize("which", range(6))
@pytest.mark.parametrize("dims", BLOCKED_DIMS)
def test_blocked_forward_matches_per_block_reference(dims, which):
    for rate in (None, 0.25) if dims[1] == 800 else (None,):
        rng, params, x, kw = _blocked_forward_case(dims, which, rate)
        blocks = losses._row_blocks(len(x))
        assert blocks == slow_row_blocks(len(x))
        scores, cache = mlp.forward(params, x, **kw)
        ref_scores, ref_cache = slow_blocked_forward(params, x, **kw)
        assert _same_bits(scores, ref_scores)
        if rate is None:  # the block scorer writes every block into one buffer
            streamed = [block.copy() for block in mlp._score_blocks(params, x)]
            assert _same_bits(np.concatenate(streamed), ref_scores)
        if len(blocks) == 1:
            assert _same_bits(cache.hidden, ref_cache["hidden"])
        else:
            assert cache.hidden is None  # no whole hidden layer outlives the call
        dscores = rng.normal(size=scores.shape)
        dscores[rng.random(scores.shape) < 0.3] = -0.0
        grads = mlp.MlpParams(np.full_like(params.flat, np.nan), params.dims)
        mlp.backward(params, cache, dscores, grads)
        for fast, slow in zip(views(grads), slow_mlp_backward(params, ref_cache, dscores)):
            assert _same_bits(fast, slow)


def test_multi_block_backward_keeps_signed_zeros_of_dropped_units():
    """A negative upstream through dropped and dead units gives -0.0 entries
    in the rebuilt layer's ReLU gradient, as in the per-block reference."""
    _, params, x, kw = _blocked_forward_case((16, 800, 12), 5, 0.5)
    # four dead units whose upstream gradient is negative on every row
    params.b1[:4] = -1e3
    params.W2[:4] = np.abs(params.W2[:4])
    scores, cache = mlp.forward(params, x, **kw)
    assert cache.hidden is None
    upstream = -np.random.default_rng(1).uniform(0.1, 3.0, scores.shape)
    ref_cache = slow_blocked_forward(params, x, **kw)[1]
    grads = mlp.backward(params, cache, upstream,
                         mlp.MlpParams(np.empty_like(params.flat), params.dims))
    assert (grads.b1[:4] == 0).all()
    for fast, slow in zip(views(grads), slow_mlp_backward(params, ref_cache, upstream)):
        assert _same_bits(fast, slow)


def _complete_taxonomy(branching, levels):
    paths = [""]
    for _ in range(levels):
        paths = [f"{p}/{k}" if p else str(k) for p in paths for k in range(branching)]
    return parse_hierarchy(paths)


# C=3 (a two-level chain and a root), 12 (desk) and 584 (wide)
EPOCH_END_TAXONOMIES = {
    3: parse_hierarchy(["0/0", "1"]),
    12: _complete_taxonomy(3, 2),
    584: _complete_taxonomy(8, 3),
}


def _capture_aggregates(monkeypatch):
    """A list that collects every aggregate ``hcl_loss`` hands to selection."""
    seen = []
    select = curriculum.select_classes
    monkeypatch.setattr(curriculum, "select_classes",
                        lambda agg, *a, **k: seen.append(agg) or select(agg, *a, **k))
    return seen


@pytest.mark.parametrize("which", range(6))
@pytest.mark.parametrize("c", sorted(EPOCH_END_TAXONOMIES))
@pytest.mark.parametrize("base", curriculum.BASE_LOSSES)
def test_blocked_epoch_end_pass_matches_whole_surface_aggregate(base, c, which, monkeypatch):
    """``hcl_loss`` on the whole score array, and on its row blocks handed
    over one at a time in one reused buffer, against the whole-surface
    reference."""
    tax = EPOCH_END_TAXONOMIES[c]
    n = _block_row_counts(losses._PASS_ROWS)[which]
    seen = _capture_aggregates(monkeypatch)
    for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
        for transform in (True, False):
            rng = np.random.default_rng(n + c)
            y = rng.choice([-1, 1], size=(n, c), p=(0.7, 0.3)).astype(np.int8)
            scores = _edge_scores(rng, (n, c))
            spec = curriculum.LossSpec(base, transform=transform, scope=scope, gamma=1.5,
                                       decision_threshold=0.4)
            L, e_total, s_ref, value_ref = slow_hcl_loss(y, scores, tax, spec)
            for form in (scores, _blocks_in_one_buffer(scores, slow_row_blocks(n))):
                value, s = curriculum.hcl_loss(y, form, tax, spec)
                agg = seen.pop()
                assert agg.e_h_total == e_total
                assert np.array_equal(agg.L, L, equal_nan=True)
                finite = ~np.isnan(L)
                assert _same_bits(agg.L[finite], L[finite])
                assert np.array_equal(s, s_ref)
                assert _same_bits(value, value_ref)


def _blocks_in_one_buffer(scores, blocks):
    """Each block's rows of ``scores`` in turn, copied into one buffer that
    the next block overwrites."""
    buf = np.full((2 * losses._PASS_ROWS, scores.shape[1]), np.nan)
    for rows in blocks:
        out = buf[:rows.stop - rows.start]
        out[...] = scores[rows]
        yield out


def _traced_peak(fn):
    """Bytes that ``fn()`` allocates at its peak over what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_blocked_passes_peak_at_a_few_blocks_not_the_whole_split():
    """Over 32 blocks of rows, forward holds the scores and one hidden block,
    and every preset's epoch-end pass a few (block x C) temporaries; a whole
    N x H or N x C temporary is several times either bound."""
    d, h, c = 16, 800, 584
    tax = EPOCH_END_TAXONOMIES[c]
    r = losses._PASS_ROWS
    n = 32 * r + r // 2
    rng = np.random.default_rng(2)
    params = mlp.init_params(d, h, c, seed=2)
    x = rng.normal(size=(n, d))
    scores_bytes = 8 * n * c
    block_bytes = 8 * (2 * r - 1)  # per column of the longest block
    peak = _traced_peak(lambda: mlp.forward(params, x))
    assert peak <= scores_bytes + block_bytes * (h + 2 * c)
    assert 8 * n * h > 4 * block_bytes * (h + 2 * c)  # a whole hidden layer would not fit

    y = rng.choice([-1, 1], size=(n, c), p=(0.9, 0.1)).astype(np.int8)
    scores = rng.uniform(size=(n, c))
    bound = 3 * block_bytes * c
    assert 8 * n * c > 4 * bound
    for mode, preset in curriculum.LOSS_PRESETS.items():
        for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
            spec = replace(preset, scope=scope)
            peak = _traced_peak(lambda: curriculum.hcl_loss(y, scores, tax, spec))
            assert peak <= bound, (mode, scope, peak)


@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
@pytest.mark.parametrize("mode", curriculum.LOSS_MODES)
def test_zero_rows_pass_through_every_blocked_loop(mode, scope):
    """No rows are one empty block: each pass returns its empty result, and
    the epoch-end pass the all-zero aggregate's."""
    tax = EPOCH_END_TAXONOMIES[12]
    y, scores = np.ones((0, 12)), np.empty((0, 12))
    out = hier_transform(scores, tax, scope)
    assert out.shape == (0, 12)
    for surface in (np.empty((0, 12)), np.empty((0, 12), dtype=bool)):
        assert hier_transform(surface, tax, scope, out=surface) is surface
    losses._hier_weights(out, tax, scope, np.ones(12, dtype=bool))
    routing = np.empty((0, 12), dtype=np.int64)
    assert losses.hier_transform_backward(routing, out).shape == (0, 12)

    params = mlp.init_params(16, 800, 12, seed=0)
    out, cache = mlp.forward(params, np.empty((0, 16)))
    assert out.shape == (0, 12)
    grads = mlp.backward(params, cache, out, mlp.MlpParams(np.empty_like(params.flat),
                                                           params.dims))
    assert not grads.flat.any()

    spec = replace(curriculum.LOSS_PRESETS[mode], scope=scope)
    value, s = curriculum.hcl_loss(y, scores, tax, spec)
    assert value == 0.0 and s.tolist() == [1.0] * 12
    assert curriculum.hcl_grad(y, scores, s, tax, spec).shape == (0, 12)


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
@pytest.mark.parametrize("mode", curriculum.LOSS_MODES)
def test_loss_core_matches_retired_per_mode_dispatch(mode, scope):
    rng = np.random.default_rng(sum(map(ord, mode + scope)))
    for _ in range(12):
        tax = verify.random_taxonomy(rng)
        cfg = _random_train_config(rng, mode, scope)
        n = int(rng.integers(1, 2 * BLOCK + 10))
        y = np.where(rng.random((n, tax.n_classes)) < 0.3, 1.0, -1.0)
        scores = _random_scores(rng, y.shape)

        # the mode's spec by the test-local table, the settings by the config
        ref_spec = curriculum.LossSpec(*SLOW_MODES[mode], scope=cfg.transform_scope,
                                       gamma=cfg.focal_gamma,
                                       decision_threshold=cfg.decision_threshold,
                                       rule=cfg.selection_rule, thresh=cfg.selection_thresh)
        _, _, s_ref, value_ref = slow_hcl_loss(y, scores, tax, ref_spec)
        spec = cfg.loss_spec()
        value, s = curriculum.hcl_loss(y, scores, tax, spec)
        assert np.array_equal(s, s_ref)
        assert np.array_equal(value, value_ref, equal_nan=True)

        # a batch under the epoch's selection, as the training loop forms it
        batch = rng.permutation(n)[:BLOCK]
        yb, sb = y[batch], scores[batch]
        grad = curriculum.hcl_grad(yb, sb, s, tax, spec)
        assert np.array_equal(grad, slow_hcl_grad(yb, sb, s, tax, ref_spec), equal_nan=True)


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
    spec = curriculum.LossSpec("focal", scope=scope)
    rng = np.random.default_rng(17)
    for _ in range(10):
        tax = verify.random_taxonomy(rng, max_classes=6, max_depth=3)
        n, c = int(rng.integers(2, 5)), tax.n_classes
        y = np.where(rng.random((n, c)) < 0.5, -1.0, 1.0)
        scores = _focal_tie_free_scores(rng, y)
        _, s_epoch = curriculum.hcl_loss(y, scores, tax, spec)
        for s in (s_epoch, (rng.random(c) < 0.5).astype(np.float64)):

            def objective(sc, s=s):
                return float(s @ slow_hcl_loss(y, sc, tax, spec)[0])

            analytic = curriculum.hcl_grad(y, scores, s, tax, spec)
            fd = verify._fd_grad(objective, scores)
            assert verify.max_rel_err(analytic, fd) < verify.GRAD_RTOL


# the batch gradient's class counts: the desk's, wide's, and one past int16 ids
GRADIENT_CLASS_COUNTS = (12, 584, 33306)


def _gradient_taxonomy(c):
    if c == 33306:
        return _complete_taxonomy(182, 2)
    return EPOCH_END_TAXONOMIES[c]


def _grid_scores(rng, shape):
    """Scores on a grid holding 0, 1, ``LOG_EPS``, the clamps' other bound and
    NaN, so that losses tie within and across levels (0 and ``LOG_EPS``
    clamp to one value), or uniform scores with those values planted."""
    grid = [0.0, 1.0, losses.LOG_EPS, 1.0 - losses.LOG_EPS, 0.25, 0.5, np.nan]
    if rng.random() < 0.5:
        return rng.choice(grid, size=shape)
    scores = rng.uniform(0.0, 1.0, size=shape)
    scores[rng.random(shape) < 0.2] = rng.choice(grid)
    return scores


def _selections(rng, c):
    return (np.ones(c), np.zeros(c), (rng.random(c) < 0.6).astype(np.float64))


@pytest.mark.parametrize("c", GRADIENT_CLASS_COUNTS)
def test_sweeps_match_the_slow_transform_and_its_routing(c):
    """The sweeps give the slow transforms' values, and the weights of the
    slow routing for empty, full and random selections, on tie-prone
    surfaces with NaN."""
    tax = _gradient_taxonomy(c)
    rng = np.random.default_rng(c)
    base = _nan_tie_surface(rng, 3, c)
    for scope, slow in SLOW_TRANSFORMS.items():
        ref_out, ref_routing = slow(base, tax)
        assert _same_bits(hier_transform(base, tax, scope), ref_out)
        for s in _selections(rng, c):
            _check_weights(base, tax, scope, ref_routing, s == 1.0)


@pytest.mark.parametrize("base", curriculum.BASE_LOSSES)
@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
@pytest.mark.parametrize("c", (12, 584))
def test_batch_gradient_matches_slow_routing_and_scatter(c, scope, base):
    """The one-clip, counted-weight batch gradient against the two base
    functions, the slow transform and the ``np.add.at`` scatter, bit for
    bit: scores at 0, 1, ``LOG_EPS`` and NaN with cross-level loss ties,
    and selections of all ones, all zeros and random."""
    tax = _gradient_taxonomy(c)
    rng = np.random.default_rng(c + len(scope + base))
    for n in ROW_COUNTS:
        y = rng.choice([-1, 1], size=(n, c)).astype(np.int8)
        scores = _grid_scores(rng, y.shape)
        for gamma in ((2.0,) if base == "bce" else (0.0, 1.5, 2.0)):
            spec = curriculum.LossSpec(base, scope=scope, gamma=gamma)
            for s in _selections(rng, c):
                want = slow_hcl_grad(y, scores, s, tax, spec)
                assert _same_bits(curriculum.hcl_grad(y, scores, s, tax, spec), want)


@pytest.mark.parametrize("scope", (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY))
def test_batch_gradient_matches_slow_reference_on_int32_ids(scope):
    """Each base at C=33306 with a partial or the full selection; the sweeps'
    weights for every selection at this C are checked on their own above."""
    c = 33306
    tax = _gradient_taxonomy(c)
    rng = np.random.default_rng(5)
    y = rng.choice([-1, 1], size=(2, c)).astype(np.int8)
    scores = _grid_scores(rng, y.shape)
    full, _, partial = _selections(rng, c)
    for base, s in (("bce", partial), ("focal", full)):
        spec = curriculum.LossSpec(base, scope=scope)
        assert _same_bits(curriculum.hcl_grad(y, scores, s, tax, spec),
                          slow_hcl_grad(y, scores, s, tax, spec))


# ---------------------------------------------------------------------------
# epoch-end selection pass, batch loss and training loop
# ---------------------------------------------------------------------------


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
    """The bce pair and the focal pair, the latter at
    exponents that numpy's power takes shortcuts for (0.5, 1, 2) and at
    others, keep the bits of their two-branch forms."""
    rng = np.random.default_rng(40 + n)
    scores = _edge_scores(rng, (n, 37))
    assert len(np.unique(scores[~np.isnan(scores)])) >= len(EDGE_SCORES) - 3
    labels = (
        rng.choice([-1, 1], size=scores.shape).astype(np.int8),  # as datasets hold them
        rng.choice([-1.0, 1.0, 0.0, np.nan], size=scores.shape),
    )
    before = scores.copy()
    for y in labels:
        for fast, slow in ((losses.bce_loss, slow_bce_loss), (losses.bce_grad, slow_bce_grad)):
            assert _same_bits(fast(y, scores), slow(y, scores))
        for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            assert _same_bits(losses.focal_loss(y, scores, gamma),
                              slow_focal_loss(y, scores, gamma)), gamma
            assert _same_bits(losses.focal_grad(y, scores, gamma),
                              slow_focal_grad(y, scores, gamma)), gamma
    assert _same_bits(scores, before)  # read, never written


# one surface's values in C order and in other memory layouts; the bce
# kernels overwrite the positives by flat C-order position, which a copy
# made in the input's order would lose
LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "column-strided": lambda a: a[:, ::2],
    "row-strided": lambda a: a[::3],
    "reversed": lambda a: a[::-1, ::-1],
}


def _kernel_labels(rng, shape):
    """Sparse {-1, +1} labels with a row of no positive, a row of only
    positives, and 0 and NaN entries in the other rows."""
    y = rng.choice([-1.0, 1.0], size=shape, p=(0.9, 0.1))
    y[:1], y[1:2] = -1.0, 1.0
    rest = y[2:]
    rest[rng.random(rest.shape) < 0.05] = 0.0
    rest[rng.random(rest.shape) < 0.05] = np.nan
    return y


@pytest.mark.parametrize("layout", LAYOUTS)
def test_bce_kernels_match_slow_reference_in_every_memory_layout(layout):
    rng = np.random.default_rng(7)
    shape = (2 * BLOCK + 5, 37)
    scores = _edge_scores(rng, shape)
    scores[0, :4] = scores[1, :4] = (0.0, 1.0, losses.LOG_EPS, np.nan)  # in the edge rows too
    y_all = _kernel_labels(rng, shape)
    s = LAYOUTS[layout](scores)
    for y in (LAYOUTS[layout](y_all), np.ascontiguousarray(LAYOUTS[layout](y_all)),
              LAYOUTS[layout](np.sign(np.nan_to_num(y_all, nan=-1.0)).astype(np.int8))):
        loss_ref, grad_ref = slow_bce_loss(y, s), slow_bce_grad(y, s)
        assert _same_bits(losses.bce_loss(y, s), loss_ref)
        assert _same_bits(losses.bce_grad(y, s), grad_ref)
        out = np.full(s.shape, np.nan)
        assert losses.bce_loss(y, s, out=out) is out and _same_bits(out, loss_ref)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sigmoid_matches_slow_reference_in_every_memory_layout(layout):
    rng = np.random.default_rng(8)
    z = rng.normal(scale=20.0, size=(2 * BLOCK + 5, 37))
    z.reshape(-1)[:8] = (0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, -744.5, np.nan)
    view = LAYOUTS[layout](z.copy())
    ref = slow_sigmoid(np.array(view))
    assert mlp._sigmoid(view) is view  # written through the view
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(view), nan) and _same_bits(view[~nan], ref[~nan])


def _error_rows(rng, y, scores):
    """Scores that miss no label in about a third of the rows, and every
    label in another third, so the count sees rows with no error."""
    kind = rng.integers(3, size=len(y))  # 0: no error, 1: every label missed, 2: as drawn
    y[kind < 2] = np.where(y[kind < 2] > 0, 1.0, -1.0)  # no 0 or NaN label
    hit = np.where(y > 0, 0.9, 0.1)
    scores[kind == 0] = hit[kind == 0]
    scores[kind == 1] = 1.0 - hit[kind == 1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_error_count_matches_slow_reference_on_random_taxonomies(seed):
    """``hcl_loss``, which counts the transformed bool 0-1 surface, against
    ``slow_hcl_loss`` under both scopes, on random forests and on one-level
    taxonomies, with rows of no error and 0 and NaN labels: the value and
    the selection, and the e_total handed to selection, which a NaN value
    would not show."""
    rng = np.random.default_rng(seed)
    tax = verify.random_taxonomy(rng)
    if rng.random() < 0.2:
        tax = parse_hierarchy([str(k) for k in range(int(rng.integers(1, 9)))])
    n = int(rng.integers(1, 3 * losses._PASS_ROWS))
    y = _kernel_labels(rng, (n, tax.n_classes))
    scores = _edge_scores(rng, y.shape)
    _error_rows(rng, y, scores)
    for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
        spec = curriculum.LossSpec(scope=scope)
        _, e_total, s_ref, value_ref = slow_hcl_loss(y, scores, tax, spec)
        with pytest.MonkeyPatch.context() as mp:
            seen = _capture_aggregates(mp)
            value, s = curriculum.hcl_loss(y, scores, tax, spec)
        # a NaN value's sign bit follows the summation order
        assert _same_bits(value, value_ref) or np.isnan(value) and np.isnan(value_ref)
        assert _same_bits(s, s_ref) and [agg.e_h_total for agg in seen] == [e_total]


@pytest.mark.parametrize("mode", curriculum.LOSS_MODES)
def test_buffered_pass_on_a_longest_merged_last_block(mode, monkeypatch):
    """Blocks of 256 and 511 rows share the pass's one base-loss buffer,
    sized by the last; the scores are read, never written."""
    tax = EPOCH_END_TAXONOMIES[584]
    r = losses._PASS_ROWS
    n = 3 * r - 1
    blocks = slow_row_blocks(n)
    assert [b.stop - b.start for b in blocks] == [r, 2 * r - 1]
    rng = np.random.default_rng(11)
    y = _kernel_labels(rng, (n, tax.n_classes))
    scores = _edge_scores(rng, y.shape)
    scores.flags.writeable = False
    seen = _capture_aggregates(monkeypatch)
    for scope in (SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY):
        spec = replace(curriculum.LOSS_PRESETS[mode], scope=scope)
        L, e_total, s_ref, value_ref = slow_hcl_loss(y, scores, tax, spec)
        for form in (scores, _blocks_in_one_buffer(scores, blocks)):
            value, s = curriculum.hcl_loss(y, form, tax, spec)
            assert _same_bits(value, value_ref) and np.array_equal(s, s_ref)
            if spec.curriculum:
                agg = seen.pop()
                finite = ~np.isnan(L)
                assert agg.e_h_total == e_total and np.array_equal(agg.L, L, equal_nan=True)
                assert _same_bits(agg.L[finite], L[finite])


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
    for scope, slow in SLOW_TRANSFORMS.items():
        ref, _ = slow(base, tax)
        surface = base.copy()
        assert hier_transform(surface, tax, scope, out=surface) is surface
        assert _same_bits(surface, ref)
        # into another array, the surface left as it was
        out = np.empty_like(base)
        assert hier_transform(base, tax, scope, out=out) is out
        assert _same_bits(out, ref)
        # a bool surface is transformed as its 0/1 float surface
        bits = base >= 2.0
        ref01, _ = slow(bits.astype(np.float64), tax)
        assert hier_transform(bits, tax, scope, out=bits) is bits
        assert bits.dtype == np.bool_ and np.array_equal(bits, ref01 != 0)


@pytest.mark.parametrize("surface", (
    [[0.0, 1.0]],  # not an array
    np.zeros((1, 2), dtype=np.float32),
    np.zeros((1, 2), dtype=np.int64),
))
def test_in_place_value_sweep_rejects_what_it_cannot_overwrite_exactly(surface):
    tax = parse_hierarchy(["a", "a/x"])
    with pytest.raises(ValueError, match="float64 or bool array"):
        hier_transform(surface, tax, SCOPE_ALL_SHALLOWER, out=surface)


@pytest.mark.parametrize("base, out", (
    (np.zeros((1, 2)), np.zeros((1, 2), dtype=bool)),  # a float surface into bool
    (np.zeros((1, 2), dtype=bool), np.zeros((1, 2))),
    (np.zeros((2, 2)), np.zeros((1, 2))),
))
def test_transform_rejects_an_out_of_another_type_or_shape(base, out):
    tax = parse_hierarchy(["a", "a/x"])
    with pytest.raises(ValueError, match="surface's type and shape"):
        hier_transform(base, tax, SCOPE_ALL_SHALLOWER, out=out)


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
    for scope, slow in SLOW_TRANSFORMS.items():
        e_h, _ = slow(ref01, tax)
        e_bits = hier_transform(errors, tax, scope, out=errors.copy())
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


def _streamed_dataset():
    """About 800 train rows: three row blocks, the remainder merged."""
    return data.split(data.synth_generate(data.SynthConfig(
        levels=3, branching=3, examples_per_leaf=148, feature_dim=5, seed=4)), seed=0)


@pytest.mark.parametrize("mode, scope", [
    (mode, scope) for mode, (_, transform, _) in SLOW_MODES.items()
    for scope in ((SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY) if transform
                  else (SCOPE_ALL_SHALLOWER,))])
def test_streamed_epoch_end_pass_matches_whole_split_reference(mode, scope):
    """``train`` hands ``hcl_loss`` the train split's scores one row block
    at a time; ``slow_train`` hands it the whole split's. Every preset, with
    dropout, gives the same log lines and parameters bit for bit."""
    d = _streamed_dataset()
    n_train = len(d.indices("train"))
    assert len(slow_row_blocks(n_train)) == 3 and n_train % losses._PASS_ROWS
    cfg = mlp.TrainConfig(hidden_width=16, epochs=2, seed=3, dropout_rate=0.25,
                          loss_mode=mode, transform_scope=scope)
    params, log = mlp.train(d, d.taxonomy, cfg)
    ref_params, ref_log = slow_train(d, d.taxonomy, cfg)
    as_jsonl = [json.dumps(e.jsonl_dict(), sort_keys=True) for e in log]  # as metrics.jsonl
    assert as_jsonl == [json.dumps(e.jsonl_dict(), sort_keys=True) for e in ref_log]
    assert all(np.array_equal(e.selected, r.selected) for e, r in zip(log, ref_log))
    assert _same_bits(params.flat, ref_params.flat)


def test_hcl_loss_rejects_a_wrong_count_or_shape_of_row_blocks():
    tax = EPOCH_END_TAXONOMIES[12]
    r = losses._PASS_ROWS
    n = 3 * r + r // 3
    rng = np.random.default_rng(8)
    y = rng.choice([-1, 1], size=(n, 12)).astype(np.int8)
    scores = rng.uniform(size=(n, 12))
    blocks = slow_row_blocks(n)
    wrong = {
        "too few": [scores[rows] for rows in blocks[:-1]],
        "too many": [scores[rows] for rows in blocks + blocks[-1:]],
        "a row short": [scores[rows] for rows in blocks[:-1]] + [scores[blocks[-1]][:-1]],
        "a column short": [scores[rows][:, :-1] for rows in blocks],
    }
    for spec in curriculum.LOSS_PRESETS.values():
        for case, parts in wrong.items():
            with pytest.raises(ValueError) as err:
                curriculum.hcl_loss(y, iter(parts), tax, spec)
            assert "\n" not in str(err.value), case


def test_training_epoch_peaks_below_the_train_split_scores():
    """One epoch of ``train`` on 8320 x 584 train rows, against which the
    weights and valid rows are small: the epoch-end pass holds one block of
    scores at a time, so the whole epoch peaks below the size of the train
    split's float64 score matrix (38.9 MB), which a pass that scored the
    whole split would hold on top of everything else."""
    tax = EPOCH_END_TAXONOMIES[584]
    r = losses._PASS_ROWS
    n_train, n_valid = 32 * r + r // 2, 64
    n, c = n_train + n_valid, tax.n_classes
    rng = np.random.default_rng(9)
    top = [j for j, name in enumerate(tax.class_names) if "/" not in name]
    labels = np.full((n, c), -1, dtype=np.int8)
    labels[np.arange(n), rng.choice(top, size=n)] = 1
    d = data.Dataset(rng.normal(size=(n, 4)), labels, tax,
                     np.repeat([0, 1], [n_train, n_valid]))
    cfg = mlp.TrainConfig(hidden_width=8, epochs=1, seed=1)
    peak = _traced_peak(lambda: mlp.train(d, tax, cfg))
    assert peak < 8 * n_train * c, peak


# ---------------------------------------------------------------------------
# tree queries, metrics and label encoding
# ---------------------------------------------------------------------------


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
    y = slow_close_labels(positives, tax.class_names)
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
    tree = tree_from_names(tax.class_names)
    c, depth = tax.n_classes, max(tree.depth)
    assert np.array_equal(tax.parent_ids, [VIRTUAL_ROOT if p is None else p for p in tree.parent])
    assert np.array_equal(tax.level, tree.depth)
    assert tax.parent_ids.dtype == tax.level.dtype == np.int64
    assert np.array_equal(tax.heights, slow_heights(tree))
    assert tax.heights.dtype == np.int64
    assert np.array_equal(tax.leaf_ids, slow_leaf_ids(tree))
    assert tax.leaf_ids.dtype == np.int64
    assert tax.max_level == depth
    assert [ids.tolist() for ids in tax.levels_index] == [
        [a for a in range(c) if tree.depth[a] == lvl] for lvl in range(depth + 1)]
    for a in range(c):
        # root path, a itself last, then the virtual root
        path = slow_ancestors(tree, a)[::-1] + [a]
        assert tax.path_ids[a].tolist() == path + [VIRTUAL_ROOT] * (depth - len(path))
        for b in range(c):
            assert tax.lca(a, b) == slow_lca(tree, a, b)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_parse_hierarchy_matches_retired_prefix_joins(seed):
    """Components over an alphabet that holds the separator, so that some
    components split further and some come out empty, prefixes repeat, and
    some paths are duplicates."""
    rng = np.random.default_rng(seed)

    def component():
        return "".join(rng.choice(list("ab/.:"), p=(0.3, 0.3, 0.04, 0.18, 0.18),
                                  size=int(rng.integers(1, 4))))

    pool = ["/".join(component() for _ in range(int(rng.integers(1, 5))))
            for _ in range(int(rng.integers(1, 30)))]
    paths = list(rng.choice(pool, size=int(rng.integers(0, 40))))
    if rng.random() < 0.8:
        paths = list(dict.fromkeys(paths))
    try:
        want = slow_parse_hierarchy(paths)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_hierarchy(paths)
        assert str(got.value) == str(exc)
        return
    tax = parse_hierarchy(paths)
    assert (tax.class_names, tax.parent_ids.tolist(), tax.level.tolist()) == want
    assert tax.parent_ids.dtype == tax.level.dtype == np.int64


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
    """``evaluate`` agrees with the slow loops on the whole matrix, and on
    each row alone with that row's first-positive rank and distance."""
    report = metrics.evaluate(y, scores, tax, leaves_only=leaves_only)
    *want, rows = slow_evaluate_loops(y, scores, tax, leaves_only)
    assert [report.hit_at_1, report.mrr, report.hier_dist, report.n_examples] == want
    for i, (first, dist) in enumerate(rows):
        one = metrics.evaluate(y[i:i + 1], scores[i:i + 1], tax, leaves_only=leaves_only)
        want_row = (first == 1, 1.0 / first if first else 0.0, dist)
        assert (one.hit_at_1, one.mrr, one.hier_dist) == want_row
    return report


@pytest.mark.parametrize("kind", ("all-hit", "all-miss", "mixed"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_evaluate_matches_retired_loops_on_hits_and_misses(seed, kind):
    rng = np.random.default_rng(seed)
    tax = _wide_forest(rng)
    n = int(rng.integers(1, 40))
    y = slow_close_labels(_random_positives(rng, tax, n), tax.class_names)
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
    y = slow_close_labels([[int(rng.choice(inner))] for _ in range(n)], tax.class_names)
    scores = rng.choice([np.nan, 0.0, 0.25, 0.5, 1.0], size=y.shape)
    report = _check_evaluate(y, scores, tax, leaves_only=True)
    assert report.hit_at_1 == report.mrr == 0.0


# ---------------------------------------------------------------------------
# label-matrix check
# ---------------------------------------------------------------------------


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
        bad = ([0, 2, -2, 127, -127, -128] if y.dtype == np.int8
               else [0.0, 0.5, 2.0, 127.0, -127.0, np.nan, np.inf, -np.inf])
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
    y = _corrupt_labels(rng, slow_close_labels(positives, tax.class_names).astype(dtype), tax)
    want = _outcome(slow_check_label_matrix, y, tax)
    assert _outcome(losses.check_label_matrix, y, tax) == want


def _rank_test_scores(rng):
    scores = _tie_prone_scores(rng, (int(rng.integers(1, 20)), int(rng.integers(1, 40))))
    scores[rng.random(len(scores)) < 0.2] = np.nan
    return scores


def test_rank_of_is_the_lexsort_position():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = _rank_test_scores(rng)
        n, c = scores.shape
        position = np.argsort(slow_rank_order(scores), axis=1) + 1
        for j in range(c):
            assert np.array_equal(metrics._rank_of(scores, np.full(n, j)), position[:, j])


def test_first_in_rank_is_the_first_allowed_column_in_lexsort_order():
    rng = np.random.default_rng(6)
    for _ in range(20):
        scores = _rank_test_scores(rng)
        n, c = scores.shape
        order = slow_rank_order(scores)
        assert np.array_equal(metrics._first_in_rank(scores), order[:, 0])
        allowed = rng.random((n, c)) < 0.3
        allowed[np.arange(n), rng.integers(0, c, size=n)] = True
        ref = [row[allowed[i, row]][0] for i, row in enumerate(order)]
        assert np.array_equal(metrics._first_in_rank(scores, allowed), ref)


@pytest.mark.parametrize("leaves_only", (False, True))
@pytest.mark.parametrize("n", (1, 5 * BLOCK + 5))
def test_evaluate_matches_retired_miss_path(n, leaves_only):
    """Rows with all-NaN positives, signed-zero ties and, under
    ``leaves_only``, no positive leaf; one row, and misses over several
    row blocks."""
    rng = np.random.default_rng(n + leaves_only)
    for _ in range(20):
        tax = _wide_forest(rng)
        _check_evaluate(*_edge_rows(rng, tax, n), tax, leaves_only)


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
    ref = slow_close_labels(positives, tax.class_names)
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
        y = slow_close_labels(_random_positives(rng, tax, int(rng.integers(1, 30))),
                              tax.class_names)
        d = data.Dataset(features=rng.normal(size=(len(y), 2)), labels=y, taxonomy=tax)
        out = tmp_path / str(trial)
        data.emit_native(d, out)
        lines = (out / "labels.txt").read_text(encoding="utf-8").splitlines()
        assert lines == slow_native_label_lines(y, tax)
        assert np.array_equal(data.load_native_dir(out).labels, y)
