"""Each vectorised hot path against the slow version it replaced.

The references below are the per-class ancestors-only loop, an independent
per-class all-shallower scan, the ``np.add.at`` scatter and the allocating
Adam step. The fast paths keep their arithmetic, so every comparison is
bitwise (``np.array_equal``), not within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import losses, mlp, verify
from hcl.losses import SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY, hier_transform
from hcl.taxonomy import parse_hierarchy

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
