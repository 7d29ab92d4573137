"""Deterministic MLP: init, forward/backward, training loop, checkpoints."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from hcl import curriculum, losses, mlp
from hcl.curriculum import LOSS_MODES
from hcl.data import Dataset, SynthConfig, normalize, split, synth_generate
from hcl.mlp import (
    MlpParams,
    TrainConfig,
    TrainingDiverged,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from hcl.taxonomy import parse_hierarchy
from slow_reference import SLOW_MODES, slow_close_labels, slow_hcl_loss


def grads_like(params):
    """A fresh gradient vector for ``backward`` to fill."""
    return MlpParams(np.empty_like(params.flat), params.dims)


def tiny_dataset(seed=0, label_noise=0.0, examples_per_leaf=30):
    d = synth_generate(
        SynthConfig(
            levels=3,
            branching=2,
            examples_per_leaf=examples_per_leaf,
            feature_dim=8,
            label_noise=label_noise,
            seed=seed,
        )
    )
    d = split(d, seed=seed)
    d, _ = normalize(d)
    return d


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_is_seed_deterministic():
    a = init_params(5, 7, 3, seed=42)
    b = init_params(5, 7, 3, seed=42)
    assert np.array_equal(a.flat, b.flat)
    c = init_params(5, 7, 3, seed=43)
    assert not np.array_equal(a.W1, c.W1)


def test_init_biases_zero_and_weights_bounded():
    p = init_params(5, 7, 3, seed=0)
    assert np.all(p.b1 == 0.0) and np.all(p.b2 == 0.0)
    assert np.max(np.abs(p.W1)) <= math.sqrt(6.0 / 5)
    assert np.max(np.abs(p.W2)) <= math.sqrt(6.0 / 7)
    assert p.W1.shape == (5, 7) and p.W2.shape == (7, 3)


@pytest.mark.parametrize("flat", (np.zeros(16), np.zeros(18), np.zeros((17, 1)),
                                  np.zeros(17, dtype=np.float32), np.zeros(34)[::2]))
def test_params_reject_flat_that_does_not_match_dims(flat):
    with pytest.raises(ValueError, match="17 values for D=2 H=3 C=2"):
        MlpParams(flat, (2, 3, 2))


def test_init_rejects_zero_dimensions():
    with pytest.raises(ValueError):
        init_params(0, 7, 3, seed=0)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_params_scores_half():
    p = MlpParams(np.zeros(4 * 6 + 6 + 6 * 2 + 2), (4, 6, 2))
    scores, _ = forward(p, np.ones((3, 4)))
    assert np.all(scores == 0.5)


def test_forward_is_pure(rng):
    p = init_params(4, 6, 2, seed=1)
    x = rng.normal(size=(5, 4))
    s1, _ = forward(p, x)
    s2, _ = forward(p, x)
    assert np.array_equal(s1, s2)


def test_forward_rejects_width_mismatch():
    p = init_params(4, 6, 2, seed=1)
    with pytest.raises(ValueError):
        forward(p, np.ones((3, 5)))


def test_forward_rejects_bad_mask_shape(rng):
    p = init_params(4, 6, 2, seed=1)
    with pytest.raises(ValueError):
        forward(p, rng.normal(size=(3, 4)), dropout_mask=np.ones((3, 5)), dropout_rate=0.5)


@pytest.mark.parametrize("bad", (0.5, -1.0, 2.0, np.nan))
def test_forward_rejects_non_binary_mask(rng, bad):
    p = init_params(4, 6, 2, seed=1)
    mask = np.ones((3, 6))
    mask[2, 5] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        forward(p, rng.normal(size=(3, 4)), dropout_mask=mask, dropout_rate=0.5)
    bool_mask = mask == 1  # True/False is 1/0
    forward(p, rng.normal(size=(3, 4)), dropout_mask=bool_mask, dropout_rate=0.5)


@pytest.mark.parametrize("rate", (-0.5, 1.0, 1.5))
def test_forward_rejects_dropout_rate_outside_unit_interval(rng, rate):
    p = init_params(4, 6, 2, seed=1)
    with pytest.raises(ValueError, match="dropout_rate"):
        forward(p, rng.normal(size=(3, 4)), dropout_mask=np.ones((3, 6)), dropout_rate=rate)


def test_forward_leaves_its_inputs_untouched_and_returns_fresh_scores(rng):
    p = init_params(4, 6, 2, seed=1)
    p.b1[:] = rng.normal(size=6)
    p.b2[:] = rng.normal(size=2)
    x = rng.normal(size=(70, 4))
    assert np.asarray(x, dtype=np.float64) is x  # forward works on x itself, not a copy
    mask = (rng.random((70, 6)) >= 0.5).astype(np.float64)
    before = [a.copy() for a in (x, mask, p.flat)]
    s1, c1 = forward(p, x)
    s2, c2 = forward(p, x, dropout_mask=mask, dropout_rate=0.5)
    s3, _ = forward(p, x)
    assert all(np.array_equal(a, b) for a, b in zip((x, mask, p.flat), before))
    assert s1 is not s3 and not np.shares_memory(s1, s3)
    assert np.array_equal(s1, s3)
    assert not np.shares_memory(c1.hidden, c2.hidden)


def test_dropout_mask_expectation_matches_eval_activation():
    rng = np.random.default_rng(123)
    p = init_params(6, 32, 2, seed=3)
    x = np.abs(rng.normal(size=(1, 6))) + 0.5  # keep hidden units active
    _, eval_cache = forward(p, x)
    rate = 0.25
    total = np.zeros_like(eval_cache.hidden)
    n_masks = 10_000
    for _ in range(n_masks):
        mask = (rng.random((1, 32)) >= rate).astype(np.float64)
        _, cache = forward(p, x, dropout_mask=mask, dropout_rate=rate)
        total += cache.hidden
    mean = total / n_masks
    active = eval_cache.hidden > 1e-9
    rel = np.abs(mean[active] - eval_cache.hidden[active]) / eval_cache.hidden[active]
    assert np.max(rel) < 0.02


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_scalar_network_hand_fixture():
    # 1-1-1 network: score = sigmoid(W2 * relu(W1*x + b1) + b2)
    # x=1, W1=0.5, b1=0.25, W2=-0.7, b2=0.1 -> z1=0.75, hidden=0.75, z2=-0.425
    p = MlpParams(np.array([0.5, 0.25, -0.7, 0.1]), (1, 1, 1))  # W1, b1, W2, b2
    scores, cache = forward(p, np.array([[1.0]]))
    assert scores[0, 0] == pytest.approx(0.39532091528599067, abs=1e-15)
    g = backward(p, cache, np.array([[1.0]]), grads_like(p))
    # chain rule by hand: dz2 = score*(1-score); dW2 = hidden*dz2; db2 = dz2;
    # dhidden = W2*dz2; dz1 = dhidden (hidden>0); dW1 = x*dz1; db1 = dz1
    assert g.b2[0] == pytest.approx(0.23904228922343726, abs=1e-15)
    assert g.W2[0, 0] == pytest.approx(0.17928171691757794, abs=1e-15)
    assert g.W1[0, 0] == pytest.approx(-0.16732960245640607, abs=1e-15)
    assert g.b1[0] == pytest.approx(-0.16732960245640607, abs=1e-15)


def test_backward_zero_upstream_gives_zero_grads(rng):
    p = init_params(4, 6, 2, seed=1)
    x = rng.normal(size=(5, 4))
    _, cache = forward(p, x)
    g = backward(p, cache, np.zeros((5, 2)), grads_like(p))
    assert np.all(g.flat == 0.0)


def test_backward_rejects_stale_cache(rng):
    p = init_params(4, 6, 2, seed=1)
    other = init_params(4, 6, 2, seed=2)
    x = rng.normal(size=(3, 4))
    _, cache = forward(p, x)
    with pytest.raises(ValueError, match="stale"):
        backward(other, cache, np.zeros((3, 2)), grads_like(p))


def test_backward_rejects_wrong_upstream_shape(rng):
    p = init_params(4, 6, 2, seed=1)
    _, cache = forward(p, rng.normal(size=(3, 4)))
    with pytest.raises(ValueError):
        backward(p, cache, np.zeros((3, 3)), grads_like(p))


def test_backward_rejects_a_gradient_vector_of_other_dims(rng):
    p = init_params(4, 6, 2, seed=1)
    _, cache = forward(p, rng.normal(size=(3, 4)))
    other = MlpParams(np.zeros_like(p.flat), (1, 1, 21))  # as many values, other dims
    with pytest.raises(ValueError, match="dims"):
        backward(p, cache, np.ones((3, 2)), other)
    assert np.all(other.flat == 0.0)


def test_backward_rejects_a_gradient_vector_that_aliases_the_parameters(rng):
    p = init_params(4, 6, 2, seed=1)
    before = p.flat.copy()
    _, cache = forward(p, rng.normal(size=(3, 4)))
    with pytest.raises(ValueError, match="shares memory"):
        backward(p, cache, np.ones((3, 2)), MlpParams(p.flat, p.dims))
    assert np.array_equal(p.flat, before)


# ---------------------------------------------------------------------------
# parameter gradients per loss mode (finite-difference oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", LOSS_MODES)
def test_parameter_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(11)
    tax = parse_hierarchy(["a", "a/b", "a/c", "d", "d/e", "d/f"])
    n, d_in, h = 8, 5, 4
    leaves = [tax.id_of(leaf) for leaf in ("a/b", "a/c", "d/e", "d/f")]
    y = slow_close_labels([[leaves[i % 4]] for i in range(n)], tax.class_names)
    x = rng.normal(size=(n, d_in))
    params = init_params(d_in, h, 6, seed=5)
    # spread the class scores apart so the transform's max has a wide,
    # perturbation-stable margin (finite differences need tie-free points)
    params.W1 *= 0.3
    params.W2 *= 0.3
    params.b2 += np.array([1.2, -0.8, -1.6, 0.6, -0.2, -2.4])

    scores0, cache0 = forward(params, x)
    spec = curriculum.LOSS_PRESETS[mode]
    _, s0 = curriculum.hcl_loss(y, scores0, tax, spec)
    # the gradient function that training calls
    dscores = curriculum.hcl_grad(y, scores0, s0, tax, spec)
    analytic = backward(params, cache0, dscores, grads_like(params))

    ref_spec = curriculum.LossSpec(*SLOW_MODES[mode])  # the mode by the test-local table

    def value_at(p):
        # the differentiated objective: the selection-weighted sum of the
        # (transformed) base loss, the selection frozen
        return s0 @ slow_hcl_loss(y, forward(p, x)[0], tax, ref_spec)[0]

    step = 1e-5
    worst = 0.0
    for arr_a, arr_p in ((analytic.W1, params.W1), (analytic.b1, params.b1),
                         (analytic.W2, params.W2), (analytic.b2, params.b2)):
        fd = np.zeros_like(arr_p)
        for idx in np.ndindex(arr_p.shape):
            orig = arr_p[idx]
            arr_p[idx] = orig + step
            up = value_at(params)
            arr_p[idx] = orig - step
            down = value_at(params)
            arr_p[idx] = orig
            fd[idx] = (up - down) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(arr_a), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(arr_a - fd) / denom)))
    assert worst < 1e-4, f"{mode}: max rel err {worst}"


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_zero_learning_rate_leaves_params_untouched():
    d = tiny_dataset()
    cfg = TrainConfig(hidden_width=16, learning_rate=0.0, epochs=2, seed=9)
    params, _ = train(d, d.taxonomy, cfg)
    fresh = init_params(d.n_features, 16, d.taxonomy.n_classes, seed=9)
    assert np.array_equal(params.flat, fresh.flat)


def test_training_is_seed_deterministic():
    d = tiny_dataset()
    cfg = TrainConfig(hidden_width=16, epochs=3, seed=4)
    p1, log1 = train(d, d.taxonomy, cfg)
    p2, log2 = train(d, d.taxonomy, cfg)
    assert [e.jsonl_dict() for e in log1] == [e.jsonl_dict() for e in log2]
    assert np.array_equal(p1.flat, p2.flat)


@pytest.mark.parametrize("mode", LOSS_MODES)
def test_training_loss_decreases_by_epoch_twenty(mode):
    d = tiny_dataset()
    cfg = TrainConfig(hidden_width=32, epochs=20, seed=0, loss_mode=mode)
    _, log = train(d, d.taxonomy, cfg)
    assert log[19].loss < log[0].loss


def test_separable_dataset_is_learned_quickly():
    d = tiny_dataset(label_noise=0.0, examples_per_leaf=40)
    cfg = TrainConfig(hidden_width=128, epochs=50, seed=0, loss_mode="hcl")
    _, log = train(d, d.taxonomy, cfg)
    assert log[-1].hit1 >= 0.9


def test_train_requires_split_tags():
    d = synth_generate(SynthConfig(levels=3, branching=2, examples_per_leaf=5, seed=0))
    with pytest.raises(ValueError, match="split"):
        train(d, d.taxonomy, TrainConfig(hidden_width=4, epochs=1))


def test_train_rejects_empty_train_split():
    d = tiny_dataset()
    d.split_tags = np.full(d.n_examples, 2)  # everything in the test split
    with pytest.raises(ValueError, match="empty"):
        train(d, d.taxonomy, TrainConfig(hidden_width=4, epochs=1))


def test_train_rejects_empty_valid_split():
    d = tiny_dataset()
    d.split_tags = np.where(d.split_tags == 1, 0, d.split_tags)  # valid rows join train
    with pytest.raises(ValueError, match="valid split is empty"):
        train(d, d.taxonomy, TrainConfig(hidden_width=4, epochs=1))


def test_train_reports_divergence():
    d = tiny_dataset()
    with np.errstate(all="ignore"):
        d.features = d.features * 1e308  # overflow the first matmul
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(d, d.taxonomy, TrainConfig(hidden_width=16, epochs=1, seed=0))


@pytest.mark.parametrize("split_name", ("train", "valid"))
def test_train_rejects_labels_that_are_not_ancestor_closed(split_name):
    d = tiny_dataset()
    y = d.labels.copy()
    row = d.indices(split_name)[0]
    leaf = int(np.flatnonzero(y[row] == 1).max())  # a deepest positive
    y[row, d.taxonomy.parent_ids[leaf]] = -1
    bad = Dataset(features=d.features, labels=y, taxonomy=d.taxonomy, split_tags=d.split_tags)
    with pytest.raises(ValueError, match="not ancestor-closed"):
        train(bad, bad.taxonomy, TrainConfig(hidden_width=4, epochs=1))


@pytest.mark.parametrize("scope", losses.SCOPES)
def test_train_takes_one_routing_per_batch(scope, monkeypatch):
    """The batch gradient of a transform mode routes through one
    ``losses.hier_transform`` call per batch, and the epoch-end pass through
    none: a traced run reads the share of routed elements from that call.
    Each batch also takes one ``losses.bce_loss`` and one ``losses.bce_grad``
    call, the calls a traced run times as the bce span; the epoch-end pass
    takes one ``bce_loss`` per row block."""
    d = tiny_dataset()
    calls = {"hier_transform": [], "bce_loss": [], "bce_grad": []}

    def counted(name):
        fn = getattr(losses, name)

        def wrapper(*args, **kwargs):
            calls[name].append(len(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(losses, name, counted(name))
    cfg = TrainConfig(hidden_width=4, epochs=3, batch_size=16, transform_scope=scope)
    train(d, d.taxonomy, cfg)
    n = len(d.indices("train"))
    batches = [min(16, n - start) for start in range(0, n, 16)]
    blocks = [rows.stop - rows.start for rows in losses._row_blocks(n)]
    assert calls["hier_transform"] == calls["bce_grad"] == batches * cfg.epochs
    assert calls["bce_loss"] == (batches + blocks) * cfg.epochs


def test_training_peak_memory_does_not_grow_after_the_first_epoch():
    # what the epoch-end pass allocates must not come on top of the
    # previous epoch's scores or the last batch's gradients
    d = synth_generate(SynthConfig(levels=3, branching=6, examples_per_leaf=5, feature_dim=8))
    d, _ = normalize(split(d, seed=0))

    def traced_peak(epochs):
        tracemalloc.start()
        try:
            train(d, d.taxonomy, TrainConfig(hidden_width=16, epochs=epochs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    train(d, d.taxonomy, TrainConfig(hidden_width=16, epochs=1))  # lazy set-up outside the trace
    score_block = len(d.indices("train")) * d.taxonomy.n_classes * 8
    assert traced_peak(3) - traced_peak(1) < score_block / 2


def test_train_fills_one_gradient_vector_per_epoch(monkeypatch):
    d = tiny_dataset()
    cfg = TrainConfig(hidden_width=8, epochs=3, batch_size=16)
    dests, fill = [], mlp.backward

    def recording(params, cache, dscores, grads):
        dests.append(grads)
        return fill(params, cache, dscores, grads)

    monkeypatch.setattr(mlp, "backward", recording)
    train(d, d.taxonomy, cfg)
    per_epoch = math.ceil(len(d.indices("train")) / cfg.batch_size)
    assert per_epoch > 1 and len(dests) == cfg.epochs * per_epoch
    epochs = [dests[i:i + per_epoch] for i in range(0, len(dests), per_epoch)]
    for batches in epochs:
        assert all(g is batches[0] for g in batches)
    assert len({id(batches[0]) for batches in epochs}) == cfg.epochs


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(loss_mode="mse")
    with pytest.raises(ValueError):
        TrainConfig(hidden_width=0)
    for make in (lambda: TrainConfig(transform_scope="x"), lambda: curriculum.LossSpec(scope="x")):
        with pytest.raises(ValueError, match="^unknown transform_scope 'x'$"):
            make()


def _agg():
    return curriculum.ClassLossAggregate(L=np.zeros(1), e_h_total=0.0)


def _ones():
    return np.ones((1, 1))


# Each value a deep check rejects only when the first epoch ends, with that check.
DEEP_CHECKS = [
    (dict(decision_threshold=v), lambda v=v: losses.zero_one_errors(_ones(), _ones(), v))
    for v in (0.0, 1.0, 1.5, -0.2, math.nan)
] + [
    (dict(selection_rule="best-k"),
     lambda: curriculum.select_classes(_agg(), rule="best-k", thresh=None)),
    (dict(selection_rule=curriculum.RULE_FIXED_THRESHOLD),
     lambda: curriculum.select_classes(_agg(), rule=curriculum.RULE_FIXED_THRESHOLD,
                                       thresh=None)),
    (dict(focal_gamma=-1.0), lambda: losses.focal_loss(_ones(), _ones(), gamma=-1.0)),
    (dict(selection_rule=curriculum.RULE_FIXED_THRESHOLD, selection_thresh=math.nan),
     lambda: curriculum.select_classes(_agg(), rule=curriculum.RULE_FIXED_THRESHOLD,
                                       thresh=math.nan)),
    (dict(focal_gamma=math.inf), lambda: losses.focal_grad(_ones(), _ones(), gamma=math.inf)),
]


# TrainConfig's loss settings and the LossSpec fields they set
SPEC_FIELDS = {"transform_scope": "scope", "focal_gamma": "gamma",
               "decision_threshold": "decision_threshold", "selection_rule": "rule",
               "selection_thresh": "thresh"}


@pytest.mark.parametrize("bad, deep_check", DEEP_CHECKS)
def test_train_config_rejects_up_front_what_the_deep_checks_reject(bad, deep_check):
    messages = []
    for make in (deep_check, lambda: TrainConfig(**bad),
                 lambda: curriculum.LossSpec(**{SPEC_FIELDS[k]: v for k, v in bad.items()})):
        with pytest.raises(ValueError) as exc:
            make()
        messages.append(str(exc.value))
    assert messages == messages[:1] * 3


@pytest.mark.parametrize("lr", (math.nan, math.inf))
def test_train_config_rejects_non_finite_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate must be finite and >= 0"):
        TrainConfig(learning_rate=lr)


def test_train_rejects_mismatched_taxonomy():
    d = tiny_dataset()
    other = parse_hierarchy(["a", "b"])
    with pytest.raises(ValueError):
        train(d, other, TrainConfig(hidden_width=4, epochs=1))


def test_epoch_log_selected_classes_counts_curriculum_size():
    d = tiny_dataset(label_noise=0.3)
    cfg = TrainConfig(hidden_width=16, epochs=2, seed=0, loss_mode="hcl")
    _, log = train(d, d.taxonomy, cfg)
    for entry in log:
        rec = entry.jsonl_dict()
        assert set(rec) == {"epoch", "loss", "hit1", "mrr", "hierdist", "selected_classes"}
        assert 0 <= rec["selected_classes"] <= d.taxonomy.n_classes


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    p = init_params(5, 7, 3, seed=21)
    path = tmp_path / "model.bin"
    save_checkpoint(path, p)
    q = load_checkpoint(path)
    assert q.dims == p.dims and q.flat.tobytes() == p.flat.tobytes()


def test_checkpoint_load_holds_one_copy_of_the_vector(tmp_path):
    p = init_params(16, 256, 256, seed=2)
    path = tmp_path / "model.bin"
    save_checkpoint(path, p)
    load_checkpoint(path)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        q = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.flat.tobytes() == p.flat.tobytes()
    assert peak < 1.5 * p.flat.nbytes


def test_checkpoint_bytes_are_the_documented_layout(tmp_path):
    # built by hand, so a writer and a reader that changed the layout
    # together would still fail here
    rng = np.random.default_rng(3)
    d, h, c = 2, 3, 4
    W1, b1, W2, b2 = (rng.normal(size=shape) for shape in ((d, h), (h,), (h, c), (c,)))
    b2[0] = -0.0
    expected = (mlp.CHECKPOINT_MAGIC + struct.pack("<QQQ", d, h, c)
                + b"".join(a.astype("<f8").tobytes() for a in (W1, b1, W2, b2)))
    flat = np.concatenate([a.ravel() for a in (W1, b1, W2, b2)])
    path = tmp_path / "model.bin"
    save_checkpoint(path, MlpParams(flat, (d, h, c)))
    assert path.read_bytes() == expected
    path.write_bytes(expected)
    q = load_checkpoint(path)
    assert q.dims == (d, h, c)
    for view, want in ((q.W1, W1), (q.b1, b1), (q.W2, W2), (q.b2, b2)):
        assert view.shape == want.shape and view.tobytes() == want.tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, init_params(2, 2, 2, seed=0))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, init_params(2, 2, 2, seed=0))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, init_params(2, 2, 2, seed=0))
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_short_header_and_zero_dims(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(mlp.CHECKPOINT_MAGIC + b"\x01" * 10)
    with pytest.raises(ValueError, match="header"):
        load_checkpoint(path)
    path.write_bytes(mlp.CHECKPOINT_MAGIC + bytes(24))
    with pytest.raises(ValueError, match="positive"):
        load_checkpoint(path)
