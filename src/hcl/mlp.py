"""Single-hidden-layer perceptron with sigmoid outputs and manual backprop.

Everything runs in float64 and is a pure function of (seed, config, data):
weight init, batch order and dropout masks all draw from one seeded
generator in a fixed order. The loss mode names a preset of
``curriculum.LossSpec``, and ``TrainConfig.loss_spec`` applies the config's
loss settings to it; that one spec goes to every loss call. The training
loop recomputes the curriculum selection vector once per epoch from a full
eval-mode pass over the train split; the same pass provides the logged
training loss, a per-example mean of the spec's (transformed) base loss, or
of the curriculum objective when the spec has the curriculum. That pass
scores the train split one row block at a time (``_score_blocks``) and
hands each block to ``curriculum.hcl_loss``, which folds it into its
per-class sums before it asks for the next, so the split's N x C scores are
never held: one hidden scratch and one block of scores serve every block.
The pass finds only the parameters, the optimizer state, the split arrays
and the dropout buffers live: the last batch's arrays are dropped after the
batch loop and the valid split's scores are never bound to a name, so every
epoch peaks where the first does.

A forward pass runs in the row blocks of ``losses._row_blocks``: 256 rows
each, the remainder merged into the last, so every block has 256 to 511
rows and a call of fewer than 512 rows is one block. Each block evaluates
``sigmoid(relu(x @ W1 + b1) * mask * scale @ W2 + b2)`` on its rows one
expression at a time (``_score_block``, the one per-block body of
``forward`` and ``_score_blocks``): its hidden rows go into one scratch
array that every block reuses, the bias add, ReLU, 0/1 dropout mask and
scalar ``scale = 1/(1-rate)`` overwrite the matmul's output in that order
(the same elementwise operation on the same operands, only written in
place), and the second matmul writes into the block's rows of the scores,
which the sigmoid then overwrites (see ``_sigmoid``). ``forward`` writes
every block into the call's N x C scores; ``_score_blocks`` writes each
into one block buffer that the next overwrites.

An output element reads only its own row, so the elementwise steps give the
same bits in any blocking. A matmul need not: BLAS may run a block's
product on another kernel than the whole product, or round its sums in
another order. OpenBLAS's Haswell and Zen kernels do (some row blocks of
513- and 3073-row products differ, at K=16 and at K=800), so the tests
compare each block with a reference computed on that block's rows alone,
never with a whole-split product.

What the cache holds: the dropout mask as given (no float copy) and the
scale, and for a call of one block, such as every training batch, its
hidden layer (the scratch itself) for ``backward``. A call of several
blocks keeps no hidden layer (``ForwardCache.hidden`` is None), so a
scoring pass never holds N x H floats: at H=800 the scratch is 1.6-3.3
MB, where ``hclbench wide``'s 3072 train rows took 19.7 MB. At 511 rows or
fewer it stays under glibc's 4 MiB mmap threshold for H up to 1026, so it
comes from the heap (see ``_malloc``); so does ``_score_blocks``' block
buffer for C up to 1026. ``backward`` after a call of several blocks
rebuilds the hidden layer block by block with the same code, so the
gradients have the bits that a kept layer would give; it reads the
parameters and the mask as they are, so it must run before they change,
as in ``train``.
Dropout multiplies by the 0/1 mask and then by ``scale``, in both passes:
``v * 1 * scale`` is ``v * scale``, and ``v * 0`` is a signed zero (or NaN)
that a positive ``scale`` keeps, so the bits are those of one multiply by
the float mask ``mask / (1 - rate)``, which is never built.
``backward`` masks the ReLU with ``hidden > 0``: with a binary mask and
``scale >= 1``, a kept unit's ``max(z1, 0) * scale`` is positive exactly
when ``z1 > 0``, and a dropped unit's upstream ``dhidden * 0`` is a signed
zero (or NaN) that both masks leave as it is.

The parameters live in one float64 vector, ``MlpParams.flat``: W1 (D x H,
row-major), b1, W2 (H x C, row-major), b2, the checkpoint's order. The four
named arrays are views of it, so the optimizer steps one vector, a
checkpoint is one write and one read, and ``backward`` returns its
gradients in the same layout. ``backward`` writes each product and column
sum into its view of a gradient vector that the caller passes, with
``out=``. That only says where the result goes: every view is C-contiguous
and overlaps no operand, so numpy runs the same BLAS call and the same
reduction as it would into a new array, and the four writes cover the
whole vector, so the bits are those of a fresh one. ``train`` allocates one
gradient vector per epoch, fills it on every batch and drops it with the
last batch's arrays before the epoch-end pass, so no batch asks the
allocator for (and faults in) a vector of its own (see ``_malloc``). The
batch's rows go too: allocated after the vector, they would keep its freed
pages resident through the pass.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import curriculum, losses, metrics
from .data import Dataset
from .taxonomy import Taxonomy

CHECKPOINT_MAGIC = b"HCLMLP1\n"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class TrainConfig:
    hidden_width: int = 800
    dropout_rate: float = 0.25
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    optimizer: str = "adam"
    loss_mode: str = "hcl"
    transform_scope: str = curriculum.LossSpec.scope
    decision_threshold: float = curriculum.LossSpec.decision_threshold
    focal_gamma: float = curriculum.LossSpec.gamma
    selection_rule: str = curriculum.LossSpec.rule
    selection_thresh: float | None = curriculum.LossSpec.thresh

    def __post_init__(self):
        if self.hidden_width < 1:
            raise ValueError(f"hidden_width must be >= 1, got {self.hidden_width}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss_mode not in curriculum.LOSS_MODES:
            raise ValueError(
                f"unknown loss_mode {self.loss_mode!r}, expected one of {curriculum.LOSS_MODES}"
            )
        self.loss_spec()  # the spec checks the loss settings before training starts

    def loss_spec(self) -> curriculum.LossSpec:
        """The loss mode's preset with this config's loss settings applied."""
        return replace(
            curriculum.LOSS_PRESETS[self.loss_mode],
            scope=self.transform_scope,
            gamma=self.focal_gamma,
            decision_threshold=self.decision_threshold,
            rule=self.selection_rule,
            thresh=self.selection_thresh,
        )


@dataclass(eq=False)
class MlpParams:
    """W1 (D x H), b1, W2 (H x C) and b2 as views of ``flat``, in that order."""

    flat: np.ndarray  # float64, D*H + H + H*C + C values
    dims: tuple[int, int, int]  # D, H, C

    def __post_init__(self):
        d, h, c = self.dims = tuple(int(n) for n in self.dims)
        b1_at, w2_at, b2_at = d * h, d * h + h, d * h + h + h * c
        if (self.flat.dtype != np.float64 or self.flat.shape != (b2_at + c,)
                or not self.flat.flags.c_contiguous):
            raise ValueError(
                f"flat must be a contiguous float64 vector of {b2_at + c} values for "
                f"D={d} H={h} C={c}, got {self.flat.dtype} of shape {self.flat.shape}"
            )
        self.W1 = self.flat[:b1_at].reshape(d, h)
        self.b1 = self.flat[b1_at:w2_at]
        self.W2 = self.flat[w2_at:b2_at].reshape(h, c)
        self.b2 = self.flat[b2_at:]


def init_params(n_features: int, hidden_width: int, n_classes: int, seed: int) -> MlpParams:
    """Uniform(-sqrt(6/fan_in), sqrt(6/fan_in)) weights, zero biases."""
    if n_features < 1 or hidden_width < 1 or n_classes < 1:
        raise ValueError(
            f"dimensions must be positive, got D={n_features} H={hidden_width} C={n_classes}"
        )
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / n_features)
    lim2 = np.sqrt(6.0 / hidden_width)
    # uniform(size=n) draws what uniform(size=shape) draws, in row-major order
    flat = np.concatenate([
        rng.uniform(-lim1, lim1, size=n_features * hidden_width), np.zeros(hidden_width),
        rng.uniform(-lim2, lim2, size=hidden_width * n_classes), np.zeros(n_classes),
    ])
    return MlpParams(flat, (n_features, hidden_width, n_classes))


def _sigmoid(z):
    """Logistic sigmoid written into ``z`` (a float64 array), which it returns.

    Row blocks of ``losses._BLOCK_ROWS`` (``losses._row_blocks``) keep the
    scratch small. Per block: ``e = exp(-|z|)`` (abs, negate, exp into the
    scratch), ``num = max(z >= 0, e)`` (the comparison written as 1.0 or
    0.0 over z, which nothing reads after it), ``e += 1``, then
    ``z = num / e``.
    ``-|z|`` is ``-z`` when z >= 0 and ``z`` otherwise. e lies in [0, 1]
    when z >= 0, so num is exactly 1.0 there; below, e >= +0 beats the 0.0
    and num is e, with no ``np.where``. Each branch thus runs the same
    operations on the same values as the stable two-branch form,
    ``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))`` below
    (``e + 1`` equals ``1 + e``), and gives the same bits; ``exp`` never
    overflows. NaN takes the z < 0 branch and stays NaN, though its sign
    bit may differ from the two-branch form's.
    """
    blocks = losses._row_blocks(len(z), losses._BLOCK_ROWS)
    e_buf = np.empty_like(z[blocks[-1]])  # the last block is the longest
    for rows in blocks:
        zb = z[rows]
        e = e_buf[:len(zb)]
        np.abs(zb, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.greater_equal(zb, 0.0, out=zb)
        np.maximum(zb, e, out=zb)
        np.add(e, 1.0, out=e)
        np.divide(zb, e, out=zb)
    return z


@dataclass
class ForwardCache:
    params: MlpParams = field(repr=False)
    x: np.ndarray = field(repr=False)
    hidden: np.ndarray | None = field(repr=False)  # post-relu, post-dropout; None past one block
    mask: np.ndarray | None = field(repr=False)  # the 0/1 dropout mask, None in eval mode
    scale: float
    scores: np.ndarray = field(repr=False)


def _hidden_block(params: MlpParams, x, mask, scale, out):
    """``relu(x @ W1 + b1) * mask * scale`` (no dropout when ``mask`` is
    None) written into ``out``, which it returns."""
    np.matmul(x, params.W1, out=out)
    out += params.b1
    np.maximum(out, 0.0, out=out)
    if mask is not None:
        out *= mask
        out *= scale
    return out


def _score_block(params: MlpParams, x, mask, scale, hidden, out):
    """One row block's scores, ``sigmoid(hidden @ W2 + b2)``, written into
    ``out``, which it returns; ``hidden`` is overwritten with the block's
    hidden layer first (``_hidden_block``)."""
    np.matmul(_hidden_block(params, x, mask, scale, hidden), params.W2, out=out)
    out += params.b2
    return _sigmoid(out)


def _score_blocks(params: MlpParams, x):
    """Yield the eval-mode scores of each ``losses._row_blocks`` block of
    ``x`` in turn. Every block is written into one buffer made for the
    pass, so a block holds its scores only until the next is drawn."""
    blocks = losses._row_blocks(len(x))
    longest = blocks[-1].stop - blocks[-1].start
    hidden, out = (np.empty((longest, n)) for n in params.dims[1:])
    for rows in blocks:
        n = rows.stop - rows.start
        yield _score_block(params, x[rows], None, 1.0, hidden[:n], out[:n])


def forward(params: MlpParams, x, dropout_mask=None, dropout_rate: float = 0.0):
    """Eval-mode unless a 0/1 dropout mask is given (inverted scaling 1/(1-rate))."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.W1.shape[0]:
        raise ValueError(
            f"feature width {x.shape[-1] if x.ndim == 2 else '?'} does not match "
            f"D={params.W1.shape[0]}"
        )
    scale = 1.0
    if dropout_mask is not None:
        if dropout_mask.shape != (x.shape[0], params.W1.shape[1]):
            raise ValueError("dropout mask shape does not match hidden activations")
        if dropout_mask.dtype != np.bool_ and ((dropout_mask != 0) & (dropout_mask != 1)).any():
            raise ValueError("dropout mask entries must be 0 or 1")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        scale = 1.0 / (1.0 - dropout_rate)
    blocks = losses._row_blocks(len(x))
    # the last block is the longest; with one block this is the hidden layer
    scratch = np.empty((blocks[-1].stop - blocks[-1].start, params.dims[1]))
    scores = np.empty((len(x), params.dims[2]))
    for rows in blocks:
        _score_block(params, x[rows], None if dropout_mask is None else dropout_mask[rows],
                     scale, scratch[:rows.stop - rows.start], scores[rows])
    cache = ForwardCache(params=params, x=x, hidden=scratch if len(blocks) == 1 else None,
                         mask=dropout_mask, scale=scale, scores=scores)
    return scores, cache


def backward(params: MlpParams, cache: ForwardCache, dscores, grads: MlpParams) -> MlpParams:
    """Exact reverse-mode gradients written over ``grads``, which it returns
    (see the module docstring for why ``out=`` leaves their bits alone, and
    for the hidden layer it rebuilds after a forward of several blocks)."""
    if cache.params is not params:
        raise ValueError("stale cache: it was produced by a different parameter set")
    dscores = np.asarray(dscores, dtype=np.float64)
    if dscores.shape != cache.scores.shape:
        raise ValueError(f"upstream gradient shape {dscores.shape} does not match scores")
    if grads.dims != params.dims:
        raise ValueError(f"gradient dims {grads.dims} do not match the parameters' {params.dims}")
    if np.shares_memory(grads.flat, params.flat):
        raise ValueError("the gradient vector shares memory with the parameters")
    hidden = cache.hidden
    if hidden is None:
        hidden = np.empty((len(cache.x), params.dims[1]))
        for rows in losses._row_blocks(len(cache.x)):
            _hidden_block(params, cache.x[rows], None if cache.mask is None else cache.mask[rows],
                          cache.scale, hidden[rows])
    dz2 = dscores * cache.scores
    dz2 *= 1.0 - cache.scores
    np.matmul(hidden.T, dz2, out=grads.W2)
    dz2.sum(axis=0, out=grads.b2)
    dhidden = dz2 @ params.W2.T
    if cache.mask is not None:  # the mask, then the scale, as in forward
        dhidden *= cache.mask
        dhidden *= cache.scale
    dhidden *= hidden > 0  # dz1, see the module docstring
    np.matmul(cache.x.T, dhidden, out=grads.W1)
    dhidden.sum(axis=0, out=grads.b1)
    return grads


# Elements per in-place Adam pass: a chunk's six operands stay in cache
# across its 14 passes.
_ADAM_CHUNK = 1 << 14


class _Optimizer:
    def __init__(self, cfg: TrainConfig, params: MlpParams):
        self.cfg = cfg
        if cfg.optimizer == "adam":
            self.m = np.zeros_like(params.flat)
            self.v = np.zeros_like(params.flat)
            self.scratch = (np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK))
            self.t = 0

    def step(self, params: MlpParams, grads: MlpParams):
        lr = self.cfg.learning_rate
        if self.cfg.optimizer == "sgd":
            params.flat -= lr * grads.flat
            return
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for start in range(0, len(params.flat), _ADAM_CHUNK):
            p, g, m, v = (a[start:start + _ADAM_CHUNK]
                          for a in (params.flat, grads.flat, self.m, self.v))
            s1, s2 = (s[:len(p)] for s in self.scratch)
            # In place, in the operation order of
            #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            #   p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)
            # so every step is bitwise equal to evaluating those expressions.
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1 - b2, out=s1)
            np.multiply(s1, g, out=s1)
            np.add(v, s1, out=v)
            np.divide(m, c1, out=s1)
            np.multiply(s1, lr, out=s1)
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(p, s1, out=p)


@dataclass
class EpochLog:
    epoch: int
    loss: float
    hit1: float
    mrr: float
    hierdist: float
    selected: np.ndarray = field(repr=False)

    def jsonl_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "loss": self.loss,
            "hit1": self.hit1,
            "mrr": self.mrr,
            "hierdist": self.hierdist,
            "selected_classes": int(self.selected.sum()),
        }


def train(dataset: Dataset, taxonomy: Taxonomy, cfg: TrainConfig):
    """Mini-batch training; returns final params and the per-epoch log."""
    if taxonomy.n_classes != dataset.labels.shape[1]:
        raise ValueError("taxonomy does not match the dataset's label width")
    idx_train = dataset.indices("train")
    idx_valid = dataset.indices("valid")
    if len(idx_train) == 0:
        raise ValueError("train split is empty")
    if len(idx_valid) == 0:
        raise ValueError("valid split is empty")
    x_tr = dataset.features[idx_train]
    y_tr = dataset.labels[idx_train]
    x_va = dataset.features[idx_valid]
    y_va = dataset.labels[idx_valid]
    # checked here so that bad labels fail before epoch 1
    losses.check_label_matrix(y_tr, taxonomy)
    losses.check_label_matrix(y_va, taxonomy)

    spec = cfg.loss_spec()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(dataset.n_features, cfg.hidden_width, taxonomy.n_classes, cfg.seed)
    opt = _Optimizer(cfg, params)

    # Epoch 1 trains every class: selection needs loss statistics, and an
    # untrained model has none worth acting on. Each epoch end recomputes
    # the selection from a full clean pass over the train split for the
    # next epoch.
    s = np.ones(taxonomy.n_classes)

    # Dropout draws and masks go into per-run buffers; a short last batch
    # uses their leading rows. rng.random(out=) fills a C-contiguous block
    # with the same draws, in the same order, as rng.random(shape).
    if cfg.dropout_rate > 0:
        shape = (min(cfg.batch_size, len(idx_train)), cfg.hidden_width)
        draws, keep = np.empty(shape), np.empty(shape, dtype=bool)

    log: list[EpochLog] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(idx_train))
        grads = MlpParams(np.empty_like(params.flat), params.dims)  # every batch overwrites it
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            xb, yb = x_tr[batch], y_tr[batch]
            mask = None
            if cfg.dropout_rate > 0:
                rng.random(out=draws[:len(batch)])
                mask = np.greater_equal(draws[:len(batch)], cfg.dropout_rate,
                                        out=keep[:len(batch)])
            scores, cache = forward(params, xb, mask, cfg.dropout_rate)
            dscores = curriculum.hcl_grad(yb, scores, s, taxonomy, spec)
            dscores /= len(batch)  # hcl_grad's array is fresh
            opt.step(params, backward(params, cache, dscores, grads))
        del xb, yb, scores, cache, dscores, grads  # not live through the epoch-end pass

        value, s = curriculum.hcl_loss(y_tr, _score_blocks(params, x_tr), taxonomy, spec)
        train_loss = value / len(y_tr)
        if not np.isfinite(train_loss):
            raise TrainingDiverged(
                f"non-finite training loss {train_loss!r} at epoch {epoch} "
                f"(loss_mode={cfg.loss_mode}, lr={cfg.learning_rate})"
            )
        report = metrics.evaluate(y_va, forward(params, x_va)[0], taxonomy)
        log.append(EpochLog(
            epoch=epoch,
            loss=train_loss,
            hit1=report.hit_at_1,
            mrr=report.mrr,
            hierdist=report.hier_dist,
            selected=s.copy(),
        ))
    return params, log


def save_checkpoint(path, params: MlpParams) -> None:
    """Magic string, three little-endian uint64 dims, then ``flat`` (W1, b1,
    W2, b2 row-major) as little-endian float64. Write->read round-trips
    bitwise."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<QQQ", *params.dims))
        fh.write(params.flat.astype("<f8", copy=False))


def load_checkpoint(path) -> MlpParams:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated checkpoint header")
        d, h, c = struct.unpack("<QQQ", header)
        # check the claimed dims against the file before allocating the vector
        if min(d, h, c) < 1:
            raise ValueError(f"{path}: checkpoint header claims D={d} H={h} C={c}; "
                             "dimensions must be positive")
        n_bytes = 8 * (d * h + h + h * c + c)
        size = os.fstat(fh.fileno()).st_size
        want = len(CHECKPOINT_MAGIC) + 24 + n_bytes
        if size != want:
            raise ValueError(f"{path}: checkpoint header claims D={d} H={h} C={c}, "
                             f"{want} bytes in all, but the file has {size} bytes")
        flat = np.empty(n_bytes // 8, dtype="<f8")
        if fh.readinto(flat) != n_bytes:
            raise ValueError(f"{path}: checkpoint ended before its {n_bytes} parameter bytes")
    return MlpParams(flat.astype(np.float64, copy=False), (d, h, c))
