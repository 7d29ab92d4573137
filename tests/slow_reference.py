"""The slow reference of every fast path in ``hcl``, each defined once.

A reference is the plain form of what a fast path computes: a loop, a
whole-array expression, or the code that the fast path replaced. The tests
compare each fast path with its reference bit for bit (``np.array_equal``
or equal bit patterns), never within a tolerance.

The independence rule: a reference shares no code with the fast path it
checks, so that a defect cannot sit on both sides and hide. This module
may import from ``hcl`` only data types and constants (``Taxonomy``,
``MlpParams``, ``LossSpec``, the scope and rule names, ``LOG_EPS``,
``VIRTUAL_ROOT``, ``SEPARATOR``, ``FEATURE_NOISE_SCALE``), and it reads no
derived ``Taxonomy`` query: the tree comes from the class names alone
(``tree_from_names``). ``tests/test_slow_reference.py`` checks both with
``ast``. ``slow_train`` is the one exception: it checks only the training
loop's order and buffers, so it calls the live passes, optimizer, loss and
metrics.

The references, each with the fast path it checks:

- ``tree_from_names``: each class's parent, children and depth, read off the
  path strings; ``Taxonomy.parent_ids``, ``level``, ``max_level`` and
  ``levels_index``.
- ``slow_parse_hierarchy``: the retired parser, every prefix of every path
  joined as a string, then each name split again; ``parse_hierarchy``.
- ``slow_ancestors``: a walk up the parents; the rows of
  ``Taxonomy.path_ids``.
- ``slow_lca``: the deeper class climbed to the other's depth, then both in
  step; ``Taxonomy.lca``.
- ``slow_heights`` and ``slow_leaf_ids``: a post-order over the children;
  ``Taxonomy.heights`` and ``leaf_ids``.
- ``slow_all_shallower`` and ``slow_ancestors_only`` (``SLOW_TRANSFORMS``):
  a per-class scan of every strictly shallower column, or of the class's
  strict ancestors, for the max and its smallest maximizing id; the values
  check ``losses.hier_transform``, and the routing (the id each element's
  max comes from: the class itself unless it is strictly below the max of
  its scope) is the one place the routing rule is written down.
- ``slow_backward``: the ``np.add.at`` scatter;
  ``losses.hier_transform_backward``.
- ``slow_bce_loss``, ``slow_bce_grad``, ``slow_focal_loss`` and
  ``slow_focal_grad``: two-branch ``np.where`` forms that evaluate both
  branches on every element; ``losses.bce_loss``, ``bce_grad``,
  ``focal_loss`` and ``focal_grad``, each called on its own.
- ``slow_zero_one_loss``: the float 0-1 surface; ``losses.zero_one_errors``.
- ``slow_select``: a per-K loop over the stable sort, with prefix sums added
  one class at a time (the bits of ``np.cumsum``);
  ``curriculum.select_classes``, whose rules compare every K at once.
- ``slow_hcl_loss``: a spec's epoch-end pass over the whole surface, with no
  row blocks, summing the (transformed) float 0-1 surface where
  ``curriculum.hcl_loss`` counts the bool one under either scope;
  ``hcl_loss`` and ``curriculum_objective``.
- ``slow_hcl_grad``: the batch gradient from the slow base functions, the
  slow transform's routing and the scatter; ``curriculum.hcl_grad`` and its
  routing-free weight sweeps, ``losses._hier_weights``.
- ``SLOW_MODES``: each loss mode's base loss and switches, the first three
  fields of its ``LossSpec``, written apart from ``curriculum.LOSS_PRESETS``
  so that a wrong preset shows.
- ``slow_optimizer_step``: the allocating SGD and Adam steps;
  ``mlp._Optimizer.step``.
- ``slow_sigmoid``: the masked gather/scatter sigmoid; ``mlp._sigmoid``.
- ``slow_mlp_forward`` and ``slow_mlp_backward``: the allocating passes,
  whose cache keeps the pre-ReLU ``z1`` and the float dropout mask
  ``mask / (1 - rate)``; ``mlp.forward``, its per-block body
  ``mlp._score_block``, and ``backward``.
- ``slow_row_blocks`` and ``slow_blocked_forward``: ``slow_mlp_forward`` run
  on each 256-row block's rows alone, never a whole-split product, whose row
  blocks some BLAS kernels round differently (one-column products
  included); ``losses._row_blocks``, the blocked ``mlp.forward`` and the
  block scorer ``mlp._score_blocks``.
- ``slow_train``: the training loop that drew each dropout mask into fresh
  arrays, wrote each batch's gradients into a fresh vector and scored the
  whole train split at once for the epoch-end pass; ``mlp.train``.
- ``slow_rank_order``: each row's columns in rank order by ``lexsort``;
  ``metrics._first_in_rank`` and ``_rank_of``.
- ``slow_evaluate_loops``: the per-example ranking and LCA loops;
  ``metrics.evaluate``.
- ``slow_check_label_matrix``: the column-gather check;
  ``losses.check_label_matrix``.
- ``slow_close_labels``: each positive, then each of its ancestors, the one
  label-closure loop of the tests; ``data.close_labels``.
- ``slow_native_label_lines``: the per-child scan of the native label
  writer; ``data.emit_native``.
- ``slow_synth_generate``: the per-example generator;
  ``data.synth_generate``.
"""

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from hcl.curriculum import RULE_OPTIMAL_PREFIX
from hcl.data import FEATURE_NOISE_SCALE
from hcl.losses import LOG_EPS, SCOPE_ALL_SHALLOWER, SCOPE_ANCESTORS_ONLY
from hcl.taxonomy import SEPARATOR, VIRTUAL_ROOT

PASS_ROWS = 256  # rows per block of a pass over a whole split

# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


class Tree(NamedTuple):
    parent: list  # class id, or None for a top-level class
    children: list  # lists of class ids, ascending
    depth: list  # 1 for a top-level class


def tree_from_names(names):
    """Parent, children and depth of every class, read off the path strings."""
    ids = {name: i for i, name in enumerate(names)}
    parts = [name.split(SEPARATOR) for name in names]
    parent = [ids[SEPARATOR.join(q[:-1])] if len(q) > 1 else None for q in parts]
    children = [[] for _ in parts]
    for c, p in enumerate(parent):
        if p is not None:
            children[p].append(c)
    return Tree(parent, children, [len(q) for q in parts])


def slow_parse_hierarchy(paths):
    """``(names, parent ids, levels)`` by the retired parser."""
    paths = list(paths)
    if not paths:
        raise ValueError("empty hierarchy: no paths given")
    seen = set()
    all_names = set()
    for p in paths:
        if p in seen:
            raise ValueError(f"duplicate hierarchy path {p!r}")
        seen.add(p)
        parts = p.split(SEPARATOR)
        if any(part == "" for part in parts):
            raise ValueError(f"malformed hierarchy path {p!r}: empty component")
        for i in range(1, len(parts) + 1):
            all_names.add(SEPARATOR.join(parts[:i]))
    names = tuple(sorted(all_names))
    tree = tree_from_names(names)
    return names, [VIRTUAL_ROOT if p is None else p for p in tree.parent], tree.depth


def slow_ancestors(tree, c):
    """Strict ancestors, nearest first, by walking ``parent``."""
    out = []
    p = tree.parent[c]
    while p is not None:
        out.append(p)
        p = tree.parent[p]
    return out


def slow_lca(tree, a, b):
    """Climb the deeper class to the other's depth, then both in step."""
    while tree.depth[a] > tree.depth[b]:
        a = tree.parent[a]
    while tree.depth[b] > tree.depth[a]:
        b = tree.parent[b]
    while a != b:
        pa, pb = tree.parent[a], tree.parent[b]
        if pa is None or pb is None:
            return VIRTUAL_ROOT
        a, b = pa, pb
    return a


def slow_heights(tree):
    """Post-order over ``children`` by descending depth."""
    h = np.zeros(len(tree.depth), dtype=np.int64)
    for c in sorted(range(len(tree.depth)), key=lambda c: -tree.depth[c]):
        if tree.children[c]:
            h[c] = 1 + max(h[k] for k in tree.children[c])
    return h


def slow_leaf_ids(tree):
    return np.asarray([c for c, kids in enumerate(tree.children) if not kids], dtype=np.int64)


# ---------------------------------------------------------------------------
# transform and backward scatter
# ---------------------------------------------------------------------------


def _slow_scan(base, scope_of):
    """Per-class scan: column j takes the max of itself and the columns
    ``scope_of(j)`` (ascending ids), routed to j unless j is strictly below
    that max, else to the smallest id among its maximizers. Classes with
    the same scope (a level's, or siblings') share its max and maximizer."""
    base = np.asarray(base, dtype=np.float64)
    out = base.copy()
    routing = np.tile(np.arange(base.shape[1]), (base.shape[0], 1))
    scanned = {}
    for j in range(base.shape[1]):
        scope = scope_of(j)
        if not len(scope):
            continue
        if scope.tobytes() not in scanned:
            sub = base[:, scope]
            scanned[scope.tobytes()] = sub.max(axis=1), scope[np.argmax(sub, axis=1)]
        val, arg = scanned[scope.tobytes()]
        col = base[:, j]
        out[:, j] = np.maximum(col, val)
        routing[:, j] = np.where(~(col < val), j, arg)
    return out, routing


def slow_all_shallower(base, tax):
    """A per-class scan of every strictly shallower column, each depth's set
    of columns built once."""
    depth = np.asarray(tree_from_names(tax.class_names).depth)
    shallower = {d: np.flatnonzero(depth < d) for d in set(depth.tolist())}
    return _slow_scan(base, lambda j: shallower[depth[j]])


def slow_ancestors_only(base, tax):
    """A per-class scan of the columns of the class's strict ancestors."""
    tree = tree_from_names(tax.class_names)
    return _slow_scan(base, lambda j: np.asarray(sorted(slow_ancestors(tree, j)), dtype=np.int64))


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


# ---------------------------------------------------------------------------
# base losses, selection and the training loss
# ---------------------------------------------------------------------------


def _clamped(s):
    return np.clip(np.asarray(s, dtype=np.float64), LOG_EPS, 1.0 - LOG_EPS)


def slow_bce_loss(y, s):
    """The two-branch ``np.where`` bce loss, both branches on every element."""
    sc = _clamped(s)
    return np.where(y > 0, -np.log(sc), -np.log1p(-sc))


def slow_bce_grad(y, s):
    """The two-branch ``np.where`` bce gradient."""
    sc = _clamped(s)
    return np.where(y > 0, -1.0 / sc, 1.0 / (1.0 - sc))


def slow_focal_loss(y, s, gamma):
    """The two-branch ``np.where`` focal loss over the true-class score."""
    sc = _clamped(s)
    pt = np.where(y > 0, sc, 1.0 - sc)
    return (1.0 - pt) ** gamma * -np.log(pt)


def slow_focal_grad(y, s, gamma):
    """The two-branch ``np.where`` focal gradient: d/dp of (1-p)^g (-ln p)
    at the true-class score, negated on the negative labels, in one formula
    for every g (at g = 0 its first term is a signed zero)."""
    sc = _clamped(s)
    pt = np.where(y > 0, sc, 1.0 - sc)
    dpt = gamma * (1.0 - pt) ** (gamma - 1.0) * np.log(pt) - (1.0 - pt) ** gamma / pt
    return np.where(y > 0, dpt, -dpt)


def slow_zero_one_loss(y, s, decision_threshold):
    """The float 0-1 surface: the thresholded prediction against sign(y)."""
    pred = np.where(np.asarray(s, dtype=np.float64) > decision_threshold, 1.0, -1.0)
    return (pred != np.sign(y)).astype(np.float64)


def slow_select(L, e_total, rule, thresh):
    """The selection vector over the classes in stable ascending order of L,
    with prefix sums added one class at a time.

    optimal-prefix: the largest K that minimizes max(prefix sum, C - K +
    e_total). A NaN in L sorts last, so the objective at K = C is NaN and no
    comparison replaces it: every class is selected, as numpy's argmin
    picks the first NaN. fixed-threshold: the ranks below the first K whose
    prefix sum exceeds thresh + 1 - K, every class when there is none."""
    c = len(L)
    order = np.argsort(L, kind="stable")
    psums = list(accumulate(L[order], initial=0.0))
    if rule == RULE_OPTIMAL_PREFIX:
        # min keeps the first of equal keys, and K runs down from C
        k_best = min(range(c, -1, -1), key=lambda k: max(psums[k], c - k + e_total))
    else:
        k_best = next((k - 1 for k in range(1, c + 1) if psums[k] > thresh + 1 - k), c)
    s = np.zeros(c)
    s[order[:k_best]] = 1.0
    return s


def _slow_base(y, scores, spec):
    """The spec's base loss surface and its gradient."""
    if spec.base == "bce":
        return slow_bce_loss(y, scores), slow_bce_grad(y, scores)
    return slow_focal_loss(y, scores, spec.gamma), slow_focal_grad(y, scores, spec.gamma)


def slow_hcl_loss(y, scores, tax, spec):
    """A spec's epoch-end pass over the whole N x C surface:
    ``(L, e_total, s, value)``.

    L holds the column sums of the (transformed) base loss and e_total the
    sum of the (transformed) float 0-1 surface. With the curriculum, s is
    ``slow_select``'s vector and value ``max(s @ L, C - sum(s) + e_total)``;
    without it, s is all ones and value the sum of L."""
    surface = _slow_base(y, scores, spec)[0]
    errors = slow_zero_one_loss(y, scores, spec.decision_threshold)
    if spec.transform:
        transform = SLOW_TRANSFORMS[spec.scope]
        surface, errors = transform(surface, tax)[0], transform(errors, tax)[0]
    L, e_total = surface.sum(axis=0), float(errors.sum())
    if not spec.curriculum:
        return L, e_total, np.ones(len(L)), float(L.sum())
    s = slow_select(L, e_total, spec.rule, spec.thresh)
    return L, e_total, s, float(max(s @ L, len(L) - s.sum() + e_total))


def slow_hcl_grad(y, scores, s, tax, spec):
    """The gradient w.r.t. the scores of ``sum_ij s_j * surface[i, j]``, the
    spec's (transformed) base loss: the slow base gradient times s, or with
    the transform times the scatter of s along the slow routing."""
    loss, grad = _slow_base(y, scores, spec)
    weights = np.broadcast_to(s, loss.shape)
    if spec.transform:
        weights = slow_backward(SLOW_TRANSFORMS[spec.scope](loss, tax)[1], weights)
    return grad * weights


# each loss mode: (base loss, transform, curriculum), LossSpec's first fields
SLOW_MODES = {
    "ce": ("bce", False, False),
    "focal": ("focal", False, False),
    "hcl-hier": ("bce", True, False),
    "hcl-cl": ("bce", False, True),
    "hcl": ("bce", True, True),
}


# ---------------------------------------------------------------------------
# MLP passes, optimizer and training loop
# ---------------------------------------------------------------------------


def views(params):
    return params.W1, params.b1, params.W2, params.b2


def slow_optimizer_step(state, params, grads, optimizer, lr):
    """The allocating step over the four arrays: plain SGD, or Adam with
    ``state`` holding the ``m`` and ``v`` lists and ``t``."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    state["t"] += 1
    for i, (p, g) in enumerate(zip(views(params), views(grads))):
        if optimizer == "sgd":
            p -= lr * g
            continue
        state["m"][i] = b1 * state["m"][i] + (1 - b1) * g
        state["v"][i] = b2 * state["v"][i] + (1 - b2) * g * g
        mhat = state["m"][i] / (1 - b1 ** state["t"])
        vhat = state["v"][i] / (1 - b2 ** state["t"])
        p -= lr * mhat / (np.sqrt(vhat) + eps)


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


def slow_row_blocks(n, rows=PASS_ROWS):
    """Blocks of ``rows`` rows over ``range(n)``, the remainder merged into
    the last one; one block of all rows below ``2 * rows``."""
    k = max(n // rows, 1)
    return [slice(i * rows, n if i == k - 1 else (i + 1) * rows) for i in range(k)]


def slow_blocked_forward(params, x, dropout_mask=None, dropout_rate=0.0):
    """``slow_mlp_forward`` of each ``slow_row_blocks`` block's rows,
    stacked: scores and a cache whose ``z1`` and ``hidden`` are the blocks'
    own."""
    parts = [slow_mlp_forward(params, x[rows], None if dropout_mask is None
                              else dropout_mask[rows], dropout_rate)[1]
             for rows in slow_row_blocks(len(x))]
    cache = {key: None if parts[0][key] is None else np.concatenate([p[key] for p in parts])
             for key in parts[0]}
    return cache["scores"], cache


def slow_train(dataset, taxonomy, cfg):
    """The training loop that drew each batch's dropout mask into fresh
    arrays, ``(rng.random((B, H)) >= rate).astype(float64)``, wrote each
    batch's gradients into a fresh vector, and handed ``hcl_loss`` the
    whole train split's N x C scores. It checks the loop's order and
    buffers alone, so it calls the live code for everything else."""
    from hcl import curriculum, metrics, mlp

    x_tr, y_tr = (a[dataset.indices("train")] for a in (dataset.features, dataset.labels))
    x_va, y_va = (a[dataset.indices("valid")] for a in (dataset.features, dataset.labels))
    spec = cfg.loss_spec()
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
            dscores = curriculum.hcl_grad(y_tr[batch], scores, s, taxonomy, spec) / len(batch)
            grads = mlp.MlpParams(np.empty_like(params.flat), params.dims)
            opt.step(params, mlp.backward(params, cache, dscores, grads))
        value, s = curriculum.hcl_loss(y_tr, mlp.forward(params, x_tr)[0], taxonomy, spec)
        rep = metrics.evaluate(y_va, mlp.forward(params, x_va)[0], taxonomy)
        log.append(mlp.EpochLog(epoch, value / len(y_tr), rep.hit_at_1, rep.mrr,
                                rep.hier_dist, s.copy()))
    return params, log


# ---------------------------------------------------------------------------
# metrics and labels
# ---------------------------------------------------------------------------


def slow_rank_order(scores):
    """Column ids of each row in rank order, by ``lexsort``: descending
    score, ties to the lower id, NaN last."""
    ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    return np.lexsort((ids, -scores), axis=1)


def slow_evaluate_loops(y, scores, tax, leaves_only):
    """``(hit@1, mrr, hierdist, n_examples, rows)`` by the retired
    per-example ranking and LCA loops; a row is the example's 1-based rank
    of its first positive (0 for none) and its distance."""
    tree = tree_from_names(tax.class_names)
    cand = slow_leaf_ids(tree) if leaves_only else np.arange(tax.n_classes)
    ranked = cand[slow_rank_order(scores[:, cand])]
    top1 = ranked[:, 0]
    heights = slow_heights(tree)
    first = np.zeros(len(y), dtype=np.int64)
    dist = np.zeros(len(y))
    for i in range(len(y)):
        hits = np.flatnonzero(y[i, ranked[i]] == 1)
        first[i] = hits[0] + 1 if len(hits) else 0
        p = int(top1[i])
        if y[i, p] != 1:
            # the virtual root counts as the whole tree's height
            lcas = [slow_lca(tree, int(c), p) for c in np.flatnonzero(y[i] == 1)]
            dist[i] = min(max(tree.depth) if a == VIRTUAL_ROOT else int(heights[a])
                          for a in lcas)
    hits = (y[np.arange(len(y)), top1] == 1).astype(np.float64)
    rr = np.where(first > 0, 1.0 / np.maximum(first, 1), 0.0)
    rows = [(int(f), float(d)) for f, d in zip(first, dist)]
    return float(hits.mean()), float(rr.mean()), float(dist.mean()), len(y), rows


def slow_check_label_matrix(y, tax):
    """The retired check: three boolean passes for the +-1 entries (``y ==
    1``, ``y == -1`` and their OR), a row-wise ``any`` for the positives, and
    each non-root class's column gathered against its parent's column, the
    parent read off the path strings."""
    parent = tree_from_names(tax.class_names).parent
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


def slow_close_labels(positives_per_row, names):
    """The int8 +-1 matrix over the classes ``names`` whose row i holds the
    class ids ``positives_per_row[i]``, each positive and then each of its
    ancestors set by a nested loop."""
    tree = tree_from_names(names)
    y = np.full((len(positives_per_row), len(names)), -1, dtype=np.int8)
    for i, pos in enumerate(positives_per_row):
        for c in pos:
            y[i, c] = 1
            for a in slow_ancestors(tree, c):
                y[i, a] = 1
    return y


def slow_native_label_lines(labels, tax):
    """The retired per-child scan: a positive is listed unless a child is."""
    children = tree_from_names(tax.class_names).children
    lines = []
    for yrow in labels:
        pos = np.flatnonzero(yrow == 1)
        maximal = [c for c in pos if not any(yrow[k] == 1 for k in children[c])]
        lines.append(";".join(tax.class_names[c] for c in maximal))
    return lines


def slow_synth_generate(cfg):
    """The retired per-example generator: a dict of centers keyed by path,
    one draw per direction and per example row, positives as per-row lists
    closed by ``slow_close_labels``. Class order, leaves and siblings are
    read off the path strings. Returns features, labels and class names."""
    rng = np.random.default_rng(cfg.seed)
    frontier, names = [""], []
    for _ in range(cfg.levels - 1):
        frontier = [f"{p}{SEPARATOR}{k}" if p else f"{k}"
                    for p in frontier for k in range(cfg.branching)]
        names += frontier
    names = sorted(names)
    ids = {name: i for i, name in enumerate(names)}
    centers = {"": np.zeros(cfg.feature_dim)}
    for name in names:
        parts = name.split(SEPARATOR)
        direction = rng.standard_normal(cfg.feature_dim)
        direction /= np.linalg.norm(direction)
        scale = cfg.cluster_separation * 0.5 ** (len(parts) - 1)
        centers[name] = centers[SEPARATOR.join(parts[:-1])] + scale * direction
    leaves = [name for name in names if name.count(SEPARATOR) == cfg.levels - 2]
    features, positives = [], []
    for leaf in leaves:
        parent = leaf.rpartition(SEPARATOR)[0]
        siblings = [ids[s] for s in leaves
                    if s.rpartition(SEPARATOR)[0] == parent and s != leaf]
        for _ in range(cfg.examples_per_leaf):
            features.append(centers[leaf]
                            + FEATURE_NOISE_SCALE * rng.standard_normal(cfg.feature_dim))
            labeled = ids[leaf]
            if cfg.label_noise > 0 and siblings and rng.random() < cfg.label_noise:
                labeled = siblings[rng.integers(len(siblings))]
            positives.append([labeled])
    return np.array(features), slow_close_labels(positives, names), tuple(names)
