"""Dataset ingestion, validation, splitting, normalization, synthesis.

Two on-disk formats are supported:

* ARFF (the Clus-style dialect): numeric attributes followed by one final
  ``hierarchical`` class attribute whose domain lists slash-separated paths;
  data rows carry the feature values and then one or more label paths,
  separated by commas and/or ``@``.
* Native: ``features.csv`` (headerless comma-separated decimals),
  ``labels.txt`` (one example per line, ``;``-separated paths) and
  ``hierarchy.txt`` (one path per line, ``#`` comments allowed).

Labels are stored as {-1,+1} matrices and ancestor-closed on ingestion: the
source files list only the most specific classes per example.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .losses import check_label_matrix
from .taxonomy import VIRTUAL_ROOT, Taxonomy, load_hierarchy_file, parse_hierarchy

SPLIT_NAMES = ("train", "valid", "test")
SPLIT_RATIOS = (0.6, 0.2, 0.2)


@dataclass
class Dataset:
    features: np.ndarray  # N x D float64
    labels: np.ndarray  # N x C int8 over {-1, +1}, ancestor-closed
    taxonomy: Taxonomy
    split_tags: np.ndarray | None = None  # per-example index into SPLIT_NAMES

    @property
    def n_examples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def indices(self, split: str) -> np.ndarray:
        if self.split_tags is None:
            raise ValueError("dataset has no split tags; call split() first")
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}, expected one of {SPLIT_NAMES}")
        return np.flatnonzero(self.split_tags == SPLIT_NAMES.index(split))


def validate_dataset(d: Dataset) -> Dataset:
    if d.features.ndim != 2 or d.features.shape[0] == 0 or d.features.shape[1] == 0:
        raise ValueError(f"features must be a non-empty N x D matrix, got {d.features.shape}")
    if not np.isfinite(d.features).all():
        raise ValueError("features contain non-finite values")
    if d.labels.shape[0] != d.features.shape[0]:
        raise ValueError(
            f"row count mismatch: {d.features.shape[0]} feature rows vs "
            f"{d.labels.shape[0]} label rows"
        )
    check_label_matrix(d.labels, d.taxonomy)
    return d


def close_labels(rows, ids, n_rows: int, taxonomy: Taxonomy) -> np.ndarray:
    """Encode positives as an ancestor-closed +-1 matrix of ``n_rows`` rows.

    ``rows[k]`` and ``ids[k]`` give the k-th positive: its example row and
    its class id. A row may hold several positives, repeats and ancestors of
    its own positives, or none.
    """
    y = np.full((n_rows, taxonomy.n_classes), -1, dtype=np.int8)
    rows = np.asarray(rows, dtype=np.int64)
    paths = taxonomy.path_ids[np.asarray(ids, dtype=np.int64)]  # root paths, self included
    on_path = paths != VIRTUAL_ROOT
    y[np.broadcast_to(rows[:, None], paths.shape)[on_path], paths[on_path]] = 1
    return y


def _paths_to_ids(paths, taxonomy, row):
    ids = []
    for p in paths:
        try:
            ids.append(taxonomy.id_of(p))
        except ValueError:
            raise ValueError(f"row {row}: unknown label path {p!r}") from None
    return ids


def parse_arff_hmc(path) -> Dataset:
    """Parse a hierarchical multi-label ARFF file (Clus dialect subset)."""
    feature_names: list[str] = []
    class_domain: list[str] | None = None
    data_rows: list[str] = []
    in_data = False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if in_data:
                data_rows.append(line)
                continue
            low = line.lower()
            if low.startswith("@relation"):
                continue
            if low.startswith("@data"):
                in_data = True
                continue
            if low.startswith("@attribute"):
                if class_domain is not None:
                    raise ValueError(
                        "the hierarchical class attribute must be the last attribute"
                    )
                fields = line.split(None, 2)
                if len(fields) < 3:
                    raise ValueError(f"attribute line needs a name and a type: {line!r}")
                _, name, typedecl = fields
                if typedecl.lower().startswith("hierarchical"):
                    domain = typedecl[len("hierarchical"):].strip()
                    class_domain = [t.strip() for t in domain.split(",") if t.strip()]
                elif typedecl.lower() in ("numeric", "real"):
                    feature_names.append(name)
                else:
                    raise ValueError(
                        f"unsupported attribute type {typedecl!r} for {name!r}; "
                        "only numeric features and one hierarchical class attribute"
                    )
                continue
            raise ValueError(f"unrecognized ARFF header line: {line!r}")
    if class_domain is None:
        raise ValueError(f"{path}: no hierarchical class attribute declared")
    if not data_rows:
        raise ValueError(f"{path}: no data rows")

    taxonomy = parse_hierarchy(class_domain)
    n_feat = len(feature_names)
    features = np.empty((len(data_rows), n_feat), dtype=np.float64)
    label_rows: list[int] = []
    label_ids: list[int] = []
    for i, row in enumerate(data_rows):
        fields = [f.strip() for f in row.split(",")]
        if len(fields) < n_feat + 1:
            raise ValueError(f"row {i}: expected at least {n_feat + 1} fields, got {len(fields)}")
        for j, tok in enumerate(fields[:n_feat]):
            try:
                features[i, j] = float(tok)
            except ValueError:
                raise ValueError(
                    f"row {i}: non-numeric value {tok!r} for feature {feature_names[j]!r}"
                ) from None
        paths = [p.strip() for f in fields[n_feat:] for p in f.split("@") if p.strip()]
        if not paths:
            raise ValueError(f"row {i}: no label paths")
        ids = _paths_to_ids(paths, taxonomy, i)
        label_rows += [i] * len(ids)
        label_ids += ids
    labels = close_labels(label_rows, label_ids, len(data_rows), taxonomy)
    return validate_dataset(Dataset(features=features, labels=labels, taxonomy=taxonomy))


def parse_native(features_csv, labels_file, hierarchy_file) -> Dataset:
    """Assemble a dataset from the three native files."""
    taxonomy = load_hierarchy_file(hierarchy_file)
    with open(features_csv, encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{features_csv}: no feature rows")
    try:
        values = [[float(t) for t in r.split(",")] for r in rows]
    except ValueError as exc:
        raise ValueError(f"{features_csv}: non-numeric feature value ({exc})") from None
    for i, v in enumerate(values):
        if len(v) != len(values[0]):
            raise ValueError(
                f"{features_csv}: row {i} has {len(v)} values, "
                f"but the first row has {len(values[0])}"
            )
    features = np.array(values, dtype=np.float64)
    with open(labels_file, encoding="utf-8") as fh:
        label_lines = [line.rstrip("\n") for line in fh]
    while label_lines and label_lines[-1] == "":
        label_lines.pop()
    if len(label_lines) != len(rows):
        raise ValueError(
            f"row count mismatch: {len(rows)} feature rows vs {len(label_lines)} label lines"
        )
    label_rows: list[int] = []
    label_ids: list[int] = []
    for i, line in enumerate(label_lines):
        paths = [p.strip() for p in line.split(";") if p.strip()]
        if not paths:
            raise ValueError(f"row {i}: empty label line")
        ids = _paths_to_ids(paths, taxonomy, i)
        label_rows += [i] * len(ids)
        label_ids += ids
    labels = close_labels(label_rows, label_ids, len(label_lines), taxonomy)
    return validate_dataset(Dataset(features=features, labels=labels, taxonomy=taxonomy))


def load_native_dir(directory) -> Dataset:
    return parse_native(
        os.path.join(directory, "features.csv"),
        os.path.join(directory, "labels.txt"),
        os.path.join(directory, "hierarchy.txt"),
    )


def emit_native(d: Dataset, directory) -> None:
    """Write the three native files. Only the most specific positives are
    listed per example; ancestor closure restores the rest on read."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8") as fh:
        for row in d.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    tax = d.taxonomy
    pos = d.labels == 1
    # a positive child clears its parent, leaving the most specific positives
    maximal = pos.copy()
    child = np.flatnonzero(tax.parent_ids != VIRTUAL_ROOT)
    rows, k = np.nonzero(pos[:, child])
    maximal[rows, tax.parent_ids[child[k]]] = False
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as fh:
        for row in maximal:
            fh.write(";".join(tax.class_names[c] for c in np.flatnonzero(row)) + "\n")
    tax.to_file(os.path.join(directory, "hierarchy.txt"))


def split(d: Dataset, ratios=SPLIT_RATIOS, seed: int = 0) -> Dataset:
    """Assign train/valid/test tags, stratified by top-level class.

    Global split sizes follow the ratios exactly (largest-remainder
    rounding); within that budget examples are dealt group by group, where a
    group is the example's first positive top-level class.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(0 < r < np.inf for r in ratios):
        raise ValueError(f"need three positive finite ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got sum {sum(ratios)}")
    n = d.n_examples
    targets = _largest_remainder(n, ratios)
    if any(t == 0 for t in targets):
        raise ValueError(f"split of {n} examples by {ratios} leaves an empty split: {targets}")

    rng = np.random.default_rng(seed)
    top = d.taxonomy.top_level_ids
    group_key = top[np.argmax(d.labels[:, top] == 1, axis=1)]
    tags = np.full(n, -1, dtype=np.int64)
    remaining = list(targets)
    for g in sorted(set(group_key.tolist())):
        members = np.flatnonzero(group_key == g)
        members = members[rng.permutation(len(members))]
        quota = _largest_remainder(len(members), ratios)
        # clip to what each split can still absorb, spill the rest later
        start = 0
        for sidx in range(3):
            take = min(quota[sidx], remaining[sidx])
            tags[members[start:start + take]] = sidx
            remaining[sidx] -= take
            start += take
        for i in members[start:]:
            sidx = max(range(3), key=lambda k: remaining[k])
            tags[i] = sidx
            remaining[sidx] -= 1
    assert (tags >= 0).all() and remaining == [0, 0, 0]
    return replace(d, split_tags=tags)


def _largest_remainder(n: int, ratios) -> list[int]:
    exact = [n * r for r in ratios]
    counts = [int(np.floor(e)) for e in exact]
    rem = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in order[:rem]:
        counts[i] += 1
    return counts


@dataclass
class NormParams:
    mean: np.ndarray
    std: np.ndarray


def normalize(d: Dataset):
    """Standardize features with train-split statistics applied everywhere.

    Zero-variance features pass through unchanged. Returns the normalized
    dataset and the parameters used.
    """
    train_idx = d.indices("train")
    mean = d.features[train_idx].mean(axis=0)
    std = d.features[train_idx].std(axis=0)
    keep = std == 0.0
    mean = np.where(keep, 0.0, mean)
    std = np.where(keep, 1.0, std)
    feats = (d.features - mean) / std
    return replace(d, features=feats), NormParams(mean=mean, std=std)


# Spread of each example around its leaf center. Fixed so that
# cluster_separation alone sets the difficulty: at the default separation
# top-level clusters are cleanly separable while sibling leaves overlap.
FEATURE_NOISE_SCALE = 0.65


@dataclass
class SynthConfig:
    levels: int = 3  # tree levels counting the virtual root
    branching: int = 3
    examples_per_leaf: int = 150
    feature_dim: int = 16
    cluster_separation: float = 2.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.branching < 1:
            raise ValueError(f"branching must be >= 1, got {self.branching}")
        if self.examples_per_leaf < 1 or self.feature_dim < 1:
            raise ValueError("examples_per_leaf and feature_dim must be positive")
        if not 0 < self.cluster_separation < np.inf:
            raise ValueError(
                f"cluster_separation must be finite and > 0, got {self.cluster_separation}"
            )
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError(f"label_noise must lie in [0, 0.5), got {self.label_noise}")


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Sample a hierarchical Gaussian-cluster dataset.

    A complete ``branching``-ary tree is built with classes at levels
    1..levels-1 (the root is virtual). Cluster centers nest: each child's
    center offsets its parent's by a direction scaled with
    ``cluster_separation`` and halved per level, so top-level clusters are
    far apart and sibling leaves overlap. ``label_noise`` relabels an
    example to a sibling leaf while its features stay with the original
    cluster, corrupting only the deepest label level.

    The dataset is a pure function of the config, through this draw order
    from one generator seeded with ``seed``:

    1. one direction of ``feature_dim`` standard normals per class, in
       class-id (lexicographic path) order;
    2. per example, leaf by leaf in id order and ``examples_per_leaf``
       examples per leaf: ``feature_dim`` standard normals of noise; then,
       when ``label_noise > 0`` and the leaf has siblings, one ``random()``;
       and when that falls below ``label_noise``, one ``integers()`` that
       picks the sibling in id order.

    A generator fills an (m, k) block from the same stream, in the same
    order, as m successive draws of k values. So step 1 is one block draw,
    and so is step 2 when it draws no label noise; with label noise the
    per-example loop keeps the interleaved calls. The rest is elementwise,
    so no value depends on whether its row is computed alone or in a
    block, except a direction's norm: that is taken per row, because a
    whole-array norm sums in another order.
    """
    rng = np.random.default_rng(cfg.seed)
    depth = cfg.levels - 1  # class levels
    paths = []
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for prefix in frontier:
            for k in range(cfg.branching):
                p = f"{prefix}/{k}" if prefix else f"{k}"
                paths.append(p)
                nxt.append(p)
        frontier = nxt
    taxonomy = parse_hierarchy(paths)
    n_classes, dim = taxonomy.n_classes, cfg.feature_dim

    directions = rng.standard_normal((n_classes, dim))
    for direction in directions:
        direction /= np.linalg.norm(direction)
    # one row per class plus a last one, row VIRTUAL_ROOT, as the origin
    centers = np.zeros((n_classes + 1, dim))
    for lvl, ids in enumerate(taxonomy.levels_index[1:], start=1):
        scale = cfg.cluster_separation * 0.5 ** (lvl - 1)
        centers[ids] = centers[taxonomy.parent_ids[ids]] + scale * directions[ids]

    origin = np.repeat(taxonomy.leaf_ids, cfg.examples_per_leaf)  # each example's leaf
    n = len(origin)
    labeled = origin.copy()
    # in the complete tree every leaf has branching - 1 siblings
    if cfg.label_noise > 0 and cfg.branching > 1:
        features = np.empty((n, dim))
        parent_ids = taxonomy.parent_ids
        for i, leaf in enumerate(origin.tolist()):
            rng.standard_normal(out=features[i])
            if rng.random() < cfg.label_noise:
                # the other children of the leaf's parent, the virtual root included
                siblings = np.flatnonzero(parent_ids == parent_ids[leaf])
                siblings = siblings[siblings != leaf]
                labeled[i] = siblings[rng.integers(len(siblings))]
    else:
        features = rng.standard_normal((n, dim))
    # the noise becomes the features in place; addition commutes bitwise
    features *= FEATURE_NOISE_SCALE
    features += centers[origin]
    labels = close_labels(np.arange(n), labeled, n, taxonomy)
    return validate_dataset(Dataset(features=features, labels=labels, taxonomy=taxonomy))
