"""Dataset parsing, splits, normalization, and the synthetic generator."""

import numpy as np
import pytest

from hcl.data import (
    Dataset,
    SynthConfig,
    close_labels,
    emit_native,
    load_native_dir,
    normalize,
    parse_arff_hmc,
    split,
    synth_generate,
    validate_dataset,
)
from hcl.taxonomy import parse_hierarchy
from slow_reference import slow_close_labels

ARFF_FIXTURE = """% tiny fixture
@relation demo

@attribute f1 numeric
@attribute f2 numeric
@attribute class hierarchical 1,1/2,3

@data
0.5,1.0,1/2
1.5,2.0,3
-0.25,0.0,1
2.5,3.5,1/2@3
"""


def write_arff(tmp_path, text=ARFF_FIXTURE):
    path = tmp_path / "demo.arff"
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# ARFF parsing
# ---------------------------------------------------------------------------


def test_arff_fixture_parses(tmp_path):
    d = parse_arff_hmc(write_arff(tmp_path))
    assert d.n_examples == 4
    assert d.n_features == 2
    assert list(d.taxonomy.class_names) == ["1", "1/2", "3"]
    assert d.split_tags is None
    assert d.features[0].tolist() == [0.5, 1.0]


def test_arff_row_labels_are_ancestor_closed(tmp_path):
    d = parse_arff_hmc(write_arff(tmp_path))
    t = d.taxonomy
    row = d.labels[0]
    assert row[t.id_of("1")] == 1  # closure adds the parent of 1/2
    assert row[t.id_of("1/2")] == 1
    assert row[t.id_of("3")] == -1


def test_arff_multi_label_row(tmp_path):
    d = parse_arff_hmc(write_arff(tmp_path))
    assert d.labels[3].tolist() == [1, 1, 1]


def test_arff_unknown_label_path_names_row_and_path(tmp_path):
    bad = ARFF_FIXTURE.replace("-0.25,0.0,1", "-0.25,0.0,1/9")
    with pytest.raises(ValueError, match=r"1/9"):
        parse_arff_hmc(write_arff(tmp_path, bad))


def test_arff_non_numeric_feature_is_rejected(tmp_path):
    bad = ARFF_FIXTURE.replace("1.5,2.0,3", "oops,2.0,3")
    with pytest.raises(ValueError, match="oops"):
        parse_arff_hmc(write_arff(tmp_path, bad))


def test_arff_missing_class_attribute_is_rejected(tmp_path):
    bad = ARFF_FIXTURE.replace(
        "@attribute class hierarchical 1,1/2,3", "@attribute f3 numeric"
    )
    with pytest.raises(ValueError, match="hierarchical"):
        parse_arff_hmc(write_arff(tmp_path, bad))


def test_arff_unsupported_attribute_type_is_rejected(tmp_path):
    bad = ARFF_FIXTURE.replace("@attribute f1 numeric", "@attribute f1 string")
    with pytest.raises(ValueError, match="string"):
        parse_arff_hmc(write_arff(tmp_path, bad))


@pytest.mark.parametrize("line", ("@attribute", "@attribute f1", "@ATTRIBUTE\tf1 \t"))
def test_arff_attribute_line_without_name_and_type_is_rejected(tmp_path, line):
    bad = ARFF_FIXTURE.replace("@attribute f1 numeric", line)
    with pytest.raises(ValueError, match="needs a name and a type"):
        parse_arff_hmc(write_arff(tmp_path, bad))


def test_arff_attribute_name_and_type_split_on_any_whitespace(tmp_path):
    text = ARFF_FIXTURE.replace("@attribute f1 numeric", "@attribute\tf1\tnumeric")
    text = text.replace("class hierarchical", "class\t hierarchical")
    d = parse_arff_hmc(write_arff(tmp_path, text))
    ref = parse_arff_hmc(write_arff(tmp_path))
    assert np.array_equal(d.features, ref.features)
    assert np.array_equal(d.labels, ref.labels)
    assert d.taxonomy.class_names == ref.taxonomy.class_names


# ---------------------------------------------------------------------------
# native format
# ---------------------------------------------------------------------------


def native_dir(tmp_path):
    (tmp_path / "features.csv").write_text("0.5,1.0\n1.5,2.0\n-0.25,0.0\n")
    (tmp_path / "labels.txt").write_text("1/2\n3\n1;3\n")
    (tmp_path / "hierarchy.txt").write_text("1\n1/2\n3\n")
    return tmp_path


def test_native_triple_parses(tmp_path):
    d = load_native_dir(native_dir(tmp_path))
    assert d.n_examples == 3
    assert d.labels[2].tolist() == [1, -1, 1]


def test_native_row_count_mismatch(tmp_path):
    native_dir(tmp_path)
    (tmp_path / "labels.txt").write_text("1/2\n3\n")
    with pytest.raises(ValueError):
        load_native_dir(tmp_path)


def test_native_empty_label_line(tmp_path):
    native_dir(tmp_path)
    (tmp_path / "labels.txt").write_text("1/2\n\n3\n")
    with pytest.raises(ValueError):
        load_native_dir(tmp_path)


def test_native_unknown_path(tmp_path):
    native_dir(tmp_path)
    (tmp_path / "labels.txt").write_text("1/2\n3\n9\n")
    with pytest.raises(ValueError, match="9"):
        load_native_dir(tmp_path)


def test_native_ragged_feature_rows_name_the_row_and_widths(tmp_path):
    native_dir(tmp_path)
    (tmp_path / "features.csv").write_text("1,2\n3\n4,5\n")
    with pytest.raises(ValueError) as exc:
        load_native_dir(tmp_path)
    assert str(exc.value) == (
        f"{tmp_path / 'features.csv'}: row 1 has 1 values, but the first row has 2"
    )


def test_native_round_trip_is_exact(tmp_path):
    src = synth_generate(
        SynthConfig(levels=3, branching=2, examples_per_leaf=7, feature_dim=3, seed=5)
    )
    out = tmp_path / "ds"
    emit_native(src, out)
    back = load_native_dir(out)
    assert np.array_equal(back.features, src.features)
    assert np.array_equal(back.labels, src.labels)
    assert back.taxonomy.class_names == src.taxonomy.class_names


def test_arff_and_native_files_with_the_same_rows_load_alike(tmp_path):
    """Row 1 repeats a path and row 2 lists a path with its own ancestor;
    both readers build their dataset through one label core."""
    arff = ARFF_FIXTURE.split("@data")[0] + "@data\n0.5,1.0,1/2@3\n1.5,2.0,3,3\n-0.25,0.0,1/2@1\n"
    a = parse_arff_hmc(write_arff(tmp_path, arff))
    (tmp_path / "features.csv").write_text("0.5,1.0\n1.5,2.0\n-0.25,0.0\n")
    (tmp_path / "labels.txt").write_text("1/2;3\n3;3\n1/2;1\n")
    (tmp_path / "hierarchy.txt").write_text("3\n1/2\n1\n")
    n = load_native_dir(tmp_path)
    assert np.array_equal(a.features, n.features)
    assert a.labels.dtype == n.labels.dtype and np.array_equal(a.labels, n.labels)
    assert a.taxonomy.class_names == n.taxonomy.class_names
    assert a.labels.tolist() == [[1, 1, 1], [-1, -1, 1], [1, 1, -1]]


# ---------------------------------------------------------------------------
# label closure helper
# ---------------------------------------------------------------------------


def test_close_labels_adds_all_ancestors():
    t = parse_hierarchy(["a", "a/b", "a/b/c"])
    y = close_labels([0], [t.id_of("a/b/c")], 1, t)
    assert y.tolist() == [[1, 1, 1]]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def ten_example_dataset():
    return synth_generate(
        SynthConfig(levels=2, branching=2, examples_per_leaf=5, feature_dim=4, seed=3)
    )


def test_split_counts_match_ratios():
    d = split(ten_example_dataset(), ratios=(0.6, 0.2, 0.2), seed=0)
    counts = [len(d.indices(s)) for s in ("train", "valid", "test")]
    assert counts == [6, 2, 2]


def test_split_is_deterministic():
    a = split(ten_example_dataset(), seed=11)
    b = split(ten_example_dataset(), seed=11)
    assert np.array_equal(a.split_tags, b.split_tags)
    c = split(ten_example_dataset(), seed=12)
    assert not np.array_equal(a.split_tags, c.split_tags)


def test_split_is_a_partition():
    d = split(ten_example_dataset(), seed=0)
    all_idx = np.concatenate([d.indices(s) for s in ("train", "valid", "test")])
    assert sorted(all_idx.tolist()) == list(range(d.n_examples))


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split(ten_example_dataset(), ratios=(0.6, 0.2, 0.1))


@pytest.mark.parametrize("ratios", [
    (float("nan"), 0.2, 0.2),
    (0.6, 0.2, float("inf")),
    (0.6, float("-inf"), 0.2),
])
def test_split_rejects_non_finite_ratios(ratios):
    with pytest.raises(ValueError, match="need three positive finite ratios"):
        split(ten_example_dataset(), ratios=ratios)


def test_split_rejects_empty_bucket():
    d = synth_generate(
        SynthConfig(levels=2, branching=2, examples_per_leaf=1, feature_dim=4, seed=3)
    )
    with pytest.raises(ValueError):
        split(d, ratios=(0.9, 0.05, 0.05))


def test_indices_requires_split():
    with pytest.raises(ValueError, match="split"):
        ten_example_dataset().indices("train")


def test_indices_rejects_unknown_split_name():
    d = split(ten_example_dataset())
    with pytest.raises(ValueError):
        d.indices("dev")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_centers_train_split():
    d = split(
        synth_generate(SynthConfig(levels=3, branching=2, examples_per_leaf=20, seed=1)),
        seed=1,
    )
    d, params = normalize(d)
    tr = d.features[d.indices("train")]
    assert np.max(np.abs(tr.mean(axis=0))) < 1e-12
    assert np.allclose(tr.std(axis=0), 1.0)
    va = d.features[d.indices("valid")]
    assert np.max(np.abs(va.mean(axis=0))) > 1e-9  # statistics come from train only
    assert params.mean.shape == (d.n_features,)


def test_normalize_leaves_constant_features_alone():
    d = ten_example_dataset()
    d.features[:, 0] = 7.0
    d = split(d, seed=0)
    d, _ = normalize(d)
    assert np.all(d.features[:, 0] == 7.0)


def test_normalize_requires_split():
    with pytest.raises(ValueError):
        normalize(ten_example_dataset())


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_tree_shape():
    d = synth_generate(SynthConfig(levels=3, branching=2, examples_per_leaf=5, seed=0))
    t = d.taxonomy
    assert t.n_classes == 6  # 2 top-level + 4 leaves
    assert len(t.leaf_ids) == 4
    assert d.n_examples == 20


def test_synth_labels_are_closed_and_complete():
    d = synth_generate(SynthConfig(levels=3, branching=3, examples_per_leaf=4, seed=2))
    positives = [np.flatnonzero(row == 1) for row in d.labels]
    assert all(len(pos) == 2 for pos in positives)  # one top-level class and one leaf
    # closing each row's leaf, its larger id, gives the row back
    leaves = [[int(pos[-1])] for pos in positives]
    assert np.array_equal(d.labels, slow_close_labels(leaves, d.taxonomy.class_names))


def test_synth_same_seed_identical():
    cfg = SynthConfig(levels=3, branching=2, examples_per_leaf=5, seed=9)
    a, b = synth_generate(cfg), synth_generate(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_label_noise_flips_some_leaves():
    base = synth_generate(SynthConfig(levels=3, branching=2, examples_per_leaf=50, seed=4))
    noisy = synth_generate(
        SynthConfig(levels=3, branching=2, examples_per_leaf=50, label_noise=0.4, seed=4)
    )
    assert not np.array_equal(base.labels, noisy.labels)
    # noise only reassigns within the taxonomy; closure still holds
    for row in noisy.labels:
        assert row.max() == 1


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(levels=1)
    with pytest.raises(ValueError):
        SynthConfig(label_noise=0.6)
    with pytest.raises(ValueError):
        SynthConfig(cluster_separation=0.0)
    with pytest.raises(ValueError):
        SynthConfig(examples_per_leaf=0)


@pytest.mark.parametrize("separation", (np.nan, np.inf, -np.inf))
def test_synth_config_rejects_non_finite_separation(separation):
    msg = f"cluster_separation must be finite and > 0, got {separation}"
    with pytest.raises(ValueError, match=msg):
        SynthConfig(cluster_separation=separation)


def test_dataset_validation_catches_broken_labels():
    d = ten_example_dataset()
    y = d.labels.copy()
    y[0, :] = -1
    with pytest.raises(ValueError):
        validate_dataset(Dataset(features=d.features, labels=y, taxonomy=d.taxonomy))
