"""Tree construction, levels, LCA, and node heights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcl import verify
from hcl.taxonomy import SEPARATOR, VIRTUAL_ROOT, Taxonomy, load_hierarchy_file, parse_hierarchy
from slow_reference import slow_ancestors, tree_from_names


def test_parse_basic_paths():
    t = parse_hierarchy(["1", "1/2", "1/3"])
    assert t.n_classes == 3
    assert t.level[t.id_of("1")] == 1
    assert t.level[t.id_of("1/2")] == 2
    assert t.parent_ids[t.id_of("1/2")] == t.id_of("1")
    assert t.parent_ids[t.id_of("1")] == VIRTUAL_ROOT


def test_parse_autocloses_missing_prefixes():
    t = parse_hierarchy(["a/b"])
    assert t.n_classes == 2
    assert t.level[t.id_of("a")] == 1
    assert t.level[t.id_of("a/b")] == 2


def test_parse_rejects_duplicates():
    with pytest.raises(ValueError, match="x"):
        parse_hierarchy(["x", "x"])


def test_parse_rejects_empty_input():
    with pytest.raises(ValueError):
        parse_hierarchy([])


def test_ids_assigned_by_sorted_path_order():
    t = parse_hierarchy(["b", "a", "a/z"])
    assert list(t.class_names) == sorted(t.class_names)
    assert t.id_of("a") == 0


def test_lca_of_siblings_is_parent():
    t = parse_hierarchy(["1", "1/2", "1/3"])
    assert t.lca(t.id_of("1/2"), t.id_of("1/3")) == t.id_of("1")


def test_lca_of_node_with_itself():
    t = parse_hierarchy(["1", "1/2"])
    c = t.id_of("1/2")
    assert t.lca(c, c) == c


def test_lca_of_disjoint_top_level_classes_is_virtual_root():
    t = parse_hierarchy(["1", "1/2", "4"])
    assert t.lca(t.id_of("1/2"), t.id_of("4")) == VIRTUAL_ROOT


def test_node_height_leaf_is_zero(abc_taxonomy):
    assert abc_taxonomy.heights[abc_taxonomy.id_of("A/B")] == 0


def test_node_height_parent_of_leaves_is_one(abc_taxonomy):
    assert abc_taxonomy.heights[abc_taxonomy.id_of("A")] == 1


def test_max_level_equals_tree_height(height4_forest):
    # the virtual root's height: metrics charge it for a miss in a disjoint subtree
    assert height4_forest.max_level == 4


def test_lca_rejects_invalid_id(abc_taxonomy):
    with pytest.raises(ValueError, match="out of range"):
        abc_taxonomy.lca(99, 0)
    with pytest.raises(ValueError, match="out of range"):
        abc_taxonomy.lca(0, 3)


def test_levels_index_buckets():
    t = parse_hierarchy(["1", "1/2", "3"])
    buckets = t.levels_index
    assert len(buckets[0]) == 0  # level 0 is the virtual root, never a class
    assert sorted(t.class_names[c] for c in buckets[1]) == ["1", "3"]
    assert [t.class_names[c] for c in buckets[2]] == ["1/2"]


def test_levels_index_single_class():
    t = parse_hierarchy(["only"])
    buckets = t.levels_index
    assert len(buckets) == 2 and list(buckets[1]) == [0]


def test_heights_vector_counts_edges_to_the_deepest_leaf(height4_forest):
    t = height4_forest
    want = {"1": 3, "1/2": 2, "1/2/3": 1, "1/2/3/4": 0, "5": 3, "5/6": 2, "5/6/7": 1, "5/6/7/8": 0}
    assert {name: t.heights[t.id_of(name)] for name in t.class_names} == want
    assert t.heights.dtype == np.int64


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_structural_invariants_on_random_trees(seed):
    t = verify.random_taxonomy(np.random.default_rng(seed))
    for c in range(t.n_classes):
        p = t.parent_ids[c]
        name = t.class_names[c]
        if p == VIRTUAL_ROOT:
            assert t.level[c] == 1 and SEPARATOR not in name
        else:
            assert t.level[c] == t.level[p] + 1
            assert name.startswith(t.class_names[p] + SEPARATOR)
    # levels_index concatenation is a permutation of all ids
    concat = [c for bucket in t.levels_index for c in bucket]
    assert sorted(concat) == list(range(t.n_classes))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lca_properties_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    t = verify.random_taxonomy(rng)
    for _ in range(10):
        a, b = rng.integers(0, t.n_classes, size=2)
        assert t.lca(int(a), int(b)) == t.lca(int(b), int(a))
        assert t.lca(int(a), int(a)) == int(a)
    tree = tree_from_names(t.class_names)
    for c in range(t.n_classes):
        for anc in slow_ancestors(tree, c):
            assert t.lca(c, anc) == anc


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_height_recurrence_exact(seed):
    t = verify.random_taxonomy(np.random.default_rng(seed))
    for c in range(t.n_classes):
        kids = np.flatnonzero(t.parent_ids == c)
        if len(kids):
            assert t.heights[c] == 1 + max(t.heights[k] for k in kids)
        else:
            assert t.heights[c] == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_emit_parse_round_trip(seed):
    t = verify.random_taxonomy(np.random.default_rng(seed))
    t2 = parse_hierarchy(list(t.class_names))
    assert t2.class_names == t.class_names
    assert np.array_equal(t2.level, t.level)
    assert np.array_equal(t2.parent_ids, t.parent_ids)


def test_hierarchy_file_round_trip(tmp_path):
    t = parse_hierarchy(["top", "top/mid", "top/mid/leaf", "other"])
    path = tmp_path / "hierarchy.txt"
    t.to_file(path)
    t2 = load_hierarchy_file(path)
    assert t2.class_names == t.class_names


def test_hierarchy_file_ignores_comments_and_blank_lines(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# a comment\n\n1\n1/2\n")
    t = load_hierarchy_file(path)
    assert list(t.class_names) == ["1", "1/2"]


def test_taxonomy_is_a_dataclass_with_consistent_children():
    t = parse_hierarchy(["r", "r/s", "r/t"])
    assert isinstance(t, Taxonomy)
    r = t.id_of("r")
    assert np.flatnonzero(t.parent_ids == r).tolist() == sorted([t.id_of("r/s"), t.id_of("r/t")])


def test_stored_arrays_are_read_only():
    t = parse_hierarchy(["r", "r/s"])
    for stored in (t.parent_ids, t.level):
        with pytest.raises(ValueError, match="read-only"):
            stored[1] = 0
    assert t.parent_ids.tolist() == [VIRTUAL_ROOT, 0] and t.level.tolist() == [1, 2]
