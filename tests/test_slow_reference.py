"""The slow references stay independent of the code they check, and every
function of the checked modules has a reference or is listed without a
fast path."""

import ast
import inspect
from functools import cached_property
from pathlib import Path
from types import FunctionType

from hcl import curriculum, data, losses, metrics, mlp, taxonomy
import slow_reference

# what the references may import from hcl: data types and constants
ALLOWED_IMPORTS = {
    "Taxonomy", "MlpParams", "LossSpec", "SCOPE_ALL_SHALLOWER", "SCOPE_ANCESTORS_ONLY",
    "RULE_OPTIMAL_PREFIX", "RULE_FIXED_THRESHOLD", "LOG_EPS", "VIRTUAL_ROOT", "SEPARATOR",
    "FEATURE_NOISE_SCALE",
}
# the Taxonomy queries derived from the class names, which the references rebuild
DERIVED_QUERIES = {"levels_index", "path_ids", "heights", "leaf_ids", "max_level",
                   "parent_ids", "level", "lca", "id_of"}
# checks only the training loop's order and buffers, so it calls the live code
EXCEPTION = "slow_train"


def independence_faults(source):
    """Each import from hcl beyond ``ALLOWED_IMPORTS`` and each read of a
    derived query in ``source``, outside the function ``EXCEPTION``."""
    faults = []
    nodes = [ast.parse(source)]
    for node in nodes:  # breadth first, the list growing as it goes
        if isinstance(node, ast.FunctionDef) and node.name == EXCEPTION:
            continue
        if isinstance(node, ast.Import):
            faults += [a.name for a in node.names if a.name.split(".")[0] == "hcl"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hcl":
            faults += [f"{node.module}.{a.name}" for a in node.names
                       if a.name not in ALLOWED_IMPORTS]
        elif isinstance(node, ast.Attribute) and node.attr in DERIVED_QUERIES:
            faults.append(f"line {node.lineno}: .{node.attr}")
        nodes.extend(ast.iter_child_nodes(node))
    return faults


def test_references_share_no_code_with_what_they_check():
    assert independence_faults(Path(slow_reference.__file__).read_text()) == []
    planted = ("from hcl.losses import LOG_EPS, bce_loss\n"
               "import hcl.metrics\n"
               "row = tax.path_ids[0]\n")
    assert independence_faults(planted) == ["hcl.losses.bce_loss", "hcl.metrics",
                                            "line 3: .path_ids"]


# each slow reference -> the functions whose results the tests compare with it
REFERENCES = {
    "tree_from_names": ["taxonomy.Taxonomy.max_level", "taxonomy.Taxonomy.levels_index"],
    "slow_parse_hierarchy": ["taxonomy.parse_hierarchy"],
    "slow_ancestors": ["taxonomy.Taxonomy.path_ids"],
    "slow_lca": ["taxonomy.Taxonomy.lca"],
    "slow_heights": ["taxonomy.Taxonomy.heights"],
    "slow_leaf_ids": ["taxonomy.Taxonomy.leaf_ids"],
    "slow_all_shallower": ["losses._all_shallower_sweep", "losses.hier_transform"],
    "slow_ancestors_only": ["losses._ancestors_sweep"],
    "slow_backward": ["losses.hier_transform_backward"],
    "slow_bce_loss": ["losses.bce_loss"],
    "slow_bce_grad": ["losses.bce_grad"],
    "slow_focal_loss": ["losses.focal_loss"],
    "slow_focal_grad": ["losses.focal_grad"],
    "slow_zero_one_loss": ["losses.zero_one_errors"],
    "slow_select": ["curriculum.select_classes"],
    "slow_hcl_loss": ["curriculum.hcl_loss", "curriculum.curriculum_objective"],
    "slow_hcl_grad": ["curriculum.hcl_grad", "losses._hier_weights",
                      "losses._all_shallower_weights", "losses._ancestors_weights"],
    "slow_optimizer_step": ["mlp._Optimizer.step"],
    "slow_sigmoid": ["mlp._sigmoid"],
    "slow_mlp_forward": ["mlp._hidden_block", "mlp._score_block", "mlp.forward"],
    "slow_mlp_backward": ["mlp.backward"],
    "slow_row_blocks": ["losses._row_blocks"],
    "slow_blocked_forward": ["mlp._score_blocks"],
    "slow_train": ["mlp.train"],
    "slow_rank_order": ["metrics._first_in_rank", "metrics._rank_of"],
    "slow_evaluate_loops": ["metrics._miss_ranks", "metrics.evaluate"],
    "slow_check_label_matrix": ["losses.check_label_matrix"],
    "slow_close_labels": ["data.close_labels"],
    "slow_native_label_lines": ["data.emit_native"],
    "slow_synth_generate": ["data.synth_generate"],
}

# functions with no fast path, so with no slow reference
NO_FAST_PATH = {
    # argument, value and config checks, and their helpers
    "losses._check_pair", "losses.check_decision_threshold", "losses.check_gamma",
    "losses._clamped_pair", "losses._check_surface",
    "curriculum.check_selection_rule", "curriculum._base_fns", "mlp.TrainConfig.loss_spec",
    "taxonomy.Taxonomy.n_classes", "taxonomy.Taxonomy._name_to_id",
    "taxonomy.Taxonomy.id_of", "taxonomy.Taxonomy._check_id", "data.validate_dataset",
    "data.Dataset.n_examples", "data.Dataset.n_features", "data.Dataset.indices",
    # the exhaustive oracle that selection is checked against
    "curriculum.brute_force_select",
    # initialisation, splits, normalisation, logs and reports
    "mlp.init_params", "mlp.EpochLog.jsonl_dict",
    "metrics.EvalReport.to_json_dict", "data.split", "data._largest_remainder",
    "data.normalize",
    # file readers and writers, checked against hand-written files
    "mlp.save_checkpoint", "mlp.load_checkpoint", "taxonomy.Taxonomy.to_file",
    "taxonomy.load_hierarchy_file", "data._labelled_dataset", "data.parse_arff_hmc",
    "data.load_native_dir",
}


def checked_functions():
    """``module.function`` and ``module.Class.member`` for every function,
    method and property defined in the checked modules, dunders aside."""
    names = set()
    for module in (losses, curriculum, metrics, mlp, taxonomy, data):
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                names.add(f"{short}.{name}")
            elif inspect.isclass(obj):
                names |= {f"{short}.{name}.{attr}" for attr, member in vars(obj).items()
                          if not attr.startswith("__")
                          and isinstance(member, (FunctionType, property, cached_property))}
    return names


def test_every_function_has_a_reference_or_no_fast_path():
    assert all(callable(getattr(slow_reference, ref, None)) for ref in REFERENCES)
    referenced = [name for names in REFERENCES.values() for name in names]
    assert len(set(referenced)) == len(referenced) and not set(referenced) & NO_FAST_PATH
    assert checked_functions() == set(referenced) | NO_FAST_PATH
