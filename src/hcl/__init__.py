"""Hierarchy-constrained losses with class-based curriculum selection.

The package turns a per-class base loss into one that respects a class
hierarchy (deeper predictions can never score a smaller loss than shallower
ones), selects which classes to train on by solving a small min-max
objective exactly, and wraps both in a from-scratch multi-label MLP with
hierarchy-aware evaluation metrics.

Importing the package fixes glibc's mmap threshold (see ``hcl._malloc``).
"""

from ._malloc import fix_mmap_threshold
from .curriculum import (
    LOSS_MODES,
    LOSS_PRESETS,
    ClassLossAggregate,
    LossSpec,
    RULE_OPTIMAL_PREFIX,
    RULE_FIXED_THRESHOLD,
    aggregate_class_losses,
    brute_force_select,
    curriculum_objective,
    hcl_grad,
    hcl_loss,
    select_classes,
)
from .data import (
    Dataset,
    NormParams,
    SynthConfig,
    emit_native,
    load_native_dir,
    normalize,
    parse_arff_hmc,
    parse_native,
    split,
    synth_generate,
)
from .losses import (
    SCOPE_ALL_SHALLOWER,
    SCOPE_ANCESTORS_ONLY,
    bce_loss,
    focal_loss,
    hier_transform,
    hier_transform_backward,
    zero_one_loss,
)
from .metrics import EvalReport, evaluate
from .mlp import (
    MlpParams,
    TrainConfig,
    TrainingDiverged,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .taxonomy import VIRTUAL_ROOT, Taxonomy, load_hierarchy_file, parse_hierarchy

__all__ = [
    "ClassLossAggregate",
    "Dataset",
    "EvalReport",
    "LOSS_MODES",
    "LOSS_PRESETS",
    "LossSpec",
    "MlpParams",
    "NormParams",
    "RULE_OPTIMAL_PREFIX",
    "RULE_FIXED_THRESHOLD",
    "SCOPE_ALL_SHALLOWER",
    "SCOPE_ANCESTORS_ONLY",
    "SynthConfig",
    "Taxonomy",
    "TrainConfig",
    "TrainingDiverged",
    "VIRTUAL_ROOT",
    "aggregate_class_losses",
    "bce_loss",
    "brute_force_select",
    "curriculum_objective",
    "emit_native",
    "evaluate",
    "focal_loss",
    "hcl_grad",
    "hcl_loss",
    "hier_transform",
    "hier_transform_backward",
    "init_params",
    "load_checkpoint",
    "load_hierarchy_file",
    "load_native_dir",
    "normalize",
    "parse_arff_hmc",
    "parse_hierarchy",
    "parse_native",
    "save_checkpoint",
    "select_classes",
    "split",
    "synth_generate",
    "train",
    "zero_one_loss",
]

__version__ = "0.1.0"


fix_mmap_threshold()
