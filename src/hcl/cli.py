"""Command-line entry point.

Subcommands: train, eval, ablate, verify, synth. Configuration is a flat
``key = value`` text file; any key can be overridden on the command line
with ``--set key=value`` (plus a few dedicated shortcut flags). Every run
directory receives the fully resolved config so each result is replayable
from its artifacts alone.

Exit codes: 0 success, 1 property or training failure, 2 usage or IO error.
The environment variable HCL_RUN_DIR overrides the default run-output root.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import curriculum, data, metrics, mlp, verify
from .taxonomy import Taxonomy

RUN_ROOT_ENV = "HCL_RUN_DIR"
ABLATION_ARMS = ("ce", "hcl-hier", "hcl-cl", "hcl")

# config key -> SynthConfig field, for the synthetic generator
SYNTH_KEYS = {
    "levels": "levels",
    "branching": "branching",
    "examples_per_leaf": "examples_per_leaf",
    "feature_dim": "feature_dim",
    "separation": "cluster_separation",
    "label_noise": "label_noise",
    "data_seed": "seed",
}
# config key -> TrainConfig field (selection_thresh is passed separately)
TRAIN_KEYS = {
    "hidden_width": "hidden_width",
    "dropout": "dropout_rate",
    "lr": "learning_rate",
    "epochs": "epochs",
    "batch_size": "batch_size",
    "seed": "seed",
    "optimizer": "optimizer",
    "loss": "loss_mode",
    "scope": "transform_scope",
    "decision_threshold": "decision_threshold",
    "focal_gamma": "focal_gamma",
    "selection_rule": "selection_rule",
}


def _field_specs(cls, keys: dict) -> dict:
    """(type, default) per config key, from the dataclass field defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: (type(defaults[name]), defaults[name]) for key, name in keys.items()}


# key -> (type, default); bools accept true/false, 1/0, yes/no
CONFIG_SPEC: dict[str, tuple[type, object]] = {
    "data": (str, "synth"),  # synth | native | arff
    "data_dir": (str, ""),
    "arff_path": (str, ""),
    "split_ratios": (str, ",".join(map(str, data.SPLIT_RATIOS))),
    "split_seed": (int, 0),
    "normalize": (bool, True),
    "leaves_only": (bool, False),
    **_field_specs(data.SynthConfig, SYNTH_KEYS),
    **_field_specs(mlp.TrainConfig, TRAIN_KEYS),
    "selection_thresh": (float, ""),  # an empty value means unset
}


class UsageError(ValueError):
    pass


def _coerce(key: str, raw: str):
    typ, default = CONFIG_SPEC[key]
    raw = raw.strip()
    if not raw and default == "":  # an empty value leaves the key unset
        return ""
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise UsageError(
            f"config key {key!r}: expected {typ.__name__}, got {raw!r}"
        ) from None


def _check_key(key: str) -> str:
    if key not in CONFIG_SPEC:
        valid = ", ".join(sorted(CONFIG_SPEC))
        raise UsageError(f"unknown config key {key!r}; valid keys: {valid}")
    return key


def parse_config_file(path) -> dict:
    """Flat key = value lines; blank lines and # comments are skipped."""
    values: dict[str, object] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, val = line.partition("=")
            key = _check_key(key.strip())
            values[key] = _coerce(key, val)
    return values


def resolve_config(config_path=None, overrides=None) -> dict:
    cfg = {key: default for key, (_, default) in CONFIG_SPEC.items()}
    if config_path:
        cfg.update(parse_config_file(config_path))
    for key, raw in (overrides or []):
        key = _check_key(key)
        cfg[key] = _coerce(key, raw)
    return cfg


def emit_config(cfg: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in CONFIG_SPEC:
            if key in cfg:
                fh.write(f"{key} = {cfg[key]}\n")


def _collect_overrides(args) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        pairs.append((key.strip(), val))
    for flag in ("loss", "seed", "epochs", "lr"):
        val = getattr(args, flag, None)
        if val is not None:
            pairs.append((flag, str(val)))
    return pairs


def _split_ratios(cfg: dict) -> tuple[float, float, float]:
    parts = str(cfg["split_ratios"]).split(",")
    if len(parts) != 3:
        raise UsageError(
            f"split_ratios needs three comma-separated numbers, got {cfg['split_ratios']!r}"
        )
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise UsageError(f"split_ratios is not numeric: {cfg['split_ratios']!r}") from None


def build_dataset(cfg: dict) -> data.Dataset:
    """Source, split and (optionally) normalize the dataset a config names."""
    source = cfg["data"]
    if source == "synth":
        d = data.synth_generate(
            data.SynthConfig(**{name: cfg[key] for key, name in SYNTH_KEYS.items()})
        )
    elif source == "native":
        if not cfg["data_dir"]:
            raise UsageError("data = native requires data_dir")
        d = data.load_native_dir(cfg["data_dir"])
    elif source == "arff":
        if not cfg["arff_path"]:
            raise UsageError("data = arff requires arff_path")
        d = data.parse_arff_hmc(cfg["arff_path"])
    else:
        raise UsageError(f"unknown data source {cfg['data']!r}; use synth, native or arff")
    d = data.split(d, ratios=_split_ratios(cfg), seed=cfg["split_seed"])
    if cfg["normalize"]:
        d, _ = data.normalize(d)
    return d


def train_config(cfg: dict) -> mlp.TrainConfig:
    thresh = cfg["selection_thresh"]
    return mlp.TrainConfig(
        **{name: cfg[key] for key, name in TRAIN_KEYS.items()},
        selection_thresh=None if thresh == "" else thresh,
    )


def _run_root() -> str:
    return os.environ.get(RUN_ROOT_ENV, "runs")


def make_run_dir(out: str | None, command: str, seed: int) -> str:
    if out:
        path = out
    else:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = os.path.join(_run_root(), f"{command}-{stamp}-s{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def _dataset_name(cfg: dict) -> str:
    if cfg["data"] == "synth":
        return "synthetic"
    path = cfg["data_dir"] if cfg["data"] == "native" else cfg["arff_path"]
    return os.path.splitext(os.path.basename(os.path.normpath(path)))[0]


def _score(params, d: data.Dataset, rows, leaves_only: bool) -> metrics.EvalReport:
    """Evaluate ``params`` on ``rows`` of ``d``: an index array, or
    ``slice(None)`` for every row without a copy."""
    # the scores are passed on unbound, so they never outlive the evaluation
    return metrics.evaluate(d.labels[rows], mlp.forward(params, d.features[rows])[0],
                            d.taxonomy, leaves_only=leaves_only)


def _selection_history(log, tax: Taxonomy) -> list[dict]:
    history = []
    for entry in log:
        ids = np.flatnonzero(entry.selected == 1)
        history.append({
            "epoch": entry.epoch,
            "classes": [tax.class_names[int(c)] for c in ids],
        })
    return history


def _write_metrics_jsonl(log, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry.jsonl_dict(), sort_keys=True) + "\n")


def _write_json(obj, path) -> str:
    """Write ``obj`` as indented, key-sorted JSON with a final newline;
    returns the text written."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _start_run(args, command: str):
    """Config, dataset, training config and run directory of a train or
    ablate run. Every value is checked before the directory is made, and
    the resolved config is written to it as the run starts."""
    cfg = resolve_config(args.config, _collect_overrides(args))
    d = build_dataset(cfg)
    tc = train_config(cfg)
    run_dir = make_run_dir(args.out, command, tc.seed)
    # an ablate's arms set their own loss mode, so its record names none
    emit_config({key: v for key, v in cfg.items() if command == "train" or key != "loss"},
                os.path.join(run_dir, "config.resolved.cfg"))
    return cfg, d, tc, run_dir


def cmd_train(args) -> int:
    cfg, d, tc, run_dir = _start_run(args, "train")

    start = time.perf_counter()
    params, log = mlp.train(d, d.taxonomy, tc)
    duration = time.perf_counter() - start

    mlp.save_checkpoint(os.path.join(run_dir, "checkpoint.bin"), params)
    _write_metrics_jsonl(log, os.path.join(run_dir, "metrics.jsonl"))

    finals = {name: _score(params, d, d.indices(name), cfg["leaves_only"])
              for name in data.SPLIT_NAMES}
    record = {
        "command": "train",
        "dataset": _dataset_name(cfg),
        "config": {key: cfg[key] for key in CONFIG_SPEC},
        "seed": tc.seed,
        "duration_sec": duration,
        "epochs": [entry.jsonl_dict() for entry in log],
        "selection_history": _selection_history(log, d.taxonomy),
        "final": {name: rep.to_json_dict() for name, rep in finals.items()},
    }
    _write_json(record, os.path.join(run_dir, "report.json"))

    test = finals["test"]
    print(f"run dir: {run_dir}")
    print(
        f"test hit@1 {100 * test.hit_at_1:.2f}  mrr {100 * test.mrr:.2f}  "
        f"hierdist {test.hier_dist:.2f}  ({len(log)} epochs, {duration:.1f}s)"
    )
    return 0


def _load_eval_inputs(args):
    """Checkpoint, dataset and leaves-only flag of an eval. The config is
    ``--config``'s or ``--run``'s file, or the defaults when neither is
    given, with ``--set`` over it; ``--data-dir`` replaces only its data."""
    checkpoint = args.checkpoint
    config_path = args.config
    if args.run:
        checkpoint = checkpoint or os.path.join(args.run, "checkpoint.bin")
        config_path = config_path or os.path.join(args.run, "config.resolved.cfg")
    if not checkpoint:
        raise UsageError("eval needs --checkpoint (or --run)")
    params = mlp.load_checkpoint(checkpoint)
    if not (config_path or args.data_dir):
        raise UsageError("eval needs --config, --run or --data-dir to locate the data")

    cfg = resolve_config(config_path, _collect_overrides(args))
    if not args.data_dir:
        return params, build_dataset(cfg), cfg["leaves_only"], checkpoint
    if args.split:
        raise UsageError(f"--split {args.split} needs split tags, and --data-dir files have none")
    # the train-split statistics that normalised the training features are not stored
    if cfg["normalize"]:
        raise UsageError("--data-dir scores raw features, but the config normalises them; "
                         "pass --set normalize=false if the checkpoint was trained on raw features")
    return params, data.load_native_dir(args.data_dir), cfg["leaves_only"], checkpoint


def cmd_eval(args) -> int:
    params, d, leaves_only, checkpoint = _load_eval_inputs(args)

    want_d, _, want_c = params.dims
    if (want_d, want_c) != (d.n_features, d.taxonomy.n_classes):
        raise UsageError(
            f"checkpoint expects D={want_d}, C={want_c} but the dataset has "
            f"D={d.n_features}, C={d.taxonomy.n_classes}"
        )

    split = args.split or "all"
    rep = _score(params, d, d.indices(args.split) if args.split else slice(None), leaves_only)
    out_path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(checkpoint)), f"eval_report_{split}.json")
    text = _write_json({**rep.to_json_dict(), "split": split, "n_examples": rep.n_examples},
                       out_path)
    print(text, end="")
    return 0


def _format_ablation_md(dataset_name: str, rows: list[dict]) -> str:
    lines = [
        f"# Ablation: {dataset_name}",
        "",
        "| Loss | Hit@1 | MRR | HierDist |",
        "| --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row['loss_mode']} | {row['hit1']:.2f} | {row['mrr']:.2f} "
            f"| {row['hierdist']:.2f} |"
        )
    return "\n".join(lines) + "\n"


def ablation_reports(d: data.Dataset, tc: mlp.TrainConfig, leaves_only: bool = False):
    """Train each arm of ABLATION_ARMS on ``d`` with ``tc`` (its loss mode
    replaced) and yield ``(arm, test-split EvalReport)`` as each finishes."""
    idx = d.indices("test")
    for arm in ABLATION_ARMS:
        params, _ = mlp.train(d, d.taxonomy, dataclasses.replace(tc, loss_mode=arm))
        report = _score(params, d, idx, leaves_only)
        del params  # not live through the next arm's training
        yield arm, report


def cmd_ablate(args) -> int:
    # the arms fix the loss mode; a config file shared with train may name a loss,
    # which the arms ignore and the resolved config leaves out
    if any(key == "loss" for key, _ in _collect_overrides(args)):
        raise UsageError(f"ablate trains the arms {', '.join(ABLATION_ARMS)}; loss cannot be set")
    cfg, d, tc, run_dir = _start_run(args, "ablate")  # one dataset and split for every arm

    start = time.perf_counter()
    rows = []
    for arm, rep in ablation_reports(d, tc, cfg["leaves_only"]):
        row = {"loss_mode": arm, **rep.to_json_dict()}
        rows.append(row)
        print(f"{arm:9s} hit@1 {row['hit1']:6.2f}  mrr {row['mrr']:6.2f}  "
              f"hierdist {row['hierdist']:.2f}")
    duration = time.perf_counter() - start

    dataset = _dataset_name(cfg)
    _write_json({"dataset": dataset, "seed": tc.seed, "duration_sec": duration, "rows": rows},
                os.path.join(run_dir, "ablation.json"))
    with open(os.path.join(run_dir, "ablation.md"), "w", encoding="utf-8") as fh:
        fh.write(_format_ablation_md(dataset, rows))
    print(f"run dir: {run_dir}")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(args.trials, args.seed)
    failed = False
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{res.name:24s} {status}  ({res.trials} trials)")
        for key, val in sorted(res.info.items()):
            print(f"  {key}: {val:.6g}" if isinstance(val, float) else f"  {key}: {val}")
        if not res.ok:
            failed = True
            print("  counterexample:")
            print("  " + json.dumps(res.counterexample, indent=2).replace("\n", "\n  "))
    if failed:
        print("verification FAILED", file=sys.stderr)
        return 1
    print("all properties hold")
    return 0


def cmd_synth(args) -> int:
    d = data.synth_generate(
        data.SynthConfig(**{name: getattr(args, name) for name in SYNTH_KEYS.values()})
    )
    data.emit_native(d, args.out)
    print(f"wrote {d.n_examples} examples, {d.taxonomy.n_classes} classes to {args.out}")
    return 0


def _positive_int(raw: str) -> int:
    val = int(raw)
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcl",
        description="hierarchy-constrained curriculum losses: train, evaluate, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, with_train_shortcuts=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        if with_train_shortcuts:
            p.add_argument("--seed", type=int, help="shortcut for --set seed=...")
            p.add_argument("--epochs", type=int, help="shortcut for --set epochs=...")
            p.add_argument("--lr", type=float, help="shortcut for --set lr=...")

    p_train = sub.add_parser("train", help="train a model and persist the run")
    add_config_flags(p_train)
    # ablate has no --loss: each arm sets its own loss mode
    p_train.add_argument("--loss", choices=curriculum.LOSS_MODES,
                         help="shortcut for --set loss=...")
    p_train.add_argument("--out", help="run directory (default: timestamped under the run root)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p_eval.add_argument("--run", help="run directory holding checkpoint and resolved config")
    p_eval.add_argument("--checkpoint", help="checkpoint file")
    p_eval.add_argument("--data-dir", help="native-format dataset directory, scored as it is "
                        "(no split tags, no normalisation: needs normalize=false)")
    p_eval.add_argument("--split", choices=data.SPLIT_NAMES, help="evaluate one split only")
    p_eval.add_argument("--out", help="where to write the report JSON")
    add_config_flags(p_eval, with_train_shortcuts=False)
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="run the four-arm loss-mode comparison")
    add_config_flags(p_abl)
    p_abl.add_argument("--out", help="run directory")
    p_abl.set_defaults(func=cmd_ablate)

    p_ver = sub.add_parser("verify", help="run the randomized property suite")
    p_ver.add_argument("--trials", type=_positive_int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_syn = sub.add_parser("synth", help="write a synthetic dataset in native format")
    p_syn.add_argument("--out", required=True, help="output directory")
    for key, name in SYNTH_KEYS.items():
        typ, default = CONFIG_SPEC[key]
        flag = "seed" if key == "data_seed" else key  # synth has no training seed
        p_syn.add_argument("--" + flag.replace("_", "-"), dest=name, type=typ,
                           default=default, metavar=flag.upper())
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except mlp.TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
