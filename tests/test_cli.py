"""End-to-end tests for the command-line interface.

Every test drives ``cli.main(argv)`` in-process and inspects the artifacts
it writes, so exit codes, stdout/stderr and file layouts are all covered.
"""

import json
import filecmp
import struct
import weakref
from importlib import resources

import jsonschema
import numpy as np
import pytest

from hcl import cli, data, metrics, mlp

EPOCH_KEYS = {"epoch", "loss", "hit1", "mrr", "hierdist", "selected_classes"}

TINY = [
    "--set", "levels=2", "--set", "branching=2",
    "--set", "examples_per_leaf=12", "--set", "feature_dim=6",
    "--set", "hidden_width=16", "--set", "batch_size=32",
    "--epochs", "3",
]


def _schema(name: str) -> dict:
    text = (resources.files("hcl") / "schemas" / name).read_text(encoding="utf-8")
    return json.loads(text)


def _train(out_dir, extra=()) -> int:
    return cli.main(["train", "--out", str(out_dir), *TINY, *extra])


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_train_writes_a_complete_run_directory(tmp_path):
    run = tmp_path / "run"
    assert _train(run) == 0

    for name in ("config.resolved.cfg", "checkpoint.bin", "metrics.jsonl", "report.json"):
        assert (run / name).is_file(), name

    rows = _read_jsonl(run / "metrics.jsonl")
    assert len(rows) == 3
    for row in rows:
        assert set(row) == EPOCH_KEYS
    assert [row["epoch"] for row in rows] == [1, 2, 3]

    report = json.loads((run / "report.json").read_text())
    assert report["command"] == "train"
    assert report["dataset"] == "synthetic"
    assert set(report["final"]) == {"train", "valid", "test"}
    test_final = report["final"]["test"]
    assert 0.0 <= test_final["hit1"] <= 100.0
    assert 0.0 <= test_final["mrr"] <= 100.0
    assert test_final["hierdist"] >= 0.0
    assert len(report["selection_history"]) == 3


def test_train_is_deterministic_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(a) == 0
    assert _train(b) == 0
    assert filecmp.cmp(a / "metrics.jsonl", b / "metrics.jsonl", shallow=False)
    assert filecmp.cmp(a / "checkpoint.bin", b / "checkpoint.bin", shallow=False)


def test_set_overrides_and_shortcut_flags_reach_the_resolved_config(tmp_path):
    run = tmp_path / "run"
    assert _train(run, extra=["--set", "dropout=0.0", "--loss", "ce", "--seed", "7"]) == 0
    resolved = dict(
        line.split(" = ", 1)
        for line in (run / "config.resolved.cfg").read_text().splitlines()
    )
    assert resolved["dropout"] == "0.0"
    assert resolved["loss"] == "ce"
    assert resolved["seed"] == "7"
    assert resolved["epochs"] == "3"
    assert resolved["hidden_width"] == "16"


def test_config_file_values_are_loaded_and_overridden(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "\n"
        "levels = 2\n"
        "branching = 2\n"
        "examples_per_leaf = 12\n"
        "feature_dim = 6\n"
        "hidden_width = 16\n"
        "epochs = 2\n"
        "dropout = 0.1\n"
    )
    run = tmp_path / "run"
    rc = cli.main([
        "train", "--config", str(cfg_file), "--out", str(run),
        "--set", "dropout=0.0",
    ])
    assert rc == 0
    resolved = (run / "config.resolved.cfg").read_text()
    assert "dropout = 0.0\n" in resolved  # --set beats the config file
    assert "epochs = 2\n" in resolved


def test_malformed_config_line_is_a_usage_error(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("levels 2\n")
    rc = cli.main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "expected key = value" in capsys.readouterr().err


def test_eval_reproduces_the_training_report(tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(run) == 0
    trained = json.loads((run / "report.json").read_text())["final"]["test"]
    capsys.readouterr()

    rc = cli.main(["eval", "--run", str(run), "--split", "test"])
    assert rc == 0

    report_path = run / "eval_report_test.json"
    payload = json.loads(report_path.read_text())
    jsonschema.validate(payload, _schema("eval_report.schema.json"))
    assert payload["split"] == "test"
    assert payload["n_examples"] > 0
    for key in ("hit1", "mrr", "hierdist"):
        assert payload[key] == trained[key]
    assert json.loads(capsys.readouterr().out) == payload


def test_eval_rejects_checkpoint_dataset_dimension_mismatch(tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(run) == 0
    rc = cli.main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"),
        "--config", str(run / "config.resolved.cfg"),
        "--set", "feature_dim=5",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "D=6" in err and "D=5" in err


@pytest.mark.parametrize("dims", [(1 << 20, 1 << 20, 2), (1 << 62, 8, 8)])
def test_eval_rejects_checkpoint_header_larger_than_its_file(tmp_path, capsys, dims):
    run = tmp_path / "run"
    assert _train(run) == 0
    forged = tmp_path / "forged.bin"
    raw = (run / "checkpoint.bin").read_bytes()
    magic = len(mlp.CHECKPOINT_MAGIC)
    forged.write_bytes(raw[:magic] + struct.pack("<QQQ", *dims) + raw[magic + 24:])
    capsys.readouterr()
    rc = cli.main([
        "eval", "--checkpoint", str(forged), "--config", str(run / "config.resolved.cfg"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "checkpoint header claims" in err and "the file has" in err


def test_eval_split_requires_a_tagged_dataset(tmp_path, capsys):
    run = tmp_path / "run"
    assert _train(run) == 0
    native = tmp_path / "native"
    rc = cli.main([
        "synth", "--out", str(native), "--levels", "2", "--branching", "2",
        "--examples-per-leaf", "12", "--feature-dim", "6",
    ])
    assert rc == 0
    rc = cli.main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"),
        "--data-dir", str(native), "--split", "test",
    ])
    assert rc == 2
    assert "split" in capsys.readouterr().err


def test_eval_without_checkpoint_or_run_is_a_usage_error(capsys):
    rc = cli.main(["eval", "--split", "test"])
    assert rc == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_ablate_writes_schema_valid_table_and_markdown(tmp_path):
    run = tmp_path / "abl"
    rc = cli.main(["ablate", "--out", str(run), *TINY])
    assert rc == 0

    table = json.loads((run / "ablation.json").read_text())
    jsonschema.validate(table, _schema("ablation.schema.json"))
    assert [row["loss_mode"] for row in table["rows"]] == list(cli.ABLATION_ARMS)
    assert table["dataset"] == "synthetic"

    md = (run / "ablation.md").read_text().splitlines()
    assert md[0] == "# Ablation: synthetic"
    assert md[2].startswith("| Loss |")
    assert len([line for line in md if line.startswith("| ")]) == 6  # header+rule+4 rows


def test_ablation_drops_each_arm_before_the_next_one_trains(monkeypatch):
    cfg = cli.resolve_config(None, [("levels", "2"), ("branching", "2"),
                                    ("examples_per_leaf", "12"), ("feature_dim", "6"),
                                    ("hidden_width", "16"), ("epochs", "1")])
    d = cli.build_dataset(cfg)
    live = []  # weak references to the last arm's parameters and test scores
    train, evaluate = mlp.train, metrics.evaluate

    def spy_train(*args):
        assert all(ref() is None for ref in live)
        params, log = train(*args)
        live[:] = [weakref.ref(params)]
        return params, log

    def spy_evaluate(y, scores, *args, **kwargs):
        live.append(weakref.ref(scores))
        return evaluate(y, scores, *args, **kwargs)

    monkeypatch.setattr(cli.mlp, "train", spy_train)
    monkeypatch.setattr(cli.metrics, "evaluate", spy_evaluate)
    arms = [arm for arm, _ in cli.ablation_reports(d, cli.train_config(cfg))]
    assert arms == list(cli.ABLATION_ARMS) and len(live) == 2


def test_ablate_refuses_a_loss_from_the_command_line(tmp_path, monkeypatch, capsys):
    trained = []

    def record_mode(d, tax, tc):
        trained.append(tc.loss_mode)
        raise mlp.TrainingDiverged("stop after recording the mode")

    monkeypatch.setattr(mlp, "train", record_mode)
    out = tmp_path / "r"
    # the arms set the loss mode, so ablate offers no --loss flag ...
    with pytest.raises(SystemExit) as exc:
        cli.main(["ablate", "--out", str(out), *TINY, "--loss", "focal"])
    assert exc.value.code == 2
    capsys.readouterr()
    # ... and a loss given with --set is one error line before any training
    assert cli.main(["ablate", "--out", str(out), *TINY, "--set", "loss=focal"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "loss cannot be set" in err
    assert not out.exists() and trained == []
    # a config file shared with train may still name a loss; the arms ignore
    # it, and the run's resolved config does not record it
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("loss = focal\ndropout = 0.125\n")
    assert cli.main(["ablate", "--out", str(out), "--config", str(cfg), *TINY]) == 1
    assert trained == [cli.ABLATION_ARMS[0]]
    resolved = (out / "config.resolved.cfg").read_text()
    assert "loss" not in resolved and "dropout = 0.125\n" in resolved


def test_verify_reports_all_properties_hold(capsys):
    rc = cli.main(["verify", "--trials", "40"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all properties hold" in out
    assert out.count(" ok ") == 5


def test_verify_rejects_nonpositive_trials():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--trials", "0"])
    assert excinfo.value.code == 2


def test_synth_writes_native_files_that_round_trip(tmp_path):
    out = tmp_path / "ds"
    argv = [
        "synth", "--out", str(out), "--levels", "2", "--branching", "2",
        "--examples-per-leaf", "10", "--feature-dim", "5", "--seed", "3",
    ]
    assert cli.main(argv) == 0
    for name in ("features.csv", "labels.txt", "hierarchy.txt"):
        assert (out / name).is_file(), name

    loaded = data.load_native_dir(out)
    expected = data.synth_generate(data.SynthConfig(
        levels=2, branching=2, examples_per_leaf=10, feature_dim=5, seed=3,
    ))
    assert loaded.taxonomy.class_names == expected.taxonomy.class_names
    np.testing.assert_allclose(loaded.features, expected.features, atol=1e-12)
    np.testing.assert_array_equal(loaded.labels, expected.labels)

    again = tmp_path / "ds2"
    assert cli.main(argv[:2] + [str(again)] + argv[3:]) == 0
    assert filecmp.cmp(out / "features.csv", again / "features.csv", shallow=False)


def test_synth_rejects_out_of_range_label_noise(tmp_path, capsys):
    rc = cli.main(["synth", "--out", str(tmp_path / "x"), "--label-noise", "0.6"])
    assert rc == 2
    assert "label_noise" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("inf", "nan", "-inf"))
def test_synth_rejects_non_finite_separation(tmp_path, capsys, value):
    out = tmp_path / "x"
    # a numpy RuntimeWarning on the way fails the test (filterwarnings in pyproject.toml)
    rc = cli.main(["synth", "--out", str(out), f"--separation={value}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: cluster_separation must be finite and > 0, got {value}"]
    assert not out.exists()


def test_unknown_config_key_is_a_usage_error_listing_valid_keys(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "r"), "--set", "nope=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown config key 'nope'" in err
    assert "valid keys" in err and "hidden_width" in err


def test_native_source_requires_data_dir(tmp_path, capsys):
    rc = cli.main(["train", "--out", str(tmp_path / "r"), "--set", "data=native"])
    assert rc == 2
    assert "requires data_dir" in capsys.readouterr().err


def test_ragged_native_features_are_a_one_line_error(tmp_path, capsys):
    src = tmp_path / "native"
    src.mkdir()
    (src / "features.csv").write_text("1,2\n3\n")
    (src / "labels.txt").write_text("a\nb\n")
    (src / "hierarchy.txt").write_text("a\nb\n")
    rc = cli.main([
        "train", "--out", str(tmp_path / "r"),
        "--set", "data=native", "--set", f"data_dir={src}",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "row 1 has 1 values, but the first row has 2" in err


def test_bare_arff_attribute_line_is_a_one_line_error(tmp_path, capsys):
    src = tmp_path / "bad.arff"
    src.write_text("@relation r\n@attribute\n@attribute c hierarchical a\n@data\n1,a\n")
    rc = cli.main([
        "train", "--out", str(tmp_path / "r"),
        "--set", "data=arff", "--set", f"arff_path={src}",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "attribute line needs a name and a type: '@attribute'" in err


def test_report_names_the_dataset_of_the_source_read(tmp_path):
    """An ARFF run is named after its file even when the config also sets
    the native source's data_dir."""
    src = tmp_path / "ci.arff"
    rows = [f"{i % 2 + 0.1 * i},{i % 3},{'a/x' if i % 2 else 'b'}" for i in range(12)]
    src.write_text("@relation ci\n@attribute f1 numeric\n@attribute f2 numeric\n"
                   "@attribute class hierarchical a,a/x,b\n@data\n" + "\n".join(rows) + "\n")
    run = tmp_path / "run"
    assert cli.main([
        "train", "--out", str(run), "--epochs", "1", "--set", "data=arff",
        "--set", f"arff_path={src}", "--set", f"data_dir={tmp_path / 'other'}",
    ]) == 0
    assert json.loads((run / "report.json").read_text())["dataset"] == "ci"


# both commands open a run through one prologue that checks every value
# before it makes the run directory
@pytest.mark.parametrize("command", ("train", "ablate"))
@pytest.mark.parametrize("override, message", [
    ("decision_threshold=1.5", "decision_threshold must lie in (0,1), got 1.5"),
    ("selection_rule=best-k", "unknown selection rule 'best-k'"),
    ("selection_rule=fixed-threshold", "fixed-threshold rule needs an explicit thresh"),
    ("focal_gamma=-1", "gamma must be >= 0, got -1.0"),
    ("lr=nan", "learning_rate must be finite and >= 0, got nan"),
    ("split_ratios=nan,0.2,0.2", "need three positive finite ratios"),
    ("selection_thresh=nan", "selection thresh must be finite, got nan"),
    ("selection_thresh=-inf", "selection thresh must be finite, got -inf"),
    ("selection_thresh=abc", "config key 'selection_thresh': expected float, got 'abc'"),
    ("selection_thresh=5", "selection thresh 5.0 is read only by the fixed-threshold rule"),
    ("seed=-1", "error: seed must be >= 0, got -1"),
    ("data_seed=-1", "data seed must be >= 0, got -1"),
    ("split_seed=-1", "split seed must be >= 0, got -1"),
])
def test_bad_config_value_exits_2_before_training(tmp_path, monkeypatch, capsys,
                                                  override, message, command):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(mlp, "train", no_training)
    out = tmp_path / "r"
    rc = cli.main([command, "--out", str(out), *TINY, "--set", override])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert message in err
    assert not out.exists()


# every float key of the config, with the settings under which it is read
FLOAT_KEYS = {
    "lr": [], "dropout": [], "decision_threshold": [], "focal_gamma": [], "separation": [],
    "label_noise": [], "selection_thresh": ["selection_rule=fixed-threshold"],
}


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_config_value_exits_2_before_training(tmp_path, monkeypatch, capsys,
                                                               key, value):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(mlp, "train", no_training)
    pairs = [*FLOAT_KEYS[key], f"{key}={value}"]
    rc = _train(tmp_path / "r", [arg for pair in pairs for arg in ("--set", pair)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _run_and_native_dir(tmp_path, extra=()):
    """A trained run and a native dataset of the same dims, two levels deep."""
    run, native = tmp_path / "run", tmp_path / "native"
    assert _train(run, ["--set", "levels=3", *extra]) == 0
    assert cli.main([
        "synth", "--out", str(native), "--levels", "3", "--branching", "2",
        "--examples-per-leaf", "12", "--feature-dim", "6",
    ]) == 0
    return run, native


def _raw_feature_reports(run, native):
    """The run's checkpoint scored on the native files' raw features, per
    leaves-only flag."""
    params = mlp.load_checkpoint(run / "checkpoint.bin")
    d = data.load_native_dir(native)
    scores = mlp.forward(params, d.features)[0]
    return {flag: metrics.evaluate(d.labels, scores, d.taxonomy, leaves_only=flag).to_json_dict()
            for flag in (False, True)}


def test_eval_data_dir_reads_leaves_only_from_set(tmp_path, capsys):
    run, native = _run_and_native_dir(tmp_path)
    want = _raw_feature_reports(run, native)
    assert want[False] != want[True]  # the restriction shows on this model
    for flag in (False, True):
        capsys.readouterr()
        rc = cli.main([
            "eval", "--checkpoint", str(run / "checkpoint.bin"), "--data-dir", str(native),
            "--set", "normalize=false",
            "--set", f"leaves_only={str(flag).lower()}", "--out", str(tmp_path / "e.json"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {key: payload[key] for key in want[flag]} == want[flag]


def test_eval_data_dir_refuses_a_normalised_config(tmp_path, capsys):
    """The default config normalises the features, and the files are raw."""
    run, native = _run_and_native_dir(tmp_path)
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data-dir", str(native)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "--set normalize=false" in err


def test_eval_data_dir_reads_normalize_and_leaves_only_from_the_run(tmp_path, capsys):
    run, native = _run_and_native_dir(
        tmp_path, ["--set", "normalize=false", "--set", "leaves_only=true"])
    want = _raw_feature_reports(run, native)
    assert want[False] != want[True]
    capsys.readouterr()
    rc = cli.main(["eval", "--run", str(run), "--data-dir", str(native),
                   "--out", str(tmp_path / "e.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert {key: payload[key] for key in want[True]} == want[True]


def test_eval_data_dir_rejects_an_unknown_config_key(tmp_path, capsys):
    run, native = _run_and_native_dir(tmp_path)
    capsys.readouterr()
    rc = cli.main([
        "eval", "--checkpoint", str(run / "checkpoint.bin"), "--data-dir", str(native),
        "--set", "bogus_key=1",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "unknown config key 'bogus_key'" in err


def test_missing_dataset_path_is_reported(tmp_path, capsys):
    missing = tmp_path / "nowhere.arff"
    rc = cli.main([
        "train", "--out", str(tmp_path / "r"),
        "--set", "data=arff", "--set", f"arff_path={missing}",
    ])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_run_root_env_var_sets_default_output_location(tmp_path, monkeypatch, capsys):
    root = tmp_path / "exp-root"
    monkeypatch.setenv(cli.RUN_ROOT_ENV, str(root))
    rc = cli.main(["train", *TINY])
    assert rc == 0
    out = capsys.readouterr().out
    run_line = next(line for line in out.splitlines() if line.startswith("run dir: "))
    run_dir = run_line.removeprefix("run dir: ")
    assert run_dir.startswith(str(root))
    assert (root / run_dir.split("/")[-1] / "report.json").is_file()
