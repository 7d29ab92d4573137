"""Acceptance gate: one test per shipping criterion.

Each test appends a single ``PASS``/``FAIL`` line to the acceptance log
(echoed in the terminal summary) and then asserts, so a full run always ends
with an explicit, human-readable checklist. Tolerances and instance counts
are pinned here and must not be loosened.
"""

import filecmp
import glob
import os
import time

import numpy as np
import pytest

from hcl import cli, data, metrics, mlp, taxonomy, verify

pytestmark = pytest.mark.acceptance


def _record(log, ok: bool, name: str, detail: str) -> bool:
    log.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# Randomized property checks (the verification harness at full strength)
# ---------------------------------------------------------------------------

def test_transform_satisfies_level_monotonicity_everywhere(acceptance_log):
    start = time.perf_counter()
    r = verify.check_lambda(trials=500, seed=101)
    took = time.perf_counter() - start
    ok = r.ok and r.trials == 500 and took < 10.0
    assert _record(
        acceptance_log, ok, "level-monotonicity",
        f"{r.trials - r.failures}/{r.trials} random instances exact, {took:.1f}s (< 10s)",
    )


def test_transform_is_lowest_dominating_surface(acceptance_log):
    r = verify.check_bound_chain(trials=500, seed=102)
    dominators = int(r.info.get("dominators_checked", 0))
    ok = r.ok and dominators >= 100
    assert _record(
        acceptance_log, ok, "bound chain",
        f"base <= transformed <= g exact on 500 instances, "
        f"{dominators} dominating surfaces checked (>= 100)",
    )


def test_objective_sits_between_zero_one_and_transformed_totals(acceptance_log):
    r = verify.check_sandwich(trials=500, seed=103, tol=1e-9)
    ok = r.ok and r.trials == 500
    assert _record(
        acceptance_log, ok, "objective sandwich",
        "0-1 total <= objective <= transformed total on 500 instances (tol 1e-9)",
    )


def test_selection_rule_matches_exhaustive_minimum(acceptance_log):
    start = time.perf_counter()
    r = verify.check_selection_oracle(trials=200, seed=104, tol=1e-9)
    took = time.perf_counter() - start
    rate = r.info["threshold_rule_disagreement_rate"]
    ok = r.ok and took < 30.0
    assert _record(
        acceptance_log, ok, "selection oracle",
        f"optimal-prefix == exhaustive minimum on 200 instances (C <= 12, "
        f"tol 1e-9), {took:.1f}s (< 30s); fixed-threshold rule disagrees "
        f"on {100 * rate:.1f}% of instances",
    )


def test_analytic_gradients_match_finite_differences(acceptance_log):
    r = verify.check_gradients(trials=20, seed=105)
    worst = max(r.info.values())
    ok = r.ok and worst < 1e-4
    assert _record(
        acceptance_log, ok, "gradient checks",
        f"bce/focal/hcl-pipeline (both scopes) on 20 tie-free instances, "
        f"worst relative error {worst:.2e} (< 1e-4)",
    )


# ---------------------------------------------------------------------------
# Exact metric fixtures
# ---------------------------------------------------------------------------

def test_metric_hand_fixtures_reproduce_exactly(acceptance_log):
    abc = taxonomy.parse_hierarchy(["A", "A/B", "A/C"])
    labels = np.array([[1, 1, -1], [1, 1, -1]])
    scores = np.array([[0.9, 0.8, 0.1], [0.1, 0.2, 0.9]])
    rep = metrics.evaluate(labels, scores, abc)

    forest = taxonomy.parse_hierarchy(["1/2/3/4", "5/6/7/8"])
    one = np.full((1, 8), -1, dtype=int)
    one[0, 4] = 1  # the single positive is the other subtree's root
    deep = metrics.evaluate(
        one, np.array([[0.9, 0.85, 0.8, 0.1, 0.7, 0.05, 0.04, 0.03]]), forest
    )

    ok = (
        rep.hit_at_1 == 0.5
        and rep.mrr == 0.75
        and rep.hier_dist == 0.5
        and deep.hit_at_1 == 0.0
        and deep.mrr == 0.25
        and deep.hier_dist == 4.0
    )
    assert _record(
        acceptance_log, ok, "metric fixtures",
        f"hit@1 {rep.hit_at_1}/{deep.hit_at_1}, mrr {rep.mrr}/{deep.mrr}, "
        f"hierdist {rep.hier_dist}/{deep.hier_dist} — all exact",
    )


# ---------------------------------------------------------------------------
# Training-level criteria (slower; synthetic data only)
# ---------------------------------------------------------------------------

def _desk_dataset(noise: float, seed: int) -> data.Dataset:
    d = data.synth_generate(data.SynthConfig(
        levels=3, branching=3, examples_per_leaf=150, feature_dim=16,
        cluster_separation=2.0, label_noise=noise, seed=seed,
    ))
    d = data.split(d, ratios=(0.6, 0.2, 0.2), seed=seed)
    d, _ = data.normalize(d)
    return d


def _test_hierdist(d: data.Dataset, tc: mlp.TrainConfig) -> metrics.EvalReport:
    params, _ = mlp.train(d, d.taxonomy, tc)
    idx = d.indices("test")
    scores, _ = mlp.forward(params, d.features[idx])
    return metrics.evaluate(d.labels[idx], scores, d.taxonomy)


def test_desk_scale_training_reaches_target_accuracy(acceptance_log):
    d = data.synth_generate(data.SynthConfig(
        levels=3, branching=3, examples_per_leaf=150, feature_dim=16,
        cluster_separation=2.0, label_noise=0.05, seed=1,
    ))
    d = data.split(d, ratios=(0.6, 0.2, 0.2), seed=0)
    d, _ = data.normalize(d)

    start = time.perf_counter()
    rep = _test_hierdist(d, mlp.TrainConfig(loss_mode="hcl", epochs=100, seed=0))
    took = time.perf_counter() - start

    ok = rep.hit_at_1 >= 0.90 and took < 300.0
    assert _record(
        acceptance_log, ok, "desk-scale training",
        f"hcl reaches test hit@1 {100 * rep.hit_at_1:.2f}% (>= 90%) "
        f"in 100 epochs, {took:.0f}s (< 300s)",
    )


def test_ablation_favors_the_combined_loss(acceptance_log):
    arms = {arm: [] for arm in cli.ABLATION_ARMS}
    for seed in range(5):
        d = _desk_dataset(noise=0.15, seed=seed)
        tc = mlp.TrainConfig(epochs=50, seed=seed)
        for arm, rep in cli.ablation_reports(d, tc):
            arms[arm].append(rep.hier_dist)
    means = {arm: float(np.mean(vals)) for arm, vals in arms.items()}

    beats_flat = means["hcl"] <= means["ce"]
    near_best_part = means["hcl"] <= min(means["hcl-hier"], means["hcl-cl"]) + 0.02
    ok = beats_flat and near_best_part
    table = ", ".join(f"{arm} {means[arm]:.4f}" for arm in cli.ABLATION_ARMS)
    assert _record(
        acceptance_log, ok, "directional ablation",
        f"5-seed mean hierdist — {table}; hcl <= ce"
        f" {'holds' if beats_flat else 'FAILS'}, hcl <= min(parts)+0.02"
        f" {'holds' if near_best_part else 'FAILS'}",
    )


def _find_arff(stem: str) -> str | None:
    roots = []
    if os.environ.get("HCL_ARFF_DIR"):
        roots.append(os.environ["HCL_ARFF_DIR"])
    roots.append(os.path.join(os.path.dirname(__file__), "..", "datasets"))
    for root in roots:
        for pattern in (f"{stem}*.arff", f"{stem.capitalize()}*.arff"):
            hits = sorted(glob.glob(os.path.join(root, "**", pattern), recursive=True))
            if hits:
                return hits[0]
    return None


def test_benchmark_corpora_direction_when_supplied(acceptance_log):
    paths = {stem: _find_arff(stem) for stem in ("diatoms", "imclef")}
    missing = [stem for stem, path in paths.items() if path is None]
    if missing:
        acceptance_log.append(
            "SKIP benchmark corpora: no diatoms/imclef ARFF files found "
            "(set HCL_ARFF_DIR or place them under datasets/)"
        )
        pytest.skip("benchmark ARFF files not supplied")

    for stem, path in paths.items():
        gaps = {"hcl": [], "ce": []}
        for seed in range(3):
            d = data.parse_arff_hmc(path)
            d = data.split(d, ratios=(0.6, 0.2, 0.2), seed=seed)
            d, _ = data.normalize(d)
            for arm in gaps:
                tc = mlp.TrainConfig(loss_mode=arm, seed=seed)
                gaps[arm].append(_test_hierdist(d, tc).hier_dist)
        hcl_mean, ce_mean = np.mean(gaps["hcl"]), np.mean(gaps["ce"])
        ok = hcl_mean < ce_mean
        assert _record(
            acceptance_log, ok, f"benchmark corpus {stem}",
            f"3-seed mean hierdist hcl {hcl_mean:.4f} < ce {ce_mean:.4f}",
        )


def test_training_is_bytewise_deterministic(acceptance_log, tmp_path):
    argv = [
        "train", "--set", "levels=2", "--set", "branching=2",
        "--set", "examples_per_leaf=12", "--set", "feature_dim=6",
        "--set", "hidden_width=16", "--epochs", "3",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    ok = all(filecmp.cmp(a / name, b / name, shallow=False)
             for name in ("metrics.jsonl", "checkpoint.bin"))
    assert _record(
        acceptance_log, ok, "determinism",
        "two identical train commands wrote byte-identical metrics logs and checkpoints",
    )
