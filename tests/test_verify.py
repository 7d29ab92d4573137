"""The randomized property-check harness, including its negative paths."""

import numpy as np
import pytest

from hcl import losses, verify
from hcl.verify import (
    CheckResult,
    check_bound_chain,
    check_gradients,
    check_lambda,
    check_sandwich,
    check_selection_oracle,
    random_taxonomy,
    run_all,
)


def test_all_checks_pass_on_the_real_implementation():
    results = run_all(trials=60, seed=0)
    assert len(results) == 5
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.ok, f"{r.name}: {r.counterexample}"
        assert r.failures == 0


def test_run_all_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        run_all(trials=0, seed=0)


def test_run_all_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_all(trials=1, seed=-1)


def test_random_taxonomy_is_valid():
    for seed in range(30):
        t = random_taxonomy(np.random.default_rng(seed))
        assert 1 <= t.n_classes <= 30
        assert t.max_level <= 5


def test_selection_oracle_reports_rule_disagreement_rate():
    r = check_selection_oracle(trials=100, seed=0)
    assert r.ok
    assert "threshold_rule_disagreement_rate" in r.info
    assert 0.0 <= r.info["threshold_rule_disagreement_rate"] <= 1.0


# ---------------------------------------------------------------------------
# negative harness: planted bugs must be caught with a counterexample
# ---------------------------------------------------------------------------


def skip_deepest_level_transform(base, taxonomy, scope=losses.SCOPE_ALL_SHALLOWER):
    """Planted bug: classes at the deepest level are left untransformed."""
    out, routing = losses.hier_transform(base, taxonomy, scope=scope)
    deepest = taxonomy.level == taxonomy.max_level
    out = out.copy()
    out[:, deepest] = np.asarray(base, dtype=np.float64)[:, deepest]
    routing = routing.copy()
    routing[:, deepest] = np.flatnonzero(deepest)
    return out, routing


def test_lambda_check_catches_a_skipped_level():
    r = check_lambda(trials=100, seed=0, transform=skip_deepest_level_transform)
    assert not r.ok
    assert r.failures > 0
    assert r.counterexample is not None
    assert "base_row" in r.counterexample and "hierarchy" in r.counterexample


def test_bound_chain_check_catches_an_inflated_transform():
    def inflated(base, taxonomy, scope=losses.SCOPE_ALL_SHALLOWER):
        out, routing = losses.hier_transform(base, taxonomy, scope=scope)
        return out + 0.5, routing  # no longer the tightest dominating surface

    r = check_bound_chain(trials=50, seed=0, transform=inflated)
    assert not r.ok and r.failures > 0
    assert "above_dominator_class" in r.counterexample


def test_bound_chain_check_catches_a_deflated_transform():
    def deflated(base, taxonomy, scope=losses.SCOPE_ALL_SHALLOWER):
        out, routing = losses.hier_transform(base, taxonomy, scope=scope)
        return out - 0.25, routing  # dips below the base surface

    r = check_bound_chain(trials=50, seed=0, transform=deflated)
    assert not r.ok and r.failures > 0
    assert "below_base_class" in r.counterexample


def test_selection_check_catches_a_greedy_rule():
    def select_everything(agg, rule=None, thresh=None):
        return np.ones(len(agg.L))

    r = check_selection_oracle(trials=100, seed=0, select=select_everything)
    assert not r.ok
    assert r.counterexample is not None


def test_gradient_check_passes_quickly():
    r = check_gradients(trials=5, seed=0)
    assert r.ok
    assert set(r.info) == {"bce", "focal", "hcl-pipeline", "hcl-pipeline-ancestors-only"}
    assert max(r.info.values()) < verify.GRAD_RTOL


def test_sandwich_check_passes():
    r = check_sandwich(trials=100, seed=3)
    assert r.ok and r.trials == 100
