"""Randomized verification of the transform and selection guarantees.

Each check is one per-trial function run by one shared loop,
``_run_trials``: every trial draws a fresh (hierarchy, loss-surface)
instance from the check's seeded generator and asserts the corresponding
guarantee exactly (or at the stated tolerance), and the first trial that
returns a counterexample payload ends the check as a failure:

* level-monotonicity of the transformed surface (both scopes),
* the element-wise bound chain base <= transformed <= g for generated
  level-monotone dominating surfaces g,
* the objective sandwich between total 0-1 loss and total transformed loss,
* equality of prefix selection with the exhaustive 2^C oracle, plus (when
  it holds) the disagreement rate of the fixed-threshold rule,
* finite-difference agreement of the loss and pipeline gradients, the
  pipeline under both transform scopes.

The checks take the transform/selection callables as parameters so a
deliberately broken implementation can be fed in to prove the harness
actually catches violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curriculum, losses
from .taxonomy import VIRTUAL_ROOT, Taxonomy, parse_hierarchy

GRAD_FD_STEP = 1e-5
GRAD_RTOL = 1e-4
# level-monotone dominating surfaces drawn per bound-chain trial
DOMINATORS_PER_TRIAL = 2


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int = 0
    counterexample: dict | None = None
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def random_taxonomy(rng, max_classes: int = 30, max_depth: int = 5) -> Taxonomy:
    """Random forest of up to max_classes nodes, depth-capped."""
    n = int(rng.integers(2, max_classes + 1))
    paths: list[str] = []
    depths: list[int] = []
    for i in range(n):
        if i == 0 or rng.random() < 0.25:
            paths.append(str(i))
            depths.append(1)
        else:
            shallow = [k for k in range(i) if depths[k] < max_depth]
            k = shallow[int(rng.integers(len(shallow)))] if shallow else 0
            paths.append(f"{paths[k]}/{i}")
            depths.append(depths[k] + 1)
    return parse_hierarchy(paths)


def random_surface(rng, n: int, c: int) -> np.ndarray:
    """Loss surface from a mix of distributions, tie-prone on purpose."""
    kind = int(rng.integers(3))
    if kind == 0:
        return rng.uniform(0.0, 4.0, size=(n, c))
    if kind == 1:
        return rng.integers(0, 2, size=(n, c)).astype(np.float64)  # 0-1 losses
    return rng.integers(0, 4, size=(n, c)).astype(np.float64)  # small-int ties


def _lambda_violation(surface, tax: Taxonomy):
    """First (example, shallow, deep) triple violating level monotonicity."""
    for ids_hi in range(2, tax.max_level + 1):
        deep = tax.levels_index[ids_hi]
        shallow = np.concatenate(tax.levels_index[1:ids_hi])
        deep_min = surface[:, deep].min(axis=1)
        shal_max = surface[:, shallow].max(axis=1)
        bad = np.flatnonzero(deep_min < shal_max)
        if len(bad):
            i = int(bad[0])
            c1 = int(deep[np.argmin(surface[i, deep])])
            c2 = int(shallow[np.argmax(surface[i, shallow])])
            return i, c1, c2
    return None


def _chain_violation(surface, tax: Taxonomy):
    for c in np.flatnonzero(tax.parent_ids != VIRTUAL_ROOT):
        p = tax.parent_ids[c]
        bad = np.flatnonzero(surface[:, c] < surface[:, p])
        if len(bad):
            return int(bad[0]), int(c), int(p)
    return None


def _instance_payload(tax, base, i, extra):
    return {
        "hierarchy": list(tax.class_names),
        "example": i,
        "base_row": [float(v) for v in base[i]],
        **extra,
    }


def _run_trials(name: str, trials: int, seed: int, trial) -> CheckResult:
    """Run ``trial(rng, info)`` ``trials`` times on one seeded generator,
    ``info`` being the result's dict; the first counterexample a trial
    returns (``None`` means it passed) ends the check as a failure."""
    rng = np.random.default_rng(seed)
    res = CheckResult(name, trials)
    for _ in range(trials):
        counterexample = trial(rng, res.info)
        if counterexample is not None:
            res.failures += 1
            res.counterexample = counterexample
            break
    return res


def check_lambda(trials: int, seed: int, transform=losses.hier_transform) -> CheckResult:
    """Transformed surfaces are level-monotone: fully under all-shallower,
    along ancestor chains under ancestors-only."""

    def trial(rng, info):
        tax = random_taxonomy(rng)
        base = random_surface(rng, int(rng.integers(1, 51)), tax.n_classes)
        for scope, violation, lower_key, upper_key in (
            (losses.SCOPE_ALL_SHALLOWER, _lambda_violation, "deeper_class", "shallower_class"),
            (losses.SCOPE_ANCESTORS_ONLY, _chain_violation, "child", "parent"),
        ):
            out, _ = transform(base, tax, scope)
            hit = violation(out, tax)
            if hit is not None:
                i, lower, upper = hit
                return _instance_payload(tax, base, i, {
                    "scope": scope,
                    lower_key: tax.class_names[lower],
                    upper_key: tax.class_names[upper],
                    "transformed_row": [float(v) for v in out[i]],
                })

    return _run_trials("lambda-monotonicity", trials, seed, trial)


def dominating_monotone_surface(rng, transformed, tax: Taxonomy) -> np.ndarray:
    """A level-monotone surface above the transform: running level maxima
    plus per-level cumulative non-negative noise."""
    noise = rng.uniform(0.0, 1.0, size=(transformed.shape[0], tax.max_level + 1))
    noise[:, 0] = 0.0
    cum = np.cumsum(noise, axis=1)
    g = transformed.copy()
    for lvl in range(1, tax.max_level + 1):
        ids = tax.levels_index[lvl]
        g[:, ids] += cum[:, lvl][:, None]
    return g


def _min_level_dominator(base, tax: Taxonomy) -> np.ndarray:
    """Smallest level-monotone surface >= base, computed by a direct level
    sweep so the bound check does not depend on the transform under test."""
    base = np.asarray(base, dtype=np.float64)
    out = base.copy()
    shallower = np.full(base.shape[0], -np.inf)
    for level in range(1, tax.max_level + 1):
        cols = np.flatnonzero(tax.level == level)
        out[:, cols] = np.maximum(base[:, cols], shallower[:, None])
        shallower = np.maximum(shallower, base[:, cols].max(axis=1))
    return out


def check_bound_chain(trials: int, seed: int, transform=losses.hier_transform) -> CheckResult:
    """base <= transformed element-wise, and transformed <= g for generated
    level-monotone g >= base (tightness)."""

    def trial(rng, info):
        tax = random_taxonomy(rng)
        base = random_surface(rng, int(rng.integers(1, 51)), tax.n_classes)
        out, _ = transform(base, tax, losses.SCOPE_ALL_SHALLOWER)
        if (out < base).any():
            i, j = np.argwhere(out < base)[0]
            return _instance_payload(tax, base, int(i), {
                "below_base_class": tax.class_names[int(j)],
                "transformed_row": [float(v) for v in out[int(i)]],
            })
        envelope = _min_level_dominator(base, tax)
        for _ in range(DOMINATORS_PER_TRIAL):
            g = dominating_monotone_surface(rng, envelope, tax)
            assert _lambda_violation(g, tax) is None and (g >= base).all()
            if (out > g).any():
                i, j = np.argwhere(out > g)[0]
                return _instance_payload(tax, base, int(i), {
                    "above_dominator_class": tax.class_names[int(j)],
                    "dominator_row": [float(v) for v in g[int(i)]],
                })
            info["dominators_checked"] = info.get("dominators_checked", 0) + 1

    return _run_trials("bound-chain-tightness", trials, seed, trial)


def check_sandwich(trials: int, seed: int, tol: float = 1e-9) -> CheckResult:
    """Total transformed 0-1 loss <= curriculum objective <= total
    transformed base loss.

    Base surfaces are drawn to dominate their 0-1 surface element-wise;
    the upper bound requires that premise (the lower one holds always).
    """
    spec = curriculum.LossSpec()

    def trial(rng, info):
        tax = random_taxonomy(rng)
        n = int(rng.integers(1, 51))
        e01 = rng.integers(0, 2, size=(n, tax.n_classes)).astype(np.float64)
        base = e01 + rng.uniform(0.0, 2.0, size=e01.shape)
        lh, _ = losses.hier_transform(base, tax)
        eh, _ = losses.hier_transform(e01, tax)
        agg = curriculum.ClassLossAggregate(L=lh.sum(axis=0), e_h_total=float(eh.sum()))
        s = curriculum.select_classes(agg, spec.rule, spec.thresh)
        value = curriculum.curriculum_objective(s, agg)
        lo, hi = agg.e_h_total, float(lh.sum())
        if not (lo - tol <= value <= hi + tol):
            return {
                "hierarchy": list(tax.class_names),
                "zero_one_transformed_total": lo,
                "objective": value,
                "transformed_total": hi,
            }

    return _run_trials("objective-sandwich", trials, seed, trial)


def check_selection_oracle(trials: int, seed: int, tol: float = 1e-9,
                           select=curriculum.select_classes) -> CheckResult:
    """Prefix selection achieves the exhaustive 2^C optimum; a passing check
    also records how often the simpler fixed-threshold rule misses it."""
    spec = curriculum.LossSpec()
    threshold_misses = 0

    def trial(rng, info):
        nonlocal threshold_misses
        c = int(rng.integers(1, 13))
        if rng.random() < 0.3:
            big_l = rng.integers(0, 6, size=c).astype(np.float64)  # tie-prone
        else:
            big_l = rng.uniform(0.0, 5.0, size=c)
        e_total = float(rng.uniform(0.0, 2.0 * c))
        agg = curriculum.ClassLossAggregate(L=big_l, e_h_total=e_total)
        s_fast = select(agg, spec.rule, spec.thresh)
        fast_val = curriculum.curriculum_objective(s_fast, agg)
        _, oracle_val = curriculum.brute_force_select(agg)
        if abs(fast_val - oracle_val) > tol:
            return {
                "L": [float(v) for v in big_l],
                "e_h_total": e_total,
                "fast_value": fast_val,
                "oracle_value": oracle_val,
                "selection": [int(v) for v in s_fast],
            }
        # fixed-threshold rule, with thresh aligned so its condition reads
        # prefixSum(K) > C - K + e_total
        s_thr = curriculum.select_classes(
            agg, rule=curriculum.RULE_FIXED_THRESHOLD, thresh=e_total + c - 1
        )
        thr_val = curriculum.curriculum_objective(s_thr, agg)
        if abs(thr_val - oracle_val) > tol:
            threshold_misses += 1

    res = _run_trials("selection-oracle", trials, seed, trial)
    if res.ok:
        res.info["threshold_rule_disagreement_rate"] = threshold_misses / max(trials, 1)
    return res


def _fd_grad(f, x, step=GRAD_FD_STEP):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return g


def max_rel_err(analytic, fd) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float((np.abs(analytic - fd) / denom).max())


def _tie_free_scores(rng, y, shape, margin=1e-3, attempts=50):
    """Scores whose bce surface has pairwise-distinct per-example entries."""
    for _ in range(attempts):
        s = rng.uniform(0.05, 0.95, size=shape)
        base = losses.bce_loss(y, s)
        ok = True
        for row in base:
            d = np.diff(np.sort(row))
            if len(d) and d.min() < margin:
                ok = False
                break
        if ok:
            return s
    raise RuntimeError("could not draw a tie-free score matrix")


def check_gradients(trials: int, seed: int) -> CheckResult:
    """bce, focal(2) and frozen-selection pipeline gradients (both transform
    scopes) vs central FD."""

    def trial(rng, info):
        tax = random_taxonomy(rng, max_classes=6, max_depth=3)
        n, c = int(rng.integers(2, 5)), tax.n_classes
        y = np.where(rng.random((n, c)) < 0.5, -1.0, 1.0)
        scores = _tie_free_scores(rng, y, (n, c))

        checks = {
            "bce": (lambda s: losses.bce_loss(y, s).sum(), losses.bce_grad(y, scores)),
            "focal": (lambda s: losses.focal_loss(y, s, 2.0).sum(),
                      losses.focal_grad(y, scores, 2.0)),
        }
        # the pipeline under each scope, on this trial's taxonomy and scores
        for key, scope in (("hcl-pipeline", losses.SCOPE_ALL_SHALLOWER),
                           ("hcl-pipeline-ancestors-only", losses.SCOPE_ANCESTORS_ONLY)):
            spec = curriculum.LossSpec(scope=scope)
            _, s_vec = curriculum.hcl_loss(y, scores, tax, spec)

            def pipeline(sc, s_vec=s_vec, scope=scope):
                lh, _ = losses.hier_transform(losses.bce_loss(y, sc), tax, scope)
                return float((s_vec[None, :] * lh).sum())

            # the gradient function that training calls
            checks[key] = (pipeline, curriculum.hcl_grad(y, scores, s_vec, tax, spec))

        for name, (f, analytic) in checks.items():
            err = max_rel_err(analytic, _fd_grad(f, scores))
            info[name] = max(info.get(name, 0.0), err)
            if err >= GRAD_RTOL:
                return {
                    "check": name,
                    "max_rel_err": err,
                    "hierarchy": list(tax.class_names),
                }

    return _run_trials("gradient-fd", trials, seed, trial)


def run_all(trials: int, seed: int) -> list[CheckResult]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    grad_trials = max(1, min(trials, 20))
    return [
        check_lambda(trials, seed),
        check_bound_chain(trials, seed + 1),
        check_sandwich(trials, seed + 2),
        check_selection_oracle(trials, seed + 3),
        check_gradients(grad_trials, seed + 4),
    ]
