"""Workloads, measurement loop and correctness gates of the hcl benchmark.

Every workload is closed-loop and single-process: one call into hcl at a
time, the next only after the previous returns. Inputs come from
``data.synth_generate`` seeded by the benchmark's seed; the same seed is
used as data, split and training seed, so a seed fixes every output.

A run sets up, then repeats the workload's operation until its time
window (wall time) is spent. Set-up is timed in samples of a few set-ups
back to back, taken at even intervals through the window; ``setup_s`` is
the median sample's time per set-up. Every duration is process CPU time
(``CLOCK``): hcl runs on one thread, and run.py pins BLAS to one thread, so
this is the wall time less the time the host lets other guests run. Each
timed step is then scaled by the reference passes run around it (see
``reference.Gauge``), so that the host's changing speed cancels out. The
operation is:

* training workloads: ``mlp.train`` for a few epochs from scratch, then
  one scoring pass, the same work as ``hcl train``;
* ``score``: one scoring pass over a checkpoint trained in set-up and
  read back from disk, the same work as ``hcl eval`` on each split.

Each operation passes its gates or counts as failed: finite losses, a
test hit@1 floor, and an epoch log and evaluation that are byte-identical
to the first repeat's.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hcl import data, losses, metrics, mlp

import spans
from reference import Gauge

FEATURE_DIM = 16

CLOCK = time.process_time  # for durations; see the module docstring


@dataclass(frozen=True)
class Workload:
    name: str
    levels: int
    branching: int
    examples_per_leaf: int
    label_noise: float
    scope: str
    epochs: int  # per timed training repeat; for score, of the set-up checkpoint
    setups: int  # set-up samples per run; setup_s is their median
    setup_batch: int  # set-ups timed back to back in one sample
    hit1_floor: float  # minimum test hit@1 a correct operation reaches
    scores_only: bool = False  # time scoring passes instead of training


# Floors sit well under the lowest test hit@1 seen over seeds 1-20 (desk
# 0.90, wide and score 0.64, wide-anc 0.79), so only a numeric defect, not
# an unlucky seed, trips them.
WORKLOADS = {
    w.name: w
    for w in (
        # C=12: dense layers and per-batch Python overhead dominate
        Workload("desk", 3, 3, 150, 0.05, losses.SCOPE_ALL_SHALLOWER,
                 epochs=10, setups=9, setup_batch=10, hit1_floor=0.8),
        # C=584: Adam on the wide output layer, vectorised transform
        Workload("wide", 4, 8, 10, 0.0, losses.SCOPE_ALL_SHALLOWER,
                 epochs=2, setups=11, setup_batch=3, hit1_floor=0.45),
        # as wide, but the transform runs its per-class Python loop
        Workload("wide-anc", 4, 8, 10, 0.0, losses.SCOPE_ANCESTORS_ONLY,
                 epochs=2, setups=11, setup_batch=3, hit1_floor=0.6),
        # wide's data and model, eval only: forward plus metrics.evaluate
        Workload("score", 4, 8, 10, 0.0, losses.SCOPE_ALL_SHALLOWER,
                 epochs=2, setups=5, setup_batch=1, hit1_floor=0.45, scores_only=True),
    )
}

END_TO_END_UNITS = {
    "epoch_ms": "ms",
    "score_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_hit1": "%",
}

PER_LAYER_UNITS = {
    "mlp.train.self_ms": "ms",
    "mlp.forward.self_ms": "ms",
    "mlp.forward.calls": "count",
    "mlp.backward.self_ms": "ms",
    "mlp.gflop_per_s": "GFLOP/s",
    "losses.hier_transform.all-shallower.self_ms": "ms",
    "losses.hier_transform.all-shallower.calls": "count",
    "losses.hier_transform.ancestors-only.self_ms": "ms",
    "losses.hier_transform.ancestors-only.calls": "count",
    "losses.hier_transform_backward.self_ms": "ms",
    "losses.bce.self_ms": "ms",
    "losses.routed_frac": "frac",
    "curriculum.hcl_loss.total_ms": "ms",
    "curriculum.hcl_loss.self_ms": "ms",
    "curriculum.select_classes.self_ms": "ms",
    "curriculum.selected_frac": "frac",
    "curriculum.unused_backward_ms": "ms",
    "metrics.evaluate.self_ms": "ms",
    "metrics.evaluate.calls": "count",
    "taxonomy.lca.calls": "count",
    "data.synth_generate.ms": "ms",
    "data.split.ms": "ms",
    "data.normalize.ms": "ms",
    "mlp.save_checkpoint.ms": "ms",
    "mlp.load_checkpoint.ms": "ms",
    "trace.overhead_frac": "frac",
}

SETUP_SPANS = {
    "data.synth_generate.ms": "data.synth_generate",
    "data.split.ms": "data.split",
    "data.normalize.ms": "data.normalize",
    "mlp.save_checkpoint.ms": "mlp.save_checkpoint",
    "mlp.load_checkpoint.ms": "mlp.load_checkpoint",
}


def train_config(w: Workload, seed: int) -> mlp.TrainConfig:
    return mlp.TrainConfig(
        hidden_width=800,
        dropout_rate=0.25,
        epochs=w.epochs,
        batch_size=64,
        seed=seed,
        optimizer="adam",
        loss_mode="hcl",
        transform_scope=w.scope,
    )


def log_bytes(log) -> bytes:
    """The epoch log serialised exactly as ``hcl train`` writes metrics.jsonl."""
    return "".join(json.dumps(e.jsonl_dict(), sort_keys=True) + "\n" for e in log).encode()


def eval_bytes(reports: dict) -> bytes:
    """Full-precision evaluation of every split, for byte comparison."""
    return json.dumps(
        {name: [r.hit_at_1, r.mrr, r.hier_dist, r.n_examples] for name, r in reports.items()},
        sort_keys=True,
    ).encode()


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def score_pass(params, d: data.Dataset) -> dict:
    """One eval-mode forward and one ``metrics.evaluate`` per split."""
    out = {}
    for name in data.SPLIT_NAMES:
        idx = d.indices(name)
        scores, _ = mlp.forward(params, d.features[idx])
        out[name] = metrics.evaluate(d.labels[idx], scores, d.taxonomy)
    return out


@dataclass
class Setup:
    dataset: data.Dataset
    seconds: float
    fingerprint: str  # digest of the inputs and, on score, the checkpoint
    params: mlp.MlpParams | None = None
    log: bytes = b""  # epoch log of the set-up checkpoint
    train_seconds: float = 0.0


def set_up(w: Workload, seed: int, workdir: Path) -> Setup:
    """Synthesise, split and normalise; on score also train and round-trip a checkpoint."""
    clock = CLOCK
    start = clock()
    d = data.synth_generate(data.SynthConfig(
        levels=w.levels,
        branching=w.branching,
        examples_per_leaf=w.examples_per_leaf,
        feature_dim=FEATURE_DIM,
        label_noise=w.label_noise,
        seed=seed,
    ))
    d = data.split(d, seed=seed)
    d, _ = data.normalize(d)
    params, log, train_seconds = None, b"", 0.0
    if w.scores_only:
        t0 = clock()
        trained, epochs = mlp.train(d, d.taxonomy, train_config(w, seed))
        train_seconds = clock() - t0
        path = workdir / "checkpoint.bin"
        mlp.save_checkpoint(path, trained)
        params = mlp.load_checkpoint(path)
        log = log_bytes(epochs)
    seconds = clock() - start

    h = hashlib.sha256()
    for a in (d.features, d.labels, d.split_tags):
        h.update(np.ascontiguousarray(a).tobytes())
    if params is not None:
        h.update((workdir / "checkpoint.bin").read_bytes())
    return Setup(d, seconds, h.hexdigest(), params, log, train_seconds)


@dataclass
class Outcome:
    """One timed operation: a training repeat or a scoring pass."""

    ok: bool
    train_seconds: float = 0.0
    score_seconds: float = 0.0
    log: bytes = b""
    evaluation: bytes = b""
    reports: dict | None = None
    selected_frac: float = 0.0
    tracer: spans.Tracer | None = None
    scale: float = 1.0  # the gauge's factor for the traced call


def _call(tracer, fn):
    """``fn()``, inside the tracer's wrappers when there is one."""
    if tracer is None:
        return fn()
    with tracer.installed():
        return fn()


def run_operation(w: Workload, s: Setup, seed: int, traced: bool, gauge=lambda: 1.0) -> Outcome:
    """Time one operation; when ``traced``, wrap the timed hcl call in spans.

    ``gauge()`` is called after each timed call and returns the factor its
    time is scaled by.
    """
    clock = CLOCK
    tracer = spans.Tracer() if traced else None
    out = Outcome(ok=True, tracer=tracer)
    params = s.params
    if not w.scores_only:
        try:
            t0 = clock()
            # a lambda, so mlp.train is looked up after the wrappers are in
            params, log = _call(tracer, lambda: mlp.train(
                s.dataset, s.dataset.taxonomy, train_config(w, seed)))
            out.train_seconds = clock() - t0
            out.scale = gauge()
            out.train_seconds *= out.scale
        except mlp.TrainingDiverged:
            out.ok = False
            return out
        out.log = log_bytes(log)
        out.ok = all(np.isfinite(e.loss) for e in log)
        # the selection in force during each epoch: all classes in epoch 1,
        # then the one chosen at the end of the previous epoch
        in_force = [1.0] + [float(e.selected.mean()) for e in log[:-1]]
        out.selected_frac = sum(in_force) / len(in_force)
    t0 = clock()
    reports = _call(tracer if w.scores_only else None, lambda: score_pass(params, s.dataset))
    out.score_seconds = clock() - t0
    score_scale = gauge()
    out.score_seconds *= score_scale
    if w.scores_only:
        out.scale = score_scale
    out.reports = reports
    out.evaluation = eval_bytes(reports)
    test = reports["test"]
    out.ok = out.ok and np.isfinite(test.hier_dist) and test.hit_at_1 >= w.hit1_floor
    return out


def quartiles(values) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples above it (when there are eleven or more)."""
    values = sorted(values)
    n = len(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if n > 1 else values * 3
    out = {"median": med, "q1": q1, "q3": q3, "n": n}
    if n >= 11:
        out["tail"] = {"pct": round(100.0 * (n - 10) / n, 1), "value": values[n - 11]}
    return out


@dataclass
class SetupSample:
    """``setup_batch`` set-ups timed back to back, as one sample."""

    seconds: float  # mean per set-up, scaled
    train_seconds: float  # mean per set-up, scaled, of the checkpoint training on score
    setups: list  # the Setups; the later ones with their data dropped
    tracer: spans.Tracer | None = None
    scale: float = 1.0  # the gauge's factor for the batch


def layer_metrics(tracer: spans.Tracer, per: int, scale: float) -> dict:
    """Per-layer figures of one traced operation, divided by ``per``
    (epochs of a training repeat, or 1 for a scoring pass); times are
    multiplied by the gauge's ``scale``, as the end-to-end ones are."""
    agg = tracer.summary()

    def ms(field, *names):
        return sum(agg[n][field] for n in names if n in agg) * 1000.0 * scale / per

    def calls(name):
        return agg[name]["calls"] / per if name in agg else 0.0

    dense_ms = ms("self", "mlp.forward", "mlp.backward")
    out = {
        "mlp.train.self_ms": ms("self", "mlp.train"),
        "mlp.forward.self_ms": ms("self", "mlp.forward"),
        "mlp.forward.calls": calls("mlp.forward"),
        "mlp.backward.self_ms": ms("self", "mlp.backward"),
        "mlp.gflop_per_s": tracer.flops / per / dense_ms / 1e6 if dense_ms else 0.0,
        "losses.hier_transform_backward.self_ms": ms("self", "losses.hier_transform_backward"),
        "losses.bce.self_ms": ms("self", "losses.bce_loss", "losses.bce_grad"),
        "losses.routed_frac": tracer.routed / tracer.routed_of if tracer.routed_of else 0.0,
        "curriculum.hcl_loss.total_ms": ms("total", "curriculum.hcl_loss"),
        "curriculum.hcl_loss.self_ms": ms("self", "curriculum.hcl_loss"),
        "curriculum.select_classes.self_ms": ms("self", "curriculum.select_classes"),
        "curriculum.unused_backward_ms": 1000.0 * scale * tracer.time_under(
            "losses.hier_transform_backward", "curriculum.hcl_loss") / per,
        "metrics.evaluate.self_ms": ms("self", "metrics.evaluate"),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "taxonomy.lca.calls": tracer.counts["taxonomy.Taxonomy.lca"] / per,
    }
    for scope in losses.SCOPES:
        name = f"losses.hier_transform.{scope}"
        out[f"{name}.self_ms"] = ms("self", name)
        out[f"{name}.calls"] = calls(name)
    return out


def machine_facts() -> dict:
    """Facts that decide how far timings carry: cores, versions, BLAS threads."""
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_version": "unknown",
        "blas_threads": _openblas_threads(),
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS") if k in os.environ},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = blas.get("name", "unknown")
        facts["blas_version"] = blas.get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        pass
    return facts


def _openblas_threads():
    """Thread count of the OpenBLAS bundled with numpy's wheel, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run one workload; returns ``(result, report)``.

    ``result`` is the benchmark's final line: correct, attempted, failed and
    the end-to-end metrics (or, with ``trace``, the per-layer metrics).
    ``report`` adds quartiles, digests, quality figures and machine facts.
    """
    clock = time.perf_counter
    attempted = failed = 0

    samples: list[SetupSample] = []
    outcomes: list[Outcome] = []
    with tempfile.TemporaryDirectory(dir=workdir, prefix=".hclbench-") as tmp:

        def sample_setups():
            tracer = spans.Tracer() if trace else None
            batch = [_call(tracer, lambda: set_up(w, seed, Path(tmp)))
                     for _ in range(w.setup_batch)]
            scale = gauge()
            for s in batch[0 if samples else 1:]:
                s.dataset = s.params = None  # only the first set-up's data is used
            samples.append(SetupSample(
                scale * statistics.fmean(s.seconds for s in batch),
                scale * statistics.fmean(s.train_seconds for s in batch),
                batch,
                tracer,
                scale,
            ))

        start = last = clock()
        gauge = Gauge()
        sample_setups()
        first = samples[0].setups[0]
        # The window is wall time from the first set-up sample on. The other
        # samples are spread over it, so that setup_s samples the machine's
        # varying speed as the operations do. With trace, untraced and traced
        # operations alternate, so the overhead is measured under the same
        # conditions. The loop stops before a step that would end more than
        # half a step past the window, so a run lasts about ``seconds``.
        while True:
            traced = trace and len(outcomes) % 2 == 1
            outcomes.append(run_operation(w, first, seed, traced, gauge))
            if len(samples) < w.setups and clock() - start >= len(samples) * seconds / w.setups:
                sample_setups()
            now = clock()
            step, last = now - last, now
            if len(outcomes) >= 2 and now - start + step / 2 >= seconds:
                break
        while len(samples) < w.setups:
            sample_setups()

    for s in (s for sample in samples for s in sample.setups):
        attempted += 1
        if s.fingerprint != first.fingerprint or s.log != first.log:
            failed += 1
    reference = outcomes[0]
    for o in outcomes:
        attempted += 1
        if not (o.ok and o.log == reference.log and o.evaluation == reference.evaluation):
            failed += 1

    plain = [o for o in outcomes if o.tracer is None]
    traced_ops = [o for o in outcomes if o.tracer is not None]
    # on score, training happens only in set-up
    trained = samples if w.scores_only else plain
    timings = {
        "epoch_ms": quartiles(1000.0 * t.train_seconds / w.epochs for t in trained),
        "score_ms": quartiles(1000.0 * o.score_seconds for o in plain),
        "setup_s": quartiles(s.seconds for s in samples),
        "reference_ms": quartiles(1000.0 * t for t in gauge.passes),
    }
    reports = reference.reports or {}
    test = reports.get("test")
    values = {name: timings[name]["median"] for name in ("epoch_ms", "score_ms", "setup_s")}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["test_hit1"] = 100.0 * test.hit_at_1 if test else 0.0  # first operation diverged

    if trace:
        metric_values = _per_layer(w, samples, traced_ops, plain)
        units = PER_LAYER_UNITS
    else:
        metric_values = values
        units = END_TO_END_UNITS
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metric_values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    report = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "failed_frac": failed / attempted,
        "timings": timings,
        "test_hit1": values["test_hit1"],
        "test_hierdist": test.hier_dist if test else None,
        "log_sha256": sha256(first.log if w.scores_only else reference.log),
        "eval_sha256": sha256(reference.evaluation),
        "selected_frac": reference.selected_frac if not w.scores_only else None,
        "machine": machine_facts(),
    }
    return result, report


def _per_layer(w: Workload, samples, traced_ops, plain) -> dict:
    per = 1 if w.scores_only else w.epochs
    rows = [layer_metrics(o.tracer, per, o.scale) for o in traced_ops]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["curriculum.selected_frac"] = (
        0.0 if w.scores_only else statistics.median(o.selected_frac for o in traced_ops)
    )
    for metric, span in SETUP_SPANS.items():
        out[metric] = statistics.median(
            1000.0 * s.scale * s.tracer.summary().get(span, {"total": 0.0})["total"]
            / w.setup_batch
            for s in samples
        )
    field = "score_seconds" if w.scores_only else "train_seconds"
    untraced = statistics.median(getattr(o, field) for o in plain)
    out["trace.overhead_frac"] = (
        statistics.median(getattr(o, field) for o in traced_ops) / untraced - 1.0
    )
    return out


def breakdown(values: dict, per_label: str) -> str:
    """Human-readable table of per-layer metrics: self times largest first,
    then other times, then rates, counts and ratios."""
    order = {"ms": 1, "GFLOP/s": 2, "count": 3, "frac": 4}

    def key(name):
        group = 0 if name.endswith("self_ms") else order[PER_LAYER_UNITS[name]]
        return group, -values[name]

    lines = [f"  {'metric':46s} {'value':>12s}  unit ({per_label})"]
    for name in sorted(values, key=key):
        lines.append(f"  {name:46s} {values[name]:12.4f}  {PER_LAYER_UNITS[name]}")
    return "\n".join(lines)
