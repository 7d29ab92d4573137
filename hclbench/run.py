"""Run one hcl benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 hclbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

hcl is imported from ``src/`` of the checkout this file sits in, never
from an installed copy, with BLAS pinned to one thread. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). The lines before it give every metric with its unit,
quartiles and sample count, ``failed_frac``, the epoch-log digest and the
machine's facts. The exit code is 0 only when every operation passed its
correctness gates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_hcl():
    """Import hcl from this checkout's src/; exit 2 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import hcl
    except ImportError as exc:
        sys.exit(f"hclbench: cannot import hcl from {SRC}: {exc}")
    if SRC.resolve() not in Path(hcl.__file__).resolve().parents:
        sys.exit(f"hclbench: hcl was imported from {hcl.__file__}, not from {SRC}")


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    import_hcl()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    w = harness.WORKLOADS[args.workload]
    result, report = harness.run_workload(w, args.seed, args.seconds, bool(args.trace), ROOT)

    print(f"hclbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    if args.trace:
        per = "per pass" if w.scores_only else "per epoch"
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(harness.breakdown(values, per))
    else:
        for name, m in result["metrics"].items():
            t = report["timings"].get(name)
            spread = f"  q1 {t['q1']:.4g} q3 {t['q3']:.4g} n={t['n']}" if t else ""
            print(f"  {name:12s} {m['value']:12.4f} {m['unit']}{spread}")
    ref = report["timings"]["reference_ms"]
    print(f"  reference pass {ref['median']:.4g} ms q1 {ref['q1']:.4g} q3 {ref['q3']:.4g} "
          f"n={ref['n']} (CPU time; timings above are scaled by it)")
    print(f"  failed_frac  {report['failed_frac']:.4f} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  test_hierdist {report['test_hierdist']}  log_sha256 {report['log_sha256']}")
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
