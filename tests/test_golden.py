"""Golden digests: a small fixture trained in every loss mode under both
transform scopes writes the bytes whose sha256 digests are committed in
``golden_digests.json``.

A run's bits depend on the numpy version, the OpenBLAS kernels numpy loads
and the SIMD loops numpy dispatches to, so the digests are keyed by all
three; on a key with no entry the test skips with one line that names the
key. A change that alters the bits on purpose records the new digests in the
same diff, one run per key, each with its variable set only for that run:

    PYTHONPATH=src python tests/test_golden.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_golden.py
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from hcl import cli, curriculum, losses

DIGESTS = Path(__file__).with_name("golden_digests.json")
FIXTURE = [
    "--set", "levels=3", "--set", "branching=2", "--set", "examples_per_leaf=12",
    "--set", "feature_dim=6", "--set", "hidden_width=16", "--epochs", "3",
]
OUTPUTS = ("metrics.jsonl", "checkpoint.bin")


def digest_key() -> str:
    """numpy's version, the OpenBLAS core and numpy's enabled dispatch targets."""
    enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return f"numpy {np.__version__}, openblas {cli.openblas_core()}, dispatch {' '.join(enabled)}"


def train_digests(root: Path) -> dict:
    """sha256 of each output of every loss mode under each scope, keyed
    ``mode/scope/file``."""
    digests = {}
    for mode in curriculum.LOSS_MODES:
        for scope in losses.SCOPES:
            out = root / f"{mode}-{scope}"
            argv = ["train", *FIXTURE, "--loss", mode, "--set", f"scope={scope}", "--out", str(out)]
            assert cli.main(argv) == 0
            for name in OUTPUTS:
                digests[f"{mode}/{scope}/{name}"] = hashlib.sha256(
                    (out / name).read_bytes()).hexdigest()
    return digests


def test_training_writes_the_golden_bytes(tmp_path):
    key = digest_key()
    golden = json.loads(DIGESTS.read_text(encoding="utf-8")).get(key)
    if golden is None:
        pytest.skip(f"no golden digests for key {key!r}")
    assert train_digests(tmp_path) == golden


if __name__ == "__main__":
    # record (or replace) the digests of this process's key
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        table[digest_key()] = train_digests(Path(root))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {digest_key()!r} in {DIGESTS.name}")
