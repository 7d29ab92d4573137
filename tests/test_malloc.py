"""Tests for the mmap threshold that importing hcl fixes on glibc.

Each check runs in a fresh interpreter, since the threshold is process
state: it frees a mapped 24 MB block, which by glibc's default raises the
threshold past 12 MB, then reports how many bytes a 12 MB array added to
glibc's mapped total.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcl import _malloc

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import ctypes
import numpy as np
import hcl

class MallInfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = MallInfo2
big = np.ones(3 << 20)  # 24 MB
del big
before = mallinfo2().hblkhd
block = np.ones(3 << 19)  # 12 MB
print(mallinfo2().hblkhd - before)
"""

glibc_only = pytest.mark.skipif(not _malloc._glibc(), reason="glibc malloc only")


def _mapped_bytes(**env) -> int:
    environ = {k: v for k, v in os.environ.items()
               if k not in ("MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    try:
        out = subprocess.run([sys.executable, "-c", PROBE], env=environ,
                             capture_output=True, text=True, check=True)
    except subprocess.CalledProcessError as exc:
        if "mallinfo2" in exc.stderr:
            pytest.skip("this glibc has no mallinfo2")
        raise
    return int(out.stdout)


@glibc_only
def test_import_maps_large_arrays_after_a_larger_free():
    assert _mapped_bytes() >= 3 << 22


@glibc_only
def test_environment_threshold_is_left_alone():
    # 32 MiB from the environment: the 12 MB array comes from the heap
    assert _mapped_bytes(MALLOC_MMAP_THRESHOLD_=str(32 << 20)) == 0


def test_no_call_when_the_environment_sets_it():
    assert not _malloc.fix_mmap_threshold({"MALLOC_MMAP_THRESHOLD_": "131072"})
    assert not _malloc.fix_mmap_threshold({"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=65536"})
