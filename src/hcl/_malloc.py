"""A fixed mmap threshold for glibc's malloc, set when hcl is imported.

glibc serves a request of at least its mmap threshold with a fresh mapping
that goes back to the kernel on free, and smaller ones from the heap. The
threshold starts at 128 KiB and, by default, rises to the size of the
largest mapped block freed so far, up to 32 MiB. After the first pass
frees a large block (the 14 MB train-split scores of ``hclbench wide``,
which only the harness's scoring pass makes now that training scores the
split block by block; its 20 MB hidden layer, before passes ran in row
blocks), every later pass takes its blocks of up to that size from the
heap, and how high the heap grows depends on where earlier allocations were
left: the same run came out at a peak RSS of 142 MB or 158 MB, depending on
how the set-ups fell between the passes.

With the threshold fixed at 4 MiB (which also stops it from rising), each
block of that size or more is its own mapping, as numpy's
transparent-hugepage advice for blocks of 4 MiB or more assumes, and the
peak RSS of ``wide`` read 141 MB in every run. That figure was measured
while training still kept the previous epoch's scores and the last batch's
gradients live through each epoch-end pass; without them it reads 115 MB.
A steady peak is the reason the threshold is fixed.

Fixing the mmap threshold also pins glibc's trim threshold at its 128 KiB
default, where by default it would follow the mmap threshold up to twice
its value. Whenever a free leaves more than 128 KiB unused at the top of
the heap, glibc hands it back to the kernel, and the next block placed
there is faulted in again page by page. A block just under 4 MiB that is
freed at the top of the heap, such as the 3.85 MB gradient vector on
``wide`` was, pays that each time it is allocated again, which is why
``mlp.train`` fills one gradient vector per epoch instead of allocating one
per batch.

The fixed threshold does not make hcl faster. It once seemed to: scaled
``wide`` epochs read about 19% faster with it. But the benchmark scales
every time by a reference pass that runs in hcl's process and allocates
3.7 MB temporaries of its own, and the threshold slows that pass too (its
minor faults rose from 10,968 to 24,181 per pass). On a 2-core x86-64 VM
with one BLAS thread (``wide``, two seeds), the reference pass read 95-96
ms without the call and 135-143 ms with it, and unscaled training CPU read
729-743 ms per epoch without it and 841-922 ms with it.

The environment's own setting wins: nothing is changed when
``MALLOC_MMAP_THRESHOLD_`` or a ``glibc.malloc.mmap_threshold`` tunable is
set, and nothing is done on another C library.
"""

from __future__ import annotations

import ctypes
import os


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):  # no such name on this platform
        return False


def fix_mmap_threshold(environ=os.environ) -> bool:
    """Set glibc's mmap threshold to 4 MiB; returns whether it did."""
    if not _glibc():
        return False
    if "MALLOC_MMAP_THRESHOLD_" in environ or "mmap_threshold" in environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(-3, 4 << 20) == 1  # -3 is M_MMAP_THRESHOLD in glibc's malloc.h
