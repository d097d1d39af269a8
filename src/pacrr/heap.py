"""The allocator policy that importing pacrr sets for the process.

A pair's arrays (conv outputs and im2col patches) are 0.1-1.6 MB at the
paper shape and grow with the query's length. glibc serves blocks above
its mmap threshold from fresh, page-faulting mmaps, raises that threshold
to the largest such block freed, and trims the heap top past twice it. Left to those dynamic thresholds, how
many of a pair's arrays page-fault, and how often the heap shrinks and
regrows between pairs, depends on the longest query scored so far. Pinned,
blocks up to HEAP_BLOCK_MAX come from the heap, which keeps up to twice
that free at its top.
"""

from __future__ import annotations

import ctypes
import sys

HEAP_BLOCK_MAX = 2 << 20
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds; False where that is not possible."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return (mallopt(_M_MMAP_THRESHOLD, HEAP_BLOCK_MAX) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2 * HEAP_BLOCK_MAX) == 1)
