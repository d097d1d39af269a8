import os
import subprocess
import sys
from pathlib import Path

import pytest

import pacrr
from pacrr.heap import pin_malloc_thresholds

# Three 1-MB blocks live at once, then freed, fifty times over. Under glibc's
# dynamic thresholds the first free sets the trim threshold just above 2 MB,
# so the heap top is trimmed after every round and each round page-faults
# its 3 MB afresh (about 37,000 faults in all).
HEAP_CYCLES = """
import resource
import numpy as np
import pacrr

def cycle():
    a = np.ones(1 << 17)
    b = a * 2.0
    c = a + b
    del a, b, c

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not pin_malloc_thresholds(), reason="needs glibc's mallopt")
def test_pair_sized_blocks_reuse_the_heap():
    env = dict(os.environ, PYTHONPATH=str(Path(pacrr.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", HEAP_CYCLES], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert int(done.stdout) < 100
