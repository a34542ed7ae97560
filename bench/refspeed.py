"""Host speed, measured beside the ops, to put timings on one fixed scale.

The benchmark runs in a virtual machine on a shared host, which slows it in
two ways, each up to twofold and for seconds to minutes at a time.  The
host takes the virtual CPU away (steal time): wall time grows, but the
thread's CPU time does not, so ops are timed in CPU time, which equals wall
time on an unshared machine since no op waits on I/O, a lock or another
thread.  And the CPU runs slower while it runs, which CPU time does not
hide: a fixed reference kernel, which uses no nlvtest code, is timed in CPU
time before every op, and an op's time is scaled by ``REFERENCE_MS`` over
the median kernel time around it.  Set-up time is scaled likewise by the
time to import numpy (see setup_seconds in run.py).  A slow spell
stretches the kernel and the op alike, so the scaled time stays put, while a
change to nlvtest moves the op alone.

The kernel mixes what nlvtest's ops do: a pure-Python float loop, string
formatting and small numpy array operations.  It calls no libm function:
after some ops (``predict`` among them) ``math.sin`` ran four times slower
for a while on the host the benchmark was written on, while plain float
arithmetic did not, and a kernel that such state slows would scale the
next op wrongly.
"""

from __future__ import annotations

import math
import statistics
import time

# Kernel time, in ms, that defines the reference speed: about what the
# kernel took on the 2-core host the benchmark was written on.
REFERENCE_MS = 3.0
# Time, in s, that a fresh interpreter takes to import numpy at the
# reference speed: about what it took on that host.  Set-up is mostly
# imports, whose speed the kernel does not track: on that host the kernel
# ran at times twice as fast in one fresh interpreter as in the next, while
# the import it followed took as long.  So set-up time is scaled by the
# time to import numpy, timed in fresh interpreters of its own.
NUMPY_IMPORT_REFERENCE_S = 0.1
# Scale factors use the median of this many kernel timings on each side of
# an op, so that a kernel run cut by the scheduler does not skew one op.
HALF_WINDOW = 5

_matrix = None


def kernel_seconds() -> float:
    """CPU time of one run of the reference kernel."""
    global _matrix
    import numpy

    if _matrix is None:
        _matrix = numpy.linspace(-1.0, 1.0, 16).reshape(4, 4)
    start = time.process_time()
    total, slots = 0.0, {}
    for i in range(5_000):
        x = i * 1e-3
        total += x * (1.0 - x * x * (1.0 / 6.0 - x * x / 120.0))
        slots[i & 63] = total
    text = ",".join(f"{i * 0.37:.4f}" for i in range(1_500))
    for _ in range(150):
        total += float((_matrix @ _matrix + _matrix).sum())
    if not math.isfinite(total) or not text:
        raise ArithmeticError("reference kernel went wrong")
    return time.process_time() - start


def scales(kernel_s: list[float], half: int = HALF_WINDOW) -> list[float]:
    """Per op, ``REFERENCE_MS`` over the median kernel time in the window of
    ``half`` timings either side of the op's own."""
    out = []
    for i in range(len(kernel_s)):
        window = kernel_s[max(0, i - half):i + half + 1]
        out.append(REFERENCE_MS / (statistics.median(window) * 1e3))
    return out
