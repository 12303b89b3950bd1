"""Host-speed calibration: a fixed kernel, timed.

The benchmark's host is a shared VM whose speed drifts by a fifth within
seconds and by more than twice over tens of minutes, for any CPU-bound
code alike.  Each run therefore times this kernel next to the work it
measures — in the same processes, between load segments — and reports
its times *at the reference speed*: a measured time multiplied by
``reference_ms / kernel_ms``, where ``reference_ms`` (``settings.json``)
is what the kernel takes on the reference host.  The raw times are
printed beside them.

The kernel has two parts, summed: the interpreter work the program does
per request (string formatting, dict building, a JSON round trip, a
sort, float arithmetic) and random reads over a 4 MiB array, which
slow down with the cache and memory traffic of other tenants the way
the program's larger working set does.  Its arrays add about 5 MiB to
a process's resident set, the same on every run.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_DATA = _rng.random(1 << 19)
_INDEX = _rng.integers(0, 1 << 19, size=1 << 18).astype(np.int32)


def kernel() -> float:
    table = {}
    for i in range(2000):
        table["k%d" % i] = (i * 1.618) % 97.0
    values = sorted(json.loads(json.dumps(table)).values())
    total = 0.0
    for value in values:
        total += value * value
    return total + float(_DATA[_INDEX].sum())


def kernel_ms(repeats: int) -> float:
    """Median wall time of ``repeats`` kernel runs, in ms."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)
