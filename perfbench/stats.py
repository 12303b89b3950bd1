"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in percent)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count - math.ceil(p / 100.0 * count) >= 10:
            return p
    return 50.0


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and tail of a latency sample (ms), with the tail's percentile.

    ``inf`` entries stand for failed requests: they miss every limit and
    sort into the tail.
    """
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail": percentile(values, p),
        "tail_pct": p,
        "beyond": len(values) - math.ceil(p / 100.0 * len(values)),
    }


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def peak_rss_mb(pid: str = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")
