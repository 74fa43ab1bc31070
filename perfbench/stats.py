"""Order statistics used by the benchmark's reports, and the yardstick that
rescales interpreter-bound times to a fixed machine speed."""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from typing import Sequence

TAIL_BEYOND = 10
TAIL_CAP = 99.0  # above this, ten samples from the top is a rare hiccup, not a steady tail

# Interpreter-bound times (process start, import, pure-Python work) follow the
# speed of a shared host, which drifts by up to 1.6x over minutes; numpy
# kernels on large arrays do not.  Such times are reported as they would read
# on a machine whose bare interpreter start takes REF_START_S, measured next to
# them with ``bare_start_seconds``.
REF_START_S = 0.050
REF_WINDOW = 9  # latest bare starts that rescale a round


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND, cap: float = TAIL_CAP) -> tuple[float, float]:
    """The highest percentile, up to ``cap``, that still has ``beyond``
    samples above it.

    Returns (value, percentile): the k-th smallest sample, where k is the
    smaller of n - ``beyond`` and ceil(n * ``cap`` / 100), and k as a
    percentile of the sample count n.  Below 100 * ``beyond`` / (100 - ``cap``)
    samples (1000 by default) the value has exactly ``beyond`` larger samples.
    Needs more than ``beyond`` samples.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    k = min(n - beyond, math.ceil(n * cap / 100.0))
    return sorted(samples)[k - 1], 100.0 * k / n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def end_to_end(latencies: Sequence[float]) -> dict[str, float]:
    """Throughput, median and tail latency of one closed-loop pass."""
    tail_s, tail_pct = tail(latencies)
    return {"runs_per_s": len(latencies) / sum(latencies), "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_s, "tail_percentile": tail_pct, "samples": len(latencies)}


def bare_start_seconds() -> float:
    """Wall time of one bare ``python -I -c pass``.  ``-I`` ignores PYTHONPATH
    and the working directory, so nothing in the tree under test can slow it.
    No timeout: with one, ``subprocess`` polls for the exit in sleeps that
    grow to 50 ms, which would round the time up to those steps."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
    return time.perf_counter() - t0


def rescale(seconds: Sequence[float], ref_starts: Sequence[float]) -> list[float]:
    """``seconds`` as they would read where a bare interpreter start takes
    REF_START_S, given bare starts measured alongside them."""
    factor = REF_START_S / statistics.median(ref_starts)
    return [s * factor for s in seconds]
