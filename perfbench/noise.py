"""Noise diagnostics, recorded with every run but never used as metrics.

They tell a noisy host from a slow tree: steal time says the hypervisor
took the CPU away, slow calibration chunks (``hostclock``) say the CPU
itself ran slow, and a wide spread of host segment times says the run
met interference.
"""

from __future__ import annotations

import statistics


def steal_jiffies() -> int | None:
    """Cumulative steal time of all CPUs from ``/proc/stat`` (None where
    the file or the field is missing)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def quartiles(values: list[float]) -> dict[str, float]:
    """Minimum, quartiles and maximum of ``values``."""
    if len(values) < 2:
        return {"n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1,
            "median": median, "q3": q3, "max": max(values)}


def segment_slowdown(times_by_segment: dict[object, list[float]]
                     ) -> dict[str, float]:
    """How much slower than its own fastest repetition each segment ran
    in host time: ``quartiles`` of ``time / fastest time`` over every
    segment timing of the run (1.0 = no interference seen)."""
    return quartiles([t / min(times) for times in times_by_segment.values()
                      for t in times])
