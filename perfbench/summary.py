"""The arithmetic the benchmark's verdicts rest on.

Kept free of I/O and of the simulator so the tests can pin it down:
the segment-time summary behind ``ops_per_s`` and ``setup_s``, the
nearest-rank percentile behind ``sim_op_us_*``, metric-name validity
and the determinism gate.
"""

from __future__ import annotations

import math
import re
import statistics
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    """A metric or workload name: a letter or digit first, then at most
    63 more of ``[A-Za-z0-9_.-]``."""
    return _NAME.fullmatch(name) is not None


def median_pass_s(times_by_segment: Mapping[object, list[float]]) -> float:
    """Seconds of one typical pass over a phase, segment by segment.

    ``times_by_segment`` maps each segment of the phase to its time in
    every repetition of the phase.  Repetitions replay identical work,
    so one segment's readings differ only by the noise they met; its
    median over the repetitions drops the readings a burst of
    interference (or a calibration chunk that met one) pushed either
    way.  Summing per-segment medians, rather than keeping the median
    pass, lets a repetition that was disturbed in one stretch still
    count where it ran clean.
    """
    if not times_by_segment or not all(times_by_segment.values()):
        raise ValueError("every segment needs at least one timing")
    return sum(statistics.median(times)
               for times in times_by_segment.values())


def nearest_rank(histogram: Mapping[float, int], fraction: float) -> float:
    """Nearest-rank percentile of samples given as ``{value: count}``
    (a ``collections.Counter``: latencies repeat, so this stays small
    where a sorted list would not); ``math.inf`` marks a failed op,
    which sorts above any latency limit."""
    values = sorted(histogram)
    ranks = list(accumulate(histogram[value] for value in values))
    if not ranks or not ranks[-1]:
        raise ValueError("no samples")
    rank = max(1, math.ceil(fraction * ranks[-1]))
    return values[bisect_left(ranks, rank)]


class DeterminismError(Exception):
    """A simulated metric or per-layer count changed between two runs of
    identical inputs: the program's behaviour is not a function of them."""


def differences(reference: dict, candidate: dict) -> list[str]:
    """Keys whose values differ (or exist on one side only), rendered."""
    keys = sorted(set(reference) | set(candidate))
    return [f"{key}: {reference.get(key)!r} -> {candidate.get(key)!r}"
            for key in keys if reference.get(key) != candidate.get(key)]


class DeterminismGate:
    """Holds the first fingerprint it sees and rejects any later one
    that differs from it in a single key."""

    def __init__(self, reference: dict | None = None) -> None:
        self.reference = reference

    def check(self, label: str, fingerprint: dict) -> None:
        if self.reference is None:
            self.reference = dict(fingerprint)
            return
        changed = differences(self.reference, fingerprint)
        if changed:
            raise DeterminismError(
                f"{label}: deterministic outputs changed for identical "
                f"inputs: {'; '.join(changed)}")
