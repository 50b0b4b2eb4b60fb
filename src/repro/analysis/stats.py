"""Latency accumulation and summary statistics."""

from __future__ import annotations

from dataclasses import dataclass


def order_statistic(samples: list[int], fraction: float) -> int:
    """The ``int(fraction * n)``-th smallest sample, 0 for no samples.

    Never interpolated, so integer samples give integer percentiles and
    the harness reports stay byte-deterministic.  (The experiments'
    :meth:`LatencyAccumulator.percentile_ps` is nearest-rank instead.)
    """
    return order_statistics(samples, (fraction,))[0]


def order_statistics(samples: list[int],
                     fractions: tuple[float, ...]) -> list[int]:
    """:func:`order_statistic` at each fraction, sorting once."""
    if not samples:
        return [0] * len(fractions)
    ordered = sorted(samples)
    last = len(ordered) - 1
    return [ordered[min(last, int(fraction * len(ordered)))]
            for fraction in fractions]


class LatencyAccumulator:
    """Collects per-op latencies (ps) and answers summary queries."""

    def __init__(self) -> None:
        self._samples: list[int] = []
        self._sorted = True

    def record(self, latency_ps: int) -> None:
        """Add one sample."""
        self._samples.append(latency_ps)
        self._sorted = False

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean_ps(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def mean_us(self) -> float:
        return self.mean_ps / 1e6

    def percentile_ps(self, pct: float) -> int:
        """Nearest-rank percentile."""
        if not self._samples:
            return 0
        self._ensure_sorted()
        if not 0 < pct <= 100:
            raise ValueError(f"percentile must be in (0, 100]: {pct}")
        rank = max(1, round(pct / 100 * len(self._samples)))
        return self._samples[rank - 1]

    def percentile_us(self, pct: float) -> float:
        return self.percentile_ps(pct) / 1e6

    @property
    def min_ps(self) -> int:
        self._ensure_sorted()
        return self._samples[0] if self._samples else 0

    @property
    def max_ps(self) -> int:
        self._ensure_sorted()
        return self._samples[-1] if self._samples else 0


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of one latency population (us)."""

    count: int
    mean_us: float
    p50_us: float
    p99_us: float
    min_us: float
    max_us: float


def summarize(acc: LatencyAccumulator) -> Summary:
    """Freeze an accumulator into a summary record."""
    return Summary(count=acc.count, mean_us=acc.mean_us,
                   p50_us=acc.percentile_us(50),
                   p99_us=acc.percentile_us(99),
                   min_us=acc.min_ps / 1e6, max_us=acc.max_ps / 1e6)
