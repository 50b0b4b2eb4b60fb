"""Per-tenant QoS accounting: latency percentiles vs declared SLOs.

The QoS layer is pure bookkeeping — integers in, integers out — so the
report stays byte-deterministic: percentiles are order statistics over
the collected latency samples (never interpolated floats), and ratios
are reported in parts-per-thousand/-million fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import order_statistics
from repro.fleet.tenants import TenantSLO, TenantSpec


@dataclass
class TenantQoS:
    """Everything one tenant experienced across the whole fleet."""

    spec: TenantSpec
    offered: int = 0          #: requests the tenant submitted
    admitted: int = 0         #: past admission control
    rejected: int = 0         #: backpressure: shard queue full
    refused: int = 0          #: degraded/fail-stop module refusals
    completed: int = 0        #: served to completion
    failed_reads: int = 0     #: media errors surfaced to the tenant
    integrity_failures: int = 0
    latencies_ps: list[int] = field(default_factory=list)

    def merge(self, other: "TenantQoS") -> None:
        """Fold one shard's partial accounting into the fleet view."""
        self.offered += other.offered
        self.admitted += other.admitted
        self.rejected += other.rejected
        self.refused += other.refused
        self.completed += other.completed
        self.failed_reads += other.failed_reads
        self.integrity_failures += other.integrity_failures
        self.latencies_ps.extend(other.latencies_ps)

    @property
    def admit_ppm(self) -> int:
        if self.offered == 0:
            return 1_000_000
        served = self.admitted - self.refused
        return round(1_000_000 * served / self.offered)

    def latency_summary(self) -> dict:
        # Fraction 1.0 lands on the last order statistic: the maximum.
        p50, p99, p999, peak = order_statistics(
            self.latencies_ps, (0.50, 0.99, 0.999, 1.0))
        return {
            "samples": len(self.latencies_ps),
            "p50_ps": p50,
            "p99_ps": p99,
            "p999_ps": p999,
            "max_ps": peak,
        }

    def slo_evaluation(self) -> dict:
        """Pass/fail per SLO clause plus the conjunction."""
        slo: TenantSLO = self.spec.slo
        latency = self.latency_summary()
        gates = {
            "p50": latency["p50_ps"] <= slo.p50_ps,
            "p99": latency["p99_ps"] <= slo.p99_ps,
            "p999": latency["p999_ps"] <= slo.p999_ps,
            "admit": self.admit_ppm >= slo.min_admit_ppm,
        }
        gates["ok"] = all(gates.values())
        return gates

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "mix": self.spec.mix,
            "weight": self.spec.weight,
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "refused": self.refused,
            "completed": self.completed,
            "failed_reads": self.failed_reads,
            "integrity_failures": self.integrity_failures,
            "admit_ppm": self.admit_ppm,
            "latency": self.latency_summary(),
            "slo": self.spec.to_dict()["slo"],
            "slo_pass": self.slo_evaluation(),
        }
