"""The schema-pinned ``FLEET_*.json`` fleet serving report.

Mirrors the faults/soak/recovery reports: :data:`SCHEMA` pins the
shape, :func:`fleet_payload` builds the body that
:func:`repro.report.render_report` serialises, and
:func:`validate_report` checks a parsed report against the pinned shape
via the shared :func:`repro.report.validate_schema_report` skeleton.

The report is the fleet's acceptance artifact: per-tenant QoS tables
(order-statistic p50/p99/p999 vs declared SLOs, admit ratio), per-shard
serving and queue telemetry, and the aggregated fleet health view — a
ladder-rung histogram over every shard's final
:class:`~repro.health.monitor.HealthMonitor` state plus degraded /
read-only / fail-stop shard counts — so the SLO gate and the fleet
health gate can both be checked from the artifact alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.health.monitor import HealthState
from repro.report import (require_bool, require_exact_keys,
                          require_nonneg_ints, require_object_list,
                          schema_id, validate_schema_report)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.fleet.frontend import FleetResult

SCHEMA = schema_id("fleet", 1)

_REPORT_KEYS = frozenset(
    {"schema", "generated_at", "config", "service_est_ps", "tenants",
     "shards", "health", "totals", "ok"})
_CONFIG_KEYS = frozenset(
    {"shards", "placement", "quick", "requests", "seed", "queue_bound",
     "wear_shards", "weights"})
_TENANT_KEYS = frozenset(
    {"name", "mix", "weight", "offered", "admitted", "rejected",
     "refused", "completed", "failed_reads", "integrity_failures",
     "admit_ppm", "latency", "slo", "slo_pass"})
_LATENCY_KEYS = frozenset(
    {"samples", "p50_ps", "p99_ps", "p999_ps", "max_ps"})
_SLO_KEYS = frozenset({"p50_ps", "p99_ps", "p999_ps", "min_admit_ppm"})
_SLO_PASS_KEYS = frozenset({"p50", "p99", "p999", "admit", "ok"})
_SHARD_KEYS = frozenset(
    {"shard", "requests", "admitted", "rejected", "refused",
     "completed", "queue_peak", "busy_ps", "span_ps",
     "utilization_x1000", "data_loss", "sweep_pages", "sweep_refused",
     "violations", "health"})
_SHARD_HEALTH_KEYS = frozenset(
    {"state", "worst", "counters", "transitions"})
_HEALTH_KEYS = frozenset(
    {"histogram", "degraded_shards", "read_only_shards",
     "fail_stop_shards"})
_TOTAL_KEYS = frozenset(
    {"requests", "admitted", "rejected", "refused", "completed",
     "failed_reads", "integrity_failures", "data_loss", "sweep_pages",
     "violations"})
_STATE_LABELS = frozenset(state.label for state in HealthState)


def fleet_payload(result: "FleetResult") -> dict:
    """The report body (everything except ``generated_at``)."""
    tenants = [qos.to_dict() for qos in result.tenants]
    shards = [shard.to_dict() for shard in result.shards]
    histogram = result.health_histogram
    return {
        "schema": SCHEMA,
        "config": result.config.to_dict(),
        "service_est_ps": result.service_est_ps,
        "tenants": tenants,
        "shards": shards,
        "health": {
            "histogram": {state: histogram.get(state, 0)
                          for state in sorted(_STATE_LABELS)},
            "degraded_shards": sum(
                1 for shard in result.shards
                if shard.health.get("state") not in ("ok", None)),
            "read_only_shards": sum(
                1 for shard in result.shards
                if shard.health.get("state") == "read_only"),
            "fail_stop_shards": sum(
                1 for shard in result.shards
                if shard.health.get("state") == "fail_stop"),
        },
        "totals": {
            "requests": sum(qos["offered"] for qos in tenants),
            "admitted": sum(qos["admitted"] for qos in tenants),
            "rejected": sum(qos["rejected"] for qos in tenants),
            "refused": sum(qos["refused"] for qos in tenants),
            "completed": sum(qos["completed"] for qos in tenants),
            "failed_reads": sum(qos["failed_reads"] for qos in tenants),
            "integrity_failures": sum(
                qos["integrity_failures"] for qos in tenants),
            "data_loss": result.data_loss,
            "sweep_pages": sum(
                shard["sweep_pages"] for shard in shards),
            "violations": result.violations,
        },
        "ok": result.ok,
    }


def _detail(payload: dict, problems: list[str]) -> None:
    if isinstance(payload.get("config"), dict) or "config" in payload:
        require_exact_keys(problems, payload.get("config"),
                           _CONFIG_KEYS, "config")
    for index, entry in enumerate(require_object_list(
            problems, payload, "tenants", non_empty=True)):
        where = f"tenants[{index}]"
        if not require_exact_keys(problems, entry, _TENANT_KEYS, where):
            continue
        require_nonneg_ints(
            problems, entry,
            ("offered", "admitted", "rejected", "refused", "completed",
             "failed_reads", "integrity_failures", "admit_ppm"),
            f"{where}.")
        if require_exact_keys(problems, entry.get("latency"),
                              _LATENCY_KEYS, f"{where}.latency"):
            require_nonneg_ints(problems, entry["latency"],
                                _LATENCY_KEYS, f"{where}.latency.")
        require_exact_keys(problems, entry.get("slo"), _SLO_KEYS,
                           f"{where}.slo")
        if require_exact_keys(problems, entry.get("slo_pass"),
                              _SLO_PASS_KEYS, f"{where}.slo_pass"):
            for gate in sorted(_SLO_PASS_KEYS):
                if not isinstance(entry["slo_pass"].get(gate), bool):
                    problems.append(
                        f"{where}.slo_pass.{gate} must be a bool")
    for index, entry in enumerate(require_object_list(
            problems, payload, "shards", non_empty=True)):
        where = f"shards[{index}]"
        if not require_exact_keys(problems, entry, _SHARD_KEYS, where):
            continue
        require_nonneg_ints(
            problems, entry,
            ("requests", "admitted", "rejected", "refused", "completed",
             "queue_peak", "busy_ps", "span_ps", "utilization_x1000",
             "data_loss", "sweep_pages", "sweep_refused", "violations"),
            f"{where}.")
        health = entry.get("health")
        if require_exact_keys(problems, health, _SHARD_HEALTH_KEYS,
                              f"{where}.health"):
            for field in ("state", "worst"):
                if health[field] not in _STATE_LABELS:
                    problems.append(
                        f"{where}.health.{field} must be one of "
                        f"{sorted(_STATE_LABELS)}")
    health = payload.get("health")
    if require_exact_keys(problems, health, _HEALTH_KEYS, "health"):
        require_nonneg_ints(
            problems, health,
            ("degraded_shards", "read_only_shards", "fail_stop_shards"),
            "health.")
        histogram = health.get("histogram")
        if require_exact_keys(problems, histogram, _STATE_LABELS,
                              "health.histogram"):
            require_nonneg_ints(problems, histogram,
                                sorted(_STATE_LABELS),
                                "health.histogram.")
    if require_exact_keys(problems, payload.get("totals"), _TOTAL_KEYS,
                          "totals"):
        require_nonneg_ints(problems, payload["totals"],
                            sorted(_TOTAL_KEYS), "totals.")
    require_bool(problems, payload, "ok")


def validate_report(payload) -> list[str]:
    """Problems with a parsed fleet report; empty list means valid."""
    return validate_schema_report("fleet", 1, payload, _REPORT_KEYS,
                                  detail=_detail)
