"""The schema-pinned ``CHAOS_*.json`` chaos-campaign report.

Same contract as the fleet/faults/soak reports: :data:`SCHEMA` pins the
shape, :func:`chaos_payload` builds the body that
:func:`repro.report.render_report` serialises, and
:func:`validate_report` checks a parsed report via the shared
:func:`repro.report.validate_schema_report` skeleton.

The report is the campaign's acceptance artifact, organised so every
gate can be audited from the JSON alone:

* ``plan`` — the pre-execution fault plan (kill shard, hedge target,
  per-shard event schedules, hedged write count);
* ``routing`` — the deterministic pass-2 plan derived from pass-1
  outcomes (impaired shards, donors, evacuation page counts, failover
  assignment);
* ``tenants`` — per-tenant availability under chaos: primary serving,
  failover serving, hedge rescues, and the ``success_ppm`` vs the
  chaos SLO (declared ``min_admit_ppm`` minus the chaos allowance);
* ``shards`` — the fleet/1 per-shard telemetry plus the chaos columns
  (role, retries, power cuts, remount audits, evacuation in/out);
* ``gates`` — the four clauses of the chaos gate, separately, so a
  red ``ok`` names its cause.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.health.monitor import HealthState
from repro.report import (require_bool, require_exact_keys,
                          require_nonneg_ints, require_object_list,
                          schema_id, validate_schema_report)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.fleet.chaos import ChaosResult

SCHEMA = schema_id("fleet.chaos", 1)

_REPORT_KEYS = frozenset(
    {"schema", "generated_at", "config", "service_est_ps", "plan",
     "routing", "tenants", "shards", "totals", "gates", "ok"})
_CONFIG_KEYS = frozenset(
    {"shards", "placement", "quick", "requests", "seed", "queue_bound",
     "weights", "bad_block_budget", "slo_allowance_ppm"})
_PLAN_KEYS = frozenset(
    {"kill_shard", "hedge_target", "hedged_writes", "events"})
_EVENT_KEYS = frozenset({"at_request", "kind", "magnitude"})
_ROUTING_KEYS = frozenset(
    {"impaired", "survivors", "skipped_hedged", "evacuations",
     "failover_assigned"})
_EVACUATION_KEYS = frozenset(
    {"source", "donor", "pages_committed", "pages_excluded_hedged",
     "pages_copied"})
_TENANT_KEYS = frozenset(
    {"name", "mix", "offered", "admitted", "rejected", "refused",
     "completed", "failed_reads", "integrity_failures", "latency",
     "failover", "hedge", "rescued", "success_ppm", "chaos_slo_ppm",
     "ok"})
_FAILOVER_KEYS = frozenset(
    {"assigned", "completed", "refused", "failed_reads",
     "integrity_failures", "latency"})
_HEDGE_KEYS = frozenset({"planned", "completed"})
_LATENCY_KEYS = frozenset(
    {"samples", "p50_ps", "p99_ps", "p999_ps", "max_ps"})
_SHARD_KEYS = frozenset(
    {"shard", "role", "final_pass", "requests", "admitted", "rejected",
     "refused", "completed", "queue_peak", "busy_ps", "span_ps",
     "utilization_x1000", "data_loss", "sweep_pages", "sweep_refused",
     "violations", "health", "retries", "retry_successes",
     "power_cuts", "remounts", "evac_out_pages", "evac_in_pages",
     "evac_in_failures", "hedge_attempted", "hedge_refused",
     "failover_served"})
_SHARD_HEALTH_KEYS = frozenset(
    {"state", "worst", "counters", "transitions"})
_REMOUNT_KEYS = frozenset(
    {"at_ps", "health_state", "bad_blocks", "replay_recovered",
     "replay_lost", "replay_crc_mismatches"})
_TOTAL_KEYS = frozenset(
    {"requests", "rejected", "refused", "completed_primary",
     "completed_failover", "rescued", "failed_reads", "data_loss",
     "sweep_pages", "violations", "retries", "power_cuts",
     "evacuated_pages"})
_GATE_KEYS = frozenset(
    {"zero_data_loss", "quiet_sanitizers",
     "shard_killed_and_evacuated", "tenants_within_slo"})
_STATE_LABELS = frozenset(state.label for state in HealthState)
_ROLES = frozenset({"kill", "hedge-target", "survivor"})
_EVENT_KINDS = frozenset({"program-fail", "ecc-burst", "power-cut"})


def _shard_role(shard: int, result: "ChaosResult") -> str:
    if shard == result.roles.kill_shard:
        return "kill"
    if shard == result.roles.hedge_target:
        return "hedge-target"
    return "survivor"


def chaos_payload(result: "ChaosResult") -> dict:
    """The report body (everything except ``generated_at``)."""
    tenants = []
    for view in result.tenants:
        primary, failover = view.primary, view.failover
        tenants.append({
            "name": view.spec.name,
            "mix": view.spec.mix,
            "offered": primary.offered,
            "admitted": primary.admitted,
            "rejected": primary.rejected,
            "refused": primary.refused,
            "completed": primary.completed,
            "failed_reads": primary.failed_reads,
            "integrity_failures": primary.integrity_failures,
            "latency": primary.latency_summary(),
            "failover": {
                "assigned": failover.offered,
                "completed": failover.completed,
                "refused": failover.refused,
                "failed_reads": failover.failed_reads,
                "integrity_failures": failover.integrity_failures,
                "latency": failover.latency_summary(),
            },
            "hedge": {"planned": view.hedge_planned,
                      "completed": view.hedge_completed},
            "rescued": view.rescued,
            "success_ppm": view.success_ppm,
            "chaos_slo_ppm": view.chaos_slo_ppm,
            "ok": view.ok,
        })
    shards = []
    for outcome in result.outcomes:
        entry = outcome.result.to_dict()
        entry.update({
            "role": _shard_role(outcome.result.shard, result),
            "final_pass": (2 if outcome.result.shard
                           in result.pass2_shards else 1),
            "retries": outcome.retries,
            "retry_successes": outcome.retry_successes,
            "power_cuts": outcome.power_cuts,
            "remounts": list(outcome.remounts),
            "evac_out_pages": len(outcome.evac_pages),
            "evac_in_pages": outcome.evac_in_pages,
            "evac_in_failures": outcome.evac_in_failures,
            "hedge_attempted": outcome.hedge_attempted,
            "hedge_refused": outcome.hedge_refused,
            "failover_served": outcome.failover_served,
        })
        shards.append(entry)
    routing = result.routing
    return {
        "schema": SCHEMA,
        "config": result.config.to_dict(),
        "service_est_ps": result.service_est_ps,
        "plan": {
            "kill_shard": result.roles.kill_shard,
            "hedge_target": result.roles.hedge_target,
            "hedged_writes": result.hedged_writes,
            "events": {
                str(shard): [event.to_dict() for event in events]
                for shard, events in sorted(result.events.items())},
        },
        "routing": {
            "impaired": list(routing.impaired),
            "survivors": list(routing.survivors),
            "skipped_hedged": routing.skipped_hedged,
            "evacuations": [{
                "source": evac.source,
                "donor": evac.donor,
                "pages_committed": evac.pages_committed,
                "pages_excluded_hedged": evac.pages_excluded_hedged,
                "pages_copied": len(evac.pages),
            } for evac in routing.evacuations],
            "failover_assigned": {
                str(donor): len(reqs)
                for donor, reqs in sorted(routing.failover.items())},
        },
        "tenants": tenants,
        "shards": shards,
        "totals": {
            "requests": sum(entry["offered"] for entry in tenants),
            "rejected": sum(entry["rejected"] for entry in tenants),
            "refused": sum(entry["refused"] for entry in tenants),
            "completed_primary": sum(entry["completed"]
                                     for entry in tenants),
            "completed_failover": sum(entry["failover"]["completed"]
                                      for entry in tenants),
            "rescued": sum(entry["rescued"] for entry in tenants),
            "failed_reads": sum(entry["failed_reads"]
                                for entry in tenants),
            "data_loss": result.data_loss,
            "sweep_pages": sum(entry["sweep_pages"]
                               for entry in shards),
            "violations": result.violations,
            "retries": sum(entry["retries"] for entry in shards),
            "power_cuts": sum(entry["power_cuts"] for entry in shards),
            "evacuated_pages": sum(entry["evac_in_pages"]
                                   for entry in shards),
        },
        "gates": {
            "zero_data_loss": result.data_loss == 0,
            "quiet_sanitizers": result.violations == 0,
            "shard_killed_and_evacuated": result.demonstrated,
            "tenants_within_slo": all(view.ok
                                      for view in result.tenants),
        },
        "ok": result.ok,
    }


def _check_latency(problems: list[str], owner: dict,
                   where: str) -> None:
    if require_exact_keys(problems, owner.get("latency"), _LATENCY_KEYS,
                          f"{where}.latency"):
        require_nonneg_ints(problems, owner["latency"], _LATENCY_KEYS,
                            f"{where}.latency.")


def _detail(payload: dict, problems: list[str]) -> None:
    require_exact_keys(problems, payload.get("config"), _CONFIG_KEYS,
                       "config")
    plan = payload.get("plan")
    if require_exact_keys(problems, plan, _PLAN_KEYS, "plan"):
        require_nonneg_ints(problems, plan,
                            ("kill_shard", "hedge_target",
                             "hedged_writes"), "plan.")
        events = plan.get("events")
        if not isinstance(events, dict):
            problems.append("plan.events must be an object")
        else:
            for shard, schedule in sorted(events.items()):
                if not isinstance(schedule, list):
                    problems.append(
                        f"plan.events[{shard}] must be a list")
                    continue
                for index, event in enumerate(schedule):
                    where = f"plan.events[{shard}][{index}]"
                    if not require_exact_keys(problems, event,
                                              _EVENT_KEYS, where):
                        continue
                    require_nonneg_ints(problems, event,
                                        ("at_request", "magnitude"),
                                        f"{where}.")
                    if event["kind"] not in _EVENT_KINDS:
                        problems.append(
                            f"{where}.kind must be one of "
                            f"{sorted(_EVENT_KINDS)}")
    routing = payload.get("routing")
    if require_exact_keys(problems, routing, _ROUTING_KEYS, "routing"):
        require_nonneg_ints(problems, routing, ("skipped_hedged",),
                            "routing.")
        for field in ("impaired", "survivors"):
            if not isinstance(routing.get(field), list):
                problems.append(f"routing.{field} must be a list")
        for index, evac in enumerate(require_object_list(
                problems, routing, "evacuations")):
            where = f"routing.evacuations[{index}]"
            if require_exact_keys(problems, evac, _EVACUATION_KEYS,
                                  where):
                require_nonneg_ints(problems, evac,
                                    sorted(_EVACUATION_KEYS),
                                    f"{where}.")
        if not isinstance(routing.get("failover_assigned"), dict):
            problems.append("routing.failover_assigned must be an "
                            "object")
    for index, entry in enumerate(require_object_list(
            problems, payload, "tenants", non_empty=True)):
        where = f"tenants[{index}]"
        if not require_exact_keys(problems, entry, _TENANT_KEYS, where):
            continue
        require_nonneg_ints(
            problems, entry,
            ("offered", "admitted", "rejected", "refused", "completed",
             "failed_reads", "integrity_failures", "rescued",
             "success_ppm", "chaos_slo_ppm"), f"{where}.")
        _check_latency(problems, entry, where)
        failover = entry.get("failover")
        if require_exact_keys(problems, failover, _FAILOVER_KEYS,
                              f"{where}.failover"):
            require_nonneg_ints(
                problems, failover,
                ("assigned", "completed", "refused", "failed_reads",
                 "integrity_failures"), f"{where}.failover.")
            _check_latency(problems, failover, f"{where}.failover")
        if require_exact_keys(problems, entry.get("hedge"), _HEDGE_KEYS,
                              f"{where}.hedge"):
            require_nonneg_ints(problems, entry["hedge"],
                                sorted(_HEDGE_KEYS), f"{where}.hedge.")
        if not isinstance(entry.get("ok"), bool):
            problems.append(f"{where}.ok must be a bool")
    for index, entry in enumerate(require_object_list(
            problems, payload, "shards", non_empty=True)):
        where = f"shards[{index}]"
        if not require_exact_keys(problems, entry, _SHARD_KEYS, where):
            continue
        require_nonneg_ints(
            problems, entry,
            ("requests", "admitted", "rejected", "refused", "completed",
             "queue_peak", "busy_ps", "span_ps", "utilization_x1000",
             "data_loss", "sweep_pages", "sweep_refused", "violations",
             "retries", "retry_successes", "power_cuts",
             "evac_out_pages", "evac_in_pages", "evac_in_failures",
             "hedge_attempted", "hedge_refused", "failover_served"),
            f"{where}.")
        if entry["role"] not in _ROLES:
            problems.append(
                f"{where}.role must be one of {sorted(_ROLES)}")
        if entry["final_pass"] not in (1, 2):
            problems.append(f"{where}.final_pass must be 1 or 2")
        health = entry.get("health")
        if require_exact_keys(problems, health, _SHARD_HEALTH_KEYS,
                              f"{where}.health"):
            for field in ("state", "worst"):
                if health[field] not in _STATE_LABELS:
                    problems.append(
                        f"{where}.health.{field} must be one of "
                        f"{sorted(_STATE_LABELS)}")
        for rindex, remount in enumerate(require_object_list(
                problems, entry, "remounts")):
            rwhere = f"{where}.remounts[{rindex}]"
            if require_exact_keys(problems, remount, _REMOUNT_KEYS,
                                  rwhere):
                require_nonneg_ints(
                    problems, remount,
                    ("at_ps", "bad_blocks", "replay_recovered",
                     "replay_lost", "replay_crc_mismatches"),
                    f"{rwhere}.")
                if remount["health_state"] not in _STATE_LABELS:
                    problems.append(
                        f"{rwhere}.health_state must be one of "
                        f"{sorted(_STATE_LABELS)}")
    if require_exact_keys(problems, payload.get("totals"), _TOTAL_KEYS,
                          "totals"):
        require_nonneg_ints(problems, payload["totals"],
                            sorted(_TOTAL_KEYS), "totals.")
    gates = payload.get("gates")
    if require_exact_keys(problems, gates, _GATE_KEYS, "gates"):
        for gate in sorted(_GATE_KEYS):
            if not isinstance(gates.get(gate), bool):
                problems.append(f"gates.{gate} must be a bool")
    require_bool(problems, payload, "ok")


def validate_report(payload) -> list[str]:
    """Problems with a parsed chaos report; empty list means valid."""
    return validate_schema_report("fleet.chaos", 1, payload,
                                  _REPORT_KEYS, detail=_detail)
