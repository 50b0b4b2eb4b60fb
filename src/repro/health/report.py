"""The schema-pinned ``SOAK_*.json`` long-run soak report.

Mirrors :mod:`repro.faults.report`: :data:`SCHEMA` names the pinned
revision and :func:`validate_report` checks a parsed report against the
pinned shape; :func:`repro.report.render_report` serialises it.

The report carries the full health-state timeline (every ladder
transition with its cause) plus per-edge coverage counts, so the
acceptance gate — every ladder edge exercised, zero data loss, bounded
p99 degradation — can be checked from the artifact alone.
"""

from __future__ import annotations

from typing import Any

from repro.health.monitor import LADDER_EDGES
from repro.report import (require_bool, require_exact_keys,
                          require_nonneg_ints, require_object_list,
                          schema_id, validate_schema_report)

SCHEMA = schema_id("soak", 1)

_REPORT_KEYS = frozenset(
    {"schema", "generated_at", "seed", "quick", "rounds",
     "health_timeline", "edges", "latency", "scrub", "counters",
     "totals", "ok"})
_ROUND_KEYS = frozenset(
    {"name", "faults", "writes", "reads", "refused_writes",
     "media_errors", "data_loss", "health_before", "health_after",
     "notes"})
_TRANSITION_KEYS = frozenset(
    {"time_ps", "from", "to", "reason", "component"})
_LATENCY_KEYS = frozenset(
    {"samples", "clean_p50_ps", "clean_p99_ps", "soak_p50_ps",
     "soak_p99_ps", "p99_ratio_x1000", "p99_bound_x1000"})
_TOTAL_KEYS = frozenset(
    {"rounds", "writes", "reads", "refused_writes", "media_errors",
     "data_loss", "violations"})
_EDGE_KEYS = frozenset(f"{a}->{b}" for a, b in LADDER_EDGES)


def _detail(payload: dict, problems: list[str]) -> None:
    for index, entry in enumerate(require_object_list(
            problems, payload, "rounds", non_empty=True)):
        if not isinstance(entry, dict):
            problems.append(f"rounds[{index}] must be an object")
            continue
        if entry.keys() != _ROUND_KEYS:
            problems.append(
                f"rounds[{index}] keys {sorted(entry.keys())} != "
                f"{sorted(_ROUND_KEYS)}")
            continue
        require_nonneg_ints(
            problems, entry,
            ("writes", "reads", "refused_writes", "media_errors",
             "data_loss"), f"rounds[{index}].")
    for index, entry in enumerate(require_object_list(
            problems, payload, "health_timeline")):
        if not isinstance(entry, dict) or entry.keys() != _TRANSITION_KEYS:
            problems.append(
                f"health_timeline[{index}] keys must be "
                f"{sorted(_TRANSITION_KEYS)}")
    edges = payload.get("edges")
    if not isinstance(edges, dict) or edges.keys() != _EDGE_KEYS:
        problems.append(f"edges keys must be {sorted(_EDGE_KEYS)}")
    else:
        for key in sorted(_EDGE_KEYS):
            if not isinstance(edges[key], int) or edges[key] < 0:
                problems.append(
                    f"edges[{key!r}] must be a non-negative int")
    if require_exact_keys(problems, payload.get("latency"), _LATENCY_KEYS,
                          "latency"):
        require_nonneg_ints(problems, payload["latency"],
                            sorted(_LATENCY_KEYS), "latency.")
    if not isinstance(payload.get("scrub"), dict):
        problems.append("scrub must be an object")
    if not isinstance(payload.get("counters"), dict):
        problems.append("counters must be an object")
    if require_exact_keys(problems, payload.get("totals"), _TOTAL_KEYS,
                          "totals"):
        require_nonneg_ints(problems, payload["totals"],
                            sorted(_TOTAL_KEYS), "totals.")
    require_bool(problems, payload, "ok")


def validate_report(payload: Any) -> list[str]:
    """Problems with a parsed report; an empty list means valid."""
    return validate_schema_report("soak", 1, payload, _REPORT_KEYS,
                                  detail=_detail)
