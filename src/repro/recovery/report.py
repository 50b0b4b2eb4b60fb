"""The schema-pinned ``RECOVERY_*.json`` crash-exploration report.

Same contract as the faults and soak reports: :data:`SCHEMA` names the
revision and :func:`validate_report` checks a parsed report against the
pinned shape; :func:`repro.report.render_report` serialises it.

Shape notes:

``events``
    the explorable space: total hook-site visits of the fault-free
    baseline, split into the workload's and the §V-C drain's share.
``cut_points``
    every event index actually explored (full mode: all of them;
    ``--quick``: stride samples plus bisected boundaries).
``windows``
    consecutive cut points folded while their outcome signature is
    unchanged — the compressed behaviour map of the event space.
``totals.committed_lost`` / ``totals.torn_served``
    the two always-illegal outcomes; a clean sweep reports zero for
    both (``acked_uncommitted`` is legal only under an interrupted
    drain, and ``failed_runs`` counts cut points where any invariant
    broke).
"""

from __future__ import annotations

from typing import Any

from repro.report import (require_bool, require_exact_keys,
                          require_nonneg_ints, require_object_list,
                          schema_id, validate_schema_report)

SCHEMA = schema_id("recovery", 1)

_REPORT_KEYS = frozenset(
    {"schema", "generated_at", "seed", "quick", "events", "cut_points",
     "windows", "sites", "totals", "ok"})
_EVENT_KEYS = frozenset({"total", "workload", "drain"})
_WINDOW_KEYS = frozenset(
    {"start", "end", "runs", "committed_lost", "torn_served",
     "acked_uncommitted", "drain_interrupted", "remount_writable",
     "violations"})
_TOTAL_KEYS = frozenset(
    {"cut_points", "drain_cuts", "committed_lost", "torn_served",
     "acked_uncommitted", "torn_quarantined", "sanitizer_violations",
     "replay_recovered", "replay_lost", "failed_runs"})


def _detail(payload: dict, problems: list[str]) -> None:
    if require_exact_keys(problems, payload.get("events"), _EVENT_KEYS,
                          "events"):
        require_nonneg_ints(problems, payload["events"],
                            sorted(_EVENT_KEYS), "events.")
    cut_points = payload.get("cut_points")
    if not isinstance(cut_points, list) or any(
            not isinstance(p, int) or p < 1 for p in cut_points):
        problems.append("cut_points must be a list of positive ints")
    elif cut_points != sorted(set(cut_points)):
        problems.append("cut_points must be sorted and distinct")
    for index, window in enumerate(require_object_list(problems, payload,
                                                       "windows")):
        if not isinstance(window, dict):
            problems.append(f"windows[{index}] must be an object")
            continue
        if window.keys() != _WINDOW_KEYS:
            problems.append(
                f"windows[{index}] keys {sorted(window.keys())} != "
                f"{sorted(_WINDOW_KEYS)}")
            continue
        require_nonneg_ints(
            problems, window,
            ("start", "end", "runs", "committed_lost", "torn_served",
             "acked_uncommitted", "violations"), f"windows[{index}].")
    sites = payload.get("sites")
    if not isinstance(sites, dict) or any(
            not isinstance(count, int) or count < 0
            for count in sites.values()):
        problems.append("sites must map site -> non-negative int")
    if require_exact_keys(problems, payload.get("totals"), _TOTAL_KEYS,
                          "totals"):
        require_nonneg_ints(problems, payload["totals"],
                            sorted(_TOTAL_KEYS), "totals.")
    require_bool(problems, payload, "ok")


def validate_report(payload: Any) -> list[str]:
    """Problems with a parsed report; an empty list means valid."""
    return validate_schema_report("recovery", 1, payload, _REPORT_KEYS,
                                  detail=_detail)
