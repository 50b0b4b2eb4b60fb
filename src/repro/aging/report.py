"""The schema-pinned ``AGING_*.json`` endurance-campaign report.

Mirrors :mod:`repro.health.report`: :data:`SCHEMA` names the pinned
revision and :func:`validate_report` checks a parsed report against the
pinned shape; :func:`repro.report.render_report` serialises it.

The report carries the whole fleet's life stories — per-shard epoch
logs and ladder transitions, per-strategy survival curves, wear-spread
and WAF aggregates, time-to-read_only percentiles — plus the analytic
cross-check against the paper's §VII-A lifetime projection, so every
acceptance gate is checkable from the artifact alone.
"""

from __future__ import annotations

from typing import Any

from repro.report import (require_bool, require_exact_keys,
                          require_nonneg_ints, require_object_list,
                          schema_id, validate_schema_report)

SCHEMA = schema_id("aging", 1)

_REPORT_KEYS = frozenset(
    {"schema", "generated_at", "seed", "quick", "config", "strategies",
     "ladder_histogram", "analytic", "totals", "gates", "ok"})
_CONFIG_KEYS = frozenset(
    {"shards", "strategies", "max_epochs", "footprint_pages",
     "epoch_steps", "years_per_epoch_x1000", "wear_accel",
     "bad_block_budget", "static_level_period", "gc_headroom",
     "scrub_windows"})
_STRATEGY_KEYS = frozenset(
    {"strategy", "mean_wear_spread_x1000", "mean_waf_x1000",
     "survival_curve", "time_to_read_only", "shards"})
_TTRO_KEYS = frozenset(
    {"reached", "censored", "p50_epochs", "p90_epochs"})
_SHARD_KEYS = frozenset(
    {"strategy", "shard", "wear_accel", "epochs_run", "read_only_epoch",
     "end_state", "waf_x1000", "wear_spread_x1000", "data_loss",
     "grown_bad_blocks", "scrub_relocations", "retired_free_blocks",
     "epoch_log", "ladder"})
_EPOCH_KEYS = frozenset(
    {"epoch", "writes", "reads", "refused_writes", "media_errors",
     "data_loss", "retired_free_blocks", "relocations",
     "grown_bad_blocks", "bad_blocks", "free_blocks", "max_erase",
     "mean_erase_x1000", "wear_spread_x1000", "health"})
_TRANSITION_KEYS = frozenset(
    {"time_ps", "from", "to", "reason", "component"})
_ANALYTIC_KEYS = frozenset(
    {"paper_waf_x1000", "paper_lifetime_years_x1000",
     "measured_waf_x1000", "projected_lifetime_years_x1000"})
_TOTAL_KEYS = frozenset(
    {"shards", "epochs", "writes", "reads", "refused_writes",
     "media_errors", "data_loss", "grown_bad_blocks",
     "scrub_relocations", "retired_free_blocks", "violations"})
_GATE_KEYS = frozenset(
    {"zero_loss", "sanitizers_quiet", "graceful_order",
     "leveling_beats_greedy"})

_SHARD_COUNTERS = (
    "shard", "wear_accel", "epochs_run", "read_only_epoch", "waf_x1000",
    "wear_spread_x1000", "data_loss", "grown_bad_blocks",
    "scrub_relocations", "retired_free_blocks")
_EPOCH_COUNTERS = (
    "epoch", "writes", "reads", "refused_writes", "media_errors",
    "data_loss", "retired_free_blocks", "relocations",
    "grown_bad_blocks", "bad_blocks", "free_blocks", "max_erase",
    "mean_erase_x1000", "wear_spread_x1000")


def _check_shard(shard: dict, where: str, problems: list[str]) -> None:
    if shard.keys() != _SHARD_KEYS:
        problems.append(
            f"{where} keys {sorted(shard.keys())} != {sorted(_SHARD_KEYS)}")
        return
    require_nonneg_ints(problems, shard, _SHARD_COUNTERS, f"{where}.")
    for index, entry in enumerate(require_object_list(
            problems, shard, "epoch_log")):
        if not isinstance(entry, dict) or entry.keys() != _EPOCH_KEYS:
            problems.append(
                f"{where}.epoch_log[{index}] keys must be "
                f"{sorted(_EPOCH_KEYS)}")
            continue
        require_nonneg_ints(problems, entry, _EPOCH_COUNTERS,
                            f"{where}.epoch_log[{index}].")
    for index, entry in enumerate(require_object_list(
            problems, shard, "ladder")):
        if not isinstance(entry, dict) or entry.keys() != _TRANSITION_KEYS:
            problems.append(
                f"{where}.ladder[{index}] keys must be "
                f"{sorted(_TRANSITION_KEYS)}")


def _check_strategy(entry: dict, index: int, problems: list[str]) -> None:
    where = f"strategies[{index}]"
    if entry.keys() != _STRATEGY_KEYS:
        problems.append(
            f"{where} keys {sorted(entry.keys())} != "
            f"{sorted(_STRATEGY_KEYS)}")
        return
    require_nonneg_ints(problems, entry,
                        ("mean_wear_spread_x1000", "mean_waf_x1000"),
                        f"{where}.")
    curve = entry.get("survival_curve")
    if (not isinstance(curve, list)
            or any(not isinstance(n, int) or isinstance(n, bool) or n < 0
                   for n in curve)):
        problems.append(
            f"{where}.survival_curve must be a list of non-negative ints")
    if require_exact_keys(problems, entry.get("time_to_read_only"),
                          _TTRO_KEYS, f"{where}.time_to_read_only"):
        require_nonneg_ints(problems, entry["time_to_read_only"],
                            sorted(_TTRO_KEYS),
                            f"{where}.time_to_read_only.")
    shards = require_object_list(problems, entry, "shards",
                                 non_empty=True)
    for shard_index, shard in enumerate(shards):
        if not isinstance(shard, dict):
            problems.append(
                f"{where}.shards[{shard_index}] must be an object")
            continue
        _check_shard(shard, f"{where}.shards[{shard_index}]", problems)


def _detail(payload: dict, problems: list[str]) -> None:
    if require_exact_keys(problems, payload.get("config"), _CONFIG_KEYS,
                          "config"):
        require_nonneg_ints(
            problems, payload["config"],
            sorted(_CONFIG_KEYS - {"strategies"}), "config.")
        names = payload["config"].get("strategies")
        if (not isinstance(names, list) or not names
                or any(not isinstance(n, str) for n in names)):
            problems.append("config.strategies must be a list of names")
    for index, entry in enumerate(require_object_list(
            problems, payload, "strategies", non_empty=True)):
        if not isinstance(entry, dict):
            problems.append(f"strategies[{index}] must be an object")
            continue
        _check_strategy(entry, index, problems)
    histogram = payload.get("ladder_histogram")
    if not isinstance(histogram, dict):
        problems.append("ladder_histogram must be an object")
    else:
        require_nonneg_ints(problems, histogram, sorted(histogram),
                            "ladder_histogram.")
    if require_exact_keys(problems, payload.get("analytic"),
                          _ANALYTIC_KEYS, "analytic"):
        require_nonneg_ints(problems, payload["analytic"],
                            sorted(_ANALYTIC_KEYS), "analytic.")
    if require_exact_keys(problems, payload.get("totals"), _TOTAL_KEYS,
                          "totals"):
        require_nonneg_ints(problems, payload["totals"],
                            sorted(_TOTAL_KEYS), "totals.")
    gates = payload.get("gates")
    if not isinstance(gates, dict) or gates.keys() != _GATE_KEYS:
        problems.append(f"gates keys must be {sorted(_GATE_KEYS)}")
    else:
        for key in sorted(_GATE_KEYS):
            if not isinstance(gates[key], bool):
                problems.append(f"gates[{key!r}] must be a bool")
    require_bool(problems, payload, "ok")


def validate_report(payload: Any) -> list[str]:
    """Problems with a parsed report; an empty list means valid."""
    return validate_schema_report("aging", 1, payload, _REPORT_KEYS,
                                  detail=_detail)
