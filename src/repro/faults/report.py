"""The schema-pinned ``FAULTS_*.json`` campaign report.

The report is the artifact CI archives and the determinism acceptance
check diffs, so its shape is pinned: :data:`SCHEMA` names the current
revision and :func:`validate_report` checks a parsed report against the
pinned shape.  :func:`repro.report.render_report` serialises it
(byte-identical for identical campaign results — the wall-clock
``generated_at`` is the *only* non-deterministic field).

Count semantics per cell:

``injected``
    fault events that actually happened (consumed corruptions, applied
    DMA shortfalls, fired power cuts, commands observed under a noise
    burst) — not merely armed.
``detected``
    events the stack noticed through a resilience mechanism (CP
    retries/timeouts, partial-transfer continuations, FTL program
    retries, ECC read retries, caught power-loss interrupts).
``recovered`` / ``lost``
    pages: ``lost`` counts shadow-copy pages that could not be read
    back intact after the cell (including post-power-loss replay);
    ``recovered`` is ``injected - lost`` for in-band faults and the
    replayed page count for power-loss cells.
"""

from __future__ import annotations

from typing import Any

from repro.report import (require_exact_keys, require_nonneg_ints,
                          require_object_list, schema_id,
                          validate_schema_report)

SCHEMA = schema_id("faults", 1)

_REPORT_KEYS = frozenset(
    {"schema", "generated_at", "seed", "quick", "cells", "totals"})
_CELL_KEYS = frozenset(
    {"fault", "workload", "cell_seed", "recoverable", "injected",
     "detected", "recovered", "lost", "violations", "ok", "notes"})
_TOTAL_KEYS = frozenset(
    {"cells", "failed_cells", "injected", "detected", "recovered",
     "lost", "violations"})


def _detail(payload: dict, problems: list[str]) -> None:
    for index, cell in enumerate(require_object_list(problems, payload,
                                                     "cells")):
        if not isinstance(cell, dict):
            problems.append(f"cells[{index}] must be an object")
            continue
        if cell.keys() != _CELL_KEYS:
            problems.append(
                f"cells[{index}] keys {sorted(cell.keys())} != "
                f"{sorted(_CELL_KEYS)}")
            continue
        require_nonneg_ints(
            problems, cell,
            ("injected", "detected", "recovered", "lost", "violations",
             "cell_seed"), f"cells[{index}].")
    if require_exact_keys(problems, payload.get("totals"), _TOTAL_KEYS,
                          "totals"):
        require_nonneg_ints(problems, payload["totals"],
                            sorted(_TOTAL_KEYS), "totals.")


def validate_report(payload: Any) -> list[str]:
    """Problems with a parsed report; an empty list means valid."""
    return validate_schema_report("faults", 1, payload, _REPORT_KEYS,
                                  detail=_detail)
