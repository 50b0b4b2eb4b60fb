"""Shared skeleton of the schema-pinned campaign harnesses.

Every campaign-style subsystem writes one artifact CI archives and the
determinism gates diff byte-for-byte — ``FAULTS_*.json``
(``repro.faults/1``), ``SOAK_*.json`` (``repro.soak/1``),
``RECOVERY_*.json`` (``repro.recovery/1``), ``FLEET_*.json``
(``repro.fleet/1``), ``CHAOS_*.json`` (``repro.fleet.chaos/1``) and
``AGING_*.json`` (``repro.aging/1``) — and the static-analysis report
(``repro.check.static/1``) follows the same shape rules.
They all share the same outer contract:

* the payload is a JSON object whose ``schema`` field pins the shape,
* the top-level key set is closed (missing *and* unknown keys are
  schema problems, so shape drift cannot land silently),
* counters are non-negative integers.

:func:`validate_schema_report` implements that skeleton once; each
subsystem keeps a thin ``validate_report`` wrapper that passes its key
set plus a ``detail`` callback for the subsystem-specific interior
(cell shapes, ladder edges, window partitions, ...).  The ``require_*``
helpers are the vocabulary those callbacks are written in.

The harness CLIs share one run-to-exit path, the 0/1/2 runbook:
:func:`write_report` renders (:func:`render_report`), validates and
writes ``<PREFIX>_<timestamp>.json`` and answers 2 on a schema problem
(a tooling bug, not a gate failure); :func:`gate` prints the result's
``failures()`` to stderr and answers 1, or prints the harness's clean
line and answers 0.  :func:`add_harness_flags` registers the
``--quick/--seed/--out`` flags they all take.

``python -m repro.report A B`` validates two reports of one harness
(:func:`check_report`) and exits 0 only when they are byte-identical
once ``generated_at`` is cleared — the CI rerun-determinism check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable

Problems = list[str]

#: Harness report file prefix -> module pinning its ``SCHEMA`` and
#: providing its ``validate_report``.
HARNESS_REPORTS = {
    "FAULTS": "repro.faults.report",
    "SOAK": "repro.health.report",
    "RECOVERY": "repro.recovery.report",
    "FLEET": "repro.fleet.report",
    "CHAOS": "repro.fleet.chaos_report",
    "AGING": "repro.aging.report",
}


def schema_id(kind: str, version: int) -> str:
    """The pinned schema string, e.g. ``repro.fleet/1``."""
    return f"repro.{kind}/{version}"


def validate_schema_report(
        kind: str, version: int, payload: Any,
        keys: frozenset[str] | set[str],
        optional: frozenset[str] | set[str] = frozenset(),
        detail: Callable[[dict, Problems], None] | None = None) -> Problems:
    """Problems with a parsed report; an empty list means valid.

    Checks the shared skeleton — object-ness, the pinned ``schema``
    string, the closed top-level key set (``optional`` keys may be
    absent but nothing outside ``keys | optional`` may appear) — then
    hands the payload to ``detail`` for subsystem-specific checks.
    """
    problems: Problems = []
    if not isinstance(payload, dict):
        return [f"report must be an object, got {type(payload).__name__}"]
    expected = schema_id(kind, version)
    if payload.get("schema") != expected:
        problems.append(
            f"schema must be {expected!r}: {payload.get('schema')!r}")
    missing = set(keys) - payload.keys()
    if missing:
        problems.append(f"missing report keys: {sorted(missing)}")
    extra = payload.keys() - set(keys) - set(optional)
    if extra:
        problems.append(f"unknown report keys: {sorted(extra)}")
    if detail is not None:
        detail(payload, problems)
    return problems


def require_exact_keys(problems: Problems, obj: Any,
                       keys: frozenset[str] | set[str],
                       where: str) -> bool:
    """``obj`` must be a dict with exactly ``keys``; False on failure."""
    if not isinstance(obj, dict) or obj.keys() != set(keys):
        problems.append(f"{where} keys must be {sorted(keys)}")
        return False
    return True


def require_nonneg_ints(problems: Problems, obj: dict,
                        keys: Iterable[str], where: str) -> None:
    """Each ``obj[key]`` must be a non-negative int (bools excluded)."""
    for key in keys:
        value = obj.get(key)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            problems.append(f"{where}{key} must be a non-negative int")


def require_object_list(problems: Problems, payload: dict, key: str,
                        non_empty: bool = False) -> list:
    """``payload[key]`` must be a list (of anything); returns it or []."""
    value = payload.get(key)
    if not isinstance(value, list) or (non_empty and not value):
        kind = "non-empty list" if non_empty else "list"
        problems.append(f"{key} must be a {kind}")
        return []
    return value


def require_bool(problems: Problems, payload: dict, key: str) -> None:
    """``payload[key]`` must be a bool."""
    if not isinstance(payload.get(key), bool):
        problems.append(f"{key} must be a bool")


# -- the harness skeleton --------------------------------------------------------


def check_report(payload: Any) -> tuple[str, Problems]:
    """``(file prefix, problems)`` of a parsed harness report.

    The harness is the one whose ``SCHEMA`` the payload names; with no
    such harness the prefix is empty and that is the problem.
    """
    schema = payload.get("schema") if isinstance(payload, dict) else None
    for prefix, name in HARNESS_REPORTS.items():
        module = importlib.import_module(name)
        if module.SCHEMA == schema:
            return prefix, module.validate_report(payload)
    return "", [f"no harness report pins schema {schema!r}"]


def render_report(result: Any, timestamp: str | None = None) -> str:
    """Serialise a harness result: sorted keys, trailing newline.

    ``timestamp`` is stamped into ``generated_at`` verbatim — the only
    non-deterministic field; pass None (the default) for byte-stable
    output.
    """
    payload = result.to_dict()
    payload["generated_at"] = timestamp
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(result: Any, out: str) -> int:
    """Render, validate and write ``<out>/<PREFIX>_<timestamp>.json``.

    Returns 0 once written, or 2 after printing every schema problem to
    stderr — a schema bug is a tooling failure, not a gate failure, and
    nothing is written.
    """
    timestamp = time.strftime("%Y%m%d-%H%M%S")
    text = render_report(result, timestamp=timestamp)
    prefix, problems = check_report(json.loads(text))
    if problems:
        for problem in problems:
            print(f"report schema problem: {problem}", file=sys.stderr)
        return 2
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{prefix}_{timestamp}.json"
    path.write_text(text)
    print(f"wrote {path}")
    return 0


def gate(result: Any, clean: str) -> int:
    """Exit 1 after printing ``result.failures()``, else 0 after ``clean``."""
    failures = result.failures()
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        return 1
    print(clean)
    return 0


def add_harness_flags(parser: argparse.ArgumentParser, prefix: str,
                      quick_help: str, seed: int = 0,
                      seed_help: str = "campaign seed",
                      out: str = "results") -> None:
    """Register the ``--quick/--seed/--out`` flags every harness takes."""
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument("--seed", type=int, default=seed,
                        help=f"{seed_help} (default {seed})")
    parser.add_argument("--out", default=out,
                        help=f"directory for {prefix}_<timestamp>.json")


def compare_reports(paths: list[str]) -> int:
    """Validate reports and diff them with ``generated_at`` cleared.

    Exit 0 when every report is valid and all are identical, 1 on a
    schema problem or a difference, 2 on bad usage.
    """
    if len(paths) < 2:
        print("usage: python -m repro.report REPORT REPORT [...]",
              file=sys.stderr)
        return 2
    bodies = []
    for path in paths:
        payload = json.loads(Path(path).read_text())
        _prefix, problems = check_report(payload)
        for problem in problems:
            print(f"{path}: schema problem: {problem}")
        if problems:
            return 1
        payload["generated_at"] = None
        bodies.append(json.dumps(payload, indent=2, sort_keys=True))
    match = all(body == bodies[0] for body in bodies[1:])
    print(f"reports {len(bodies[0])} bytes, "
          f"{'identical' if match else 'DIFFER'} "
          "after normalizing generated_at")
    return 0 if match else 1


if __name__ == "__main__":
    raise SystemExit(compare_reports(sys.argv[1:]))
