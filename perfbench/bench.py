"""The runner: rounds, metrics, the determinism gate and run records.

``measure`` produces the end-to-end metrics from untraced rounds;
``trace`` produces the per-layer metrics from one traced round run
between untraced ones.  Both return the result object ``run.py`` prints.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time

from perfbench import ROOT, noise, spans, summary, workloads

OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: The fewest untraced rounds a run makes: the within-run determinism
#: gate and the per-segment medians need several.
MIN_ROUNDS = 3

#: End-to-end metric units.  ``sim_us`` is simulated microseconds.
E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "success_rate": "ratio", "sim_op_us_p50": "sim_us",
             "sim_op_us_p99": "sim_us"}


def heldout_seed(seed: int) -> int:
    """The second seed every run also checks, feeding no metric."""
    return seed + 1_000_003


def _tree_digest() -> str:
    """Digest of the simulator and benchmark sources: fingerprints from
    an earlier run are comparable only for an identical tree."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", "tests"))
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    path = os.path.join(dirpath, filename)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as source:
                        digest.update(source.read())
    return digest.hexdigest()[:16]


def _check_across_runs(workload: str, seed: int, fingerprint: dict) -> None:
    """Compare with the fingerprint an earlier run of the same tree,
    workload and seed left behind; leave one if there is none."""
    directory = os.path.join(OUT_DIR, "fingerprints")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        f"{_tree_digest()}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as stored:
            reference = json.load(stored)
        summary.DeterminismGate(reference).check(
            f"seed {seed} against an earlier run", fingerprint)
        return
    partial = f"{path}.{os.getpid()}"
    with open(partial, "w", encoding="utf-8") as out:
        json.dump(fingerprint, out, sort_keys=True)
    os.replace(partial, path)


def write_record(name: str, record: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True, default=str)


class _Rounds:
    """Untraced rounds of one seed, all held to the first one's
    fingerprint."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.gate = summary.DeterminismGate()
        self.rounds: list[workloads.Round] = []
        #: Host seconds of each round, calibration chunks left out.
        self.walls: list[float] = []

    def run(self) -> None:
        gc.collect()
        start = time.perf_counter()
        result = self.workload.run_round(self.seed)
        self.walls.append(time.perf_counter() - start
                          - result.calibration_s)
        self.gate.check(f"round {len(self.rounds) + 1} of seed {self.seed}",
                        result.fingerprint())
        self.rounds.append(result)

    def run_until(self, count: int) -> None:
        """Until ``count`` rounds are done."""
        while len(self.rounds) < count:
            self.run()


def round_count(workload, seconds: int) -> int:
    """Untraced rounds a run of ``seconds`` makes: fixed by the workload's
    round budget, never by how fast this host runs them, so two trees
    take their medians over the same number of readings."""
    return max(MIN_ROUNDS, int(seconds // workload.round_s))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _by_segment(timings: list[dict]) -> dict[object, list[float]]:
    """One phase's timings of every round, regrouped per segment."""
    return {key: [timing[key] for timing in timings] for key in timings[0]}


def measure(workload, seed: int, seconds: int) -> dict:
    """Untraced rounds for ``seconds``; the end-to-end metrics."""
    rounds = _Rounds(workload, seed)
    steal_before = noise.steal_jiffies()
    begin = time.perf_counter()
    rounds.run_until(round_count(workload, seconds))
    elapsed = time.perf_counter() - begin
    steal_after = noise.steal_jiffies()
    fingerprint = rounds.gate.reference
    _check_across_runs(workload.name, seed, fingerprint)
    gc.collect()
    heldout = workload.run_round(heldout_seed(seed))

    done = rounds.rounds
    ops = done[0].attempted
    host_times = _by_segment([r.measured.host_s for r in done])
    metrics = {
        "ops_per_s": ops / summary.median_pass_s(
            _by_segment([r.measured.scaled_s() for r in done])),
        "setup_s": summary.median_pass_s(
            _by_segment([r.setup.scaled_s() for r in done])),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": fingerprint["success_rate"],
        "sim_op_us_p50": fingerprint["sim_op_us_p50"],
        "sim_op_us_p99": fingerprint["sim_op_us_p99"],
    }
    diagnostics = {
        "rounds": len(done),
        "round_loop_s": elapsed,
        "steal_jiffies": (None if steal_before is None or steal_after is None
                          else steal_after - steal_before),
        "chunk_ms": noise.quartiles(
            [chunk * 1e3 for r in done for timer in (r.setup, r.measured)
             for chunk in timer.chunks]),
        "host_ops_per_s": ops / summary.median_pass_s(host_times),
        "host_setup_s": summary.median_pass_s(
            _by_segment([r.setup.host_s for r in done])),
        "segment_slowdown": noise.segment_slowdown(host_times),
        "heldout_seed": heldout_seed(seed),
        "heldout_success_rate": heldout.success_rate,
    }
    checked = done + [heldout]
    return {
        "correct": all(r.failed == 0 for r in checked),
        "attempted": sum(r.attempted for r in checked),
        "failed": sum(r.failed for r in checked),
        "metrics": {name: _metric(value, E2E_UNITS[name])
                    for name, value in metrics.items()},
        "diagnostics": diagnostics,
    }


def trace(workload, seed: int, seconds: int) -> dict:
    """One traced round between untraced ones; the per-layer metrics."""
    rounds = _Rounds(workload, seed)
    rounds.run()
    recorder = spans.SpanRecorder()
    gc.collect()
    with spans.instrumented(recorder, workloads.span_targets()):
        start = time.perf_counter()
        traced = workload.run_round(seed, recorder=recorder)
        traced_wall = time.perf_counter() - start
    rounds.gate.check(f"traced round of seed {seed}", traced.fingerprint())
    rounds.run_until(round_count(workload, seconds))
    _check_across_runs(workload.name, seed, rounds.gate.reference)

    values: dict[str, float] = dict(traced.counts)
    for phase, prefix in workloads.SPAN_PHASES:
        for name in workloads.span_names():
            calls, _total_ns, self_ns = recorder.totals.get(
                (phase, name), (0, 0, 0))
            values[f"{prefix}{name}.calls"] = calls
            values[f"{prefix}{name}.self_ms"] = self_ns / 1e6
    values["readback.self_ms"] = sum(
        agg[2] for (phase, _name), agg in recorder.totals.items()
        if phase == "readback") / 1e6
    other_ns = round(traced_wall * 1e9) - recorder.self_ns()
    values["other.self_ms"] = other_ns / 1e6
    values["trace.wall_ms"] = traced_wall * 1e3
    untraced_wall = min(rounds.walls)
    values["trace.overhead_ratio"] = (traced_wall - untraced_wall) \
        / untraced_wall
    write_record(f"spans-{workload.name}-{seed}.json", {
        "totals": {f"{phase}/{name}": agg
                   for (phase, name), agg in recorder.totals.items()},
        "sample": [dict(zip(("id", "parent", "phase", "name", "start_ns",
                             "end_ns", "op"), span))
                   for span in recorder.samples],
        "traced_wall_s": traced_wall, "untraced_wall_s": rounds.walls,
    })
    return {
        "correct": traced.failed == 0 and other_ns >= 0,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {name: _metric(values[name], unit)
                    for name, unit in workloads.per_layer_units().items()},
        "diagnostics": {"untraced_wall_s": rounds.walls,
                        "traced_wall_s": traced_wall},
    }
