"""The three workloads and the layers they stress.

Each workload runs in *rounds*.  A round is set-up (timed as
``setup_s``), a measured phase, a read-back check of every page the
phase touched, and the per-layer counts of the measured phase read
from the simulator's own stats objects.  Set-up and measured phase are
cut into fixed segments of work, each timed on its own after a
calibration chunk (see ``hostclock``).  Rounds of one seed replay
identical work, which is what lets the runner gate on identical counts
and take each segment's median over the rounds (see
``summary.median_pass_s``).

Why each workload exists, which layers it stresses and which it
bypasses is in ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.check import sanitizers as _sanitizers
from repro.check.sanitizer import Sanitizer
from repro.ddr.imc import RefreshTimeline
from repro.device.nvdimmc import DaxSystem, NVDIMMCSystem
from repro.errors import ReproError
from repro.fleet import Fleet
from repro.fleet import shard as fleet_shard
from repro.kernel.nvdc import NvdcDriver
from repro.nand.controller import NANDController
from repro.nvmc.nvmc import NVMCModel
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import TraceMeter, Tracer
from repro.units import PAGE_4K, mb

from perfbench import inputs
from perfbench.hostclock import SegmentTimer
from perfbench.spans import patched
from perfbench.summary import nearest_rank

#: Per-layer counts, in report order.  Each is measured over the
#: measured phase only and must repeat exactly for a given seed.
COUNT_NAMES = (
    "kernel.hits", "kernel.misses", "kernel.hit_ratio", "kernel.cachefills",
    "kernel.writebacks", "kernel.evictions", "kernel.cp_retries",
    "nvmc.dma_windows", "nvmc.dma_bytes", "nvmc.ops_retained",
    "nvmc.fsm_history_len",
    "nand.page_reads", "nand.page_programs", "nand.erases",
    "nand.gc_invocations", "nand.gc_programs", "nand.waf",
    "perf.channel.requests", "perf.channel.busy_sim_us",
    "perf.channel.wait_sim_us",
    "trace.emits", "check.violations",
    "fleet.admitted", "fleet.rejected", "fleet.queue_peak",
)

#: Units of the per-layer counts that are not plain counts.
COUNT_UNITS = {"kernel.hit_ratio": "ratio", "nand.waf": "ratio",
               "perf.channel.busy_sim_us": "sim_us",
               "perf.channel.wait_sim_us": "sim_us"}


def span_targets() -> list[tuple[str, Any, str]]:
    """``(span name, owner, attribute)`` of every wrapped entry point."""
    targets: list[tuple[str, Any, str]] = [
        ("workloads.gen", inputs, "dax_inputs"),
        ("workloads.gen", inputs, "fleet_config"),
        ("device.op", DaxSystem, "op"),
        ("kernel.lookup", NvdcDriver, "lookup"),
        ("kernel.fault", NvdcDriver, "fault"),
        ("nvmc.submit", NVMCModel, "submit"),
        ("ddr.next_window", RefreshTimeline, "next_window"),
        ("nand.read", NANDController, "read_page"),
        ("nand.program", NANDController, "program_page"),
        ("trace.emit", Tracer, "emit"),
        ("snapshot.capture", SimSnapshot, "capture"),
        ("snapshot.restore", SimSnapshot, "restore"),
        ("fleet.plan", Fleet, "plan"),
        ("fleet.build_prefix", fleet_shard, "build_prefix"),
        ("fleet.run_shard", fleet_shard, "run_shard"),
    ]
    for cls in vars(_sanitizers).values():
        if (isinstance(cls, type) and issubclass(cls, Sanitizer)
                and "observe" in vars(cls)):
            targets.append(("check.observe", cls, "observe"))
    return targets


def span_names() -> list[str]:
    """Distinct span names, in first-wrapped order."""
    return list(dict.fromkeys(name for name, _, _ in span_targets()))


#: Span metrics are reported for these phases, under these prefixes;
#: read-back spans are reported as one total (``readback.self_ms``).
SPAN_PHASES = (("measure", ""), ("setup", "setup."))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: COUNT_UNITS.get(name, "count") for name in COUNT_NAMES}
    for _phase, prefix in SPAN_PHASES:
        for name in span_names():
            units[f"{prefix}{name}.calls"] = "count"
            units[f"{prefix}{name}.self_ms"] = "ms"
    units.update({"readback.self_ms": "ms", "other.self_ms": "ms",
                  "trace.wall_ms": "ms", "trace.overhead_ratio": "ratio"})
    return units


@dataclass
class Round:
    """One round's timings and the outputs that must repeat exactly."""

    #: The set-up's segments and the measured phase's segments.
    setup: SegmentTimer
    measured: SegmentTimer
    #: Ops or requests the measured phase issued (``ops_per_s`` counts).
    attempted: int
    failed: int
    #: Simulated latency percentiles of the ops or requests, failures
    #: sorting above any limit (``math.inf``).
    sim_p50_ps: float
    sim_p99_ps: float
    counts: dict[str, float]

    @classmethod
    def of(cls, latencies_ps: Iterable[float], **fields: Any) -> "Round":
        """Summarise the latencies now, so a kept round stays small."""
        histogram = Counter(latencies_ps)
        return cls(sim_p50_ps=nearest_rank(histogram, 0.50),
                   sim_p99_ps=nearest_rank(histogram, 0.99), **fields)

    @property
    def calibration_s(self) -> float:
        """Host seconds this round spent in calibration chunks."""
        return self.setup.calibration_s() + self.measured.calibration_s()

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    def fingerprint(self) -> dict[str, float]:
        """Everything that must repeat exactly for a given seed."""
        return {
            "sim_op_us_p50": self.sim_p50_ps / 1e6,
            "sim_op_us_p99": self.sim_p99_ps / 1e6,
            "success_rate": self.success_rate,
            "attempted": self.attempted,
            "failed": self.failed,
            **self.counts,
        }


def _enter_phase(recorder: Any, phase: str) -> None:
    """Move a span recorder to ``setup``, ``measure`` or ``readback`` (the
    benchmark's own correctness check after the measured phase)."""
    if recorder is not None:
        recorder.phase = phase
        recorder.unit_id = None


def _raw_counts(system: NVDIMMCSystem) -> dict[str, int]:
    """Cumulative counters of one module, read from its stats objects."""
    driver = system.driver.stats
    dma = system.nvmc.dma.stats
    nand = system.nand.stats
    ftl = system.nand.ftl.stats
    channel = system.channel.stats
    return {
        "kernel.hits": driver.hits, "kernel.misses": driver.misses,
        "kernel.cachefills": driver.cachefills,
        "kernel.writebacks": driver.writebacks,
        "kernel.evictions": driver.evictions,
        "kernel.cp_retries": driver.cp_retries,
        "nvmc.dma_windows": dma.windows_used,
        "nvmc.dma_bytes": dma.bytes_moved,
        "nvmc.ops_retained": len(system.nvmc.operations),
        "nvmc.fsm_history_len": len(system.nvmc.fsm.history),
        "nand.page_reads": nand.page_reads,
        "nand.page_programs": nand.page_programs,
        "nand.erases": ftl.erases,
        "nand.gc_invocations": ftl.gc_invocations,
        "nand.gc_programs": ftl.gc_programs,
        "nand.host_programs": ftl.host_programs,
        "perf.channel.requests": channel.requests,
        "perf.channel.busy_ps": channel.busy_ps,
        "perf.channel.wait_ps": channel.waited_ps,
    }


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def _derive(raw: dict[str, int], trace_emits: int, violations: int = 0,
            admitted: int = 0, rejected: int = 0,
            queue_peak: int = 0) -> dict[str, float]:
    """The reported per-layer counts from summed raw counter deltas."""
    lookups = raw["kernel.hits"] + raw["kernel.misses"]
    host_programs = raw["nand.host_programs"]
    counts: dict[str, float] = {
        key: value for key, value in raw.items()
        if key in COUNT_NAMES}
    counts.update({
        "kernel.hit_ratio": raw["kernel.hits"] / lookups if lookups else 0.0,
        # FTLStats.write_amplification's convention: 1.0 with no writes.
        "nand.waf": ((host_programs + raw["nand.gc_programs"])
                     / host_programs if host_programs else 1.0),
        "perf.channel.busy_sim_us": raw["perf.channel.busy_ps"] / 1e6,
        "perf.channel.wait_sim_us": raw["perf.channel.wait_ps"] / 1e6,
        "trace.emits": trace_emits,
        "check.violations": violations,
        "fleet.admitted": admitted,
        "fleet.rejected": rejected,
        "fleet.queue_peak": queue_peak,
    })
    return {name: counts[name] for name in COUNT_NAMES}


class DaxWorkload:
    """4 KB random DAX ops at iodepth 1 on one ``NVDIMMCSystem``.

    Set-up generates the inputs, builds the module, preloads every
    device page with its known payload and faults ``warm_pages`` pages
    in, so the measured phase starts on a warm cache.  It is timed in
    segments of ``SETUP_PAGES`` pages.
    """

    SETUP_PAGES = 1024

    def __init__(self, name: str, round_s: float, cache_bytes: int,
                 device_bytes: int, footprint_pages: int, warm_pages: int,
                 nops: int, segment_ops: int) -> None:
        self.name = name
        self.round_s = round_s
        self.cache_bytes = cache_bytes
        self.device_bytes = device_bytes
        self.device_pages = device_bytes // PAGE_4K
        self.footprint_pages = footprint_pages
        self.warm_pages = warm_pages
        self.nops = nops
        self.segment_ops = segment_ops

    def run_round(self, seed: int, recorder: Any = None) -> Round:
        """One round; a span recorder, if given, follows the phases and
        the id of the op being issued, and no calibration chunk runs."""
        _enter_phase(recorder, "setup")
        setup = SegmentTimer(calibrate=recorder is None)
        setup.start()
        offsets, writes, payloads = inputs.dax_inputs(
            seed, self.device_pages, self.footprint_pages, self.nops)
        setup.stop("inputs")
        setup.start()
        system = NVDIMMCSystem(cache_bytes=self.cache_bytes,
                               device_bytes=self.device_bytes)
        setup.stop("build")
        nand = system.nand
        step = self.SETUP_PAGES
        for lo in range(0, self.device_pages, step):
            setup.start()
            for page in range(lo, min(lo + step, self.device_pages)):
                nand.preload(page, payloads[page])
            setup.stop(("preload", lo))
        driver = system.driver
        t = 0
        for lo in range(0, self.warm_pages, step):
            setup.start()
            for page in range(lo, min(lo + step, self.warm_pages)):
                _slot, t = driver.fault(page, t, False)
            setup.stop(("fault", lo))
        setup.close()
        t = max(t, system.now_floor_ps)

        _enter_phase(recorder, "measure")
        before = _raw_counts(system)
        emitted = TraceMeter.records_emitted
        op = system.op
        latencies = array("d")
        record = latencies.append
        measured = SegmentTimer(calibrate=recorder is None)
        step = self.segment_ops
        for index, lo in enumerate(range(0, self.nops, step)):
            if recorder is not None:
                recorder.unit_id = lo
            segment = zip(offsets[lo:lo + step], writes[lo:lo + step])
            measured.start()
            for offset, is_write in segment:
                try:
                    end = op(offset, PAGE_4K, is_write, t)
                except ReproError:
                    record(math.inf)
                    continue
                record(end - t)
                t = end
            measured.stop(index)
        measured.close()
        counts = _derive(_delta(_raw_counts(system), before),
                         TraceMeter.records_emitted - emitted)

        # Read back every touched page through the driver; an op fails
        # if it raised or if its page no longer holds its payload.
        _enter_phase(recorder, "readback")
        bad: set[int] = set()
        for page in sorted({offset // PAGE_4K for offset in offsets}):
            try:
                data, t = driver.read_page(page, t)
            except ReproError:
                bad.add(page)
                continue
            if data != payloads[page]:
                bad.add(page)
        failed = sum(1 for offset, latency in zip(offsets, latencies)
                     if latency == math.inf or offset // PAGE_4K in bad)
        return Round.of(latencies, setup=setup, measured=measured,
                        attempted=len(offsets), failed=failed, counts=counts)


@contextlib.contextmanager
def _restored_systems() -> Iterator[list[tuple[NVDIMMCSystem, dict]]]:
    """Yields a list that fills with ``(system, counters at restore)``
    for every module a snapshot restore materialises, so a shard's
    counts can be read after ``run_shard`` returns.  One extra call per
    restore; ``run_shard`` restores once per shard."""
    restored: list[tuple[NVDIMMCSystem, dict]] = []

    def recording(restore):
        def restore_and_record(snapshot):
            state = restore(snapshot)
            system = state["system"]
            restored.append((system, _raw_counts(system)))
            return state
        return restore_and_record

    with patched(SimSnapshot, "restore", recording):
        yield restored


class _CallLaps:
    """Ends a segment of ``timer`` and opens the next one at every
    ``every``-th call of wrapped functions: one counter increment per
    call, a lap per segment.  Segments are keyed ``(shard, index)``."""

    def __init__(self, timer: SegmentTimer, every: int) -> None:
        self.timer = timer
        self.every = every
        self.shard = 0
        self.calls = 0

    def start(self, shard: int) -> None:
        self.shard = shard
        self.calls = 0
        self.timer.start()

    def stop(self) -> None:
        self.timer.stop((self.shard, self.calls // self.every))

    def wrap(self, fn):
        def lapped(*args, **kwargs):
            self.calls += 1
            if self.calls % self.every == 0:
                self.timer.lap((self.shard, self.calls // self.every - 1))
            return fn(*args, **kwargs)

        return lapped


class FleetWorkload:
    """The quick three-tenant fleet on ``shards`` shards, served serially.

    Set-up builds the shared prefix (module bring-up plus the sequential
    prefill, captured as a snapshot) and plans every request; the
    measured phase replays each shard's plan through ``run_shard``, cut
    into segments of ``segment_calls`` driver page accesses.
    """

    def __init__(self, name: str, round_s: float, requests: int, shards: int,
                 segment_calls: int) -> None:
        self.name = name
        self.round_s = round_s
        self.requests = requests
        self.shards = shards
        self.segment_calls = segment_calls

    def run_round(self, seed: int, recorder: Any = None) -> Round:
        _enter_phase(recorder, "setup")
        setup = SegmentTimer(calibrate=recorder is None)
        setup.start()
        config = inputs.fleet_config(seed, self.requests, self.shards)
        fleet = Fleet(config)
        setup.stop("config")
        setup.start()
        snapshot, service_est_ps = fleet_shard.build_prefix(
            fleet.tenants, config.quick, config.seed)
        setup.stop("prefix")
        setup.start()
        plans = fleet.plan(service_est_ps)
        setup.stop("plan")
        setup.close()

        _enter_phase(recorder, "measure")
        emitted = TraceMeter.records_emitted
        results = []
        measured = SegmentTimer(calibrate=recorder is None)
        # run_shard serves a whole shard in one call; a lap every
        # segment_calls driver page accesses cuts it into segments.
        laps = _CallLaps(measured, self.segment_calls)
        with contextlib.ExitStack() as stack:
            restored = stack.enter_context(_restored_systems())
            for attr in ("read_page", "write_page"):
                stack.enter_context(patched(NvdcDriver, attr, laps.wrap))
            for plan in plans:
                if recorder is not None:
                    recorder.unit_id = f"shard{plan.shard}"
                laps.start(plan.shard)
                results.append(fleet_shard.run_shard(snapshot, plan,
                                                     fleet.tenants))
                laps.stop()
        measured.close()
        _enter_phase(recorder, "readback")
        raw = {key: 0 for key in restored[0][1]}
        for system, before in restored:
            for key, value in _delta(_raw_counts(system), before).items():
                raw[key] += value

        latencies: list[float] = []
        failed = 0
        for result in results:
            for qos in result.tenants:
                latencies.extend(qos.latencies_ps)
                lost = qos.rejected + qos.refused + qos.failed_reads
                latencies.extend([math.inf] * lost)
                failed += lost + qos.integrity_failures
            failed += result.data_loss + result.violations
        counts = _derive(
            raw, TraceMeter.records_emitted - emitted,
            violations=sum(r.violations for r in results),
            admitted=sum(r.admitted for r in results),
            rejected=sum(r.rejected for r in results),
            queue_peak=max(r.queue_peak for r in results))
        return Round.of(latencies, setup=setup, measured=measured,
                        attempted=sum(len(plan.requests) for plan in plans),
                        failed=failed, counts=counts)


#: The workloads, by name.  ``round_s`` is the host seconds a round is
#: budgeted: a run of ``--seconds`` runs ``seconds // round_s`` rounds.
#: Sizes: see README.md ("Sizing").
WORKLOADS = {
    "dax-hit": DaxWorkload(
        "dax-hit", round_s=3.5, cache_bytes=mb(64), device_bytes=mb(32),
        footprint_pages=mb(32) // PAGE_4K,
        warm_pages=mb(32) // PAGE_4K, nops=400_000, segment_ops=20_000),
    "dax-miss": DaxWorkload(
        "dax-miss", round_s=6.0, cache_bytes=mb(2), device_bytes=mb(32),
        footprint_pages=mb(24) // PAGE_4K,
        warm_pages=mb(2) // PAGE_4K, nops=20_000, segment_ops=250),
    "fleet-serve": FleetWorkload("fleet-serve", round_s=4.8, requests=16_000,
                                 shards=2, segment_calls=200),
}
