"""One fleet shard: a forked NVDIMM-C module plus its admission queue.

A shard is an independent module instance.  To make N of them cheap,
the front end builds the module *once* — bring-up plus the sequential
prefill of every tenant region, the expensive RNG-free prefix — and
captures a :class:`~repro.sim.snapshot.SimSnapshot`; every shard then
*forks* from that capture (PR 7's copy-on-write machinery) and is
independently reseeded (:meth:`~repro.nand.controller.NANDController.
reseed` re-derives the module's media RNG from the shard seed), so the
fleet behaves like N separately manufactured modules that left the same
factory line.

Execution model (virtual-time, deterministic): requests arrive in
global arrival order; a bounded FIFO queue in front of the module
implements admission control.  A request whose arrival finds
``queue_bound`` admitted-but-unfinished requests ahead of it is
rejected — backpressure the tenant sees — otherwise it is served
FIFO and its end-to-end latency (wait + service) is recorded against
the tenant's SLO.  Because placement is load-oblivious, each shard's
timeline is a pure function of its own plan, which is what lets
``--jobs`` fan shards out over worker processes with byte-identical
results.

One serve loop, :func:`serve_shard`, runs every shard of both
``fleet run`` and ``fleet chaos``.  The chaos extensions — scheduled
fault events, hedge mirrors, evacuation-in pages, the failover tail,
the evacuation read-out and a multi-attempt retry policy — are passed
in as data; :func:`run_shard` passes none of them (empty tuples, one
attempt), so those steps do nothing on a plain fleet shard.
"""

from __future__ import annotations

import random
import warnings
import zlib
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from repro.check.sanitizer import default_suite
from repro.device.nvdimmc import NVDIMMCSystem, capture_without_logs
from repro.device.power import PowerFailureModel
from repro.errors import (ConfigError, FailStopError, MediaError,
                          PowerLossInterrupt)
from repro.faults.clock import FaultClock
from repro.fleet.qos import TenantQoS
from repro.fleet.tenants import TenantSpec
from repro.health.monitor import HealthPolicy, HealthState
from repro.health.retry import RetryPolicy
from repro.recovery import recover_mount
from repro.sim.snapshot import SimSnapshot
from repro.sim.trace import Tracer, use_tracer
from repro.units import PAGE_4K, kb, mb, us
from repro.workloads.mixed_load import _check_record, _make_record


@dataclass(frozen=True)
class Request:
    """One tenant request, placed and arrival-stamped by the front end."""

    seq: int            #: global submission order
    tenant: int         #: index into the tenant tuple
    arrival_ps: int     #: offset from the shard's post-prefix epoch
    key: int            #: tenant-local key (page within the region)
    write: bool
    version: int        #: payload version for writes


@dataclass(frozen=True)
class ShardPlan:
    """Everything one shard needs to run, picklable for workers."""

    shard: int
    seed: int
    queue_bound: int
    wear: int                      #: pre-run injected program failures
    requests: tuple[Request, ...]  #: arrival-ordered


@dataclass
class ShardResult:
    """One shard's observations, merged by the front end."""

    shard: int
    tenants: list[TenantQoS]
    admitted: int = 0
    rejected: int = 0
    refused: int = 0
    completed: int = 0
    queue_peak: int = 0
    busy_ps: int = 0
    span_ps: int = 0
    data_loss: int = 0
    sweep_pages: int = 0
    sweep_refused: int = 0
    violations: int = 0
    health: dict = field(default_factory=dict)

    @property
    def utilization_x1000(self) -> int:
        if self.span_ps <= 0:
            return 0
        return round(1000 * self.busy_ps / self.span_ps)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "requests": self.admitted + self.rejected,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "refused": self.refused,
            "completed": self.completed,
            "queue_peak": self.queue_peak,
            "busy_ps": self.busy_ps,
            "span_ps": self.span_ps,
            "utilization_x1000": self.utilization_x1000,
            "data_loss": self.data_loss,
            "sweep_pages": self.sweep_pages,
            "sweep_refused": self.sweep_refused,
            "violations": self.violations,
            "health": self.health,
        }


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault on one shard's virtual timeline."""

    at_request: int   #: apply before serving this primary-request ordinal
    kind: str         #: "program-fail" | "ecc-burst" | "power-cut"
    magnitude: int

    def to_dict(self) -> dict:
        return {"at_request": self.at_request, "kind": self.kind,
                "magnitude": self.magnitude}


@dataclass
class ChaosShardOutcome:
    """Everything one shard run observed: the :class:`ShardResult` plus
    what the chaos campaign reads (retries, remounts, refusals, hedge,
    evacuation and failover accounting)."""

    result: ShardResult
    retries: int = 0            #: front-end re-issues (backoff applied)
    retry_successes: int = 0    #: requests that completed on a retry
    power_cuts: int = 0
    remounts: list[dict] = field(default_factory=list)
    refused_requests: tuple[Request, ...] = ()
    evac_pages: tuple[tuple[int, bytes], ...] = ()
    evac_in_pages: int = 0
    evac_in_failures: int = 0
    hedge_attempted: int = 0
    hedge_refused: int = 0
    hedge_completed_seqs: frozenset[int] = frozenset()
    failover_tenants: list[TenantQoS] = field(default_factory=list)
    failover_served: int = 0


#: Module geometry per mode: the quick shard mirrors the soak module
#: (heavy eviction traffic through a 128-slot cache); the full shard is
#: 8x, keeping the same cache:footprint pressure at 4x the footprints.
_QUICK_CACHE, _QUICK_DEVICE = kb(512), mb(8)
_FULL_CACHE, _FULL_DEVICE = mb(4), mb(64)

#: ``fleet run`` retries nothing at the front end: a media error
#: without a refusal reason counts as a failed read at once.
SINGLE_ATTEMPT = RetryPolicy(max_attempts=1, base_ps=0, cap_ps=0)

#: Simulated time a cold remount costs the cut shard (drain + media
#: scan + driver bring-up) before it serves again.
_REMOUNT_PENALTY_PS = round(us(150))


def tenant_bases(tenants: tuple[TenantSpec, ...]) -> tuple[int, ...]:
    """Disjoint per-tenant page regions (identical on every shard)."""
    bases = []
    base = 0
    for tenant in tenants:
        bases.append(base)
        base += tenant.footprint_pages
    return tuple(bases)


def _filler(page: int, version: int) -> bytes:
    """Non-integrity 4 KB payload (ingest / analytics writes)."""
    head = page.to_bytes(4, "little") + version.to_bytes(4, "little")
    return head + bytes([(page * 193 + version * 67) % 256]) * (PAGE_4K - 8)


def build_prefix(tenants: tuple[TenantSpec, ...], quick: bool,
                 seed: int,
                 health_policy: HealthPolicy | None = None
                 ) -> tuple[SimSnapshot, int]:
    """Build the template module and capture the shared prefix.

    Brings up one module, sequentially prefills every tenant region
    (version-0 payloads: integrity records for record-validated
    tenants, filler elsewhere) and captures the graph.  Returns the
    snapshot plus the prefill's mean per-op service time — the
    calibration probe the front end paces arrivals with.

    ``health_policy`` overrides the module's ladder thresholds (the
    chaos campaign tightens the bad-block budget so injected wear can
    drive a shard to ``read_only`` within one run); the default is the
    stock :class:`~repro.health.monitor.HealthPolicy`.
    """
    cache_bytes = _QUICK_CACHE if quick else _FULL_CACHE
    device_bytes = _QUICK_DEVICE if quick else _FULL_DEVICE
    tracer = Tracer(enabled=True, capacity=200_000)
    suite = default_suite(strict=False)
    with use_tracer(tracer):
        with suite.attach(tracer):
            system = NVDIMMCSystem(
                cache_bytes=cache_bytes, device_bytes=device_bytes,
                seed=seed % 100003, tracer=tracer,
                health_policy=health_policy or HealthPolicy())
            bases = tenant_bases(tenants)
            t = round(us(1))
            start = t
            pages = 0
            for index, tenant in enumerate(tenants):
                for key in range(tenant.footprint_pages):
                    page = bases[index] + key
                    if tenant.mix == "mixed":
                        data = _make_record(index, 0, page)
                    else:
                        data = _filler(page, 0)
                    t = system.driver.write_page(page, data, t)
                    pages += 1
            service_est_ps = max(1, (t - start) // max(1, pages))
            snapshot = capture_without_logs(
                {"system": system, "tracer": tracer, "suite": suite,
                 "t": t}, label="fleet-prefix")
    return snapshot, service_est_ps


def _program_failures(system, count: int, rng: random.Random) -> None:
    """Arm ``count`` program failures on seeded-random dies."""
    dies = system.nand.dies
    for _ in range(count):
        dies[rng.randrange(len(dies))].inject_program_failures(1)


def _apply_event(system, event: ChaosEvent, rng: random.Random) -> None:
    """Arm one scheduled fault on the live shard (PR 3 machinery)."""
    if event.kind == "program-fail":
        _program_failures(system, event.magnitude, rng)
    elif event.kind == "ecc-burst":
        system.nand.codec.inject_uncorrectable(event.magnitude)
    elif event.kind == "power-cut":
        clock = FaultClock().cut_on_visit(event.magnitude, site="nvmc")
        system.nvmc.fault_clock = clock
        system.nand.ftl.fault_clock = clock
    else:
        raise ConfigError(f"unknown chaos event kind {event.kind!r}")


def _cold_remount(system, now_ps: int):
    """§V-C drain then cold mount; returns (fresh_system, audit note)."""
    power = PowerFailureModel(system.driver)
    power.power_fail(now_ps=now_ps)
    fresh, report = recover_mount(system, power.journal, now_ps=now_ps)
    note = {
        "at_ps": now_ps,
        "health_state": report.health_state,
        "bad_blocks": report.bad_blocks,
        "replay_recovered": report.replay_recovered,
        "replay_lost": report.replay_lost,
        "replay_crc_mismatches": report.replay_crc_mismatches,
    }
    return fresh, note


def _refusal(exc: MediaError) -> bool:
    """DegradedModeError/FailStopError are MediaErrors with a
    machine-readable reason: the module refused service (sticky, so
    retrying the same shard is futile)."""
    return getattr(exc, "reason", None) is not None


class _ShardRun:
    """One shard's live module and the bookkeeping its serve keeps."""

    def __init__(self, system, shard: int,
                 tenants: tuple[TenantSpec, ...],
                 policy: RetryPolicy) -> None:
        self.system = system
        self.policy = policy
        self.bases = tenant_bases(tenants)
        self.records = tuple(tenant.mix == "mixed" for tenant in tenants)
        self.result = ShardResult(
            shard=shard,
            tenants=[TenantQoS(spec=tenant) for tenant in tenants])
        self.outcome = ChaosShardOutcome(
            result=self.result,
            failover_tenants=[TenantQoS(spec=tenant) for tenant in tenants])
        self.inflight: deque[int] = deque()
        self.shadow: dict[int, bytes] = {}
        self.record_pages: set[int] = set()
        self.refused: list[Request] = []
        self.hedged: set[int] = set()
        self.attempts = 0   #: attempts the last successful access took

    def access(self, req: Request, page: int, at: int) -> tuple[int, bytes]:
        """One page access under the retry policy: ``(end_ps, payload)``.

        A power cut mid access runs the battery drain and the cold
        mount, then re-issues the access on the fresh module — the
        admission queue empties deterministically with the power.  A
        media error is retried with backoff while the policy allows;
        a refusal, or the error that exhausts the budget, is raised.
        """
        attempts = 1
        while True:
            try:
                if req.write:
                    if self.records[req.tenant]:
                        payload = _make_record(req.tenant, req.version, page)
                    else:
                        payload = _filler(page, req.version)
                    end = self.system.driver.write_page(page, payload, at)
                else:
                    payload, end = self.system.driver.read_page(page, at)
                self.attempts = attempts
                return end, payload
            except PowerLossInterrupt as exc:
                self.outcome.power_cuts += 1
                cut_ps = max(at, exc.time_ps)
                self.system, note = _cold_remount(self.system, cut_ps)
                self.outcome.remounts.append(note)
                self.inflight.clear()
                at = cut_ps + _REMOUNT_PENALTY_PS
            except MediaError as exc:
                if _refusal(exc) or not self.policy.allows(attempts):
                    raise
                at += self.policy.backoff_ps(attempts, site=f"req{req.seq}")
            self.outcome.retries += 1
            attempts += 1

    def commit(self, req: Request, page: int, data: bytes) -> None:
        """Remember a completed write for read checks and the sweep."""
        self.shadow[page] = data
        if self.records[req.tenant]:
            self.record_pages.add(page)

    def settle(self, req: Request, page: int, data: bytes,
               qos: TenantQoS) -> None:
        """Commit a write, or check a read against its integrity record."""
        if req.write:
            self.commit(req, page, data)
        elif page in self.record_pages and not _check_record(data, page):
            qos.integrity_failures += 1

    def mirror(self, req: Request, epoch: int, t_free: int) -> int:
        """Serve one hedge mirror (outside admission); returns the time
        the module is free again."""
        self.outcome.hedge_attempted += 1
        page = self.bases[req.tenant] + req.key
        try:
            end, data = self.access(
                req, page, max(epoch + req.arrival_ps, t_free))
        except MediaError:
            self.outcome.hedge_refused += 1
            return t_free
        self.hedged.add(req.seq)
        self.commit(req, page, data)
        return end

    def serve(self, plan: ShardPlan, epoch: int,
              events: tuple[ChaosEvent, ...], fault_rng: random.Random,
              hedges: tuple[Request, ...]) -> int:
        """The primary plan: bounded-FIFO admission, scheduled events,
        hedge mirrors interleaved by arrival.  Returns when the module
        is free."""
        result = self.result
        qos_by_tenant = result.tenants
        bases = self.bases
        inflight = self.inflight
        access = self.access
        queue_bound = plan.queue_bound
        events_left = deque(events)
        # The front end issues a hedge mirror the moment it issues the
        # primary, so the hedge shard sees both streams merged by
        # arrival (both are arrival-ordered; arrivals are distinct).
        hedges_left = deque(hedges)
        t_free = epoch
        first_start = last_end = epoch
        for index, req in enumerate(plan.requests):
            while hedges_left and \
                    hedges_left[0].arrival_ps < req.arrival_ps:
                t_free = self.mirror(hedges_left.popleft(), epoch, t_free)
            while events_left and events_left[0].at_request <= index:
                _apply_event(self.system, events_left.popleft(), fault_rng)
            qos = qos_by_tenant[req.tenant]
            qos.offered += 1
            arrival = epoch + req.arrival_ps
            while inflight and inflight[0] <= arrival:
                inflight.popleft()
            if len(inflight) >= queue_bound:
                qos.rejected += 1
                result.rejected += 1
                continue
            qos.admitted += 1
            result.admitted += 1
            page = bases[req.tenant] + req.key
            start = max(arrival, t_free)
            try:
                end, data = access(req, page, start)
            except MediaError as exc:
                if _refusal(exc):
                    qos.refused += 1
                    result.refused += 1
                    self.refused.append(req)
                else:
                    qos.failed_reads += 1
                continue
            if self.attempts > 1:
                self.outcome.retry_successes += 1
            self.settle(req, page, data, qos)
            t_free = end
            inflight.append(end)
            result.queue_peak = max(result.queue_peak, len(inflight))
            qos.completed += 1
            result.completed += 1
            qos.latencies_ps.append(max(0, end - arrival))
            result.busy_ps += max(0, end - start)
            first_start = min(first_start, start) if result.completed > 1 \
                else start
            last_end = end
        while hedges_left:
            t_free = self.mirror(hedges_left.popleft(), epoch, t_free)
        result.span_ps = max(0, last_end - first_start)
        # Flush events scheduled past the last served ordinal (plan
        # rounding); applying them keeps the schedule exact.
        for event in events_left:
            _apply_event(self.system, event, fault_rng)
        return t_free

    def evacuate_in(self, pages: tuple[tuple[int, bytes], ...],
                    t: int) -> int:
        """Bulk-program donated pages through the driver (each lands
        with a fresh OOB recovery stamp) and shadow them so the sweep
        verifies every copy."""
        for page, data in pages:
            try:
                t = self.system.driver.write_page(page, data, t)
            except MediaError:
                self.outcome.evac_in_failures += 1
                continue
            self.shadow[page] = data
            self.outcome.evac_in_pages += 1
            if self.records[bisect_right(self.bases, page) - 1]:
                self.record_pages.add(page)
        return t

    def serve_failover(self, requests: tuple[Request, ...], epoch: int,
                       t: int) -> int:
        """Requests refused elsewhere, re-placed here.  They queue
        behind the evacuation window — the availability hit is charged
        honestly: latency runs from the *original* arrival the impaired
        shard stamped."""
        for req in requests:
            qos = self.outcome.failover_tenants[req.tenant]
            qos.offered += 1
            qos.admitted += 1
            page = self.bases[req.tenant] + req.key
            arrival = epoch + req.arrival_ps
            try:
                end, data = self.access(req, page, max(arrival, t))
            except MediaError as exc:
                if _refusal(exc):
                    qos.refused += 1
                else:
                    qos.failed_reads += 1
                continue
            self.settle(req, page, data, qos)
            t = end
            qos.completed += 1
            self.outcome.failover_served += 1
            qos.latencies_ps.append(max(0, end - arrival))
        return t

    def sweep(self, t: int, collect_evac: bool) -> None:
        """Integrity sweep: every page this shard committed must read
        back exactly as written (mismatch or media error = loss).  When
        the shard ended impaired and ``collect_evac`` is set, every
        verified page doubles as the evacuation export (read_only
        degraded reads still serve, so the sweep is the export path)."""
        result = self.result
        collect = collect_evac and \
            self.system.health.state >= HealthState.READ_ONLY
        evac: list[tuple[int, bytes]] = []
        for page in sorted(self.shadow):
            result.sweep_pages += 1
            try:
                data, t = self.system.driver.read_page(page, t)
            except FailStopError:
                result.sweep_refused += 1
                continue
            except MediaError:
                result.data_loss += 1
                continue
            if data != self.shadow[page]:
                result.data_loss += 1
                continue
            if collect:
                evac.append((page, data))
        self.outcome.evac_pages = tuple(evac)

    def finish(self, violations: int) -> ChaosShardOutcome:
        """Health summary (worst rung reached) and frozen outcome."""
        self.result.violations = violations
        monitor = self.system.health
        worst = monitor.state
        for transition in monitor.timeline:
            worst = max(worst, HealthState[transition.to_state.upper()])
        self.result.health = {
            "state": monitor.state.label,
            "worst": worst.label,
            "counters": {key: monitor.counters.counts[key]
                         for key in sorted(monitor.counters.counts)},
            "transitions": len(monitor.timeline),
        }
        self.outcome.refused_requests = tuple(self.refused)
        self.outcome.hedge_completed_seqs = frozenset(self.hedged)
        return self.outcome


def serve_shard(snapshot: SimSnapshot, plan: ShardPlan,
                tenants: tuple[TenantSpec, ...], policy: RetryPolicy, *,
                events: tuple[ChaosEvent, ...] = (), fault_seed: int = 0,
                hedges: tuple[Request, ...] = (),
                evac_in: tuple[tuple[int, bytes], ...] = (),
                failover: tuple[Request, ...] = (),
                collect_evac: bool = False) -> ChaosShardOutcome:
    """Fork the template, reseed it as shard ``plan.shard``, serve.

    The steps run in order: ``plan.wear`` program failures, the primary
    plan (with ``events`` applied at their request ordinals from a
    ``fault_seed`` RNG and ``hedges`` interleaved by arrival), the
    ``evac_in`` bulk copy, the ``failover`` tail, and the integrity
    sweep (which exports the verified pages when ``collect_evac`` is
    set and the shard ended impaired).  Every request runs under
    ``policy``.
    """
    state = snapshot.restore()
    system: NVDIMMCSystem = state["system"]
    tracer: Tracer = state["tracer"]
    suite = state["suite"]
    epoch: int = state["t"]
    system.nand.reseed(plan.seed)
    run = _ShardRun(system, plan.shard, tenants, policy)

    with use_tracer(tracer), warnings.catch_warnings():
        # Long shard runs overflow the tracer's bounded archive by
        # design; the sanitizers subscribe upstream of the drop and the
        # fleet never reads the archived records, so the capacity
        # warning is noise here (and would tear the CLI table mid-run).
        warnings.filterwarnings("ignore", message="Tracer capacity",
                                category=RuntimeWarning)
        if plan.wear:
            _program_failures(system, plan.wear, random.Random(plan.seed))
        t = run.serve(plan, epoch, events, random.Random(fault_seed),
                      hedges)
        t = run.evacuate_in(evac_in, max(t, epoch))
        t = run.serve_failover(failover, epoch, t)
        run.sweep(t, collect_evac)
        suite.detach()
    return run.finish(len(suite.violations))


def run_shard(snapshot: SimSnapshot, plan: ShardPlan,
              tenants: tuple[TenantSpec, ...]) -> ShardResult:
    """Serve one ``fleet run`` shard: no chaos extensions, one attempt."""
    return serve_shard(snapshot, plan, tenants, SINGLE_ATTEMPT).result


def shard_seed(seed: int, shard: int) -> int:
    """The per-shard module seed (CRC32-derived, hash-free)."""
    return zlib.crc32(f"{seed}:shard:{shard}".encode("ascii"))
