"""The fleet front end: plan → place → fan out → merge.

The front end multiplexes the tenant request streams into one global
arrival sequence (virtual-time Poisson arrivals paced off a calibration
probe of the module's own service time), places every request on a
shard with the configured policy, and then executes the per-shard plans
— serially or over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract: the whole run is a pure function of
:class:`FleetConfig`.  Planning happens *before* execution, placement
is load-oblivious, and each shard forks the same pickled prefix
snapshot and replays its own plan — so a worker process computes
exactly what the serial path would, and merging in shard order yields
byte-identical results for any ``jobs`` setting.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace

from repro.errors import ConfigError, FleetError
from repro.fleet.placement import PLACEMENTS, ZipfSampler
from repro.fleet.qos import TenantQoS
from repro.fleet.report import fleet_payload
from repro.fleet.shard import (
    Request,
    ShardPlan,
    ShardResult,
    build_prefix,
    run_shard,
    shard_seed,
)
from repro.fleet.tenants import TenantSpec, default_tenants
from repro.units import PAGE_4K
from repro.workloads.fio import FIOJob, _Thread
from repro.workloads.tpch import TPCH_QUERIES, generate_query_trace

#: Request-count defaults per mode.  Quick is the CI/smoke size; full
#: is the overnight fleet soak the ISSUE sizes at millions of requests
#: (1.2 M at 4 shards runs in ~2 minutes serial, faster with --jobs).
QUICK_REQUESTS = 100_000
FULL_REQUESTS = 1_200_000

#: Target per-shard utilization (x1000) the arrival pacing aims for —
#: busy enough that queueing shapes the tail, idle enough that the
#: bounded queue only rejects under transient bursts.
_TARGET_UTILIZATION_X1000 = 650

#: Program failures injected on each pre-worn shard (``wear_shards``):
#: enough to drive that shard's health ladder past retry into remap
#: territory so the fleet health histogram has non-trivial rungs.
_WEAR_FAILURES = 4


@dataclass(frozen=True)
class FleetConfig:
    """Everything that determines a fleet run (see determinism note)."""

    shards: int = 4
    placement: str = "capacity_weighted"
    quick: bool = False
    requests: int | None = None       #: None -> mode default
    seed: int = 7
    queue_bound: int = 64             #: admission queue depth per shard
    wear_shards: int = 0              #: shards pre-worn before serving
    jobs: int = 1                     #: worker processes (1 = serial)
    #: Relative shard capacities for ``capacity_weighted`` (cycled /
    #: truncated to ``shards``); uniform by default.
    weights: tuple[int, ...] = ()
    #: Wall-clock deadline (seconds) for the whole worker fan-out; a
    #: shard worker that has not returned by then raises
    #: :class:`~repro.errors.FleetError` naming the stuck shard.  None
    #: waits forever.  Harness-side only: the deadline never appears in
    #: the report, so it cannot perturb byte-identical output.
    worker_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; "
                f"choose from {sorted(PLACEMENTS)}")
        if self.queue_bound < 1:
            raise ConfigError("queue_bound must be >= 1")
        if not (0 <= self.wear_shards <= self.shards):
            raise ConfigError(
                f"wear_shards must be in [0, {self.shards}] "
                f"(0..shards), got {self.wear_shards}")
        if self.worker_timeout_s is not None \
                and self.worker_timeout_s <= 0:
            raise ConfigError(
                f"worker_timeout_s must be > 0 (or None to wait "
                f"forever), got {self.worker_timeout_s}")

    @property
    def request_count(self) -> int:
        if self.requests is not None:
            return self.requests
        return QUICK_REQUESTS if self.quick else FULL_REQUESTS

    @property
    def shard_weights(self) -> tuple[int, ...]:
        if not self.weights:
            return (1,) * self.shards
        return tuple(self.weights[i % len(self.weights)]
                     for i in range(self.shards))

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "placement": self.placement,
            "quick": self.quick,
            "requests": self.request_count,
            "seed": self.seed,
            "queue_bound": self.queue_bound,
            "wear_shards": self.wear_shards,
            "weights": list(self.shard_weights),
        }


class _TenantStream:
    """One tenant's deterministic ``(key, write, version)`` stream.

    Each mix reuses the existing workload generator for its key
    pattern: ``mixed`` draws zipfian-hot keys (the §VII-B5 transaction
    shape), ``tpch`` replays concatenated query traces over the
    tenant's footprint, ``fio-write`` advances an :class:`FIOJob`
    sequential write cursor.  Versions count writes per key, starting
    after the prefix's version 0.
    """

    #: The scan tenant cycles these query shapes (seq, zipf, rand).
    _ANALYTICS_QUERIES = ("Q1", "Q5", "Q18", "Q20")

    def __init__(self, spec: TenantSpec, index: int, seed: int) -> None:
        self.spec = spec
        self.index = index
        base = zlib.crc32(f"{seed}:tenant:{spec.name}".encode("ascii"))
        self._rw_rng = random.Random(base ^ 0x52EAD)
        self._versions: dict[int, int] = {}
        self._last_written = 0
        if spec.mix == "mixed":
            self._zipf = ZipfSampler(spec.footprint_pages,
                                     spec.zipf_theta, base)
        elif spec.mix == "tpch":
            trace: list[int] = []
            for name in self._ANALYTICS_QUERIES:
                trace.extend(generate_query_trace(
                    TPCH_QUERIES[name], db_pages=spec.footprint_pages,
                    max_accesses=4 * spec.footprint_pages, seed=base))
            self._trace = trace
            self._cursor = 0
        elif spec.mix == "fio-write":
            job = FIOJob(name=spec.name, rw="write", bs=PAGE_4K,
                         size=spec.footprint_pages * PAGE_4K,
                         seed=base & 0x7FFF_FFFF)
            self._fio = _Thread(job, 0)
        else:
            raise ConfigError(f"unknown tenant mix {spec.mix!r}")

    def next(self) -> tuple[int, bool, int]:
        spec = self.spec
        write = self._rw_rng.random() >= spec.read_fraction
        if spec.mix == "mixed":
            key = self._zipf.sample()
        elif spec.mix == "tpch":
            key = self._trace[self._cursor] % spec.footprint_pages
            self._cursor = (self._cursor + 1) % len(self._trace)
        else:
            # Streaming writer: writes advance the sequential cursor;
            # reads verify the most recently shipped page.
            if write:
                key = self._fio.next_offset() // PAGE_4K
                self._last_written = key
            else:
                key = self._last_written
        version = 0
        if write:
            version = self._versions.get(key, 0) + 1
            self._versions[key] = version
        return key, write, version


@dataclass
class FleetResult:
    """The merged outcome of one fleet run."""

    config: FleetConfig
    placement: str
    service_est_ps: int
    shards: list[ShardResult]
    tenants: list[TenantQoS]

    @property
    def health_histogram(self) -> dict[str, int]:
        """Shard count per *worst* health-ladder rung reached.

        The worst rung, not the final state: a shard that climbed to
        remap and relaxed back down still counts against the remap
        rung, so the histogram records what the fleet weathered (the
        final-state view is the per-shard ``health.state`` field plus
        the degraded/read-only/fail-stop counts).
        """
        histogram: dict[str, int] = {}
        for shard in self.shards:
            state = shard.health.get("worst", "ok")
            histogram[state] = histogram.get(state, 0) + 1
        return histogram

    @property
    def data_loss(self) -> int:
        return sum(shard.data_loss for shard in self.shards)

    @property
    def violations(self) -> int:
        return sum(shard.violations for shard in self.shards)

    @property
    def ok(self) -> bool:
        """The fleet-level gate: no loss, clean sanitizers, SLOs met."""
        return (self.data_loss == 0 and self.violations == 0
                and all(qos.slo_evaluation()["ok"] for qos in self.tenants))

    def failures(self) -> list[str]:
        """The gate's ``FAILED`` lines; empty exactly when :attr:`ok`."""
        lines = []
        if self.data_loss:
            lines.append(f"fleet FAILED: {self.data_loss} pages lost")
        if self.violations:
            lines.append(f"fleet FAILED: {self.violations} sanitizer "
                         "violations")
        for qos in self.tenants:
            gates = qos.slo_evaluation()
            if not gates["ok"]:
                missed = [g for g in ("p50", "p99", "p999", "admit")
                          if not gates[g]]
                lines.append(f"fleet FAILED: tenant {qos.spec.name} "
                             f"missed SLO gates {missed}")
        return lines

    def to_dict(self) -> dict:
        return fleet_payload(self)


class Fleet:
    """N independently-seeded module shards behind one front end."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.tenants = default_tenants(config.quick)
        self.placement = PLACEMENTS[config.placement]()

    # -- planning ----------------------------------------------------------------

    def plan(self, service_est_ps: int) -> list[ShardPlan]:
        """Arrival-stamp and place every request; split per shard."""
        config = self.config
        weights = config.shard_weights
        streams = [_TenantStream(spec, index, config.seed)
                   for index, spec in enumerate(self.tenants)]
        cumulative: list[int] = []
        total_weight = 0
        for spec in self.tenants:
            total_weight += spec.weight
            cumulative.append(total_weight)
        pick_rng = random.Random(
            zlib.crc32(f"{config.seed}:pick".encode("ascii")))
        arrival_rng = random.Random(
            zlib.crc32(f"{config.seed}:arrival".encode("ascii")))
        # Fleet-wide arrival rate targeting the per-shard utilization:
        # lambda = shards * rho / service  =>  mean gap below.
        mean_gap_ps = max(1.0, service_est_ps * 1000.0
                          / (_TARGET_UTILIZATION_X1000 * config.shards))
        per_shard: list[list[Request]] = [[] for _ in range(config.shards)]
        arrival = 0
        for seq in range(config.request_count):
            arrival += max(1, round(arrival_rng.expovariate(
                1.0 / mean_gap_ps)))
            point = pick_rng.randrange(total_weight)
            tenant_index = 0
            while cumulative[tenant_index] <= point:
                tenant_index += 1
            key, write, version = streams[tenant_index].next()
            shard = self.placement.shard_for(
                self.tenants[tenant_index], tenant_index, key, seq,
                config.shards, weights)
            per_shard[shard].append(Request(
                seq=seq, tenant=tenant_index, arrival_ps=arrival,
                key=key, write=write, version=version))
        return [
            ShardPlan(shard=index, seed=shard_seed(config.seed, index),
                      queue_bound=config.queue_bound,
                      wear=_WEAR_FAILURES if index < config.wear_shards
                      else 0,
                      requests=tuple(requests))
            for index, requests in enumerate(per_shard)
        ]

    # -- execution ---------------------------------------------------------------

    def run(self) -> FleetResult:
        """Build the prefix, plan, execute all shards, merge."""
        config = self.config
        snapshot, service_est_ps = build_prefix(
            self.tenants, config.quick, config.seed)
        plans = self.plan(service_est_ps)
        results = fan_out(run_shard, snapshot, plans, self.tenants,
                          config.jobs, config.worker_timeout_s)
        merged = [TenantQoS(spec=spec) for spec in self.tenants]
        for shard in results:
            for index, qos in enumerate(shard.tenants):
                merged[index].merge(qos)
        return FleetResult(
            config=config, placement=config.placement,
            service_est_ps=service_est_ps, shards=results,
            tenants=merged)


def fan_out(serve, snapshot, plans, tenants, jobs: int,
            timeout_s: float | None) -> list:
    """``serve(snapshot, plan, tenants)`` for every plan, in plan order.

    Serial when ``jobs`` is 1 (or there is one plan), otherwise over up
    to ``jobs`` worker processes; ``serve`` must be a top-level function
    so the pool can pickle it.  Every worker forks the same snapshot and
    replays its own plan, so the results do not depend on ``jobs``.
    """
    if jobs <= 1 or len(plans) <= 1:
        return [serve(snapshot, plan, tenants) for plan in plans]
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(plans)))
    try:
        futures = [pool.submit(serve, snapshot, plan, tenants)
                   for plan in plans]
        return collect_fan_out(futures, [plan.shard for plan in plans],
                               pool, timeout_s)
    finally:
        # On the deadline path collect_fan_out already shut the pool
        # down without joining; a plain ``with`` block would block here
        # waiting on the stuck worker.
        pool.shutdown(wait=False, cancel_futures=True)


def collect_fan_out(futures, shard_ids, pool,
                    timeout_s: float | None) -> list:
    """Collect worker results in shard order under one shared deadline.

    ``futures`` and ``shard_ids`` run in parallel: result *i* came from
    shard ``shard_ids[i]``.  The deadline covers the whole fan-out, not
    each shard — shards run concurrently, so a per-future budget would
    multiply the wall-clock bound by the shard count.  On expiry the
    pool is shut down without joining (a ``with`` block would wait on
    the stuck worker forever) and a :class:`~repro.errors.FleetError`
    names the shard that failed to report.  Wall-clock time is used
    only here, on the failure path: the merged results — and therefore
    the report bytes — never depend on it.
    """
    import time as _time
    from concurrent.futures import TimeoutError as _FutureTimeout

    deadline = (None if timeout_s is None
                else _time.monotonic() + timeout_s)
    results = []
    for future, shard in zip(futures, shard_ids):
        remaining = (None if deadline is None
                     else max(0.0, deadline - _time.monotonic()))
        try:
            results.append(future.result(timeout=remaining))
        except _FutureTimeout:
            pool.shutdown(wait=False, cancel_futures=True)
            raise FleetError(
                f"shard {shard} worker still running after the "
                f"{timeout_s:g}s fan-out deadline; cannot merge a "
                f"partial fleet run (raise the deadline, or rerun "
                f"with jobs=1 to execute shards serially)") from None
    return results


def run_fleet(config: FleetConfig | None = None, **overrides) -> FleetResult:
    """One-call entry point: ``run_fleet(quick=True, shards=2)``."""
    if config is None:
        config = FleetConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    return Fleet(config).run()
