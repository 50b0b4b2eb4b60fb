"""repro.fleet: placement, admission, QoS, report schema, CLI."""

import json

import pytest

from repro.analysis.stats import order_statistic
from repro.cli import main
from repro.errors import ConfigError
from repro.fleet.frontend import FleetConfig, run_fleet
from repro.fleet.placement import (
    PLACEMENTS,
    CapacityWeightedPlacement,
    RoundRobinPlacement,
    TenantPinnedPlacement,
    ZipfSampler,
)
from repro.fleet.qos import TenantQoS
from repro.fleet.report import SCHEMA, validate_report
from repro.fleet.tenants import default_tenants
from repro.report import render_report

QUICK = dict(quick=True, shards=2, requests=2000, seed=7)


@pytest.fixture(scope="module")
def fleet_result():
    """One shared small fleet run (the prefix build dominates cost)."""
    return run_fleet(**QUICK)


# -- zipf sampler ------------------------------------------------------------------


def test_zipf_sampler_is_skewed():
    sampler = ZipfSampler(n=100, theta=1.1, seed=3)
    counts = [0] * 100
    for _ in range(5000):
        counts[sampler.sample()] += 1
    # Rank 0 is the hottest and the head dominates the tail.
    assert counts[0] == max(counts)
    assert sum(counts[:10]) > sum(counts[50:])


def test_zipf_sampler_range_and_degenerate():
    sampler = ZipfSampler(n=1, theta=2.0, seed=0)
    assert all(sampler.sample() == 0 for _ in range(20))
    sampler = ZipfSampler(n=7, theta=0.0, seed=5)
    assert all(0 <= sampler.sample() < 7 for _ in range(200))
    with pytest.raises(ValueError):
        ZipfSampler(n=0, theta=1.0, seed=1)


# -- placement policies ------------------------------------------------------------


def _tenants():
    return default_tenants(quick=True)


def test_round_robin_interleaves():
    policy = RoundRobinPlacement()
    tenants = _tenants()
    shards = [policy.shard_for(tenants[0], 0, key=9, seq=seq, shards=4,
                               weights=(1, 1, 1, 1))
              for seq in range(8)]
    assert shards == [0, 1, 2, 3, 0, 1, 2, 3]


def test_capacity_weighted_is_key_stable_and_weighted():
    policy = CapacityWeightedPlacement()
    tenants = _tenants()
    # The same key always lands on the same shard, whatever the seq.
    for key in range(50):
        homes = {policy.shard_for(tenants[0], 0, key, seq, 4,
                                  (1, 1, 1, 1)) for seq in range(5)}
        assert len(homes) == 1
    # A 3:1 weight split sends the majority of the keyspace to shard 0.
    counts = [0, 0]
    for key in range(2000):
        counts[policy.shard_for(tenants[0], 0, key, 0, 2, (3, 1))] += 1
    assert counts[0] > 2 * counts[1]


def test_tenant_pinned_honours_pins():
    policy = TenantPinnedPlacement()
    tenants = _tenants()   # analytics pinned to 1, ingest pinned to 0
    for key in range(20):
        assert policy.shard_for(tenants[1], 1, key, key, 4,
                                (1,) * 4) == 1
        assert policy.shard_for(tenants[2], 2, key, key, 4,
                                (1,) * 4) == 0
        # Unpinned tenants get a stable hash-derived home.
        home = policy.shard_for(tenants[0], 0, key, key, 4, (1,) * 4)
        assert home == policy.shard_for(tenants[0], 0, key + 1,
                                        key, 4, (1,) * 4)
    # Pins wrap modulo the fleet size.
    assert policy.shard_for(tenants[1], 1, 0, 0, 1, (1,)) == 0


def test_placement_registry():
    assert set(PLACEMENTS) == {
        "round_robin", "capacity_weighted", "tenant_pinned"}
    for name, factory in PLACEMENTS.items():
        assert factory().name == name


# -- config validation -------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        FleetConfig(shards=0)
    with pytest.raises(ConfigError):
        FleetConfig(placement="nearest_queue")
    with pytest.raises(ConfigError):
        FleetConfig(queue_bound=0)
    with pytest.raises(ConfigError):
        FleetConfig(shards=2, wear_shards=3)


def test_wear_range_rejected_with_actionable_message():
    # K > shards and negative K both name the valid range.
    with pytest.raises(ConfigError, match=r"\[0, 2\]"):
        FleetConfig(shards=2, wear_shards=3)
    with pytest.raises(ConfigError, match=r"\[0, 2\]"):
        FleetConfig(shards=2, wear_shards=-1)
    FleetConfig(shards=2, wear_shards=2)   # boundary is valid


def test_worker_timeout_validation():
    with pytest.raises(ConfigError, match="worker_timeout_s"):
        FleetConfig(shards=2, worker_timeout_s=0)
    with pytest.raises(ConfigError, match="worker_timeout_s"):
        FleetConfig(shards=2, worker_timeout_s=-1.5)
    FleetConfig(shards=2, worker_timeout_s=30.0)
    # The deadline is harness-side only: never in the report config.
    assert "worker_timeout_s" not in \
        FleetConfig(shards=2, worker_timeout_s=30.0).to_dict()


def test_config_defaults_and_weights():
    config = FleetConfig(shards=3, quick=True)
    assert config.request_count == 100_000
    assert FleetConfig(shards=2).request_count == 1_200_000
    assert FleetConfig(shards=2, requests=777).request_count == 777
    assert config.shard_weights == (1, 1, 1)
    assert FleetConfig(shards=4,
                       weights=(2, 1)).shard_weights == (2, 1, 2, 1)


# -- qos accounting ----------------------------------------------------------------


def test_percentile_is_order_statistic():
    assert order_statistic([], 0.99) == 0
    samples = list(range(100, 0, -1))
    assert order_statistic(samples, 0.50) == 51
    assert order_statistic(samples, 0.99) == 100
    assert order_statistic([42], 0.999) == 42
    assert samples == list(range(100, 0, -1))    # caller's list untouched
    # The fleet QoS table, the soak p99 and the aging time-to-read_only
    # percentiles all read through this one function.
    qos = TenantQoS(spec=default_tenants(quick=True)[0],
                    latencies_ps=samples)
    summary = qos.latency_summary()
    assert (summary["p50_ps"], summary["p99_ps"],
            summary["p999_ps"]) == (51, 100, 100)


def test_qos_merge_and_admit_ppm():
    spec = default_tenants(quick=True)[0]
    a = TenantQoS(spec=spec, offered=10, admitted=9, rejected=1,
                  completed=9, latencies_ps=[5, 7])
    b = TenantQoS(spec=spec, offered=10, admitted=10, refused=2,
                  completed=8, latencies_ps=[9])
    a.merge(b)
    assert (a.offered, a.admitted, a.rejected, a.refused) == (20, 19, 1, 2)
    assert a.latencies_ps == [5, 7, 9]
    assert a.admit_ppm == round(1_000_000 * 17 / 20)
    assert TenantQoS(spec=spec).admit_ppm == 1_000_000


# -- end-to-end fleet runs ---------------------------------------------------------


def test_fleet_serves_all_tenants_cleanly(fleet_result):
    result = fleet_result
    assert result.ok
    assert result.data_loss == 0
    assert result.violations == 0
    total_offered = sum(qos.offered for qos in result.tenants)
    assert total_offered == 2000
    for qos in result.tenants:
        assert qos.offered > 0
        assert qos.admitted + qos.rejected == qos.offered
        assert qos.completed + qos.refused + qos.failed_reads \
            == qos.admitted
        assert len(qos.latencies_ps) == qos.completed
    # Every shard saw traffic and swept its written pages.
    for shard in result.shards:
        assert shard.admitted > 0
        assert shard.sweep_pages > 0
        assert shard.health["state"] == "ok"


def test_fleet_report_round_trips(fleet_result):
    payload = json.loads(render_report(fleet_result))
    assert payload["schema"] == SCHEMA
    assert payload["generated_at"] is None
    assert validate_report(payload) == []
    assert payload["totals"]["requests"] == 2000
    assert payload["ok"] is True
    assert len(payload["shards"]) == 2
    assert len(payload["tenants"]) == 3


@pytest.mark.parametrize("mutate,needle", [
    (lambda p: p.__setitem__("schema", "repro.fleet/9"), "schema"),
    (lambda p: p.pop("totals"), "missing report keys"),
    (lambda p: p.__setitem__("extra", 1), "unknown report keys"),
    (lambda p: p["tenants"][0].pop("latency"), "tenants[0]"),
    (lambda p: p["tenants"][0]["latency"].__setitem__("p50_ps", -1),
     "non-negative int"),
    (lambda p: p["shards"][0]["health"].__setitem__("worst", "meh"),
     "health.worst"),
    (lambda p: p["health"]["histogram"].pop("remap"),
     "health.histogram"),
    (lambda p: p.__setitem__("ok", "yes"), "ok must be a bool"),
])
def test_fleet_report_rejects_mutations(fleet_result, mutate, needle):
    payload = json.loads(render_report(fleet_result))
    mutate(payload)
    problems = validate_report(payload)
    assert problems
    assert any(needle in problem for problem in problems)


def test_backpressure_rejects_under_tiny_queue_bound():
    result = run_fleet(**QUICK, queue_bound=1)
    rejected = sum(qos.rejected for qos in result.tenants)
    assert rejected > 0
    assert result.data_loss == 0
    for qos in result.tenants:
        assert qos.admitted + qos.rejected == qos.offered
    # Rejections eat into the admit ratio the SLO gate scores.
    assert any(qos.admit_ppm < 1_000_000 for qos in result.tenants)


def test_wear_drives_health_ladder_without_loss():
    result = run_fleet(**QUICK, wear_shards=1)
    worn = result.shards[0]
    assert worn.health["worst"] != "ok"
    assert worn.health["counters"]
    histogram = result.health_histogram
    assert sum(histogram.values()) == 2
    assert histogram.get("ok", 0) < 2
    assert result.data_loss == 0
    payload = json.loads(render_report(result))
    assert validate_report(payload) == []


def test_read_only_refusals_charge_refused_counter():
    """Regression (ISSUE 9): a shard that degrades to ``read_only``
    mid-run must charge its refusals to the *refused* counter — not the
    admission gate's *rejected* — and they must surface in the
    per-tenant QoS report."""
    from repro.fleet.shard import (Request, ShardPlan, build_prefix,
                                   run_shard, shard_seed)
    from repro.health.monitor import HealthPolicy

    tenants = default_tenants(quick=True)
    snapshot, _ = build_prefix(
        tenants, True, 11,
        health_policy=HealthPolicy(read_only_bad_blocks=2))
    # A write-heavy ingest plan with arrivals spaced far wider than the
    # service time: the admission queue never fills, so every refusal
    # below is the module's, not backpressure's.
    requests = tuple(
        Request(seq=i, tenant=2, arrival_ps=(i + 1) * 50_000_000,
                key=i % 64, write=True, version=i // 64 + 1)
        for i in range(240))
    plan = ShardPlan(shard=0, seed=shard_seed(11, 0), queue_bound=64,
                     wear=8, requests=requests)
    result = run_shard(snapshot, plan, tenants)

    assert result.health["state"] in ("read_only", "fail_stop")
    assert result.refused > 0
    assert result.rejected == 0          # not the admit gate
    qos = result.tenants[2]
    assert qos.refused == result.refused
    assert qos.rejected == 0
    assert qos.admitted == qos.offered
    assert qos.completed + qos.refused + qos.failed_reads == qos.admitted
    # ... and the refusals surface in the QoS report and its gate.
    payload = qos.to_dict()
    assert payload["refused"] == qos.refused
    assert payload["admit_ppm"] < 1_000_000
    assert payload["admit_ppm"] == qos.admit_ppm


def test_shard_results_are_pinned():
    """Two shards, one pre-worn: every ShardResult field and per-tenant
    QoS summary matches the digest recorded before ``fleet run`` and
    ``fleet chaos`` shared one serve loop."""
    import hashlib

    result = run_fleet(quick=True, shards=2, requests=3000, seed=7,
                       wear_shards=1)
    assert result.shards[0].health["worst"] != "ok"
    blob = json.dumps(
        [dict(shard.to_dict(),
              tenants=[qos.to_dict() for qos in shard.tenants])
         for shard in result.shards], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "ccab5f3c44f8d78b6097c5a0554e782c532ac4a124281df717a426e3937a53ee"


def test_run_shard_does_not_retry_media_errors(monkeypatch):
    """``fleet run`` has a one-attempt budget: a read failing with a
    MediaError that carries no refusal reason is one failed read, and
    the read is issued exactly once."""
    from repro.errors import MediaError
    from repro.fleet.shard import (Request, ShardPlan, build_prefix,
                                   run_shard, shard_seed)
    from repro.kernel.nvdc import NvdcDriver

    tenants = default_tenants(quick=True)
    snapshot, _ = build_prefix(tenants, True, 11)
    requests = tuple(
        Request(seq=i, tenant=0, arrival_ps=(i + 1) * 50_000_000, key=i,
                write=False, version=0)
        for i in range(8))
    failing_page = 3    # tenant 0's region starts at page 0
    issued = []
    read_page = NvdcDriver.read_page

    def flaky_read(self, page, now_ps):
        if page == failing_page:
            issued.append(page)
            raise MediaError("uncorrectable")
        return read_page(self, page, now_ps)

    monkeypatch.setattr(NvdcDriver, "read_page", flaky_read)
    plan = ShardPlan(shard=0, seed=shard_seed(11, 0), queue_bound=64,
                     wear=0, requests=requests)
    result = run_shard(snapshot, plan, tenants)

    assert issued == [failing_page]
    qos = result.tenants[0]
    assert qos.failed_reads == 1
    assert qos.refused == result.refused == 0
    assert qos.completed == result.completed == 7
    assert qos.admitted == 8


def test_collect_fan_out_deadline_names_stuck_shard():
    from concurrent.futures import Future

    from repro.errors import FleetError
    from repro.fleet.frontend import collect_fan_out

    class DummyPool:
        def __init__(self):
            self.calls = []

        def shutdown(self, wait=True, cancel_futures=False):
            self.calls.append((wait, cancel_futures))

    done = Future()
    done.set_result("shard-0-result")
    stuck = Future()   # never resolves: the hung worker
    pool = DummyPool()
    with pytest.raises(FleetError) as exc_info:
        collect_fan_out([done, stuck], [0, 3], pool, timeout_s=0.05)
    assert "shard 3" in str(exc_info.value)
    assert exc_info.value.code == "REPRO-E090"
    # The pool was shut down without joining the stuck worker.
    assert pool.calls == [(False, True)]


def test_collect_fan_out_orders_results_without_deadline():
    from concurrent.futures import Future

    from repro.fleet.frontend import collect_fan_out

    futures = []
    for value in ("a", "b", "c"):
        future = Future()
        future.set_result(value)
        futures.append(future)
    assert collect_fan_out(futures, [0, 1, 2], None,
                           None) == ["a", "b", "c"]


def test_tenant_pinned_run_isolates_pinned_tenants():
    result = run_fleet(**QUICK, placement="tenant_pinned")
    # analytics (index 1) pinned to shard 1, ingest (index 2) to 0.
    assert result.shards[0].tenants[1].offered == 0
    assert result.shards[1].tenants[2].offered == 0
    assert result.shards[1].tenants[1].offered > 0
    assert result.shards[0].tenants[2].offered > 0


# -- cli ---------------------------------------------------------------------------


def test_cli_run_writes_valid_report(tmp_path):
    code = main(["fleet", "run", "--quick", "--shards", "2", "--requests",
                 "2000", "--out", str(tmp_path)])
    assert code == 0
    reports = list(tmp_path.glob("FLEET_*.json"))
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert validate_report(payload) == []
    assert payload["generated_at"] is not None


def test_cli_rejects_bad_flags(tmp_path, capsys):
    assert main(["fleet", "run", "--shards", "0", "--out",
                 str(tmp_path)]) == 2
    assert main(["fleet", "run", "--jobs", "zero", "--out",
                 str(tmp_path)]) == 2


def test_cli_rejects_out_of_range_wear(tmp_path, capsys):
    assert main(["fleet", "run", "--wear", "-1", "--out",
                 str(tmp_path)]) == 2
    assert main(["fleet", "run", "--shards", "2", "--wear", "3", "--out",
                 str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[0, 2]" in err
    assert main(["fleet", "run", "--worker-timeout", "0", "--out",
                 str(tmp_path)]) == 2


def test_cli_list(capsys):
    assert main(["fleet", "list"]) == 0
    out = capsys.readouterr().out
    for name in PLACEMENTS:
        assert name in out
    for spec in default_tenants(quick=False):
        assert spec.name in out


def test_top_level_cli_has_fleet():
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "run", "--quick", "--shards", "2"])
    assert args.command == "fleet"
    assert args.shards == 2
