"""Tests for the command-line interface."""

import importlib
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.report import HARNESS_REPORTS, check_report, gate, write_report


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fio_defaults(self):
        args = build_parser().parse_args(["fio"])
        assert args.device == "nvdc"
        assert args.rw == "randread"
        assert args.bs == 4096

    def test_unknown_experiment_id_fails(self):
        assert main(["experiments", "fig99"]) == 2

    def test_unknown_experiment_id_names_valid_ids(self, capsys):
        main(["experiments", "fig99"])
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "valid ids" in err

    def test_jobs_flag(self):
        args = build_parser().parse_args(["experiments", "--jobs", "auto"])
        assert args.jobs == "auto"
        args = build_parser().parse_args(["report", "--jobs", "4"])
        assert args.jobs == "4"

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.ids == []
        assert args.quick is False
        assert args.out == "."
        assert args.baseline is None
        assert args.max_regression is None


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "NVDIMM-C" in out
        assert "STT-MRAM" in out

    def test_fio_pmem(self, capsys):
        assert main(["fio", "--device", "pmem", "--nops", "200"]) == 0
        out = capsys.readouterr().out
        assert "KIOPS" in out

    def test_fio_nvdc_multithread(self, capsys):
        assert main(["fio", "--threads", "2", "--nops", "200"]) == 0
        assert "MB/s" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["validate", "--iterations", "1"]) == 0
        assert "CLEAN" in capsys.readouterr().out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Hypothetical" in out

    def test_experiments_parallel_jobs(self, capsys):
        assert main(["experiments", "fig12", "crosscheck",
                     "--jobs", "2"]) == 0
        assert "2 workers" in capsys.readouterr().out


class TestBench:
    def test_bench_writes_file_and_compares(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        assert main(["bench", "fig12", "--out", out_dir]) == 0
        first = capsys.readouterr().out
        assert "wrote" in first
        assert "no prior BENCH file" in first
        # Second run finds the first as implicit baseline and gates on it.
        assert main(["bench", "fig12", "--out", out_dir,
                     "--max-regression", "1000"]) == 0
        second = capsys.readouterr().out
        assert "comparison vs" in second
        assert "gate passes" in second
        benches = list(tmp_path.glob("BENCH_*.json"))
        assert len(benches) == 2

    def test_bench_unknown_id_fails(self, tmp_path):
        assert main(["bench", "fig99", "--out", str(tmp_path)]) == 2

    def test_bench_regression_gate_fails(self, tmp_path, capsys):
        # crosscheck, not fig12: the gate needs a measurably nonzero
        # wall-clock on the current run to trip against the forged
        # impossibly-fast baseline.
        import json

        from repro.perf.bench import load_bench
        out_dir = str(tmp_path)
        assert main(["bench", "crosscheck", "--out", out_dir]) == 0
        capsys.readouterr()
        real = load_bench(next(iter(tmp_path.glob("BENCH_*.json"))).as_posix())
        for entry in real["experiments"]:
            entry["wall_s"] = 1e-9
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(real))
        assert main(["bench", "crosscheck", "--out", out_dir,
                     "--baseline", str(forged),
                     "--max-regression", "2.0"]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().out


# -- the shared harness skeleton (faults, soak, crash, fleet, chaos, age) ---------
#
# Hand-built results, no campaigns: each factory returns its harness's
# real result type, clean, or failing exactly the one named gate.


def _faults(fail=""):
    from repro.faults.campaign import CampaignResult, CellResult
    cell = CellResult(fault="cp-corrupt", workload="seq-write",
                      cell_seed=1, recoverable=True, ok=fail != "cell")
    return CampaignResult(seed=0, quick=True, cells=[cell])


def _soak(fail=""):
    from repro.health.soak import SoakResult, SoakRound
    return SoakResult(
        seed=0, quick=True,
        rounds=[SoakRound(name="baseline", data_loss=int(fail == "loss"))],
        edges={"ok->retry": int(fail != "edges")},
        clean_p99_ps=1, soak_p99_ps=100 if fail == "latency" else 1,
        violations=int(fail == "violations"))


def _crash(fail=""):
    from repro.recovery.explorer import ExplorerResult, RunOutcome
    cut = RunOutcome(index=3 if fail == "drain" else 7,
                     committed_lost=int(fail == "invariant"))
    return ExplorerResult(seed=0, quick=True, total_events=10,
                          workload_events=5,
                          baseline_ok=fail != "baseline", outcomes=[cut])


def _tenant(ok=True):
    from repro.fleet.qos import TenantQoS
    from repro.fleet.tenants import default_tenants
    served = 10 if ok else 1
    return TenantQoS(spec=default_tenants(quick=True)[0], offered=10,
                     admitted=served, completed=served)


def _shard(index, fail=""):
    from repro.fleet.shard import ShardResult
    return ShardResult(shard=index, tenants=[],
                       data_loss=int(fail == "loss"),
                       violations=int(fail == "violations"))


def _fleet(fail=""):
    from repro.fleet.frontend import FleetResult
    return FleetResult(config=None, placement="round_robin",
                       service_est_ps=1, shards=[_shard(0, fail)],
                       tenants=[_tenant(fail != "slo")])


def _chaos(fail=""):
    from repro.fleet.chaos import (ChaosResult, ChaosShardOutcome,
                                   ChaosTenantView)
    from repro.fleet.qos import TenantQoS
    primary = _tenant(fail != "availability")
    evacuation = SimpleNamespace(donor=1, pages=(0, 1))
    routing = SimpleNamespace(
        impaired=() if fail == "demonstrated" else (0,),
        evacuations=(evacuation,))
    outcomes = [ChaosShardOutcome(result=_shard(0, fail)),
                ChaosShardOutcome(result=_shard(1), evac_in_pages=2)]
    view = ChaosTenantView(spec=primary.spec, primary=primary,
                           failover=TenantQoS(spec=primary.spec))
    return ChaosResult(config=None, roles=None, service_est_ps=1,
                       events={}, hedged_writes=0, outcomes=outcomes,
                       pass2_shards=(), routing=routing, tenants=[view])


def _age(fail=""):
    from repro.aging.campaign import AgingConfig, AgingResult, ShardOutcome
    ladder = [{"from": "ok", "to": "fail_stop"}] if fail == "graceful" \
        else []
    greedy = ShardOutcome(strategy="greedy", shard=0, wear_accel=1,
                          wear_spread_x1000=2000,
                          data_loss=int(fail == "loss"), ladder=ladder)
    static = ShardOutcome(strategy="static", shard=0, wear_accel=1,
                          wear_spread_x1000=2500 if fail == "leveling"
                          else 1500)
    return AgingResult(config=AgingConfig(quick=True,
                                          strategies=("greedy", "static")),
                       shards=[greedy, static],
                       violations=int(fail == "violations"))


#: Report prefix -> (result factory, the gates a result can fail).
HARNESSES = {
    "FAULTS": (_faults, ("cell",)),
    "SOAK": (_soak, ("loss", "edges", "latency", "violations")),
    "RECOVERY": (_crash, ("baseline", "invariant", "drain")),
    "FLEET": (_fleet, ("loss", "violations", "slo")),
    "CHAOS": (_chaos, ("loss", "violations", "demonstrated",
                       "availability")),
    "AGING": (_age, ("loss", "violations", "graceful", "leveling")),
}


def test_every_harness_report_is_covered():
    assert HARNESSES.keys() == HARNESS_REPORTS.keys()


@pytest.mark.parametrize("prefix", sorted(HARNESSES))
def test_harness_skeleton_exit_codes(prefix, tmp_path, capsys):
    build, gates = HARNESSES[prefix]
    clean = build()
    assert clean.ok and clean.failures() == []
    assert gate(clean, "harness clean") == 0
    assert capsys.readouterr() == ("harness clean\n", "")

    for name in gates:     # each gate on its own: ok drops, one line
        failing = build(name)
        assert not failing.ok, name
        [line] = failing.failures()
        assert " FAILED: " in line
        assert gate(failing, "harness clean") == 1
        assert capsys.readouterr() == ("", line + "\n")

    schema = importlib.import_module(HARNESS_REPORTS[prefix]).SCHEMA
    assert check_report({"schema": schema})[0] == prefix
    for bad in ({"schema": schema}, {"schema": schema + "0"}):
        truncated = SimpleNamespace(to_dict=lambda bad=bad: dict(bad))
        assert write_report(truncated, str(tmp_path)) == 2
        assert "report schema problem: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_report_compare_entry(tmp_path, capsys):
    from repro.report import compare_reports, render_report
    result = _faults()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(render_report(result, timestamp="20260101-000000"))
    second.write_text(render_report(result, timestamp="20260202-000000"))
    assert compare_reports([str(first), str(second)]) == 0
    assert "identical after normalizing generated_at" in \
        capsys.readouterr().out
    second.write_text(render_report(_faults("cell")))
    assert compare_reports([str(first), str(second)]) == 1
    assert "DIFFER" in capsys.readouterr().out
    second.write_text('{"schema": "repro.faults/1"}')
    assert compare_reports([str(first), str(second)]) == 1
    assert "schema problem" in capsys.readouterr().out
    assert compare_reports([str(first)]) == 2
