"""Tests of the benchmark's own code: span self-time arithmetic, the
calibrated segment timer and the segment-time summary, metric-name
validity and the determinism gate."""

from __future__ import annotations

import json
import math
import os
import types
from collections import Counter

import pytest

from perfbench import bench, hostclock, summary, workloads
from perfbench.spans import SpanRecorder, instrumented, patched
from perfbench.summary import DeterminismError, DeterminismGate
from repro.units import PAGE_4K, kb, mb


def fake_clock(*ticks: int):
    readings = iter(ticks)
    return lambda: next(readings)


# -- spans -------------------------------------------------------------------


class TestSelfTime:
    def test_nested_spans_subtract_only_their_direct_children(self):
        rec = SpanRecorder(clock=fake_clock(0, 10, 15, 25, 30, 40, 60, 100))
        rec.enter("outer")      # 0
        rec.enter("mid")        # 10
        rec.enter("inner")      # 15
        rec.exit()              # 25: inner 10
        rec.exit()              # 30: mid 20, of which inner 10
        rec.enter("mid")        # 40
        rec.exit()              # 60: mid 20
        rec.exit()              # 100: outer 100, of which mids 40
        assert rec.totals[("", "outer")] == [1, 100, 60]
        assert rec.totals[("", "mid")] == [2, 40, 30]
        assert rec.totals[("", "inner")] == [1, 10, 10]
        # Self times tile the outermost span exactly.
        assert rec.self_ns() == 100

    def test_samples_carry_parent_phase_and_op_id(self):
        rec = SpanRecorder(clock=fake_clock(0, 1, 2, 3))
        rec.phase, rec.unit_id = "measure", 7
        rec.enter("a")
        rec.phase = "readback"      # a child opened later takes the new phase
        rec.enter("b")
        rec.exit()
        rec.exit()
        by_name = {s[3]: s for s in rec.samples}
        a_id = by_name["a"][0]
        assert by_name["b"][1] == a_id and by_name["a"][1] == 0
        assert by_name["a"][2] == "measure" and by_name["b"][2] == "readback"
        assert by_name["b"][6] == 7
        assert set(rec.totals) == {("measure", "a"), ("readback", "b")}

    def test_raw_samples_are_bounded_but_totals_are_not(self):
        rec = SpanRecorder(sample_limit=2, clock=fake_clock(*range(6)))
        for _ in range(3):
            rec.enter("x")
            rec.exit()
        assert len(rec.samples) == 2
        assert rec.totals[("", "x")][0] == 3

    def test_span_closes_when_the_call_raises(self):
        rec = SpanRecorder(clock=fake_clock(0, 5))

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            rec.wrap("boom", boom)()
        assert rec.totals[("", "boom")] == [1, 5, 5]
        assert rec._stack == []


class _Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def double(y):
        return 2 * y


class TestInstrumented:
    def test_wraps_methods_and_restores_them(self):
        originals = dict(vars(_Thing))
        rec = SpanRecorder()
        targets = [("t.method", _Thing, "method"), ("t.make", _Thing, "make"),
                   ("t.double", _Thing, "double")]
        with instrumented(rec, targets):
            thing = _Thing.make()
            assert isinstance(thing, _Thing)
            assert thing.method(1) == 2
            assert _Thing.double(3) == 6
        for name in ("method", "make", "double"):
            assert vars(_Thing)[name] is originals[name]
        assert {name: agg[0] for (_, name), agg in rec.totals.items()} == {
            "t.method": 1, "t.make": 1, "t.double": 1}

    def test_restores_after_an_exception(self):
        module = types.ModuleType("fake")
        module.gen = lambda: 1
        original = module.gen
        with pytest.raises(RuntimeError):
            with patched(module, "gen", lambda fn: (lambda: 2)):
                assert module.gen() == 2
                raise RuntimeError
        assert module.gen is original


# -- summaries ---------------------------------------------------------------


def _timer(host_s: dict, chunks: list[float]) -> hostclock.SegmentTimer:
    """A timer whose segments ran back to back between ``chunks``."""
    timer = hostclock.SegmentTimer(calibrate=False)
    timer.host_s = dict(host_s)
    timer.chunks = list(chunks)
    timer._before = {key: index for index, key in enumerate(host_s)}
    return timer


class TestSegmentTimer:
    REF = hostclock.REFERENCE_CHUNK_S

    def test_scales_each_segment_by_the_chunks_around_it(self):
        timer = _timer({0: 0.010, 1: 0.030},
                       [self.REF, self.REF, 2.25 * self.REF])
        # Segment 1 sits between chunks of 1.0 and 2.25 references:
        # geometric mean 1.5.
        assert timer.scaled_s() == pytest.approx({0: 0.010, 1: 0.020})

    def test_a_uniformly_slower_host_cancels(self):
        fast = _timer({0: 0.02}, [0.002, 0.002])
        slow = _timer({0: 0.03}, [0.003, 0.003])
        assert slow.scaled_s() == pytest.approx(fast.scaled_s())

    def test_laps_key_segments_and_skip_chunks_when_not_calibrating(self):
        timer = hostclock.SegmentTimer(calibrate=False)
        timer.start()
        timer.lap("a")
        timer.stop("b")
        timer.close()
        assert list(timer.host_s) == ["a", "b"]
        assert timer.chunk_s() == {"a": self.REF, "b": self.REF}
        assert timer.calibration_s() == 0.0

    def test_calibrating_runs_a_chunk_per_segment_and_one_to_close(self):
        timer = hostclock.SegmentTimer()
        for key in range(3):
            timer.start()
            timer.stop(key)
        timer.close()
        assert len(timer.chunks) == 3 + 1
        assert timer.calibration_s() == pytest.approx(sum(timer.chunks))
        assert timer.calibration_s() > 0


class TestSegmentSummary:
    def test_sums_each_segments_median_repetition(self):
        times = {0: [3.0, 1.0, 2.0], 1: [5.0, 4.0, 6.0]}
        assert summary.median_pass_s(times) == 7.0

    def test_one_disturbed_repetition_changes_nothing(self):
        times = {0: [3.0, 1.0, 2.0], 1: [5.0, 4.0, 6.0]}
        disturbed = {0: [30.0, 1.0, 2.0], 1: [5.0, 0.1, 6.0]}
        assert summary.median_pass_s(disturbed) == summary.median_pass_s(times)

    def test_each_segment_is_summarised_on_its_own(self):
        # Repetition 1 was slowed in segment 0, repetition 2 in segment 1:
        # each segment's median still comes from clean readings.
        times = {0: [9.0, 1.0, 1.0], 1: [1.0, 9.0, 1.0]}
        assert summary.median_pass_s(times) == 2.0

    def test_rejects_missing_timings(self):
        with pytest.raises(ValueError):
            summary.median_pass_s({})
        with pytest.raises(ValueError):
            summary.median_pass_s({0: [1.0], 1: []})

    def test_nearest_rank_counts_failures_above_any_limit(self):
        samples = [float(v) for v in range(1, 101)]
        assert summary.nearest_rank(Counter(samples), 0.50) == 50.0
        assert summary.nearest_rank(Counter(samples), 0.99) == 99.0
        failed = Counter(samples[:98] + [math.inf, math.inf])
        assert summary.nearest_rank(failed, 0.99) == math.inf
        assert summary.nearest_rank(failed, 0.50) == 50.0

    def test_nearest_rank_weighs_repeated_values(self):
        histogram = {2.0: 90, 1.0: 5, 7.0: 5}
        assert summary.nearest_rank(histogram, 0.05) == 1.0
        assert summary.nearest_rank(histogram, 0.06) == 2.0
        assert summary.nearest_rank(histogram, 0.95) == 2.0
        assert summary.nearest_rank(histogram, 0.99) == 7.0
        with pytest.raises(ValueError):
            summary.nearest_rank({}, 0.5)


# -- names -------------------------------------------------------------------


class TestNames:
    @pytest.mark.parametrize("name", [
        "ops_per_s", "kernel.hit_ratio", "setup.kernel.fault.self_ms",
        "dax-hit", "9lives", "a" * 64])
    def test_valid(self, name):
        assert summary.valid_name(name)

    @pytest.mark.parametrize("name", [
        "", ".hidden", "-x", "has space", "ops/s", "µs", "a" * 65,
        "trailing\n"])
    def test_invalid(self, name):
        assert not summary.valid_name(name)

    def test_every_reported_metric_is_valid_and_declared(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as spec_file:
            spec = json.load(spec_file)
        declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert declared_e2e == bench.E2E_UNITS
        assert declared_layer == workloads.per_layer_units()
        names = (list(declared_e2e) + list(declared_layer)
                 + [w["name"] for w in spec["workloads"]])
        assert all(summary.valid_name(name) for name in names)
        assert len(names) == len(set(names))
        assert {w["name"] for w in spec["workloads"]} == set(
            workloads.WORKLOADS)


# -- determinism gate --------------------------------------------------------


class TestDeterminismGate:
    def test_identical_fingerprints_pass(self):
        gate = DeterminismGate()
        gate.check("first", {"kernel.hits": 5, "sim_op_us_p50": 2.23})
        gate.check("second", {"kernel.hits": 5, "sim_op_us_p50": 2.23})

    def test_a_perturbed_count_is_rejected_by_name(self):
        gate = DeterminismGate({"kernel.hits": 5, "nand.erases": 2})
        with pytest.raises(DeterminismError, match="nand.erases: 2 -> 3"):
            gate.check("rerun", {"kernel.hits": 5, "nand.erases": 3})

    def test_a_missing_count_is_rejected(self):
        gate = DeterminismGate({"kernel.hits": 5, "nand.erases": 2})
        with pytest.raises(DeterminismError, match="nand.erases"):
            gate.check("rerun", {"kernel.hits": 5})


def _round(hits: int) -> workloads.Round:
    chunks = [hostclock.REFERENCE_CHUNK_S] * 2
    return workloads.Round.of(
        [2_000_000.0] * 10, setup=_timer({0: 0.1}, chunks),
        measured=_timer({0: 0.01}, chunks),
        attempted=10, failed=0, counts={"kernel.hits": hits})


class _DriftingWorkload:
    """Reports one more hit on every round: changed behaviour."""

    name = "drifting"
    round_s = 1.0

    def __init__(self) -> None:
        self.rounds = 0

    def run_round(self, seed, recorder=None):
        self.rounds += 1
        return _round(self.rounds)


class TestRoundCount:
    def test_depends_only_on_the_seconds_and_the_budget(self):
        hit = workloads.WORKLOADS["dax-hit"]
        assert bench.round_count(hit, 30) == int(30 // hit.round_s)
        assert bench.round_count(hit, 1) == bench.MIN_ROUNDS

    def test_a_run_makes_exactly_that_many_rounds(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))

        class Counting(_DriftingWorkload):
            def run_round(self, seed, recorder=None):
                self.rounds += 1
                return _round(5)

        workload = Counting()
        result = bench.measure(workload, seed=1, seconds=5)
        assert result["diagnostics"]["rounds"] == 5
        assert workload.rounds == 5 + 1             # and the held-out seed


class TestRunnerGates:
    def test_a_count_drifting_within_a_run_stops_it(self):
        with pytest.raises(DeterminismError, match="kernel.hits: 1 -> 2"):
            bench.measure(_DriftingWorkload(), seed=1, seconds=1)

    def test_a_count_differing_from_an_earlier_run_stops_it(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
        fingerprint = _round(5).fingerprint()
        bench._check_across_runs("w", 1, fingerprint)      # leaves it
        bench._check_across_runs("w", 1, fingerprint)      # matches it
        bench._check_across_runs("w", 2, _round(6).fingerprint())
        with pytest.raises(DeterminismError, match="kernel.hits: 5 -> 6"):
            bench._check_across_runs("w", 1, _round(6).fingerprint())


# -- small rounds of the real workloads --------------------------------------

_TINY_HIT = workloads.DaxWorkload(
    "tiny-hit", round_s=1.0, cache_bytes=mb(2), device_bytes=mb(1),
    footprint_pages=mb(1) // PAGE_4K, warm_pages=mb(1) // PAGE_4K,
    nops=600, segment_ops=200)
_TINY_MISS = workloads.DaxWorkload(
    "tiny-miss", round_s=1.0, cache_bytes=kb(256), device_bytes=mb(2),
    footprint_pages=mb(2) // PAGE_4K, warm_pages=kb(256) // PAGE_4K,
    nops=600, segment_ops=200)


class TestRounds:
    def test_repeated_rounds_match_and_a_perturbation_is_caught(self):
        first = _TINY_MISS.run_round(seed=3).fingerprint()
        second = _TINY_MISS.run_round(seed=3).fingerprint()
        gate = DeterminismGate()
        gate.check("first", first)
        gate.check("second", second)
        assert first["failed"] == 0 and first["kernel.misses"] > 0
        perturbed = dict(second, **{"kernel.writebacks":
                                    second["kernel.writebacks"] + 1})
        with pytest.raises(DeterminismError, match="kernel.writebacks"):
            gate.check("perturbed", perturbed)

    def test_a_corrupted_page_fails_its_ops(self, monkeypatch):
        from repro.kernel.nvdc import NvdcDriver

        real_read = NvdcDriver.read_page

        def corrupting_read(self, page, now_ps):
            data, end = real_read(self, page, now_ps)
            return (b"\0" * len(data) if page == 0 else data), end

        monkeypatch.setattr(NvdcDriver, "read_page", corrupting_read)
        result = _TINY_HIT.run_round(seed=3)
        assert 0 < result.failed < result.attempted

    def test_tracing_changes_no_count_and_keeps_phases_apart(self):
        untraced = _TINY_HIT.run_round(seed=5).fingerprint()
        rec = SpanRecorder()
        with instrumented(rec, workloads.span_targets()):
            traced = _TINY_HIT.run_round(seed=5, recorder=rec).fingerprint()
        assert traced == untraced
        calls = {key: agg[0] for key, agg in rec.totals.items()}
        # Every measured op hits: the prefault's CP traffic is set-up.
        assert calls.get(("measure", "nvmc.submit"), 0) == 0
        assert calls.get(("measure", "nand.read"), 0) == 0
        assert calls[("measure", "device.op")] == 600
        assert calls[("setup", "kernel.fault")] == mb(1) // PAGE_4K
        assert calls[("setup", "workloads.gen")] == 1

    def test_fleet_round_is_clean_and_counted(self):
        fleet = workloads.FleetWorkload("tiny-fleet", round_s=1.0, requests=400, shards=2,
                                        segment_calls=50)
        result = fleet.run_round(seed=2)
        assert result.failed == 0
        assert result.attempted == 400
        assert result.counts["fleet.admitted"] + \
            result.counts["fleet.rejected"] == 400
        assert result.counts["trace.emits"] > 0
        segments = result.measured.host_s
        assert {shard for shard, _ in segments} == {0, 1}
        assert len(segments) > 2 * 400 // 2 // 50
        assert len(result.measured.chunks) == len(segments) + 1
