"""Negative tests: a wrong op result must count as failed, for any seed."""

import copy
import math
from pathlib import Path

import pytest

import run
from hostclock import HostClock
from workloads import CotrainSweep, FleetServe, HbfpTrain, InferSweep


class Scripted:
    """A workload whose op results come from a script, checked by a
    real workload's ``check_op``. Each op takes one second of a fake
    clock."""

    def __init__(self, results, check):
        self.results = results
        self.check = check
        self.grid = [f"op{i}" for i in range(len(results[0]))]
        self.pass_index = 0
        self.now = 0.0

    def begin_pass(self, index):
        self.pass_index = index

    def end_pass(self):
        pass

    def run_op(self, index):
        self.now += 1.0
        result = self.results[min(self.pass_index, len(self.results) - 1)][index]
        if isinstance(result, Exception):
            raise result
        return copy.deepcopy(result)

    def check_op(self, index, result):
        return self.check(index, result)


def failures_of(results, check, passes):
    """Measure exactly ``passes`` passes of the scripted workload."""
    workload = Scripted(results, check)
    clock = HostClock(clock=lambda: workload.now, work=lambda: None)
    seconds = (passes - 1) * len(workload.grid) + 0.5
    m = run.measure(workload, clock, seconds)
    assert len(m.passes) == passes
    return m


LOAD_POINT = {
    "inference_top_s": 160.5,
    "p50_latency_us": 900.0,
    "p99_latency_us": 1400.0,
    "requests_completed": 2124,
    "capture_samples": 2124,
}


def infer_check(index, result):
    return InferSweep(1, Path(".")).check_op(index, result)


def test_good_load_point_passes():
    assert infer_check(0, dict(LOAD_POINT)) is None


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("capture_samples", 0, "empty capture"),
        ("p99_latency_us", None, "null"),
        ("p50_latency_us", math.nan, "null"),
        ("requests_completed", 0, "no request completed"),
    ],
)
def test_empty_capture_or_null_latency_fails(field, value, reason):
    result = dict(LOAD_POINT, **{field: value})
    assert reason in infer_check(0, result)


def test_cotrain_result_must_have_gone_through_the_cache():
    workload = CotrainSweep(1, Path("."))
    result = dict(LOAD_POINT, training_top_s=70.0, capture={}, cached=False)
    assert "cache" in workload.check_op(0, result)
    result["cached"] = True
    assert workload.check_op(0, result) is None
    result["training_top_s"] = 0.0
    assert "training" in workload.check_op(0, result)


def fleet_point():
    return {
        "fleet_size": 4,
        "reproducible": True,
        "totals": {
            "submitted": 100, "completed": 90, "shed": 8, "timed_out": 1,
            "failover_dropped": 1,
        },
        "classes": {
            "latency-critical": {
                "submitted": 100, "completed": 90, "shed": 8, "timed_out": 1,
                "failover_dropped": 1, "p99_cycles": 1e5,
            },
        },
    }


def test_broken_serve_accounting_identity_fails():
    workload = FleetServe(1, Path("."))
    assert workload.check_op(0, fleet_point()) is None
    corrupted = fleet_point()
    corrupted["totals"]["completed"] += 1
    assert "identity" in workload.check_op(0, corrupted)
    corrupted = fleet_point()
    corrupted["classes"]["latency-critical"]["shed"] -= 1
    assert "identity" in workload.check_op(0, corrupted)
    corrupted = fleet_point()
    corrupted["classes"]["latency-critical"]["p99_cycles"] = None
    assert "null" in workload.check_op(0, corrupted)
    corrupted = fleet_point()
    corrupted["reproducible"] = False
    assert "reproducible" in workload.check_op(0, corrupted)


def test_training_with_a_non_finite_loss_fails():
    workload = HbfpTrain(1, Path("."))
    good = {"error_pct": 12.5, "loss": 1.3}
    assert workload.check_op(1, {"fp32": good, "hbfp8": good}) is None
    bad = dict(good, loss=math.inf)
    assert "loss" in workload.check_op(1, {"fp32": good, "hbfp8": bad})
    assert "error" in workload.check_op(
        1, {"fp32": dict(good, error_pct=101.0), "hbfp8": good}
    )
    assert "empty" in workload.check_op(0, {"train_samples": 0, "valid_samples": 5})


def test_measure_counts_raising_empty_and_unrepeatable_ops_as_failed():
    good = dict(LOAD_POINT)
    empty = dict(LOAD_POINT, capture_samples=0)
    drifted = dict(LOAD_POINT, inference_top_s=161.0)
    first = [good, good, good, good]
    second = [good, RuntimeError("boom"), empty, drifted]
    m = failures_of([first, second], infer_check, passes=2)
    assert m.attempted == 8
    assert set(m.failures) == {(1, 1), (1, 2), (1, 3)}
    assert "raised" in m.failures[(1, 1)]
    assert "empty capture" in m.failures[(1, 2)]
    assert "another pass" in m.failures[(1, 3)]


def test_an_oracle_mismatch_fails_the_op_in_every_pass():
    m = failures_of([[dict(LOAD_POINT)] * 2], infer_check, passes=3)
    assert not m.failures
    m.fail_index(1, "differs from the plain serial path")
    assert set(m.failures) == {(0, 1), (1, 1), (2, 1)}


def test_a_corrupted_job_result_differs_from_the_plain_serial_path(tmp_path):
    """The cheapest co-located point, through JobRunner, then corrupted:
    only the corrupted copy fails against ``fig9.run``."""

    class OnePoint(CotrainSweep):
        DESIGN_POINTS = (("50us", 0.4),)
        REPLICAS = 1
        BATCHES = 1

    workload = OnePoint(5, tmp_path)
    workload.setup()
    workload.begin_pass(0)
    try:
        result = workload.run_op(0)
    finally:
        workload.end_pass()
    assert workload.check_op(0, result) is None
    assert workload.verify([result]) == {}
    corrupted = copy.deepcopy(result)
    corrupted["training_top_s"] *= 1.0001
    assert "fig9.run" in workload.verify([corrupted])[0]
    corrupted = copy.deepcopy(result)
    corrupted["capture"]["duration_cycles"] += 1.0
    assert "capture" in workload.verify([corrupted])[0]


def test_a_corrupted_sweep_capture_differs_from_the_folded_jobs(tmp_path):
    """Two load points under one pass capture, as ``fig7.run`` keeps
    them: the pass capture must equal the job captures folded in order,
    and each op's share of it the job's own sample count."""

    class TwoPoints(InferSweep):
        DESIGNS = (("500us", "hbfp8"),)
        LOADS = (0.5, 0.8)
        BATCHES = 2

    workload = TwoPoints(5, tmp_path)
    workload.setup()
    workload.begin_pass(0)
    try:
        results = [workload.run_op(0), workload.run_op(1)]
    finally:
        workload.end_pass()
    assert all(workload.check_op(i, r) is None for i, r in enumerate(results))
    assert "pass_capture" in results[1]
    assert workload.verify(results) == {}
    corrupted = copy.deepcopy(results)
    corrupted[1]["pass_capture"]["duration_cycles"] += 1.0
    assert workload.verify(corrupted) == {1: "differs from the eval.load_point job"}
    dropped = copy.deepcopy(results)
    dropped[0]["capture_samples"] = 0
    assert "empty capture" in workload.check_op(0, dropped[0])
    assert 0 in workload.verify(dropped)


@pytest.mark.xfail(
    strict=True,
    reason="ExperimentCapture keys per-accelerator state by id(): an "
    "accelerator at a collected one's address folds too few samples",
)
def test_one_capture_folds_every_accelerator_of_a_sweep():
    """The known program defect ``InferSweep`` keeps every accelerator
    of a pass alive against. ``fig7.run`` drops each accelerator when it
    builds the next; ``gc.collect`` here only makes an address come back
    within a few load points. Once the capture keys by the accelerator
    object, this passes, and ``InferSweep`` can drop its accelerators as
    ``fig7.run`` does."""
    import gc

    from repro.eval.runner import (
        build_accelerator,
        capture_run,
        simulate_load_point,
    )

    seen, total = set(), 0
    with capture_run("perfbench.defect") as capture:
        for seed in range(60):
            accelerator = build_accelerator("500us", "hbfp8")
            simulate_load_point(accelerator, 0.5, batches=2, seed=seed)
            total += accelerator.engine.latency.count
            reused = id(accelerator) in seen
            seen.add(id(accelerator))
            del accelerator
            gc.collect()
            if reused:
                break
    if not reused:
        pytest.skip("no accelerator address was reused")
    assert capture.latency_us.count == total
