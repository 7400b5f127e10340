"""Drift normalization: a uniformly slower host must not move any
normalized metric."""

from pathlib import Path

import pytest

import hostclock
import run
from hostclock import HostClock
from workloads import WORKLOADS


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeWorkload:
    """Ops that only advance the fake clock; ``slowdown`` stretches
    them exactly as it stretches the calibration."""

    def __init__(self, clock: FakeClock, costs, slowdown: float):
        self.clock = clock
        self.costs = costs
        self.slowdown = slowdown
        self.grid = [f"op{i}" for i in range(len(costs))]

    def begin_pass(self, index):
        pass

    def end_pass(self):
        pass

    def run_op(self, index):
        self.clock.now += self.costs[index] * self.slowdown
        return {"index": index}

    def check_op(self, index, result):
        return None


def measured(costs, slowdown, seconds, calib_s=0.01, tail_passes=1):
    clock = FakeClock()

    def work():
        clock.now += calib_s * slowdown

    host = HostClock(clock=clock, work=work)
    workload = FakeWorkload(clock, costs, slowdown)
    m = run.measure(workload, host, seconds, min_passes=tail_passes)
    setup = [(raw * slowdown, calib_s * slowdown) for raw in (0.8, 1.0, 1.3)]
    normalized, raw = run.end_to_end_metrics(m, setup, 90.0, tail_passes)
    return normalized, raw, len(m.passes)


def assert_same_normalized(a, b):
    for name in ("setup_s", "pass_s", "op_p50_ms", "op_tail_ms"):
        assert a[name] == pytest.approx(b[name], rel=1e-12), name


def test_one_pass_of_unequal_ops_is_unchanged_by_a_slower_host():
    costs = [0.05, 0.2, 0.11, 0.4, 0.07]
    base, base_raw, _ = measured(costs, 1.0, seconds=0)
    for slowdown in (0.5, 1.7, 3.0):
        slow, slow_raw, _ = measured(costs, slowdown, seconds=0)
        assert_same_normalized(base, slow)
        assert slow_raw["pass_s"] == pytest.approx(base_raw["pass_s"] * slowdown)


def test_many_passes_are_unchanged_by_a_slower_host():
    # Fewer passes fit into the run on a slower host, but the tail is
    # taken from the first passes only, so it sees the same ops.
    costs = [0.02, 0.05, 0.01, 0.03, 0.2]
    base, _, base_passes = measured(costs, 1.0, 6.0, tail_passes=4)
    slow, _, slow_passes = measured(costs, 2.0, 6.0, tail_passes=4)
    assert 4 <= slow_passes < base_passes
    assert_same_normalized(base, slow)
    assert base["pass_s"] == pytest.approx(
        sum(costs) * hostclock.REFERENCE_CALIB_S / 0.01
    )


def test_a_short_run_still_measures_the_tail_passes():
    _, _, passes = measured([0.5, 0.5], 1.0, seconds=0.1, tail_passes=3)
    assert passes == 3


def test_normalization_uses_the_calibrations_of_each_pass():
    # A host that slows down halfway through the run: passes measured
    # at either speed normalize to the same value.
    clock = FakeClock()
    slowdown = {"value": 1.0}

    def work():
        clock.now += 0.01 * slowdown["value"]

    class Drifting(FakeWorkload):
        def end_pass(self):
            slowdown["value"] = self.slowdown = 2.5

    host = HostClock(clock=clock, work=work)
    m = run.measure(Drifting(clock, [0.1, 0.3, 0.2], 1.0), host, seconds=2.0)
    normalized = [p.normalized_s for p in m.passes]
    assert len(normalized) >= 2
    assert max(normalized) == pytest.approx(min(normalized), rel=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_tail_has_ten_ops_beyond_it(name):
    workload = WORKLOADS[name](1, Path("."))
    ops = workload.TAIL_PASSES * len(workload.grid)
    assert ops * (100.0 - workload.TAIL_PCT) / 100.0 >= 10


def test_percentile_interpolates():
    assert hostclock.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert hostclock.percentile(range(11), 90.0) == 9.0


def test_calibration_work_is_deterministic():
    assert hostclock.calibration_work() == hostclock.calibration_work()
