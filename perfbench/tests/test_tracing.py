"""Traced runs: counts repeat exactly for a seed, tracing changes no
result, and the program is left unpatched afterwards."""

import pytest

import run
from hostclock import HostClock
from tracing import traced_phase
from workloads import CotrainSweep, FleetServe, HbfpTrain, InferSweep


class SmallInfer(InferSweep):
    DESIGNS = (("500us", "hbfp8"),)
    LOADS = (0.8,)
    BATCHES = 2


class SmallCotrain(CotrainSweep):
    DESIGN_POINTS = (("50us", 0.4),)
    REPLICAS = 1
    BATCHES = 1


class SmallTrain(HbfpTrain):
    EPOCHS = {"classification": 1}


class SmallFleet(FleetServe):
    FLEET_SIZES = (4,)


#: workload → the counts it must drive above zero.
CASES = [
    (SmallInfer, ("sim.events", "hw.mmu_jobs", "core.requests", "obs.samples")),
    (SmallCotrain, ("sim.events", "hw.mmu_jobs", "exec.jobs", "exec.cache_writes")),
    (SmallTrain, ("kernels.bfp.quantize_calls", "kernels.bfp.matmul_calls")),
    (SmallFleet, ("serve.requests", "serve.failovers", "core.requests")),
]


def traced_counts(workload_cls, tmp_path):
    workload = workload_cls(3, tmp_path)
    workload.setup()
    m = run.measure(workload, HostClock(), seconds=0, traced=True)
    assert [p.phase is not None for p in m.passes] == [False, True]
    assert not m.failures, m.failures
    metrics = m.traced()[0].phase.metrics(1.0)
    return {
        name: value for name, value in metrics.items()
        if not name.endswith("_s") and name != "sim.events_per_s"
    }


@pytest.mark.parametrize("workload_cls, driven", CASES)
def test_two_traced_runs_give_identical_counts(workload_cls, driven, tmp_path):
    first = traced_counts(workload_cls, tmp_path / "a")
    second = traced_counts(workload_cls, tmp_path / "b")
    assert first == second
    for name in driven:
        assert first[name] > 0, name


def test_tracing_restores_the_program():
    from repro.kernels.registry import KernelPair
    from repro.sim.engine import Simulator

    before = (Simulator.run, Simulator.__init__, KernelPair.implementation)
    with traced_phase():
        assert Simulator.run is not before[0]
    assert (Simulator.run, Simulator.__init__, KernelPair.implementation) == before


def test_self_times_nest():
    from tracing import Tracer

    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.enter("outer")
    now[0] += 1.0
    tracer.enter("inner")
    now[0] += 3.0
    tracer.exit()
    now[0] += 0.5
    assert tracer.exit() == 4.5
    assert dict(tracer.self_s) == {"outer": 1.5, "inner": 3.0}
