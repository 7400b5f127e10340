"""The four benchmark workloads.

Each workload is a single-process closed loop with one client: the next
op starts when the previous one returns. Inside the simulator, arrivals
are open-loop Poisson in simulated time, drawn from the benchmark seed.
A *pass* runs the workload's fixed grid of ops once, in order; every
pass repeats the same inputs, so every op result must repeat exactly.

A workload provides:

* ``setup()`` — everything a user pays once per process before the
  first op (Table-1 DSE sweep, compilation, warm-up);
* ``op_seed(index)`` — the seed of one op's inputs, derived from the
  benchmark seed so that ops draw independent arrivals;
* ``grid`` — one label per op of a pass;
* ``TAIL_PASSES`` / ``TAIL_PCT`` — ``op_tail_ms`` is the ``TAIL_PCT``
  percentile of the ops of the first ``TAIL_PASSES`` passes, a fixed
  sample whatever the throughput, with at least ten ops beyond it;
* ``begin_pass()`` / ``end_pass()`` — per-pass context;
* ``run_op(index)`` — one op, returning a JSON-able result;
* ``check_op(index, result)`` — ``None`` or why the result is wrong;
* ``verify(results)`` — compare one pass's results against the plain
  serial path, returning ``{index: reason}`` for every mismatch;
* ``headline(results)`` — the simulated value of the workload's paper
  headline (compared with ``paper_value``), or ``None``.

See README.md for why each workload exists and which layers it drives.
"""

import gc
import json
import math
import shutil
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

# Bound here, before any traced pass wraps the program's own bindings,
# so that the benchmark's result conversion is not counted as ``exec``.
from repro.exec.canonical import decode, encode

Result = Dict[str, Any]


def canonical(value: Any) -> str:
    """Order-independent text form used to compare results exactly."""
    return json.dumps(value, sort_keys=True, allow_nan=True)


def _jsonable(value: Any) -> Any:
    """The canonical JSON round trip job results go through."""
    return decode(encode(value))


def _capture_view(state: Dict[str, Any]) -> Dict[str, Any]:
    """A capture state as its queries see it: the latency sum's
    Shewchuk partials become their exact sum. Observing samples one by
    one and merging sketches give different partials of the same sum."""
    state = _jsonable(state)
    state["latency"]["partials"] = math.fsum(state["latency"]["partials"])
    return state


def _bad_number(value: Any) -> bool:
    return (
        value is None
        or not isinstance(value, (int, float))
        or math.isnan(value)
        or math.isinf(value)
    )


class Workload:
    name = ""
    #: Paper value of :meth:`headline` (None: the workload has none).
    paper_value: Optional[float] = None
    #: Passes the tail sample spans (a run measures at least these).
    TAIL_PASSES = 1
    #: The percentile ``op_tail_ms`` reports.
    TAIL_PCT = 50.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(seed)
        self.work_dir = work_dir
        self.grid: List[str] = []

    def setup(self) -> None:
        pass

    def op_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def begin_pass(self, index: int) -> None:
        pass

    def end_pass(self) -> None:
        pass

    def run_op(self, index: int) -> Result:
        raise NotImplementedError

    def check_op(self, index: int, result: Result) -> Optional[str]:
        raise NotImplementedError

    def verify(self, results: List[Optional[Result]]) -> Dict[int, str]:
        raise NotImplementedError

    def headline(self, results: List[Optional[Result]]) -> Optional[float]:
        return None


def _load_point_check(result: Result, training: bool) -> Optional[str]:
    """Shared sanity check of one simulated load point."""
    for key in ("inference_top_s", "p50_latency_us", "p99_latency_us"):
        if _bad_number(result.get(key)):
            return f"{key} is null or not finite"
    if result["inference_top_s"] <= 0:
        return "no inference throughput"
    if result.get("requests_completed", 0) <= 0:
        return "no request completed"
    if training and (
        _bad_number(result.get("training_top_s"))
        or result["training_top_s"] <= 0
    ):
        return "no training throughput"
    if result.get("capture_samples", 0) <= 0:
        return "empty capture"
    return None


class InferSweep(Workload):
    """Fig-7 inference-only LSTM load points on the plain serial path."""

    name = "infer_sweep"
    #: hbfp8 vs bfloat16 throughput under the latency target (Fig 7).
    paper_value = 5.15
    #: (latency class, encoding); the first two give the headline.
    DESIGNS = (("500us", "hbfp8"), ("500us", "bfloat16"), ("none", "hbfp8"))
    #: Both sides of the throughput knee at load 1.0.
    LOADS = (0.5, 0.8, 0.95, 1.1, 1.3)
    BATCHES = 12
    TAIL_PASSES = 12  # 180 ops, 18 beyond p90
    TAIL_PCT = 90.0

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.points = [
            (latency_class, encoding, load)
            for latency_class, encoding in self.DESIGNS
            for load in self.LOADS
        ]
        self.grid = [f"{cls}/{enc}@{load}" for cls, enc, load in self.points]
        self.targets_us: Dict[str, float] = {}
        self._capture_run: Optional[ExitStack] = None
        self._capture: Any = None
        self._accelerators: List[Any] = []

    def setup(self) -> None:
        from repro.dse.table1 import equinox_configuration
        from repro.eval.runner import latency_target_us

        for latency_class, encoding in self.DESIGNS:
            equinox_configuration(latency_class, encoding)
            self.targets_us[encoding] = latency_target_us(encoding)

    def begin_pass(self, index: int) -> None:
        """One capture per pass, as ``fig7.run`` keeps one per sweep."""
        from repro.eval.runner import capture_run

        self._capture_run = ExitStack()
        self._capture = self._capture_run.enter_context(
            capture_run(f"perfbench.{self.name}")
        )

    def end_pass(self) -> None:
        self._capture_run.close()
        self._capture_run = self._capture = None
        # Free the pass's accelerators (they hold reference cycles) before
        # the next pass builds its own, so that peak memory is one pass's
        # worth whenever the collector would otherwise have run.
        self._accelerators.clear()
        gc.collect()

    def run_op(self, index: int) -> Result:
        """One load point, built and simulated as ``fig7.run`` does it.
        The op's samples are the capture's growth; the last op of a pass
        also returns the whole pass's capture.

        Unlike ``fig7.run``, every accelerator of a pass stays alive
        until the pass's capture closes. ``ExperimentCapture`` keys its
        per-accelerator state by ``id()``, so an accelerator that gets
        the address of a collected one folds too few samples (see
        README.md, *Known program defect*, and the strict xfail in
        ``tests/test_checks.py``)."""
        from repro.eval.runner import build_accelerator, simulate_load_point

        latency_class, encoding, load = self.points[index]
        before = self._capture.latency_us.count
        accelerator = build_accelerator(latency_class, encoding)
        self._accelerators.append(accelerator)
        report = simulate_load_point(
            accelerator, load, batches=self.BATCHES, seed=self.op_seed(index),
        )
        result = {
            "inference_top_s": report.inference_top_s,
            "p50_latency_us": report.p50_latency_us,
            "p99_latency_us": report.p99_latency_us,
            "requests_completed": report.requests_completed,
            "capture_samples": self._capture.latency_us.count - before,
        }
        if index == len(self.points) - 1:
            result["pass_capture"] = _capture_view(self._capture.state_dict())
        return result

    def check_op(self, index: int, result: Result) -> Optional[str]:
        return _load_point_check(result, training=False)

    def verify(self, results: List[Optional[Result]]) -> Dict[int, str]:
        """Each serial op against the ``eval.load_point`` job function,
        which assembles the same layers on its own, and the pass's
        capture against the job captures folded in order, as
        ``fig7.run`` folds them when it runs through an executor."""
        from repro.eval.runner import ExperimentCapture
        from repro.exec.tasks import eval_load_point

        failures: Dict[int, str] = {}
        folded = ExperimentCapture(f"perfbench.{self.name}")
        for index, result in enumerate(results):
            latency_class, encoding, load = self.points[index]
            job = eval_load_point(
                {
                    "latency_class": latency_class,
                    "encoding": encoding,
                    "load": load,
                    "batches": self.BATCHES,
                },
                self.op_seed(index),
            )
            folded.merge_state(job["capture"])
            if result is None:
                continue
            expected = {
                key: job[key]
                for key in (
                    "inference_top_s", "p50_latency_us", "p99_latency_us",
                    "requests_completed",
                )
            }
            expected["capture_samples"] = job["capture"]["latency"]["count"]
            if index == len(self.points) - 1:
                expected["pass_capture"] = _capture_view(folded.state_dict())
            if canonical(_jsonable(expected)) != canonical(result):
                failures[index] = "differs from the eval.load_point job"
        return failures

    def headline(self, results: List[Optional[Result]]) -> Optional[float]:
        best = {"hbfp8": 0.0, "bfloat16": 0.0}
        for (latency_class, encoding, _), result in zip(self.points, results):
            if (
                latency_class == "500us"
                and result
                and result["p99_latency_us"] <= self.targets_us[encoding]
            ):
                best[encoding] = max(best[encoding], result["inference_top_s"])
        if best["bfloat16"] <= 0:
            return None
        return best["hbfp8"] / best["bfloat16"]


class CotrainSweep(Workload):
    """Fig-9 co-located training, one ``eval.load_point`` job per op
    through ``exec.JobRunner`` (jobs=1) with a fresh cache per pass."""

    name = "cotrain_sweep"
    #: Equinox_500us at load 0.6 as a fraction of dedicated (Fig 9).
    paper_value = 0.78
    #: One load point per Table-1 design, of similar cost. A short
    #: co-located run's training work varies by about 10 % with its
    #: arrivals, so each point runs with ``REPLICAS`` arrival seeds.
    DESIGN_POINTS = (
        ("min", 0.6), ("50us", 0.4), ("500us", 0.6), ("500us", 0.7),
        ("none", 0.6),
    )
    REPLICAS = 3
    BATCHES = 6
    TAIL_PASSES = 5  # 75 ops, 18 beyond p75
    TAIL_PCT = 75.0

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.points = [
            point for point in self.DESIGN_POINTS for _ in range(self.REPLICAS)
        ]
        self.grid = [
            f"{cls}@{load}#{index % self.REPLICAS}"
            for index, (cls, load) in enumerate(self.points)
        ]
        self._runner: Any = None
        self._cache_dir: Optional[Path] = None
        self.dedicated_top_s = 0.0

    def _job(self, index: int) -> Any:
        from repro.exec import Job

        latency_class, load = self.points[index]
        return Job(
            "eval.load_point",
            {
                "latency_class": latency_class,
                "encoding": "hbfp8",
                "load": load,
                "batches": self.BATCHES,
                "training": True,
            },
            seed=self.op_seed(index),
        )

    def setup(self) -> None:
        from repro.dse.table1 import equinox_configuration
        from repro.exec import code_fingerprint
        from repro.models.lstm import deepbench_lstm
        from repro.models.training import build_training_plan

        for latency_class in dict.fromkeys(cls for cls, _ in self.points):
            equinox_configuration(latency_class)
        self.dedicated_top_s = build_training_plan(
            deepbench_lstm(), equinox_configuration("none")
        ).dedicated_throughput_top_s()
        code_fingerprint()

    def begin_pass(self, index: int) -> None:
        from repro.exec import JobRunner

        self._cache_dir = self.work_dir / f"cache-{index}"
        self._runner = JobRunner(jobs=1, cache_dir=self._cache_dir)

    def end_pass(self) -> None:
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._runner = self._cache_dir = None

    def run_op(self, index: int) -> Result:
        job = self._job(index)
        executed = self._runner.counters["executed"]
        result = self._runner.map([job])[0]
        out = {
            key: result[key]
            for key in (
                "inference_top_s", "training_top_s", "p50_latency_us",
                "p99_latency_us", "requests_completed",
            )
        }
        out["capture"] = result["capture"]
        out["capture_samples"] = result["capture"]["latency"]["count"]
        out["cached"] = (
            self._runner.counters["executed"] == executed + 1
            and self._runner.cache.path_for(job).is_file()
        )
        return out

    def check_op(self, index: int, result: Result) -> Optional[str]:
        if not result.get("cached"):
            return "job did not execute into the cache"
        return _load_point_check(result, training=True)

    def verify(self, results: List[Optional[Result]]) -> Dict[int, str]:
        """Each job against ``fig9.run`` without an executor."""
        from repro.eval import fig9
        from repro.eval.runner import capture_run

        failures: Dict[int, str] = {}
        for index, result in enumerate(results):
            if result is None:
                continue
            latency_class, load = self.points[index]
            with capture_run("perfbench.oracle") as capture:
                serial = fig9.run(
                    loads=[load], classes=[latency_class],
                    batches=self.BATCHES, seed=self.op_seed(index),
                )
            if serial.curves[latency_class][0] != result["training_top_s"]:
                failures[index] = "training throughput differs from fig9.run"
            elif canonical(_jsonable(capture.state_dict())) != canonical(
                result["capture"]
            ):
                failures[index] = "capture differs from fig9.run"
        return failures

    def headline(self, results: List[Optional[Result]]) -> Optional[float]:
        harvested = [
            result["training_top_s"]
            for point, result in zip(self.points, results)
            if point == ("500us", 0.6) and result
        ]
        if len(harvested) < self.REPLICAS or self.dedicated_top_s <= 0:
            return None
        return sum(harvested) / len(harvested) / self.dedicated_top_s


class HbfpTrain(Workload):
    """Fig-2 HBFP8 and fp32 training of the classification MLP and the
    char-level LM. The first op of a pass builds the four trainers (data
    and initial models); every other op is one epoch of one task on both
    encodings, the matched pair Fig 2 compares."""

    name = "hbfp_train"
    #: hbfp8 / fp32 final perplexity (Fig 2: HBFP8 matches fp32).
    paper_value = 1.0
    ENCODINGS = ("fp32", "hbfp8")
    EPOCHS = {"classification": 5, "language_model": 5}
    #: Data sizes (Fig 2 uses 2400 samples and a 12000-character corpus)
    #: at which an epoch of either task costs about the same: alike op
    #: costs steady the percentiles.
    CLS_SAMPLES = 4000
    LM_CORPUS = 5000
    TAIL_PASSES = 5  # 55 ops, 13 beyond p75
    TAIL_PCT = 75.0
    #: The hbfp8 / fp32 final perplexity must stay this close to 1.
    PERPLEXITY_TOLERANCE = 0.10

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.points = [("build", 0)] + [
            (task, epoch)
            for task, epochs in self.EPOCHS.items()
            for epoch in range(1, epochs + 1)
        ]
        self.grid = ["build"] + [f"{t}/epoch{n}" for t, n in self.points[1:]]
        self._trainers: Dict[Tuple[str, str], Any] = {}

    def _build(self, task: str, encoding: str) -> Any:
        from repro.train import convergence

        if task == "classification":
            return convergence.classification_setup(
                encoding, samples=self.CLS_SAMPLES, seed=self.seed
            )
        return convergence.language_model_setup(
            encoding, corpus_length=self.LM_CORPUS, seed=self.seed
        )

    def setup(self) -> None:
        import numpy as np

        from repro.arith.gemm import gemm

        # First-call costs (BLAS threads, kernel imports) are paid once
        # per process, so they belong to set-up, not to the first op.
        a = np.ones((64, 64), dtype=np.float32)
        for encoding in self.ENCODINGS:
            gemm(a, a, encoding)

    def end_pass(self) -> None:
        self._trainers.clear()

    def run_op(self, index: int) -> Result:
        task, epoch = self.points[index]
        if task == "build":
            for run in ((t, e) for t in self.EPOCHS for e in self.ENCODINGS):
                self._trainers[run] = self._build(*run)
            return {
                "train_samples": sum(
                    len(train[1]) for _, train, _ in self._trainers.values()
                ),
                "valid_samples": sum(
                    len(valid[1]) for _, _, valid in self._trainers.values()
                ),
            }
        result = {}
        for encoding in self.ENCODINGS:
            trainer, train, valid = self._trainers[(task, encoding)]
            trainer.train_epoch(train[0], train[1], epoch)
            error, loss = trainer.evaluate(valid[0], valid[1])
            result[encoding] = {"error_pct": error, "loss": loss}
        return result

    def check_op(self, index: int, result: Result) -> Optional[str]:
        if index == 0:
            if result.get("train_samples", 0) <= 0 or result.get(
                "valid_samples", 0
            ) <= 0:
                return "empty training data"
            return None
        for encoding in self.ENCODINGS:
            curve = result.get(encoding) or {}
            if _bad_number(curve.get("loss")):
                return f"{encoding} validation loss is null or not finite"
            if _bad_number(curve.get("error_pct")) or not (
                0.0 <= curve["error_pct"] <= 100.0
            ):
                return f"{encoding} validation error out of range"
        return None

    def verify(self, results: List[Optional[Result]]) -> Dict[int, str]:
        """Each epoch against the Fig-2 experiment functions, plus the
        paper's shape: hbfp8 perplexity tracks fp32."""
        from repro.train.convergence import (
            convergence_experiment,
            perplexity_experiment,
        )

        curves = {
            "classification": convergence_experiment(
                encodings=self.ENCODINGS,
                epochs=self.EPOCHS["classification"],
                samples=self.CLS_SAMPLES,
                seed=self.seed,
            ),
            "language_model": perplexity_experiment(
                encodings=self.ENCODINGS,
                epochs=self.EPOCHS["language_model"],
                corpus_length=self.LM_CORPUS,
                seed=self.seed,
            ),
        }
        failures: Dict[int, str] = {}
        for index, result in enumerate(results):
            if index == 0 or result is None:
                continue
            task, epoch = self.points[index]
            expected = {
                encoding: {
                    "error_pct": curves[task][encoding].validation_error[epoch - 1],
                    "loss": curves[task][encoding].validation_loss[epoch - 1],
                }
                for encoding in self.ENCODINGS
            }
            if canonical(expected) != canonical(result):
                failures[index] = "differs from the Fig-2 experiment"
        ratio = self.headline(results)
        if ratio is None or abs(ratio - 1.0) > self.PERPLEXITY_TOLERANCE:
            failures.setdefault(
                len(self.points) - 1,
                f"hbfp8/fp32 perplexity ratio {ratio} is not ~1",
            )
        return failures

    def headline(self, results: List[Optional[Result]]) -> Optional[float]:
        final = results[len(self.points) - 1]
        if final is None:
            return None
        return math.exp(final["hbfp8"]["loss"]) / math.exp(final["fp32"]["loss"])


class FleetServe(Workload):
    """``serve.run_scenario``: the 3-class tenant mix with chip-kill
    failover, one fleet size per op."""

    name = "fleet_serve"
    #: Close sizes keep op costs alike, which steadies the percentiles.
    FLEET_SIZES = (8, 10, 10, 10, 12)
    TAIL_PASSES = 12  # 60 ops, 15 beyond p75
    TAIL_PCT = 75.0

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.grid = [
            f"fleet{size}#{index}" for index, size in enumerate(self.FLEET_SIZES)
        ]
        self.specs: List[Dict[str, Any]] = []

    def setup(self) -> None:
        from repro.core.equinox import EquinoxAccelerator
        from repro.dse.table1 import equinox_configuration
        from repro.faults.plan import FaultPlan, WorkerFaultSpec
        from repro.models.lstm import deepbench_lstm
        from repro.serve import scenarios

        config = equinox_configuration(scenarios.LATENCY_CLASS)
        probe = EquinoxAccelerator(config, deepbench_lstm())
        tenants = [spec.to_dict() for spec in scenarios.default_tenants()]
        self.specs = []
        for index, size in enumerate(self.FLEET_SIZES):
            crashed = tuple(range(1, size, scenarios.KILL_STRIDE))
            plan = FaultPlan(
                seed=self.op_seed(index),
                workers=WorkerFaultSpec(crashed=crashed),
            ).to_dict()
            self.specs.append({
                "fleet_size": size,
                "requests": scenarios.DEFAULT_REQUESTS_PER_CHIP * size,
                "tenants": tenants,
                "plan": plan,
                "batch_service_cycles": probe.batch_service_cycles(),
                "batch_slots": probe.batch_slots,
                "frequency_hz": config.frequency_hz,
            })

    def run_op(self, index: int) -> Result:
        from repro.serve.scenarios import run_scenario

        return _jsonable(run_scenario(self.specs[index], self.op_seed(index)))

    def check_op(self, index: int, result: Result) -> Optional[str]:
        if not result.get("reproducible"):
            return "scenario is not reproducible from its seed"
        totals = result.get("totals") or {}
        ended = sum(
            totals.get(key, 0)
            for key in ("completed", "shed", "timed_out", "failover_dropped")
        )
        if totals.get("submitted", 0) <= 0 or totals["submitted"] != ended:
            return "fleet accounting identity broken"
        for name, entry in (result.get("classes") or {}).items():
            ended = (
                entry["completed"] + entry["shed"] + entry["timed_out"]
                + entry["failover_dropped"]
            )
            if entry["submitted"] != ended:
                return f"class {name} accounting identity broken"
            if entry["completed"] and _bad_number(entry.get("p99_cycles")):
                return f"class {name} has completions but a null p99"
        if totals.get("completed", 0) <= 0:
            return "no request completed"
        return None

    def verify(self, results: List[Optional[Result]]) -> Dict[int, str]:
        """Each op against ``serve.scenarios.run``, the plain serial
        matrix, which also validates the fleet report."""
        from repro.serve import scenarios

        failures: Dict[int, str] = {}
        for index, result in enumerate(results):
            if result is None:
                continue
            report = scenarios.run(
                fleet_sizes=[self.FLEET_SIZES[index]], seed=self.op_seed(index)
            )
            curve = _jsonable(report.to_dict()["curve"])
            if canonical(result) != canonical(curve[0]):
                failures[index] = "differs from serve.scenarios.run"
        return failures


WORKLOADS = {
    cls.name: cls for cls in (InferSweep, CotrainSweep, HbfpTrain, FleetServe)
}
