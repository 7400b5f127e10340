"""Run one benchmark workload from one seed and print its metrics.

    python3 perfbench/run.py --workload infer_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. The run:

1. (``--trace 0`` only) times ``SETUP_PROBES`` fresh processes from
   spawn until ready for the first op: imports, the Table-1 DSE sweep,
   compilation, warm-up and calibration;
2. sets the workload up in this process;
3. runs whole passes of the workload's grid for ``--seconds`` seconds,
   and at least the workload's ``TAIL_PASSES``, timing every op right
   after one host calibration (:mod:`hostclock`); with ``--trace 1``
   every other pass is traced (:mod:`tracing`);
4. checks every op (it raised, returned an empty artifact or a null
   latency, broke an accounting identity, or differs from the same op
   in another pass), then checks one pass against the plain serial
   path of the program;
5. prints a readable report, a ``raw:`` line of unnormalized values,
   and, as the last line, the JSON result.

Host times are in reference-host seconds (see :mod:`hostclock`). The
exit code is 0 whenever a result is printed, including one with
``"correct": false``; without the program's sources it is not 0.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

# One BLAS thread, set before numpy loads: on a 2-core shared host the
# BLAS worker threads add wake-up jitter to hbfp_train's small GEMMs
# (op time CV 22-30 % instead of 16 %) and make them about 10 % slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostclock  # noqa: E402
from hostclock import HostClock  # noqa: E402

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Calibrations a set-up includes.
SETUP_CALIBRATIONS = 2
PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Put the program's sources on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


@dataclass
class Pass:
    """One pass: raw op times and the calibrations taken before them."""

    op_s: List[float]
    calib_s: List[float]
    phase: Any = None

    @property
    def scale(self) -> float:
        return hostclock.scale(self.calib_s)

    @property
    def normalized_s(self) -> float:
        return hostclock.normalize(sum(self.op_s), self.calib_s)


@dataclass
class Measurement:
    """Everything the timed loop recorded."""

    grid: List[str]
    passes: List[Pass] = field(default_factory=list)
    attempted: int = 0
    #: (pass, op index) → why the op failed.
    failures: Dict[Tuple[int, int], str] = field(default_factory=dict)
    #: First good result per op index.
    reference: List[Optional[Dict[str, Any]]] = field(default_factory=list)

    def untraced(self) -> List[Pass]:
        return [p for p in self.passes if p.phase is None]

    def traced(self) -> List[Pass]:
        return [p for p in self.passes if p.phase is not None]

    def fail_index(self, index: int, reason: str) -> None:
        """Fail the op at ``index`` in every pass."""
        for pass_index in range(len(self.passes)):
            self.failures.setdefault((pass_index, index), reason)


def measure(
    workload: Any,
    clock: HostClock,
    seconds: float,
    traced: bool = False,
    min_passes: int = 1,
) -> Measurement:
    """Run whole passes until ``seconds`` have elapsed and at least
    ``min_passes`` untraced passes have run (with ``traced``, also at
    least one traced pass)."""
    from tracing import traced_phase
    from workloads import canonical

    m = Measurement(grid=list(workload.grid))
    m.reference = [None] * len(m.grid)
    reference_text: Dict[int, str] = {}
    start = clock.clock()
    while True:
        pass_index = len(m.passes)
        trace_this = traced and pass_index % 2 == 1
        record = Pass(op_s=[], calib_s=[])
        with traced_phase() if trace_this else nullcontext() as phase:
            workload.begin_pass(pass_index)
            for index in range(len(m.grid)):
                record.calib_s.append(clock.calibrate())
                began = clock.clock()
                error: Optional[str] = None
                try:
                    result = workload.run_op(index)
                except Exception as exc:  # an op failure is a result
                    result, error = None, f"raised {exc!r}"
                record.op_s.append(clock.clock() - began)
                m.attempted += 1
                if error is None:
                    error = workload.check_op(index, result)
                if error is None:
                    text = canonical(result)
                    if index not in reference_text:
                        reference_text[index] = text
                        m.reference[index] = result
                    elif text != reference_text[index]:
                        error = "differs from the same op in another pass"
                if error is not None:
                    m.failures[(pass_index, index)] = error
            workload.end_pass()
        record.phase = phase
        m.passes.append(record)
        if (
            clock.clock() - start >= seconds
            and len(m.untraced()) >= min_passes
            and (not traced or m.traced())
        ):
            return m


def spawn_setup(workload: str, seed: int) -> Tuple[float, float]:
    """(raw seconds from spawning a fresh process until it is ready,
    the child's mean calibration time)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--probe-setup",
    ]
    start = time.time()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(words[1]) - start, float(words[2])


def probe_setup(workload_cls: Any, seed: int, work_dir: Path) -> None:
    """The ``--probe-setup`` child: set up, then report when it was
    ready and its mean calibration time, from calibrations right before
    and right after the workload's set-up."""
    clock = HostClock()
    for _ in range(SETUP_CALIBRATIONS):
        clock.calibrate()
    workload = workload_cls(seed, work_dir)
    workload.setup()
    for _ in range(SETUP_CALIBRATIONS):
        clock.calibrate()
    mean_calib = statistics.fmean(clock.calib_s)
    print(f"ready {time.time()!r} {mean_calib!r}", flush=True)


def end_to_end_metrics(
    m: Measurement,
    setup: List[Tuple[float, float]],
    tail_pct: float,
    tail_passes: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(normalized metrics, raw metrics) over the untraced passes.
    ``op_tail_ms`` is the ``tail_pct`` percentile of the ops of the
    first ``tail_passes`` of them, a sample that does not grow with
    throughput. Each pass is normalized by its own calibrations, each
    set-up by its own process's (``setup`` holds ``(raw seconds, mean
    calibration)`` per fresh process)."""
    passes = m.untraced()
    raw_ops = [t for p in passes for t in p.op_s]
    ops = [t * p.scale for p in passes for t in p.op_s]
    sample = passes[:tail_passes]
    raw_tail = hostclock.percentile([t for p in sample for t in p.op_s], tail_pct)
    tail_s = hostclock.percentile(
        [t * p.scale for p in sample for t in p.op_s], tail_pct
    )
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "pass_s": statistics.median(sum(p.op_s) for p in passes),
        "op_p50_ms": statistics.median(raw_ops) * 1e3,
        "op_tail_ms": raw_tail * 1e3,
    }
    normalized = {
        "setup_s": statistics.median(
            hostclock.normalize(raw, [calib]) for raw, calib in setup
        ),
        "pass_s": statistics.median(p.normalized_s for p in passes),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw["peak_rss_mb"] = normalized["peak_rss_mb"] = rss_mb
    return normalized, raw


def layer_metrics(
    m: Measurement, clock: HostClock, setup: Dict[str, float]
) -> Tuple[Dict[str, float], List[str]]:
    """(per-layer metrics, determinism problems). Per-pass values are
    medians over the traced passes; ``dse.*`` come from set-up, where
    the sweep runs."""
    per_pass = [p.phase.metrics(p.scale) for p in m.traced()]
    out = {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    problems = [
        f"{name} differs between traced passes"
        for name in per_pass[0]
        if not name.endswith("_s")
        and name != "sim.events_per_s"
        and len({p[name] for p in per_pass}) > 1
    ]
    out["dse.sweep_s"] = setup["dse.sweep_s"]
    out["dse.points"] = setup["dse.points"]
    out["host.calib_ms"] = clock.median_calib_s() * 1e3
    out["trace.overhead_pct"] = (
        statistics.median(p.normalized_s for p in m.traced())
        / statistics.median(p.normalized_s for p in m.untraced())
        - 1.0
    ) * 100.0
    return out, problems


def layer_unit(name: str) -> str:
    if name == "sim.events_per_s":
        return "1/s"
    if name == "host.calib_ms":
        return "ms"
    if name == "trace.overhead_pct":
        return "%"
    if name == "serve.completed_ratio":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help=">= 0")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload_cls = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    if args.probe_setup:
        probe_setup(workload_cls, args.seed, work_dir)
        return 0
    try:
        work_dir.mkdir(parents=True, exist_ok=True)
        return run(args, workload_cls, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args: argparse.Namespace, workload_cls: Any, work_dir: Path) -> int:
    from tracing import traced_phase

    traced = bool(args.trace)
    setup = (
        [] if traced
        else [spawn_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    )
    workload = workload_cls(args.seed, work_dir)
    with traced_phase() if traced else nullcontext() as setup_phase:
        workload.setup()
    clock = HostClock()
    m = measure(
        workload, clock, args.seconds, traced=traced,
        min_passes=1 if traced else workload.TAIL_PASSES,
    )
    for index, reason in workload.verify(m.reference).items():
        m.fail_index(index, reason)

    failed = len(m.failures)
    problems: List[str] = []
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {len(m.passes)} passes of {len(m.grid)} ops"
    )
    print(
        f"  host.calib_ms      {clock.median_calib_s() * 1e3:.3f} ms "
        f"(median of {len(clock.calib_s)}; reference host "
        f"{hostclock.REFERENCE_CALIB_S * 1e3:g} ms)"
    )
    print(f"  fail_ratio         {failed}/{m.attempted} = {failed / m.attempted:g}")
    for (pass_index, index), reason in sorted(m.failures.items())[:10]:
        print(f"    failed: pass {pass_index} op {m.grid[index]}: {reason}")
    simulated = workload.headline(m.reference)
    if simulated is not None and workload.paper_value:
        err = abs(simulated - workload.paper_value) / workload.paper_value * 100
        print(
            f"  model_err_pct      {err:.3f} % (simulated {simulated:.4f} vs "
            f"paper {workload.paper_value})"
        )
    if traced:
        metrics, problems = layer_metrics(
            m, clock, setup_phase.metrics(hostclock.scale(clock.calib_s))
        )
        units = {name: layer_unit(name) for name in metrics}
        for name in sorted(metrics):
            print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
        for problem in problems:
            print(f"    problem: {problem}")
        raw = {
            "traced_pass_s": [sum(p.op_s) for p in m.traced()],
            "pass_s": [sum(p.op_s) for p in m.untraced()],
        }
    else:
        metrics, raw = end_to_end_metrics(
            m, setup, workload.TAIL_PCT, workload.TAIL_PASSES
        )
        units = END_TO_END_UNITS
        tail_ops = workload.TAIL_PASSES * len(m.grid)
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "pass_s": f"median of {len(m.passes)} passes",
            "op_p50_ms": f"median of {m.attempted} ops",
            "op_tail_ms": (
                f"p{workload.TAIL_PCT:g} of the {tail_ops} ops of the "
                f"first {workload.TAIL_PASSES} passes"
            ),
            "peak_rss_mb": "this process",
        }
        print("  metric             reference-host     raw")
        for name, value in metrics.items():
            print(
                f"  {name:18s} {value:12.6g} {units[name]:3s}"
                f"  {raw[name]:12.6g}  ({notes[name]})"
            )
        raw["calib_ms"] = clock.median_calib_s() * 1e3
    print("raw: " + json.dumps(raw))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
