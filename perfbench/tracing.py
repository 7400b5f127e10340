"""Layer-attributed tracing, recorded from the benchmark's side only.

:func:`traced_phase` wraps the public entry points of each layer of the
program for the duration of one traced pass and restores them after,
so an untraced pass runs the program untouched. Every wrapper records
a span on one :class:`Tracer` stack; a layer's *self time* is its
spans' duration minus the part covered by child spans. Simulator
events are attributed through the simulator's own profiler hook
(``Simulator.set_profiler``): each event callback becomes a span of the
layer whose module defined the callback, so ``sim`` keeps only the
event loop's own time.

Counts come from the program's own counters (``events_processed``,
``jobs_issued``, ``kernels.dispatch_counts()`` ...) of the objects
created during the pass, so they repeat exactly for a given seed.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, class, methods, span). A subclass that overrides a wrapped
#: method is listed on its own.
#: ``Simulator.run`` is wrapped on its own (``_install_sim``).
METHOD_SPANS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.core.equinox", "EquinoxAccelerator", ("__init__", "run"), "core.run"),
    (
        "repro.core.dispatcher", "RequestDispatcher",
        ("submit", "inject", "flush", "form_one", "drain"), "core.dispatch",
    ),
    (
        "repro.core.dispatcher", "FairShareDispatcher",
        ("submit", "inject"), "core.dispatch",
    ),
    ("repro.hw.mmu", "MatrixMultiplyUnit", ("issue", "issue_batch", "pump"), "hw.mmu"),
    ("repro.hw.simd", "SIMDUnit", ("issue",), "hw.other"),
    ("repro.hw.dram", "HBMInterface", ("transfer",), "hw.other"),
    (
        "repro.obs.sketch", "QuantileSketch",
        ("observe", "observe_many", "merge", "merge_state", "quantile",
         "to_state", "to_dict"),
        "obs.sketch",
    ),
    (
        "repro.eval.runner", "ExperimentCapture",
        ("observe", "merge_state", "state_dict", "build_report"), "obs.capture",
    ),
    ("repro.obs.spans", "SpanTracer", ("begin", "end", "record"), "obs.spans"),
    (
        "repro.workload.loadgen", "PoissonArrivals",
        ("next_gap", "next_gaps"), "workload.arrivals",
    ),
    (
        "repro.workload.loadgen", "MixedArrivals",
        ("next_gap", "next_tagged"), "workload.arrivals",
    ),
    (
        "repro.models.compiler", "TileCompiler",
        ("compile_inference", "compile_training"), "models.compile",
    ),
    ("repro.dse.explorer", "DesignSpaceExplorer", ("sweep",), "dse.sweep"),
    ("repro.train.trainer", "Trainer", ("train_epoch", "evaluate"), "train"),
    ("repro.exec.scheduler", "JobRunner", ("map",), "exec.map"),
    ("repro.exec.cache", "ResultCache", ("put",), "exec.cache_put"),
    ("repro.serve.router", "FleetRouter", ("submit",), "serve.submit"),
    ("repro.serve.router", "ChipServer", ("pump",), "serve.pump"),
)

#: (module, function, span): every module-level binding of the function
#: object in a loaded ``repro`` module is wrapped.
FUNCTION_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.analysis.program_verifier", "verify_program", "analysis.verify"),
    ("repro.arith.hbfp", "hbfp_gemm", "arith.hbfp_gemm"),
    ("repro.exec.canonical", "encode", "exec.encode"),
    ("repro.exec.canonical", "decode", "exec.encode"),
    ("repro.exec.canonical", "canonical_json", "exec.encode"),
    ("repro.exec.canonical", "config_digest", "exec.encode"),
)

#: (class, method) → (counter, function of the result): a deterministic
#: count accumulated by the method's wrapper.
RESULT_COUNTERS: Dict[Tuple[str, str], Tuple[str, Callable[[Any], float]]] = {
    ("DesignSpaceExplorer", "sweep"): ("dse.points", len),
    ("QuantileSketch", "observe"): ("obs.samples", lambda result: 1),
}

#: Modules imported before any function is wrapped, so that no module
#: first imported during a traced pass binds a wrapper for good.
PRELOAD = (
    "repro.exec.tasks", "repro.eval.fig9", "repro.serve.scenarios",
    "repro.train.convergence",
)

#: Event-callback module prefix → span; the first matching prefix wins.
EVENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.hw.mmu", "hw.mmu"),
    ("repro.hw", "hw.other"),
    ("repro.core", "core.run"),
    ("repro.serve", "serve.pump"),
    ("repro.workload", "workload.arrivals"),
    ("repro.obs", "obs.spans"),
    ("repro.faults", "faults"),
)

#: Classes whose instances created during a pass are counted.
COUNTED_CLASSES = (
    ("repro.sim.engine", "Simulator"),
    ("repro.hw.mmu", "MatrixMultiplyUnit"),
    ("repro.core.dispatcher", "RequestDispatcher"),
    ("repro.exec.scheduler", "JobRunner"),
    ("repro.serve.router", "FleetRouter"),
)

#: Kernel pairs reported as ``kernels.<pair>_s`` / ``kernels.<pair>_calls``.
#: The other pairs (``bfp.dequantize``, ``systolic.*``, ``im2col.pack``)
#: are left out: no workload dispatches them, so none would move.
KERNEL_PAIRS = ("bfp.quantize", "bfp.matmul")

#: Self-time metrics, in reference-host seconds per pass.
TIME_METRICS = (
    "models.compile", "analysis.verify", "core.run", "core.dispatch",
    "sim", "hw.mmu", "hw.other", "obs.sketch", "obs.capture", "obs.spans",
    "workload.arrivals", "arith.hbfp_gemm", "train", "exec.map",
    "exec.encode", "exec.cache_put", "serve.submit", "serve.pump",
) + tuple(f"kernels.{pair}" for pair in KERNEL_PAIRS)


def time_metric_name(span: str) -> str:
    """``sim`` → ``sim.self_s``; ``train`` → ``train.self_s``; other
    spans → ``<span>_s``."""
    return f"{span}.self_s" if "." not in span else f"{span}_s"


class Tracer:
    """One stack of spans with per-name self time and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[List[Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.sim_wall_s = 0.0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed


class _EventHook:
    """Simulator profiler hook: one span per event callback."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._layers: Dict[str, str] = {}

    def _layer(self, callback: Any) -> str:
        module = getattr(callback, "__module__", None) or ""
        layer = self._layers.get(module)
        if layer is None:
            layer = "events.other"
            for prefix, span in EVENT_LAYERS:
                if module == prefix or module.startswith(prefix + "."):
                    layer = span
                    break
            self._layers[module] = layer
        return layer

    def before_event(self, event: Any, heap_depth: int) -> None:
        self.tracer.enter(self._layer(event.callback))

    def after_event(self, event: Any) -> None:
        self.tracer.exit()


def _span_wrapper(
    tracer: Tracer,
    fn: Callable,
    name: str,
    counter: Optional[Tuple[str, Callable[[Any], float]]] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            tracer.counts[counter[0]] += counter[1](result)
        return result

    return wrapper


class Instrumentation:
    """The patches of one traced pass and the objects it created."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.hook = _EventHook(tracer)
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        tracer = self.tracer
        for module in PRELOAD:
            importlib.import_module(module)
        for module, cls_name, methods, span in METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                wrapped = _span_wrapper(
                    tracer, cls.__dict__[method], span,
                    RESULT_COUNTERS.get((cls_name, method)),
                )
                self._set(cls, method, wrapped)
        self._install_sim(tracer)
        self._install_counted()
        for module, fn_name, span in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module), fn_name)
            wrapped = _span_wrapper(tracer, original, span)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if not name.startswith("repro"):
                    continue
                if mod.__dict__.get(fn_name) is original:
                    self._set(mod, fn_name, wrapped)
        registry = importlib.import_module("repro.kernels.registry")
        pair_impl = registry.KernelPair.implementation

        def implementation(pair: Any, backend: str) -> Callable:
            return _span_wrapper(
                tracer, pair_impl(pair, backend), f"kernels.{pair.name}"
            )

        self._set(registry.KernelPair, "implementation", implementation)

    def _install_sim(self, tracer: Tracer) -> None:
        """``Simulator.run`` also attaches the event hook and counts
        events and inclusive loop time."""
        cls = importlib.import_module("repro.sim.engine").Simulator
        run = cls.__dict__["run"]
        hook = self.hook

        @functools.wraps(run)
        def traced_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            # The workloads attach no profiler of their own, so
            # detaching afterwards restores the untraced state.
            sim.set_profiler(hook)
            before = sim.events_processed
            tracer.enter("sim")
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer.sim_wall_s += tracer.exit()
                tracer.counts["sim.events"] += sim.events_processed - before
                sim.set_profiler(None)

        self._set(cls, "run", traced_run)

    def _install_counted(self) -> None:
        instances = self.instances
        for module, cls_name in COUNTED_CLASSES:
            cls = getattr(importlib.import_module(module), cls_name)
            init = cls.__dict__["__init__"]

            def counted_init(
                obj: Any, *args: Any, _init: Any = init, _key: str = cls_name,
                **kwargs: Any,
            ) -> None:
                _init(obj, *args, **kwargs)
                instances[_key].append(obj)

            self._set(cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def counts(self) -> Dict[str, float]:
        """Deterministic work counts of the objects created so far."""
        found = self.instances
        dispatchers = found["RequestDispatcher"]
        routers = found["FleetRouter"]
        runners = found["JobRunner"]
        submitted = sum(sum(r.submitted_by_tenant.values()) for r in routers)
        completed = sum(sum(r.completed_by_tenant.values()) for r in routers)
        return {
            "core.requests": float(sum(d.requests_submitted for d in dispatchers)),
            "core.batches": float(sum(d.batches_formed for d in dispatchers)),
            "hw.mmu_jobs": float(
                sum(m.jobs_issued for m in found["MatrixMultiplyUnit"])
            ),
            "exec.jobs": float(sum(r.counters["executed"] for r in runners)),
            "exec.cache_writes": float(
                sum(r.cache.stats.writes for r in runners if r.cache is not None)
            ),
            "serve.requests": float(submitted),
            "serve.completed_ratio": completed / submitted if submitted else 0.0,
            "serve.failovers": float(
                sum(r.failover_redispatched for r in routers)
            ),
        }


def kernel_calls() -> Dict[str, int]:
    """Dispatches per kernel pair, summed over backends."""
    from repro.kernels import dispatch_counts

    counts = dispatch_counts()
    return {
        pair: sum(counts.get(pair, {}).values()) for pair in KERNEL_PAIRS
    }


@contextmanager
def traced_phase() -> Iterator["PhaseTrace"]:
    """Trace the program while the block runs (set-up or one pass),
    into a fresh tracer."""
    phase = PhaseTrace(Tracer(), kernel_calls())
    patches = Instrumentation(phase.tracer)
    patches.install()
    try:
        yield phase
        phase.counts = patches.counts()
    finally:
        patches.uninstall()
    phase.kernels_after = kernel_calls()


class PhaseTrace:
    """What one traced phase recorded."""

    def __init__(self, tracer: Tracer, kernels_before: Dict[str, int]):
        self.tracer = tracer
        self.kernels_before = kernels_before
        self.kernels_after = kernels_before
        self.counts: Dict[str, float] = {}

    def metrics(self, scale: float) -> Dict[str, float]:
        """Self times (× ``scale``: raw → reference-host seconds) and
        counts of the phase."""
        tracer = self.tracer
        out = {
            time_metric_name(span): tracer.self_s.get(span, 0.0) * scale
            for span in TIME_METRICS + ("dse.sweep",)
        }
        for name in ("sim.events", "obs.samples", "dse.points"):
            out[name] = float(tracer.counts.get(name, 0.0))
        sim_s = tracer.sim_wall_s * scale
        out["sim.events_per_s"] = out["sim.events"] / sim_s if sim_s else 0.0
        for pair in KERNEL_PAIRS:
            out[f"kernels.{pair}_calls"] = float(
                self.kernels_after[pair] - self.kernels_before[pair]
            )
        out.update(self.counts)
        return out
