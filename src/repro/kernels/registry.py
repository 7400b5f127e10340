"""Kernel-pair registry and backend selection.

Each registered primitive exists twice: a ``reference``
implementation — the readable, obviously-correct code that defines the
semantics — and a ``fast`` implementation that must be
**bit-identical** to it (values, shared exponents, RNG stream position;
see :mod:`repro.kernels.parity` for the enforced contract). This module
holds the pairs and decides, per call, which side runs.

Selection, in precedence order:

1. the ``backend=`` argument threaded through public entry points
   (``BlockFloatTensor.from_float(..., backend="reference")``) — the
   per-call opt-out;
2. the ambient backend set by :func:`set_backend` or the
   :func:`use_backend` context manager;
3. the ``REPRO_KERNEL_BACKEND`` environment variable, read once at
   import;
4. the default, ``"fast"`` — safe because the parity suite enforces
   bit-exactness, so backends differ only in speed.

Dispatches are counted per ``(kernel, backend)``; the observability
layer (:func:`repro.obs.profile.kernel_dispatch_summary`) and the bench
harness read the counts to attribute work to backends.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.analysis.annotations import audited

__all__ = [
    "BACKENDS",
    "KernelPair",
    "dispatch",
    "dispatch_counts",
    "get_backend",
    "get_kernel",
    "kernel_names",
    "register_kernel",
    "reset_dispatch_counts",
    "set_backend",
    "use_backend",
]

#: Recognized backend names, in contract order (reference is the oracle).
BACKENDS: Tuple[str, ...] = ("reference", "fast")

#: Environment override read once at import time.
ENV_VAR = "REPRO_KERNEL_BACKEND"


@dataclass(frozen=True)
class KernelPair:
    """One primitive's implementations (identical signatures)."""

    name: str
    reference: Callable
    fast: Callable
    doc: str = ""

    def implementation(self, backend: str) -> Callable:
        if backend == "reference":
            return self.reference
        if backend == "fast":
            return self.fast
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )


_PAIRS: Dict[str, KernelPair] = {}
_DISPATCHES: Dict[Tuple[str, str], int] = {}


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


@audited(
    "env_read",
    reason="REPRO_KERNEL_BACKEND is read once, at import, to pick the "
    "ambient backend; both backends are bit-exact by the parity "
    "contract, so the choice never changes a result — and job workers "
    "inherit the parent's environment anyway",
)
def _initial_backend() -> str:
    """The ambient backend at import: env override or the fast default."""
    value = os.environ.get(ENV_VAR)
    if value is None:
        return "fast"
    return _check_backend(value.strip().lower())


_backend = _initial_backend()


def register_kernel(
    name: str,
    reference: Callable,
    fast: Callable,
    doc: str = "",
) -> KernelPair:
    """Register a kernel pair; re-registering a name is an error."""
    if name in _PAIRS:
        raise ValueError(f"kernel {name!r} is already registered")
    pair = KernelPair(name=name, reference=reference, fast=fast, doc=doc)
    _PAIRS[name] = pair
    return pair


def kernel_names() -> Tuple[str, ...]:
    """Registered kernel names, sorted."""
    return tuple(sorted(_PAIRS))


def get_kernel(name: str) -> KernelPair:
    try:
        return _PAIRS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; registered: {sorted(_PAIRS)}"
        ) from None


def get_backend() -> str:
    """The ambient backend name."""
    return _backend


def set_backend(backend: str) -> str:
    """Set the ambient backend; returns the previous one."""
    global _backend
    backend = _check_backend(backend)
    previous = _backend
    _backend = backend
    return previous


@contextmanager
def use_backend(backend: Optional[str]) -> Iterator[str]:
    """Scoped backend override (``None`` leaves the ambient one).

    The per-experiment entry points (``--kernel-backend``,
    ``convergence_experiment(kernel_backend=...)``) thread their
    argument through this, so ``None`` must be a clean no-op.
    """
    if backend is None:
        yield _backend
        return
    previous = set_backend(backend)
    try:
        yield _backend
    finally:
        set_backend(previous)


def dispatch(name: str, backend: Optional[str] = None) -> Callable:
    """Resolve ``name`` to the active implementation and count it.

    ``backend`` is the per-call opt-out; ``None`` uses the ambient
    backend.
    """
    pair = get_kernel(name)
    chosen = _backend if backend is None else _check_backend(backend)
    key = (name, chosen)
    _DISPATCHES[key] = _DISPATCHES.get(key, 0) + 1
    return pair.implementation(chosen)


def dispatch_counts() -> Dict[str, Dict[str, int]]:
    """``{kernel: {backend: dispatches}}`` with sorted keys."""
    out: Dict[str, Dict[str, int]] = {}
    for (name, backend), count in sorted(_DISPATCHES.items()):
        out.setdefault(name, {})[backend] = count
    return out


def reset_dispatch_counts() -> None:
    _DISPATCHES.clear()
