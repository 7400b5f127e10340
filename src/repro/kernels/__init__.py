"""repro.kernels: dual-backend BFP kernels with bit-exact parity.

The two block-floating-point primitives on the Figure-2 training path
exist twice:

* ``reference`` — the readable tile-loop code that defines the
  semantics (the former inline implementations, kept verbatim as the
  oracle);
* ``fast`` — a vectorized rewrite that must match the reference **bit
  for bit**: values, shared exponents and RNG stream position
  (:mod:`repro.kernels.parity` is the executable contract).

Every other primitive (BFP decode, im2col, the systolic register
model) has exactly one implementation, inlined in its public wrapper.

Call sites never import implementations directly (lint rule EQX308);
they resolve through :func:`dispatch`, so the backend can be switched
globally (:func:`set_backend`, ``REPRO_KERNEL_BACKEND``), per scope
(:func:`use_backend`), or per call (the ``backend=`` argument threaded
through ``BlockFloatTensor.from_float`` and ``bfp_matmul``). The
default is ``fast``.

Registered pairs:

========================  ============================================
``bfp.quantize``          ``BlockFloatTensor.from_float`` body
``bfp.matmul``            ``bfp_matmul`` tile-lattice GEMM
========================  ============================================
"""

from repro.kernels import fast_bfp, ref_bfp
from repro.kernels.registry import (
    BACKENDS,
    KernelPair,
    dispatch,
    dispatch_counts,
    get_backend,
    get_kernel,
    kernel_names,
    register_kernel,
    reset_dispatch_counts,
    set_backend,
    use_backend,
)

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

register_kernel(
    "bfp.quantize",
    ref_bfp.quantize,
    fast_bfp.quantize,
    doc="Block-floating-point encode (per-tile exponent + mantissas).",
)
register_kernel(
    "bfp.matmul",
    ref_bfp.matmul,
    fast_bfp.matmul,
    doc="Tile-lattice integer GEMM with saturating accumulators.",
)
