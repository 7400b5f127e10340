"""Fast block-floating-point kernels — bit-identical to the reference.

Same semantics as :mod:`repro.kernels.ref_bfp`, engineered for speed:

* ``matmul`` replaces the reference's (grid_m, grid_k, grid_n) Python
  triple loop with one BLAS GEMM per K-strip plus vectorized
  clip/scale/accumulate over the whole tile lattice. The GEMM runs in
  float64: integer tile products are exactly representable there
  whenever every K-block dot fits well under 2^53, so dgemm — with
  whatever blocking/FMA order BLAS picks — reproduces the int64 GEMM
  bit for bit (guard below; int64 fallback otherwise).
* ``quantize`` skips the padding copy when the shape is
  tile-aligned, avoid the |x| temporary (``max(max, -min)`` is bit-equal
  to ``abs().max()`` including signed zeros), round with ``np.rint``
  (== ``np.round`` for whole numbers), and take power-of-two scales
  from the memoized tables in :mod:`repro.arith.bfp` / ``np.ldexp``
  (``ldexp(1.0, k) == exp2(k) == 2.0**k`` bit for bit across the
  representable range — verified by the parity suite).
* The stochastic path consumes exactly one
  ``rng.random(padded_tile_shape)`` draw, same as the reference, so the
  RNG stream position after a call is identical.

Do not import this module outside ``repro.kernels`` and tests — call
sites go through :func:`repro.kernels.dispatch` (lint rule EQX308).
"""

from typing import Optional, Tuple

import numpy as np

from repro.arith.bfp import pow2_table, saturation_bounds

__all__ = ["quantize", "matmul"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def quantize(
    values: np.ndarray,
    fmt,
    rounding: str = "nearest",
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Vectorized BFP quantization; see ``ref_bfp.quantize``."""
    x = np.asarray(values, dtype=np.float64)
    rows, cols = x.shape
    br, bc = fmt.block_rows, fmt.block_cols
    pad_rows = _ceil_div(rows, br) * br
    pad_cols = _ceil_div(cols, bc) * bc
    if (pad_rows, pad_cols) == (rows, cols):
        padded = x  # tile-aligned: no padding copy needed (read-only use)
    else:
        padded = np.zeros((pad_rows, pad_cols), dtype=np.float64)
        padded[:rows, :cols] = x

    tiles = padded.reshape(pad_rows // br, br, pad_cols // bc, bc)
    max_abs = np.maximum(tiles.max(axis=(1, 3)), -tiles.min(axis=(1, 3)))
    with np.errstate(divide="ignore"):
        exponents = np.where(
            max_abs > 0, np.ceil(np.log2(max_abs)), fmt.exponent_min
        ).astype(np.int64)
    np.clip(exponents, fmt.exponent_min, fmt.exponent_max, out=exponents)

    scale = np.ldexp(
        1.0, (exponents - (fmt.mantissa_bits - 1)).astype(np.int32)
    )
    safe_scale = np.where(max_abs > 0, scale, 1.0)
    scaled = tiles / safe_scale[:, None, :, None]
    if rounding == "stochastic":
        rng = rng or np.random.default_rng()
        mant = np.floor(scaled)
        frac = scaled - mant
        mant += rng.random(scaled.shape) < frac
    else:
        mant = np.rint(scaled)
    np.clip(mant, fmt.mantissa_min, fmt.mantissa_max, out=mant)
    mantissas = mant.reshape(pad_rows, pad_cols).astype(np.int32)
    return mantissas, exponents.astype(np.int32), (rows, cols)


def matmul(
    a_mant: np.ndarray,
    a_exp: np.ndarray,
    b_mant: np.ndarray,
    b_exp: np.ndarray,
    a_fmt,
    b_fmt,
    logical_rows: int,
    logical_cols: int,
    accumulator_bits: int = 25,
) -> np.ndarray:
    """Batched tile-lattice BFP matmul; see ``ref_bfp.matmul``.

    One GEMM per K-strip over the full (M, N) plane, vectorized
    saturation, and a broadcast per-tile power-of-two scale. Partial
    strips accumulate into the output in ascending-K order — the same
    per-element addition sequence as the reference triple loop, so
    float results match bit for bit.
    """
    mant_bits = a_fmt.mantissa_bits
    frac = 2 * (mant_bits - 1)
    sat_lo, sat_hi = saturation_bounds(accumulator_bits)

    br_a, k_blk = a_fmt.block_rows, a_fmt.block_cols
    bc_b = b_fmt.block_cols
    grid_m, grid_k = a_exp.shape
    grid_k2, grid_n = b_exp.shape
    if grid_k != grid_k2:
        raise ValueError("tile grids do not align along K")

    # Exactness guard for the float64 GEMM: every partial sum of a
    # K-block dot is bounded by k_blk * (2^(mant_bits-1))^2; while that
    # stays under 2^52 every intermediate is an exactly-representable
    # integer, so any BLAS summation order gives the exact result. The
    # saturation bounds must also compare exactly as float64.
    exact_f64 = (
        k_blk * 4 ** (mant_bits - 1) < 2**52 and accumulator_bits <= 50
    )
    if exact_f64:
        a_m = a_mant.astype(np.float64)
        b_m = b_mant.astype(np.float64)
    else:
        a_m = a_mant.astype(np.int64)
        b_m = b_mant.astype(np.int64)

    out = np.zeros((grid_m * br_a, grid_n * bc_b), dtype=np.float64)
    out_tiles = out.reshape(grid_m, br_a, grid_n, bc_b)
    if min(grid_m, grid_k, grid_n) == 0:
        return out[:logical_rows, :logical_cols].astype(np.float32)

    # Memoized 2.0**k table spanning the exponent sums actually present
    # (keyed on the span, so steady-state workloads hit the cache). The
    # reference's Python ``2.0 ** e`` raises OverflowError past float64
    # range; mirror that here (unreachable for data that came through
    # quantize, but keeps the backends aligned).
    a_e = a_exp.astype(np.int64)
    b_e = b_exp.astype(np.int64)
    s_min = int(a_e.min()) + int(b_e.min()) - frac
    s_max = int(a_e.max()) + int(b_e.max()) - frac
    if s_max > 1023:
        raise OverflowError("tile exponent sum exceeds float64 range")
    table = pow2_table(s_min, s_max)
    for km in range(grid_k):
        prods = (
            a_m[:, km * k_blk : (km + 1) * k_blk]
            @ b_m[km * k_blk : (km + 1) * k_blk, :]
        )
        np.clip(prods, sat_lo, sat_hi, out=prods)
        exp_sum = a_e[:, km][:, None] + b_e[km, :][None, :] - frac
        scale = table[exp_sum - s_min]
        out_tiles += (
            prods.reshape(grid_m, br_a, grid_n, bc_b)
            * scale[:, None, :, None]
        )

    return out[:logical_rows, :logical_cols].astype(np.float32)
