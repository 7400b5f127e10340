"""Reference block-floating-point kernels — the bit-exactness oracle.

These are the original tile-loop implementations from
:mod:`repro.arith.bfp`, moved here verbatim when the kernel-dispatch
layer was introduced. They favor obviousness over speed: the matmul
walks the (grid_m, grid_k, grid_n) tile lattice in explicit Python
loops, exactly mirroring how one of Equinox's systolic arrays consumes
tiles (integer tile GEMM, saturating accumulator, exponent add — paper
§3.2). The fast backend (:mod:`repro.kernels.fast_bfp`) must reproduce
every output of this module bit for bit, including the stochastic
rounding path's RNG stream consumption.

Do not import this module outside ``repro.kernels`` and tests — call
sites go through :func:`repro.kernels.dispatch` so backend selection
and parity accounting apply (lint rule EQX308).

All functions take the :class:`repro.arith.bfp.BFPFormat` duck-typed
(``mantissa_bits`` / ``exponent_*`` / ``block_*`` attributes) so this
module needs no imports beyond numpy.
"""

from typing import Optional, Tuple

import numpy as np

__all__ = ["quantize", "matmul"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def quantize(
    values: np.ndarray,
    fmt,
    rounding: str = "nearest",
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Quantize a 2-D float array into BFP tiles.

    For each tile the shared exponent is chosen so the tile maximum
    maps into (0.5, 1] before mantissa scaling; mantissas are rounded
    and clipped to the signed range. All-zero tiles use the minimum
    exponent. The stochastic path consumes exactly one
    ``rng.random(padded_tile_shape)`` draw.

    Returns ``(mantissas int32 (padded), exponents int32 (tile grid),
    logical_shape)``. Argument validation (2-D, known rounding mode)
    happens in the public wrapper.
    """
    x = np.asarray(values, dtype=np.float64)
    rows, cols = x.shape
    br, bc = fmt.block_rows, fmt.block_cols
    pad_rows = _ceil_div(rows, br) * br
    pad_cols = _ceil_div(cols, bc) * bc
    padded = np.zeros((pad_rows, pad_cols), dtype=np.float64)
    padded[:rows, :cols] = x

    # Shape into (tile_r, br, tile_c, bc) to reduce per tile.
    tiles = padded.reshape(pad_rows // br, br, pad_cols // bc, bc)
    max_abs = np.abs(tiles).max(axis=(1, 3))
    with np.errstate(divide="ignore"):
        exponents = np.where(
            max_abs > 0, np.ceil(np.log2(max_abs)), fmt.exponent_min
        ).astype(np.int64)
    # A tile max that is an exact power of two maps to mantissa 1.0,
    # which overflows the signed range; the clip below absorbs it as
    # a one-LSB saturation.
    exponents = np.clip(exponents, fmt.exponent_min, fmt.exponent_max)

    scale = np.exp2(exponents - (fmt.mantissa_bits - 1)).astype(np.float64)
    # All-zero tiles carry the minimum exponent, whose scale can
    # underflow to 0.0; their mantissas are zero regardless, so use
    # a unit scale to keep the division well-defined.
    safe_scale = np.where(max_abs > 0, scale, 1.0)
    scaled = tiles / safe_scale[:, None, :, None]
    if rounding == "stochastic":
        rng = rng or np.random.default_rng()
        floor = np.floor(scaled)
        frac = scaled - floor
        mant = floor + (rng.random(scaled.shape) < frac)
    else:
        mant = np.round(scaled)
    mant = np.clip(mant, fmt.mantissa_min, fmt.mantissa_max)
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
    """Tile-lattice BFP matmul, the way Equinox's systolic arrays do it.

    Each tile-pair product is an integer GEMM (saturating
    ``accumulator_bits``-wide accumulators) whose scale is the sum of
    the two tile exponents; partial tiles accumulate across the K
    dimension in float, in ascending-K order — the fast backend must
    preserve that order bit for bit. Shape/alignment validation happens
    in the public wrapper.
    """
    mant_bits = a_fmt.mantissa_bits
    frac = 2 * (mant_bits - 1)
    sat_hi = 2 ** (accumulator_bits - 1) - 1
    sat_lo = -(2 ** (accumulator_bits - 1))

    br_a, k_blk = a_fmt.block_rows, a_fmt.block_cols
    bc_b = b_fmt.block_cols
    grid_m, grid_k = a_exp.shape
    grid_k2, grid_n = b_exp.shape
    if grid_k != grid_k2:
        raise ValueError("tile grids do not align along K")

    out = np.zeros((grid_m * br_a, grid_n * bc_b), dtype=np.float64)
    a_m = a_mant.astype(np.int64)
    b_m = b_mant.astype(np.int64)
    for km in range(grid_k):
        a_strip = a_m[:, km * k_blk : (km + 1) * k_blk]
        b_strip = b_m[km * k_blk : (km + 1) * k_blk, :]
        for im in range(grid_m):
            a_tile = a_strip[im * br_a : (im + 1) * br_a]
            prods = a_tile @ b_strip  # integer GEMM across all N tiles
            for jn in range(grid_n):
                tile = prods[:, jn * bc_b : (jn + 1) * bc_b]
                tile = np.clip(tile, sat_lo, sat_hi)
                exp = int(a_exp[im, km]) + int(b_exp[km, jn])
                out[
                    im * br_a : (im + 1) * br_a, jn * bc_b : (jn + 1) * bc_b
                ] += tile * (2.0 ** (exp - frac))

    return out[:logical_rows, :logical_cols].astype(np.float32)
