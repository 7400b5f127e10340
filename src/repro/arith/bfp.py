"""Block floating point (BFP) tensors.

A BFP tensor partitions a 2-D array into tiles; all values in a tile are
stored as signed fixed-point mantissas sharing a single exponent (the
tile maximum's exponent). This is the storage format of Equinox's hbfp8
datapath: 8-bit mantissas, a 12-bit exponent per tile, and tile-tile
matrix multiplication performed as an integer GEMM plus an exponent add
(paper §3.2).

Encoding and the tile GEMM live in :mod:`repro.kernels` as
reference/fast implementation pairs; the entry points here validate
arguments and dispatch (decoding is one vectorized expression and
stays inline in :meth:`BlockFloatTensor.to_float`). Pass
``backend="reference"`` / ``backend="fast"`` to pin one call, or use
:func:`repro.kernels.set_backend` for the ambient default (the two are
bit-identical by contract, so this only changes speed).
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class BFPFormat:
    """Shape of a block-floating-point encoding.

    Attributes:
        mantissa_bits: Signed mantissa width (8 for hbfp8).
        exponent_bits: Shared exponent width (12 in the paper, enough to
            never saturate in practice; exponents are clamped to this
            range on encode).
        block_rows: Tile height.
        block_cols: Tile width.
    """

    mantissa_bits: int = 8
    exponent_bits: int = 12
    block_rows: int = 16
    block_cols: int = 16

    def __post_init__(self) -> None:
        if self.mantissa_bits < 2:
            raise ValueError("mantissa needs at least 2 bits")
        if self.block_rows < 1 or self.block_cols < 1:
            raise ValueError("block dimensions must be positive")

    # Derived range constants, computed once per format instance
    # (kernels read these per call; cached_property writes through the
    # frozen dataclass's __dict__ on first access).

    @cached_property
    def exponent_min(self) -> int:
        return -(2 ** (self.exponent_bits - 1))

    @cached_property
    def exponent_max(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    @cached_property
    def mantissa_min(self) -> int:
        return -(2 ** (self.mantissa_bits - 1))

    @cached_property
    def mantissa_max(self) -> int:
        return 2 ** (self.mantissa_bits - 1) - 1


BFP8 = BFPFormat(mantissa_bits=8, exponent_bits=12)


@lru_cache(maxsize=None)
def saturation_bounds(accumulator_bits: int) -> Tuple[int, int]:
    """(lo, hi) clamp range of a signed saturating accumulator."""
    return -(2 ** (accumulator_bits - 1)), 2 ** (accumulator_bits - 1) - 1


@lru_cache(maxsize=512)
def pow2_table(lo: int, hi: int) -> np.ndarray:
    """Read-only float64 table of ``2.0**k`` for ``k`` in [lo, hi].

    ``np.ldexp(1.0, k)`` equals Python's ``2.0**k`` bit for bit across
    the representable range (exact powers of two, subnormals included;
    underflow gives 0.0 either way), so kernels can replace per-tile
    scalar powers with one memoized table lookup.
    """
    table = np.ldexp(1.0, np.arange(lo, hi + 1, dtype=np.int32))
    table.setflags(write=False)
    return table


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class BlockFloatTensor:
    """A 2-D tensor stored in block floating point.

    The tensor is padded up to whole tiles internally; ``shape`` reports
    the logical (unpadded) shape and :meth:`to_float` returns the
    unpadded decode.

    Attributes:
        fmt: The :class:`BFPFormat` in force.
        mantissas: Integer mantissas with padded shape, dtype int32.
        exponents: Per-tile exponents, shape
            ``(rows/block_rows, cols/block_cols)``, dtype int32.
    """

    def __init__(
        self,
        fmt: BFPFormat,
        mantissas: np.ndarray,
        exponents: np.ndarray,
        logical_shape: tuple,
    ):
        self.fmt = fmt
        self.mantissas = mantissas
        self.exponents = exponents
        self._logical_shape = tuple(logical_shape)

    @property
    def shape(self) -> tuple:
        return self._logical_shape

    @property
    def tile_grid(self) -> tuple:
        """Number of tiles along each axis."""
        return self.exponents.shape

    @classmethod
    def from_float(
        cls,
        values: np.ndarray,
        fmt: BFPFormat = BFP8,
        rounding: str = "nearest",
        rng: "np.random.Generator | None" = None,
        backend: "str | None" = None,
    ) -> "BlockFloatTensor":
        """Quantize a float array into BFP.

        For each tile the shared exponent is chosen so the tile maximum
        maps into (0.5, 1] before mantissa scaling; mantissas are
        rounded and clipped to the signed range. All-zero tiles use the
        minimum exponent.

        Args:
            values: 2-D float array.
            fmt: Block format.
            rounding: ``"nearest"`` (datapath converters) or
                ``"stochastic"`` — the unbiased rounding HBFP training
                uses on the weight-update path so that sub-LSB updates
                survive in expectation.
            rng: Randomness source for stochastic rounding (a default
                generator is created when omitted). Both kernel
                backends consume the stream identically.
            backend: Kernel backend override for this call
                (``"reference"`` / ``"fast"``; ``None`` = ambient).
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"BFP tensors are 2-D, got shape {x.shape}")
        if rounding not in ("nearest", "stochastic"):
            raise ValueError(f"unknown rounding mode {rounding!r}")
        from repro import kernels

        quantize = kernels.dispatch("bfp.quantize", backend)
        mantissas, exponents, logical_shape = quantize(
            x, fmt, rounding=rounding, rng=rng
        )
        return cls(fmt, mantissas, exponents, logical_shape)

    def to_float(self) -> np.ndarray:
        """Decode back to float32 (logical shape, padding stripped)."""
        fmt = self.fmt
        br, bc = fmt.block_rows, fmt.block_cols
        pad_rows, pad_cols = self.mantissas.shape
        tiles = self.mantissas.reshape(pad_rows // br, br, pad_cols // bc, bc)
        scale = np.exp2(
            self.exponents.astype(np.float64) - (fmt.mantissa_bits - 1)
        )
        decoded = tiles * scale[:, None, :, None]
        rows, cols = self._logical_shape
        return decoded.reshape(pad_rows, pad_cols)[:rows, :cols].astype(
            np.float32
        )

    def storage_bits(self) -> int:
        """Total storage footprint in bits (mantissas + shared exponents)."""
        n_tiles = self.exponents.size
        return (
            self.mantissas.size * self.fmt.mantissa_bits
            + n_tiles * self.fmt.exponent_bits
        )

    def quantization_error(self, reference: np.ndarray) -> float:
        """Max absolute decode error against ``reference``."""
        return float(np.abs(self.to_float() - np.asarray(reference, np.float32)).max())


def quantize_bfp(
    values: np.ndarray, fmt: BFPFormat = BFP8, backend: "str | None" = None
) -> np.ndarray:
    """Round-trip a float array through BFP (quantize-dequantize)."""
    return BlockFloatTensor.from_float(values, fmt, backend=backend).to_float()


def bfp_matmul(
    a: BlockFloatTensor,
    b: BlockFloatTensor,
    accumulator_bits: int = 25,
    backend: "str | None" = None,
) -> np.ndarray:
    """Multiply two BFP tensors the way Equinox's systolic arrays do.

    Each tile-pair product is an integer GEMM (8-bit multipliers feeding
    ``accumulator_bits``-wide accumulators, saturating) whose scale is
    the sum of the two tile exponents; partial tiles are accumulated
    across the K dimension in float, modeling the fp32/bfloat16
    accumulation after the exponent-synchronizing FIFO (paper §3.2).

    Requires ``a.fmt.block_cols == b.fmt.block_rows`` so tiles align
    along the reduction dimension.

    Returns the float32 product with logical shape (a.rows, b.cols).
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.fmt.block_cols != b.fmt.block_rows:
        raise ValueError("tile reduction dimensions must align")
    from repro import kernels

    matmul = kernels.dispatch("bfp.matmul", backend)
    return matmul(
        a.mantissas,
        a.exponents,
        b.mantissas,
        b.exponents,
        a.fmt,
        b.fmt,
        a.shape[0],
        b.shape[1],
        accumulator_bits=accumulator_bits,
    )
