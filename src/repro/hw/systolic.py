"""Functional per-cycle systolic array model.

The paper validates its event-driven simulator against RTL traces. This
module plays the RTL role for the reproduction: a register-level,
cycle-by-cycle weight-stationary systolic array whose numeric results
and per-output completion cycles pin down the timing formulas used by
the event model (:class:`repro.hw.mmu.MatrixMultiplyUnit` and
:attr:`repro.hw.config.AcceleratorConfig.pipeline_drain_cycles`).

Microarchitecture (one of Equinox's ``m`` arrays):

* n×n grid of PEs, each holding ``w`` stationary weights per output
  column: PE row *i* of column *j* holds ``W[i·w:(i+1)·w, j]``.
* One activation row (n·w values) enters per cycle; it reaches column
  *j* after a *j*-cycle horizontal skew.
* Partial sums trickle down the n PE rows, one stage per cycle.
* Completed dot products pass through an (n·w)-deep output FIFO — the
  block-floating-point exponent-synchronization FIFO of paper §3.2 —
  before write-back.

Total latency for R rows: the last output leaves on cycle
``R + (n - 1) + n + n·w``, i.e. an occupancy of R cycles plus a drain of
``n·w + 2n - 1``, which the event model rounds up to ``n·w + 2n``.

Each PE's w-wide MAC is an explicitly ordered left-to-right
accumulation (:func:`_mac`) rather than a BLAS dot, whose bit pattern
depends on the kernel BLAS picks for a shape and stride. Products
accumulate in ascending lane order within a PE, and partial sums in
ascending stage order down a column, exactly like the RTL's adder
chain. Completion cycles come out of the register simulation, never
from the closed form: the timing tests compare the two.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


def systolic_latency_cycles(rows: int, n: int, w: int) -> int:
    """Exact cycle on which the last output leaves the array.

    Horizontal skew to the last column (n-1), vertical reduction (n),
    exponent-sync FIFO (n·w), on top of R cycles of row streaming.
    """
    if rows < 1:
        raise ValueError("need at least one activation row")
    return rows + (n - 1) + n + n * w


@dataclass
class _PartialSum:
    """A value in flight down one column's reduction pipeline."""

    row: int
    value: float


def _mac(chunk: np.ndarray, wslice: np.ndarray) -> float:
    """Left-to-right ordered dot product — one PE's w-lane adder chain."""
    acc = 0.0
    for t in range(chunk.shape[0]):
        acc += float(chunk[t]) * float(wslice[t])
    return acc


class SystolicArray:
    """A weight-stationary n×n array of w-wide PEs, simulated per cycle."""

    def __init__(self, n: int, w: int, weights: np.ndarray):
        # Exact-accumulation reference model: quantization happens in
        # repro.arith before operands reach the array.
        weights = np.asarray(weights, dtype=np.float64)  # eqx: ignore[EQX301]
        if n < 1 or w < 1:
            raise ValueError("array dimensions must be positive")
        if weights.shape != (n * w, n):
            raise ValueError(
                f"weights must be ({n * w}, {n}) for n={n}, w={w}; "
                f"got {weights.shape}"
            )
        self.n = n
        self.w = w
        self.weights = weights

    def run(
        self, activations: np.ndarray
    ) -> "tuple[np.ndarray, int, np.ndarray]":
        """Stream ``activations`` (R × n·w) through the array, cycle by
        cycle.

        Args:
            activations: Activation rows, shape (R, n·w).

        Returns:
            outputs: The (R × n) product, numerically equal to
                ``activations @ weights`` up to float64 associativity
                (the PEs accumulate in lane/stage order).
            last_cycle: Cycle on which the final output left the FIFO.
            completion: (R × n) array of per-output completion cycles.
        """
        x = np.asarray(activations, dtype=np.float64)  # eqx: ignore[EQX301]
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != self.n * self.w:
            raise ValueError(
                f"activations must be (R>=1, {self.n * self.w}); got {x.shape}"
            )
        n, w, weights = self.n, self.w, self.weights
        rows = x.shape[0]
        outputs = np.zeros((rows, n))
        completion = np.full((rows, n), -1, dtype=np.int64)

        # Per-column state: a one-cycle horizontal handoff register, the
        # n-stage vertical reduction pipeline, and the output FIFO.
        handoff: List[Optional[int]] = [None] * n  # row id moving j -> j+1
        reduce_pipe: List[List[Optional[_PartialSum]]] = [
            [None] * n for _ in range(n)
        ]
        out_fifo: List[List[Optional[_PartialSum]]] = [
            [None] * (n * w) for _ in range(n)
        ]

        cycle = 0
        done = 0
        total = rows * n
        budget = rows + (n - 1) + n + n * w + 4
        while done < total:
            cycle += 1
            if cycle > budget:
                raise RuntimeError(
                    "systolic model failed to drain within its latency bound"
                )
            entering = cycle - 1 if cycle - 1 < rows else None

            # Descending column order: column j reads the handoff its
            # left neighbour wrote on the *previous* cycle.
            new_handoff: List[Optional[int]] = [None] * n
            for j in range(n - 1, -1, -1):
                # 1. Output FIFO shifts one slot; the oldest pops out.
                popped = out_fifo[j].pop()
                if popped is not None:
                    outputs[popped.row, j] = popped.value
                    completion[popped.row, j] = cycle
                    done += 1

                # 2. The reduction pipe's bottom value enters the FIFO.
                out_fifo[j].insert(0, reduce_pipe[j][-1])

                # 3. Reduction stages shift down, each adding its MACs.
                for stage in range(n - 1, 0, -1):
                    prev = reduce_pipe[j][stage - 1]
                    if prev is not None:
                        chunk = x[prev.row, stage * w : (stage + 1) * w]
                        wslice = weights[stage * w : (stage + 1) * w, j]
                        prev = _PartialSum(
                            prev.row, prev.value + _mac(chunk, wslice)
                        )
                    reduce_pipe[j][stage] = prev

                # 4. A row arriving at this column enters stage 0 and is
                #    handed to the right neighbour for the next cycle.
                arriving = entering if j == 0 else handoff[j - 1]
                if arriving is not None:
                    reduce_pipe[j][0] = _PartialSum(
                        arriving, _mac(x[arriving, 0:w], weights[0:w, j])
                    )
                    if j < n - 1:
                        new_handoff[j] = arriving
                else:
                    reduce_pipe[j][0] = None
            handoff = new_handoff

        return outputs, cycle, completion

    def run_stream(self, tile_stream) -> "tuple[list, int, list]":
        """Stream a sequence of activation tiles back-to-back.

        Weight-stationary arrays accept one row per cycle with no
        bubble between jobs (the weights never reload), so tile ``k``
        starts entering on the cycle after tile ``k-1``'s last row: its
        tile-local cycle counts shift by the rows already streamed.

        Args:
            tile_stream: Sequence of activation arrays, each
                (R_k >= 1, n·w).

        Returns:
            outputs: List of (R_k × n) products, one per tile.
            last_cycle: Cycle the final tile's last output left the
                FIFO (0 for an empty stream).
            completions: List of (R_k × n) per-output completion
                cycles, on the shared stream timeline.
        """
        tiles = []
        for k, activations in enumerate(tile_stream):
            x = np.asarray(activations, dtype=np.float64)  # eqx: ignore[EQX301]
            if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != self.n * self.w:
                raise ValueError(
                    f"stream tile {k} must be (R>=1, {self.n * self.w}); "
                    f"got {x.shape}"
                )
            tiles.append(x)
        outputs = []
        completions = []
        offset = 0
        last_cycle = 0
        for x in tiles:
            out, last, completion = self.run(x)
            outputs.append(out)
            completions.append(completion + offset)
            last_cycle = offset + last
            offset += x.shape[0]
        return outputs, last_cycle, completions
