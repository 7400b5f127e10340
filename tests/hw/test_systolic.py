"""Functional systolic array — the reproduction's RTL-trace validation.

These tests pin the event-driven MMU model's timing formulas to a
register-level array simulation, the same role RTL traces play in the
paper's methodology (§5).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.hw.config import AcceleratorConfig
from repro.hw.systolic import SystolicArray, systolic_latency_cycles


def _array(n, w, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((n * w, n))
    return SystolicArray(n, w, weights), weights


def _ordered_product(x, weights, n, w):
    """The PE adder chain's exact result: each PE sums its w lanes left
    to right, and each column sums its n stage partials top to bottom."""
    rows = x.shape[0]
    xr = x.reshape(rows, n, w)
    wr = weights.reshape(n, w, n)
    partial = np.zeros((rows, n, n))
    for t in range(w):
        partial += xr[:, :, t, None] * wr[None, :, t, :]
    out = partial[:, 0, :].copy()
    for stage in range(1, n):
        out += partial[:, stage, :]
    return out


class TestNumericCorrectness:
    @pytest.mark.parametrize("n,w,rows", [(1, 1, 1), (2, 2, 3), (4, 2, 8), (3, 4, 5)])
    def test_matches_matmul(self, n, w, rows):
        array, weights = _array(n, w, seed=n * 10 + w)
        x = np.random.default_rng(rows).standard_normal((rows, n * w))
        outputs, _, _ = array.run(x)
        np.testing.assert_allclose(outputs, x @ weights, rtol=1e-9, atol=1e-9)

    def test_single_pe(self):
        array, weights = _array(1, 1)
        x = np.array([[2.0], [3.0]])
        outputs, _, _ = array.run(x)
        np.testing.assert_allclose(outputs, x @ weights)

    @given(
        st.integers(1, 5), st.integers(1, 4), st.integers(1, 8),
        st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_matmul_property(self, n, w, rows, seed):
        array, weights = _array(n, w, seed=seed)
        x = np.random.default_rng(seed + 1).standard_normal((rows, n * w))
        outputs, _, _ = array.run(x)
        np.testing.assert_allclose(outputs, x @ weights, rtol=1e-9, atol=1e-9)
        assert np.array_equal(outputs, _ordered_product(x, weights, n, w))


class TestTiming:
    @pytest.mark.parametrize("n,w,rows", [(1, 1, 1), (2, 2, 4), (4, 2, 8), (3, 3, 2)])
    def test_last_output_matches_formula(self, n, w, rows):
        array, _ = _array(n, w)
        x = np.ones((rows, n * w))
        _, last_cycle, _ = array.run(x)
        assert last_cycle == systolic_latency_cycles(rows, n, w)

    def test_completion_order_row_major_per_column(self):
        array, _ = _array(3, 2)
        x = np.ones((4, 6))
        _, _, completion = array.run(x)
        # Within a column, outputs complete one row per cycle.
        assert np.all(np.diff(completion[:, 0]) == 1)
        # Across columns, the skew adds one cycle per column.
        assert np.all(np.diff(completion[0, :]) == 1)

    def test_occupancy_is_one_row_per_cycle(self):
        """Doubling the streamed rows delays the last output by exactly
        the extra rows — the occupancy the event model charges."""
        array, _ = _array(2, 3)
        _, t_small, _ = array.run(np.ones((4, 6)))
        _, t_large, _ = array.run(np.ones((8, 6)))
        assert t_large - t_small == 4

    def test_drain_bound_matches_event_model(self):
        """The event model's pipeline_drain_cycles upper-bounds (within
        one cycle) the functional array's drain for matching (n, w)."""
        for n, w in [(1, 1), (2, 2), (4, 2), (3, 4)]:
            config = AcceleratorConfig(
                name="probe", n=n, m=1, w=w, frequency_hz=1e9
            )
            rows = 5
            functional_drain = systolic_latency_cycles(rows, n, w) - rows
            assert config.pipeline_drain_cycles - 1 == functional_drain

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_latency_formula_property(self, n, w, rows):
        array, _ = _array(n, w)
        _, last_cycle, completion = array.run(np.ones((rows, n * w)))
        assert last_cycle == rows + (n - 1) + n + n * w
        assert completion.max() == last_cycle
        # Row r leaves column j after entry, j cycles of skew, n
        # reduction stages and the n·w-deep FIFO.
        r = np.arange(rows)[:, None]
        j = np.arange(n)[None, :]
        assert np.array_equal(completion, r + 1 + j + n + n * w)


class TestRunStream:
    """A tile stream is one timeline: per-tile runs with cumulative row
    offsets must equal the stream entry point, bit for bit."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_equals_per_tile_runs_with_offsets(self, backend):
        # The register model has one implementation: the ambient kernel
        # backend (which switches only the BFP kernels) must not change it.
        array, _ = _array(3, 2, seed=9)
        rng = np.random.default_rng(21)
        tiles = [rng.standard_normal((r, 6)) for r in (4, 1, 7, 2)]
        with kernels.use_backend(backend):
            outs, last_cycle, completions = array.run_stream(tiles)
        offset = 0
        for tile, out, completion in zip(tiles, outs, completions):
            ref_out, ref_last, ref_completion = array.run(tile)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(completion, ref_completion + offset)
            offset += tile.shape[0]
        assert last_cycle == offset + (3 - 1) + 3 + 3 * 2

    def test_empty_stream(self):
        array, _ = _array(2, 2)
        outs, last_cycle, completions = array.run_stream([])
        assert outs == [] and completions == [] and last_cycle == 0

    def test_rejects_bad_tile_shape(self):
        array, _ = _array(2, 2)
        with pytest.raises(ValueError, match="stream tile 1"):
            array.run_stream([np.zeros((2, 4)), np.zeros((2, 5))])


class TestValidation:
    def test_rejects_bad_weight_shape(self):
        with pytest.raises(ValueError):
            SystolicArray(2, 2, np.zeros((3, 2)))

    def test_rejects_bad_activation_shape(self):
        array, _ = _array(2, 2)
        with pytest.raises(ValueError):
            array.run(np.zeros((3, 5)))

    def test_rejects_empty_activations(self):
        array, _ = _array(2, 2)
        with pytest.raises(ValueError):
            array.run(np.zeros((0, 4)))
