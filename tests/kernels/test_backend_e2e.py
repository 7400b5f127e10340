"""End-to-end backend equivalence through the public entry points.

The parity corpus checks implementations; these tests check the
*wrappers* — that ``backend=`` threads all the way down, that ambient
switching changes which side runs (observable via dispatch counters),
and that results stay bit-identical through the composed pipelines
(hbfp GEMM, functional models).
"""

import numpy as np
import pytest

from repro import kernels
from repro.arith.bfp import BFPFormat, BlockFloatTensor, bfp_matmul
from repro.arith.hbfp import hbfp_gemm


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.get_backend()
    yield
    kernels.set_backend(previous)


FMT = BFPFormat(mantissa_bits=8, exponent_bits=12, block_rows=16,
                block_cols=16)


def _operands(seed=3, shape=(33, 47)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape)


class TestBfpWrappers:
    def test_from_float_backends_bit_identical(self):
        x = _operands()
        ref = BlockFloatTensor.from_float(x, FMT, backend="reference")
        fast = BlockFloatTensor.from_float(x, FMT, backend="fast")
        assert np.array_equal(ref.mantissas, fast.mantissas)
        assert np.array_equal(ref.exponents, fast.exponents)
        assert np.array_equal(ref.to_float(), fast.to_float())

    def test_stochastic_rounding_consumes_identical_randomness(self):
        x = _operands(seed=9)
        states = {}
        for backend in kernels.BACKENDS:
            rng = np.random.default_rng(1234)
            BlockFloatTensor.from_float(
                x, FMT, rounding="stochastic", rng=rng, backend=backend
            )
            states[backend] = rng.bit_generator.state
        assert states["reference"] == states["fast"]

    def test_bfp_matmul_backends_bit_identical(self):
        a = BlockFloatTensor.from_float(_operands(1, (32, 64)), FMT)
        b = BlockFloatTensor.from_float(_operands(2, (64, 48)), FMT)
        ref = bfp_matmul(a, b, backend="reference")
        fast = bfp_matmul(a, b, backend="fast")
        assert np.array_equal(ref, fast)

    def test_ambient_backend_reaches_the_wrappers(self):
        x = _operands()
        kernels.reset_dispatch_counts()
        with kernels.use_backend("reference"):
            BlockFloatTensor.from_float(x, FMT)
        counts = kernels.dispatch_counts()["bfp.quantize"]
        assert counts == {"reference": 1}
        kernels.reset_dispatch_counts()


class TestComposedPipelines:
    def test_hbfp_gemm_backend_invariant(self):
        a = _operands(11, (40, 56)).astype(np.float32)
        b = _operands(12, (56, 24)).astype(np.float32)
        ref = hbfp_gemm(a, b, backend="reference")
        fast = hbfp_gemm(a, b, backend="fast")
        assert np.array_equal(ref, fast)

    def test_functional_mlp_backend_invariant(self):
        from repro.models.functional import FunctionalMLP

        x = _operands(13, (8, 48)).astype(np.float32)
        outs = {}
        for backend in kernels.BACKENDS:
            model = FunctionalMLP(
                [48, 32, 16], encoding="hbfp8",
                rng=np.random.default_rng(0),
            )
            outs[backend] = model.run(x, kernel_backend=backend)
        for backend, out in outs.items():
            assert np.array_equal(outs["reference"], out), backend

    def test_functional_lstm_backend_invariant(self):
        from repro.models.functional import FunctionalLSTMCell

        h0 = _operands(14, (4, 32)).astype(np.float32)
        outs = {}
        for backend in kernels.BACKENDS:
            cell = FunctionalLSTMCell(
                32, encoding="hbfp8", rng=np.random.default_rng(0)
            )
            outs[backend] = cell.run(h0, steps=3, kernel_backend=backend)
        for backend, out in outs.items():
            assert np.array_equal(outs["reference"], out), backend
