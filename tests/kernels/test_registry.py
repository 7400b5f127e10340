"""Kernel-pair registry: backend selection, dispatch, counters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import kernels
from repro.kernels import registry

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.get_backend()
    yield
    kernels.set_backend(previous)


def _other(backend):
    return "reference" if backend == "fast" else "fast"


class TestBackendSelection:
    """Ambient-relative on purpose: the CI kernels job runs this file
    under both REPRO_KERNEL_BACKEND values, so the starting backend is
    not a constant."""

    @pytest.mark.skipif(
        "REPRO_KERNEL_BACKEND" in os.environ,
        reason="ambient backend pinned by the environment",
    )
    def test_default_is_fast(self):
        assert kernels.get_backend() == "fast"

    def test_set_backend_returns_previous(self):
        ambient = kernels.get_backend()
        flipped = _other(ambient)
        assert kernels.set_backend(flipped) == ambient
        assert kernels.get_backend() == flipped
        assert kernels.set_backend(ambient) == flipped

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("turbo")

    def test_use_backend_scopes_and_restores(self):
        ambient = kernels.get_backend()
        flipped = _other(ambient)
        with kernels.use_backend(flipped):
            assert kernels.get_backend() == flipped
            with kernels.use_backend(ambient):
                assert kernels.get_backend() == ambient
            assert kernels.get_backend() == flipped
        assert kernels.get_backend() == ambient

    def test_use_backend_none_is_a_no_op(self):
        flipped = _other(kernels.get_backend())
        kernels.set_backend(flipped)
        with kernels.use_backend(None):
            assert kernels.get_backend() == flipped
        assert kernels.get_backend() == flipped

    def test_use_backend_restores_on_exception(self):
        ambient = kernels.get_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend(_other(ambient)):
                raise RuntimeError("boom")
        assert kernels.get_backend() == ambient


class TestEnvironmentOverride:
    """REPRO_KERNEL_BACKEND is read once at import — check in a fresh
    interpreter so this process's registry state stays untouched."""

    def _probe(self, value):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        env["REPRO_KERNEL_BACKEND"] = value
        return subprocess.run(
            [sys.executable, "-c",
             "from repro import kernels; print(kernels.get_backend())"],
            env=env, capture_output=True, text=True,
        )

    def test_reference_override(self):
        result = self._probe("reference")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "reference"

    def test_invalid_value_fails_import(self):
        # "compiled" named a JIT tier that no longer exists; it is
        # rejected like any other unknown value, not silently degraded.
        for value in ("turbo", "compiled"):
            result = self._probe(value)
            assert result.returncode != 0, value
            assert "unknown kernel backend" in result.stderr, value


class TestRegistry:
    def test_all_pairs_registered(self):
        assert kernels.kernel_names() == ("bfp.matmul", "bfp.quantize")

    def test_pair_resolves_both_sides(self):
        pair = kernels.get_kernel("bfp.matmul")
        assert pair.implementation("reference") is pair.reference
        assert pair.implementation("fast") is pair.fast
        assert pair.reference is not pair.fast

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            kernels.get_kernel("no.such.kernel")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            kernels.register_kernel(
                "bfp.matmul", lambda: None, lambda: None
            )


class TestDispatch:
    def test_dispatch_uses_ambient_backend(self):
        kernels.set_backend("reference")
        impl = kernels.dispatch("bfp.matmul")
        assert impl is kernels.get_kernel("bfp.matmul").reference

    def test_per_call_backend_wins(self):
        kernels.set_backend("reference")
        impl = kernels.dispatch("bfp.matmul", backend="fast")
        assert impl is kernels.get_kernel("bfp.matmul").fast

    def test_dispatches_are_counted_per_backend(self):
        kernels.reset_dispatch_counts()
        kernels.dispatch("bfp.matmul", backend="fast")
        kernels.dispatch("bfp.matmul", backend="fast")
        kernels.dispatch("bfp.matmul", backend="reference")
        counts = kernels.dispatch_counts()
        assert counts["bfp.matmul"] == {"fast": 2, "reference": 1}
        kernels.reset_dispatch_counts()
        assert kernels.dispatch_counts() == {}

    def test_dispatch_summary_flattens_counts(self):
        from repro.obs.profile import kernel_dispatch_summary

        kernels.reset_dispatch_counts()
        kernels.dispatch("bfp.quantize", backend="fast")
        summary = kernel_dispatch_summary()
        assert summary == {"kernels.dispatch.bfp.quantize.fast": 1.0}
        kernels.reset_dispatch_counts()


class TestRegistryModule:
    def test_backends_tuple_is_contract_order(self):
        assert registry.BACKENDS == ("reference", "fast")

    def test_env_var_name_is_stable_api(self):
        # CI and the docs reference this name.
        assert registry.ENV_VAR == "REPRO_KERNEL_BACKEND"
