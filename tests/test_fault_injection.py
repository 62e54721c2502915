"""Fault-injection suite: the engine's fallback chain under failure.

The chain has one hop, ``compiled -> fused``.  These tests make the
compiled executor's construction raise :class:`CodeletBuildError` on a
host that reports a working toolchain (both monkeypatched in
:mod:`repro.core.engine`, so no compiler is needed) and assert the
documented recovery path: the request reroutes to ``fused``, its output
is bitwise the fused result, and the hop is visible in the counters,
the ``fallback`` trace event and the request span.  A ``close()`` that
lands mid-fallback must still leave the plan cache empty.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core.compiled_backend import CodeletBuildError
from repro.core.engine import ConvolutionEngine
from repro.nets.reference import direct_convolution


def _data(seed=0, c=16, hw=10):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((1, c, hw, hw)).astype(np.float32)
    kernels = (rng.standard_normal((c, c, 3, 3)) * 0.2).astype(np.float32)
    return images, kernels


def _oracle(images, kernels, padding=(0, 0)):
    return direct_convolution(
        images.astype(np.float64), kernels.astype(np.float64), padding=padding
    )


@pytest.fixture
def broken_codelets(monkeypatch):
    """A toolchain that probes fine but whose codelet build fails."""

    def broken_build(*a, **k):
        raise CodeletBuildError("injected build failure")

    monkeypatch.setattr(engine_mod, "compiled_available", lambda: True)
    monkeypatch.setattr(engine_mod, "CompiledWinogradExecutor", broken_build)


class TestFallbackChain:
    def test_codelet_build_error_falls_back_to_fused(self, broken_codelets):
        images, kernels = _data()
        with ConvolutionEngine() as ref:
            expected = ref.run(images, kernels, padding=(1, 1), backend="fused")
        with ConvolutionEngine(backend="compiled") as eng:
            out = eng.run(images, kernels, padding=(1, 1))
            np.testing.assert_array_equal(out, expected)
            m = eng.metrics
            assert m.counter_value("engine.fallbacks") == 1
            assert m.counter_value("engine.fallbacks.compiled_to_fused") == 1
            (ev,) = eng.tracer.spans("fallback")
            assert ev.attrs["source"] == "compiled"
            assert ev.attrs["target"] == "fused"
            assert ev.attrs["error"] == "CodeletBuildError"
            (req,) = eng.tracer.spans("request")
            assert req.attrs["fallback"] == "compiled->fused"
            assert eng.stats()["fallbacks"] == 1

    def test_close_during_inflight_fallback_sweeps_everything(
        self, broken_codelets, monkeypatch
    ):
        """``close()`` landing while a request is mid-fallback must not
        leak the plan entries that the fallback rebuilds *after* close
        already swept the cache.

        Sequence forced here: a codelet build failure reroutes the
        request to the fused backend; close() runs after the failure but
        before the fallback dispatch; the fallback then repopulates the
        plan cache with a fresh fused entry.  The draining request must
        re-run the sweep on its way out, leaving the engine truly closed
        (empty cache).
        """
        images, kernels = _data()
        engine = ConvolutionEngine(backend="compiled")
        orig = engine._dispatch
        failed = threading.Event()
        closed = threading.Event()

        def gated(backend, *a, **k):
            if backend == "fused":  # the fallback attempt, post-failure
                failed.set()
                assert closed.wait(20), "close() never arrived"
            return orig(backend, *a, **k)

        monkeypatch.setattr(engine, "_dispatch", gated)
        result: dict = {}

        def request():
            try:
                result["out"] = engine.run(images, kernels)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                result["err"] = exc

        t = threading.Thread(target=request)
        t.start()
        assert failed.wait(30), "build failure / fallback never happened"
        engine.close()  # lands while the fallback is in flight
        closed.set()
        t.join(30)
        assert not t.is_alive()
        assert "err" not in result, f"request failed: {result.get('err')!r}"
        # The rerouted request still produced the right convolution...
        np.testing.assert_allclose(
            result["out"], _oracle(images, kernels), atol=1e-3
        )
        assert engine.metrics.counter_value("engine.fallbacks.compiled_to_fused") == 1
        # ...and its exit swept the entries the fallback re-created.
        assert len(engine.plans) == 0
        # close() after the sweep stays a no-op.
        engine.close()
        assert len(engine.plans) == 0
