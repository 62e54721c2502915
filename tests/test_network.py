"""Tests for whole-network composition."""

import numpy as np
import pytest

from repro.core.fmr import FmrSpec
from repro.machine.spec import KNL_7210
from repro.nets.layers import ConvLayerSpec, get_layer
from repro.nets.network import (
    ConvLayer,
    SequentialConvNet,
    max_pool,
    network_model_time,
    relu,
    scaled_c3d,
    scaled_fusionnet,
    scaled_unet3d_encoder,
    scaled_vgg,
)
from repro.nets.reference import direct_convolution


class TestPrimitives:
    def test_relu(self):
        np.testing.assert_array_equal(
            relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_max_pool_2d(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        got = max_pool(x, 2)
        np.testing.assert_array_equal(got[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_3d(self):
        x = np.arange(8, dtype=float).reshape(1, 1, 2, 2, 2)
        assert max_pool(x, 2)[0, 0, 0, 0, 0] == 7.0

    def test_max_pool_trims_ragged(self):
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        assert max_pool(x, 2).shape == (1, 1, 2, 2)

    def test_max_pool_validation(self):
        with pytest.raises(ValueError):
            max_pool(np.zeros((1, 1, 4, 4)), 0)


class TestConvLayer:
    def make_layer(self, pool=1, activation=False):
        spec = ConvLayerSpec("T", "1", 1, 16, 16, (10, 10), (1, 1), (3, 3))
        return ConvLayer(
            spec=spec, fmr=FmrSpec.uniform(2, 2, 3),
            activation=activation, pool=pool,
        )

    def test_forward_matches_direct(self):
        layer = self.make_layer()
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, 16, 3, 3)).astype(np.float32) * 0.1
        layer.set_weights(w)
        x = rng.normal(size=(1, 16, 10, 10)).astype(np.float32)
        got = layer.forward(x)
        want = direct_convolution(
            x.astype(np.float64), w.astype(np.float64), padding=(1, 1)
        )
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-4)

    def test_activation_and_pool_applied(self):
        layer = self.make_layer(pool=2, activation=True)
        rng = np.random.default_rng(1)
        layer.set_weights(rng.normal(size=(16, 16, 3, 3)).astype(np.float32))
        x = rng.normal(size=(1, 16, 10, 10)).astype(np.float32)
        out = layer.forward(x)
        assert out.shape == (1, 16, 5, 5)
        assert out.min() >= 0.0
        assert layer.output_shape == (1, 16, 5, 5)

    def test_weights_required(self):
        layer = self.make_layer()
        with pytest.raises(RuntimeError, match="weights not set"):
            layer.forward(np.zeros((1, 16, 10, 10), dtype=np.float32))

    def test_weight_shape_checked(self):
        layer = self.make_layer()
        with pytest.raises(ValueError, match="weights shape"):
            layer.set_weights(np.zeros((16, 16, 5, 5), dtype=np.float32))


class TestSequentialNet:
    @pytest.mark.parametrize(
        "builder", [scaled_vgg, scaled_fusionnet, scaled_c3d, scaled_unet3d_encoder]
    )
    def test_builders_forward(self, builder):
        net = builder()
        rng = np.random.default_rng(42)
        net.initialize(rng)
        x = rng.normal(size=net.input_shape).astype(np.float32)
        out = net.forward(x)
        assert out.shape[0] == net.input_shape[0]
        assert np.isfinite(out).all()
        assert out.min() >= 0.0  # final ReLU

    def test_shape_mismatch_rejected(self):
        l1 = ConvLayer(
            spec=ConvLayerSpec("T", "1", 1, 16, 16, (10, 10), (0, 0), (3, 3)),
            fmr=FmrSpec.uniform(2, 2, 3),
        )
        l2 = ConvLayer(
            spec=ConvLayerSpec("T", "2", 1, 16, 16, (10, 10), (0, 0), (3, 3)),
            fmr=FmrSpec.uniform(2, 2, 3),
        )
        with pytest.raises(ValueError, match="does not feed"):
            SequentialConvNet([l1, l2])

    def test_empty_net_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SequentialConvNet([])

    def test_total_flops(self):
        net = scaled_vgg()
        assert net.total_direct_flops() == sum(
            l.spec.direct_flops() for l in net.layers
        )

    def test_forward_through_compiled_backend(self):
        """A whole-network pass on backend='compiled' matches the plain
        per-layer plans within float32 tolerance."""
        from repro.core.engine import ConvolutionEngine

        net = scaled_fusionnet()
        rng = np.random.default_rng(5)
        net.initialize(rng)
        x = rng.normal(size=net.input_shape).astype(np.float32)
        want = net.forward(x)

        with ConvolutionEngine(backend="compiled") as engine:
            got = net.forward(x, engine=engine)
            # Per-net override: backend= on forward wins over the default.
            fused = net.forward(x, engine=engine, backend="fused")
        scale = float(np.abs(want).max())
        np.testing.assert_allclose(got, want, atol=5e-5 * scale, rtol=0)
        np.testing.assert_allclose(fused, want, atol=5e-5 * scale, rtol=0)


class TestNetworkModelTime:
    @pytest.mark.slow
    def test_sum_of_layer_costs(self):
        layers = [
            (get_layer("VGG", "4.2"), FmrSpec.uniform(2, 4, 3)),
            (get_layer("VGG", "5.2"), FmrSpec.uniform(2, 4, 3)),
        ]
        total = network_model_time(layers, KNL_7210)
        assert total > 0
        single = network_model_time(layers[:1], KNL_7210)
        assert total > single
