"""Quantizer values, grid algebra, range tracking, and point placement."""

import numpy as np
import pytest

from pfqkit.models import build_small_convnet
from pfqkit.quantization import (
    QuantConfig,
    QuantRangeError,
    enable_weight_points,
    insert_quant_points,
    quantize,
    quantize_backward,
    update_activation_range,
    weight_range_cfg,
)

from oracles import reference_quantize


def _cfg(bits, m, M, initialized=True):
    return QuantConfig(bits=bits, m=m, M_up=M, initialized=initialized)


class TestQuantizeValues:
    def test_hand_value(self):
        # scale = 1/4; 0.3 / 0.25 = 1.2 rounds to 1 -> 0.25
        c = _cfg(2, 0.0, 1.0)
        assert quantize(np.array([0.3]), c)[0] == 0.25

    def test_endpoints_representable(self):
        c = _cfg(3, -1.0, 1.0)
        out = quantize(np.array([-1.0, 1.0, -5.0, 5.0]), c)
        assert out.tolist() == [-1.0, 1.0, -1.0, 1.0]

    def test_half_ties_round_up_in_grid_coords(self):
        # rounding applies to (x - m) / scale, which is never negative after
        # the clamp, so exact halves always move to the next grid point up
        c = _cfg(2, -2.0, 2.0)
        out = quantize(np.array([0.5, -0.5, -1.5]), c)
        assert out.tolist() == [1.0, 0.0, -1.0]

    def test_preserves_dtype(self):
        c = _cfg(4, 0.0, 1.0)
        x = np.linspace(0, 1, 7, dtype=np.float32)
        assert quantize(x, c).dtype == np.float32

    def test_degenerate_range_errors(self):
        with pytest.raises(QuantRangeError):
            quantize(np.ones(3), _cfg(4, 1.0, 1.0))
        with pytest.raises(QuantRangeError):
            quantize(np.ones(3), _cfg(0, 0.0, 1.0))

    # bits = 1100 made QuantConfig.scale raise a bare OverflowError from
    # 2 ** bits; a bool or a fraction counts no grid.
    @pytest.mark.parametrize("bits, message", [
        (1100, r"bits must be <= 1023, where 2\*\*bits is a finite float, got 1100"),
        (True, "bits must be an integer, got True"),
        (2.5, "bits must be an integer, got 2.5")])
    def test_bits_that_count_no_grid_error(self, bits, message):
        with pytest.raises(QuantRangeError, match=f"^{message}$"):
            quantize(np.ones(3), _cfg(bits, 0.0, 1.0))

    # Ranges whose grid is finite in float64 but not in float32: an end past
    # float32's range, a span that overflows it, a step that rounds to zero,
    # more grid points than float32 can count.
    @pytest.mark.parametrize("m, M, bits", [(0.0, 1e39, 4), (-3e38, 3e38, 4),
                                            (0.0, 1e-44, 4), (0.0, 1.0, 130)])
    def test_grid_that_overflows_the_dtype_errors(self, m, M, bits):
        x = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(QuantRangeError, match=f"at {bits} bits overflows float32"):
            quantize(x.astype(np.float32), _cfg(bits, m, M))
        assert np.isfinite(quantize(x, _cfg(bits, m, M))).all()


class TestMatchesReference:
    """quantize is bit-identical to the step-by-step formula, and it computes
    in a buffer of its own, so its input stays untouched."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # Dyadic bounds and steps make the midpoints exact grid ties in both
    # dtypes; the others check ordinary rounding on inexact steps.
    @pytest.mark.parametrize("m, M, bits, dyadic", [
        (-2.0, 2.0, 8, True), (0.25, 3.25, 4, True), (-0.75, -0.25, 3, True),
        (0.0, 6.0, 2, True), (-1.3, 2.7, 4, False), (0.3, 3.1, 4, False)])
    def test_bit_identical(self, dtype, m, M, bits, dyadic):
        rng = np.random.default_rng(131)
        scale = (M - m) / 2 ** bits
        span = M - m
        ties = m + (np.arange(2 ** bits) + 0.5) * scale  # exact midpoints between grid points
        grid = m + np.arange(2 ** bits + 1) * scale
        outside = np.array([m - span, m - 1e-3, M + 1e-3, M + span])
        inside = rng.uniform(m, M, 400)
        x = np.concatenate([ties, grid, outside, inside]).astype(dtype)
        cfg = _cfg(bits, m, M)
        want = reference_quantize(x, m, M, bits)
        assert (x < m).any() and (x > M).any()
        if dyadic:
            t = (x[:ties.size] - dtype(m)) / dtype(scale)
            assert np.array_equal(t, np.arange(2 ** bits) + 0.5)
        self._check(x, cfg, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_input(self, dtype):
        rng = np.random.default_rng(137)
        base = rng.uniform(-2.5, 3.5, (6, 10, 9)).astype(dtype)
        x = base[1::2, ::-3, 2:7].transpose(2, 0, 1)
        assert not x.flags.c_contiguous and not x.flags.f_contiguous
        m, M, bits = -1.1, 2.9, 4
        self._check(x, _cfg(bits, m, M), reference_quantize(x, m, M, bits))

    @staticmethod
    def _check(x, cfg, want):
        before = x.copy()
        got = quantize(x, cfg)
        assert got.dtype == want.dtype == x.dtype
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(got, x)

    # A zero offset skips the shift by m before scaling and after rounding;
    # the reference keeps both. m = -0.0 is falsy as well.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [1, 4, 8])
    @pytest.mark.parametrize("m", [0.0, -0.0], ids=["m+0", "m-0"])
    @pytest.mark.parametrize("M", [6.0, 0.7], ids=["dyadic", "inexact"])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "in_place"])
    def test_zero_offset_bit_identical(self, dtype, bits, m, M, strided, in_place):
        scale = (M - m) / 2 ** bits
        ties = ((np.arange(2 ** bits) + 0.5) * scale).astype(dtype)  # exact ties when dyadic
        tiny = np.finfo(dtype).smallest_subnormal
        values = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(dtype).tiny / 2],  # zeros, subnormals
            ties, np.nextafter(ties, dtype(-np.inf)),  # ties and the values just below them
            (np.arange(2 ** bits + 1) * scale).astype(dtype),  # the grid
            [-1.0, -1e-30, M + 1e-3, 2 * M, 1e30]]).astype(dtype)  # outside the range
        if M == 6.0:
            t = ties / dtype(scale)
            assert np.array_equal(t, np.arange(2 ** bits) + 0.5)
        want = reference_quantize(values, m, M, bits)
        x = values
        if strided:
            base = np.full((values.size, 3), 99.0, dtype)
            base[:, 1] = values
            x = base[:, 1]
            assert not x.flags.c_contiguous
        cfg = _cfg(bits, m, M)
        if not in_place:
            self._check(x, cfg, want)
            return
        got = quantize(x, cfg, out=x)
        assert np.shares_memory(got, x)
        assert got.tobytes() == x.tobytes() == want.tobytes()
        if strided:
            assert (base[:, [0, 2]] == 99.0).all()

    @pytest.mark.parametrize("m", [0.0, -0.0], ids=["m+0", "m-0"])
    def test_zero_offset_clears_the_sign_of_zero(self, m):
        got = quantize(np.array([-0.0, 0.0, -1e-300, 5e-324]), _cfg(4, m, 1.0))
        assert got.tobytes() == np.zeros(4).tobytes()


class TestGridAlgebra:
    def test_idempotent(self):
        rng = np.random.default_rng(101)
        c = _cfg(4, -1.3, 2.7)
        x = rng.uniform(-3, 4, 5000)
        once = quantize(x, c)
        twice = quantize(once, c)
        assert np.array_equal(once, twice)

    def test_monotone(self):
        rng = np.random.default_rng(103)
        c = _cfg(3, -2.0, 1.5)
        x = np.sort(rng.uniform(-4, 4, 3000))
        q = quantize(x, c)
        assert np.all(np.diff(q) >= 0)

    def test_level_count_bounded(self):
        rng = np.random.default_rng(107)
        for bits in (1, 2, 4, 8):
            c = _cfg(bits, -1.0, 1.0)
            q = quantize(rng.uniform(-2, 2, 10000), c)
            assert len(np.unique(q)) <= 2 ** bits + 1

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(109)
        c = _cfg(5, -0.7, 1.9)
        x = rng.uniform(-0.7, 1.9, 10000)
        q = quantize(x, c)
        assert np.max(np.abs(q - x)) <= c.scale / 2 + 1e-12


class TestStraightThrough:
    def test_mask_inside_closed_range(self):
        c = _cfg(4, -1.0, 1.0)
        x = np.array([-1.5, -1.0, 0.0, 1.0, 1.5])
        g = quantize_backward(np.ones(5), x, c)
        assert g.tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_grad_zero_outside(self):
        rng = np.random.default_rng(113)
        c = _cfg(4, 0.0, 1.0)
        x = rng.uniform(-2, 3, 200)
        g = quantize_backward(rng.standard_normal(200), x, c)
        outside = (x < 0.0) | (x > 1.0)
        assert np.all(g[outside] == 0.0)


class TestRangeTracking:
    def test_weight_range_live(self):
        w = np.array([-0.5, 0.25, 2.0])
        c = weight_range_cfg(w, 4)
        assert c.m == -0.5 and c.M_up == 2.0
        assert c.bits == 4 and c.initialized
        with pytest.raises(QuantRangeError):
            weight_range_cfg(np.zeros(4), 4)

    def test_first_observation_initializes(self):
        c = QuantConfig(bits=4, ema_momentum=0.9)
        c2 = update_activation_range(np.array([0.2, 0.8]), c)
        assert c2.initialized
        assert c2.m == 0.2 and c2.M_up == 0.8

    def test_ema_hand_value(self):
        c = QuantConfig(bits=4, m=0.0, M_up=1.0,
                        ema_momentum=0.9, initialized=True)
        c2 = update_activation_range(np.array([0.5, 2.0]), c)
        # 0*0.9 + 0.5*0.1 = 0.05 ; 1*0.9 + 2*0.1 = 1.1
        assert abs(c2.m - 0.05) < 1e-12
        assert abs(c2.M_up - 1.1) < 1e-12

    def test_ema_momentum_preserved(self):
        c = QuantConfig(bits=4, ema_momentum=0.7)
        c2 = update_activation_range(np.array([0.0, 1.0]), c)
        assert c2.ema_momentum == 0.7


class TestPlacement:
    def test_points_after_each_activation_except_last(self):
        g = build_small_convnet(seed=0)
        annotated = insert_quant_points(g, 4, 8)
        kinds = [(l.name, l.kind) for l in annotated.layers]
        points = [n for n, k in kinds if k == "quant_point"]
        # two relus and a pool before the final affine: all three get points
        assert len(points) == 3
        # each point sits directly after its producer
        for name in points:
            i = annotated.index(name)
            assert annotated.layers[i - 1].kind in ("relu", "relu6", "global_avg_pool")
            assert name == annotated.layers[i - 1].name + "_q"

    def test_final_layer_gets_no_point(self):
        g = build_small_convnet(seed=0)
        annotated = insert_quant_points(g, 4, 8)
        assert annotated.layers[-1].kind != "quant_point"

    def test_weight_points_on_all_conv_like(self):
        g = build_small_convnet(seed=0)
        annotated = insert_quant_points(g, 4, 8)
        for layer in annotated.layers:
            if layer.kind in ("conv", "depthwise_conv", "affine"):
                assert layer.weight_quant is not None
                assert layer.weight_quant.enabled is False
                assert layer.weight_quant.cfg.bits == 8

    def test_double_annotation_rejected(self):
        g = insert_quant_points(build_small_convnet(seed=0), 4, 8)
        with pytest.raises(ValueError):
            insert_quant_points(g, 4, 8)

    def test_enable_toggles(self):
        g = insert_quant_points(build_small_convnet(seed=0), 4, 8, act_enabled=False)
        enable_weight_points(g)
        for layer in g.layers:
            if layer.weight_quant is not None:
                assert layer.weight_quant.enabled
            if layer.kind == "quant_point":
                assert not layer.params.enabled
