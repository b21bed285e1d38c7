"""Forward values and gradients for the raw array operations.

Forward results are checked against hand-computed values and a quadruple-loop
reference convolution; every backward path is checked against central finite
differences on float64 inputs.
"""

import tracemalloc

import numpy as np
import pytest

from pfqkit.tensor_ops import (
    ShapeError,
    affine_backward,
    affine_forward,
    conv2d_backward,
    conv2d_forward,
    conv_output_extent,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    elementwise_add,
    global_avg_pool_backward,
    global_avg_pool_forward,
    relu6_backward,
    relu6_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)

from oracles import brute_force_conv2d, depthwise_as_grouped, max_rel_err, numeric_grad


class TestConvForward:
    def test_all_ones_3x3(self):
        """A 3x3 all-ones kernel over an all-ones image sums 9 cells."""
        x = np.ones((1, 1, 5, 5))
        out = conv2d_forward(x, np.ones((1, 1, 3, 3)), np.zeros(1))
        assert out.shape == (1, 1, 3, 3)
        assert np.all(out == 9.0)

    def test_ramp_identity_diag_stride2(self):
        # 4x4 ramp 0..15, kernel [[1,0],[0,1]] picks x[i,j] + x[i+1,j+1]
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        w = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        out = conv2d_forward(x, w, np.zeros(1), stride=(2, 2))
        assert out[0, 0].tolist() == [[5.0, 9.0], [21.0, 25.0]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            n = int(rng.integers(1, 3))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            size = int(rng.integers(k, k + 4))
            x = rng.standard_normal((n, ci, size, size))
            w = rng.standard_normal((co, ci, k, k))
            b = rng.standard_normal(co)
            fast = conv2d_forward(x, w, b, stride=(s, s), padding=(pad, pad))
            slow = brute_force_conv2d(x, w, b, stride=(s, s), padding=(pad, pad))
            assert max_rel_err(fast, slow) < 1e-12

    def test_one_by_one_is_channel_mix(self):
        """1x1 convolution is a pure channel mix, no spatial coupling."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((5, 3, 1, 1))
        out = conv2d_forward(x, w, np.zeros(5))
        expect = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        assert max_rel_err(out, expect) < 1e-13

    def test_output_extent(self):
        assert conv_output_extent(32, 3, 2, 1) == 16
        assert conv_output_extent(8, 3, 1, 0) == 6
        with pytest.raises(ShapeError):
            conv_output_extent(2, 5, 1, 0)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)))

    def test_rejects_non_finite(self):
        x = np.ones((1, 1, 4, 4))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            conv2d_forward(x, np.ones((1, 1, 3, 3)))


class TestConvBackward:
    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(1, 3))
            ci = int(rng.integers(1, 3))
            co = int(rng.integers(1, 3))
            k = int(rng.integers(1, 3))
            s = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            size = int(rng.integers(k, k + 3))
            x = rng.standard_normal((n, ci, size, size))
            w = rng.standard_normal((co, ci, k, k))
            b = rng.standard_normal(co)
            tgt = rng.standard_normal(
                conv2d_forward(x, w, b, (s, s), (pad, pad)).shape
            )

            def loss_of(x_, w_, b_):
                return float(np.sum(conv2d_forward(x_, w_, b_, (s, s), (pad, pad)) * tgt))

            gx, gw, gb = conv2d_backward(tgt, x, w, (s, s), (pad, pad))
            assert gx.shape == x.shape and gx.flags.c_contiguous
            assert max_rel_err(gx, numeric_grad(lambda v: loss_of(v, w, b), x)) < 1e-4
            assert max_rel_err(gw, numeric_grad(lambda v: loss_of(x, v, b), w)) < 1e-4
            assert max_rel_err(gb, numeric_grad(lambda v: loss_of(x, w, v), b)) < 1e-4


def _sliced(rng, shape, dtype):
    """A non-contiguous (N, C, H, W) view: every other channel, a shifted
    spatial window."""
    n, c, h, w = shape
    base = rng.standard_normal((n, 2 * c, h + 3, w + 2)).astype(dtype)
    x = base[:, ::2, 2:h + 2, 1:w + 1]
    assert not x.flags.c_contiguous and not x.flags.f_contiguous
    return x


# The width-32 net's full convolutions at a small spatial extent:
# name, (N, C, H, W), (O, C, kh, kw), stride, padding, non-contiguous input.
WIDE_NET_CONVS = [
    ("stem", (2, 3, 8, 8), (32, 3, 3, 3), (1, 1), (1, 1), False),
    ("pointwise", (2, 32, 6, 6), (64, 32, 1, 1), (1, 1), (0, 0), False),
    ("stride2", (2, 8, 9, 9), (16, 8, 3, 3), (2, 2), (1, 1), False),
    ("pointwise_sliced", (2, 32, 6, 5), (64, 32, 1, 1), (1, 1), (0, 0), True),
    ("stem_sliced", (2, 3, 7, 8), (32, 3, 3, 3), (1, 1), (1, 1), True),
]


@pytest.mark.parametrize("name, xshape, wshape, stride, pad, sliced", WIDE_NET_CONVS,
                         ids=[case[0] for case in WIDE_NET_CONVS])
class TestConvWideNetShapes:
    """float32 convolution on the wide net's layer shapes against the
    float64 oracles, which see the same values widened to float64."""

    @staticmethod
    def _inputs(xshape, wshape, sliced):
        rng = np.random.default_rng(71)
        f32 = np.float32
        x = _sliced(rng, xshape, f32) if sliced else rng.standard_normal(xshape).astype(f32)
        w = rng.standard_normal(wshape).astype(f32)
        b = rng.standard_normal(wshape[0]).astype(f32)
        return x, w, b, rng

    def test_forward(self, name, xshape, wshape, stride, pad, sliced):
        x, w, b, _ = self._inputs(xshape, wshape, sliced)
        got = conv2d_forward(x, w, b, stride, pad)
        want = brute_force_conv2d(x, w, b, stride, pad)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == want.shape
        assert max_rel_err(got, want) < 1e-5
        x64, w64, b64 = (a.astype(np.float64) for a in (x, w, b))
        assert max_rel_err(conv2d_forward(x64, w64, b64, stride, pad), want) < 1e-12

    def test_backward(self, name, xshape, wshape, stride, pad, sliced):
        x, w, b, rng = self._inputs(xshape, wshape, sliced)
        tgt = rng.standard_normal(conv2d_forward(x, w, b, stride, pad).shape)

        def loss_of(x_, w_, b_):
            return float(np.sum(conv2d_forward(x_, w_, b_, stride, pad) * tgt))

        gx, gw, gb = conv2d_backward(tgt.astype(np.float32), x, w, stride, pad)
        assert gx.shape == x.shape and gx.flags.c_contiguous
        for got in (gx, gw, gb):
            assert got.dtype == np.float32
        x64, w64, b64 = (a.astype(np.float64) for a in (x, w, b))
        assert max_rel_err(gx, numeric_grad(lambda v: loss_of(v, w64, b64), x64)) < 1e-4
        assert max_rel_err(gw, numeric_grad(lambda v: loss_of(x64, v, b64), w64)) < 1e-4
        assert max_rel_err(gb, numeric_grad(lambda v: loss_of(x64, w64, v), b64)) < 1e-4


# (kh, kw), (sh, sw), (ph, pw), (H, W) beyond the square, unstrided, unpadded
# random trials: kh != kw, stride 2, padding 1, and extents where the stride
# does not divide size + 2p - k, which the per-tap slices must get right.
DEPTHWISE_STRIDED_CASES = [
    ((3, 3), (2, 2), (1, 1), (8, 8)),
    ((2, 3), (2, 1), (1, 0), (6, 5)),
    ((3, 1), (1, 2), (0, 1), (5, 6)),
    ((1, 2), (2, 2), (1, 1), (4, 5)),
    ((3, 2), (2, 2), (1, 1), (7, 7)),
    ((2, 2), (2, 2), (0, 0), (5, 7)),
]


class TestDepthwise:
    def test_matches_grouped_expansion(self):
        """Depthwise equals a full conv with a block-diagonal kernel."""
        rng = np.random.default_rng(31)
        cases = []
        for trial in range(6):
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            size = int(rng.integers(k, k + 4))
            cases.append(((k, k), (s, s), (0, 0), (size, size), int(rng.integers(1, 5))))
        cases += [case + (3,) for case in DEPTHWISE_STRIDED_CASES]
        for ks, st, pad, hw, c in cases:
            x = rng.standard_normal((2, c) + hw)
            w = rng.standard_normal((c, 1) + ks)
            b = rng.standard_normal(c)
            got = depthwise_conv2d_forward(x, w, b, stride=st, padding=pad)
            want = brute_force_conv2d(x, depthwise_as_grouped(w), b, st, pad)
            assert max_rel_err(got, want) < 1e-12, (ks, st, pad, hw)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(39)
        cases = []
        for trial in range(10):
            c = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            cases.append(((k, k), (1, 1), (0, 0), (k + 2, k + 2), c))
        cases += [case + (3,) for case in DEPTHWISE_STRIDED_CASES]
        ragged = sum(
            any((size + 2 * p - k) % s for size, p, k, s in zip(hw, pad, ks, st))
            for ks, st, pad, hw, _ in cases
        )
        assert ragged >= 4
        for ks, st, pad, hw, c in cases:
            x = rng.standard_normal((2, c) + hw)
            w = rng.standard_normal((c, 1) + ks)
            b = rng.standard_normal(c)
            tgt = rng.standard_normal(depthwise_conv2d_forward(x, w, b, st, pad).shape)

            def loss_of(x_, w_, b_):
                return float(np.sum(depthwise_conv2d_forward(x_, w_, b_, st, pad) * tgt))

            gx, gw, gb = depthwise_conv2d_backward(tgt, x, w, st, pad)
            assert gx.shape == x.shape and gw.shape == w.shape and gx.flags.c_contiguous
            case = (ks, st, pad, hw)
            assert max_rel_err(gx, numeric_grad(lambda v: loss_of(v, w, b), x)) < 1e-4, case
            assert max_rel_err(gw, numeric_grad(lambda v: loss_of(x, v, b), w)) < 1e-4, case
            assert max_rel_err(gb, numeric_grad(lambda v: loss_of(x, w, v), b)) < 1e-4, case

    def test_grad_float32_matches_float64(self):
        """The float32 weight gradient differs from float64 by rounding only."""
        rng = np.random.default_rng(47)
        x = rng.standard_normal((4, 5, 9, 9))
        w = rng.standard_normal((5, 1, 3, 3))
        tgt = rng.standard_normal(depthwise_conv2d_forward(x, w, None, (2, 2), (1, 1)).shape)
        want = depthwise_conv2d_backward(tgt, x, w, (2, 2), (1, 1), has_bias=False)
        got = depthwise_conv2d_backward(
            tgt.astype(np.float32), x.astype(np.float32), w.astype(np.float32),
            (2, 2), (1, 1), has_bias=False,
        )
        assert got[2] is None
        for g32, g64 in zip(got[:2], want[:2]):
            assert g32.dtype == np.float32
            assert max_rel_err(g32, g64) < 1e-5

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ShapeError):
            depthwise_conv2d_forward(np.ones((1, 2, 4, 4)), np.ones((3, 1, 3, 3)))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_peak_memory(self, stride):
        """The banded forward holds the padded copy, the output, one product
        temporary and a (C, Wp, Wo) band. A kernel that materializes the
        kh*kw patch matrix peaks above 11x the output and fails here."""
        x = np.random.default_rng(83).standard_normal((8, 4, 32, 32)).astype(np.float32)
        w = np.ones((4, 1, 3, 3), np.float32)
        b = np.ones(4, np.float32)
        depthwise_conv2d_forward(x, w, b, (stride, stride), (1, 1))
        tracemalloc.start()
        try:
            out = depthwise_conv2d_forward(x, w, b, (stride, stride), (1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = 8 * 4 * 34 * 34 * 4
        assert peak <= padded + 2.5 * out.nbytes


class TestAffine:
    def test_forward_hand_value(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[3.0, 0.0], [0.0, 5.0]])
        b = np.array([0.5, -0.5])
        assert affine_forward(x, w, b).tolist() == [[3.5, 9.5]]

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        tgt = rng.standard_normal((3, 5))

        def loss_of(x_, w_, b_):
            return float(np.sum(affine_forward(x_, w_, b_) * tgt))

        gx, gw, gb = affine_backward(tgt, x, w)
        assert max_rel_err(gx, numeric_grad(lambda v: loss_of(v, w, b), x)) < 1e-5
        assert max_rel_err(gw, numeric_grad(lambda v: loss_of(x, v, b), w)) < 1e-5
        assert max_rel_err(gb, numeric_grad(lambda v: loss_of(x, w, v), b)) < 1e-5


class TestActivationsAndPool:
    def test_relu_values_and_mask(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert relu_forward(x).tolist() == [0.0, 0.0, 3.0]
        # derivative at exactly zero must be zero, dead channels rely on it
        assert relu_backward(np.ones(3), x).tolist() == [0.0, 0.0, 1.0]

    def test_relu6_clamps_both_sides(self):
        x = np.array([-1.0, 0.0, 2.0, 6.0, 9.0])
        assert relu6_forward(x).tolist() == [0.0, 0.0, 2.0, 6.0, 6.0]
        assert relu6_backward(np.ones(5), x).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    def test_global_avg_pool_constant_exact(self):
        # dyadic constant: the mean of 16 copies of 0.25 is exact in binary
        x = np.full((2, 3, 4, 4), 0.25)
        out = global_avg_pool_forward(x)
        assert out.shape == (2, 3)
        assert np.all(out == 0.25)

    def test_global_avg_pool_grad(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((2, 3, 4, 4))
        tgt = rng.standard_normal((2, 3))
        g = global_avg_pool_backward(tgt, (4, 4))

        def loss_of(v):
            return float(np.sum(global_avg_pool_forward(v) * tgt))

        assert max_rel_err(g, numeric_grad(loss_of, x)) < 1e-6

    def test_elementwise_add_shape_check(self):
        with pytest.raises(ShapeError):
            elementwise_add(np.zeros((1, 2)), np.zeros((1, 3)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_log_k(self):
        for k in (2, 4, 10):
            logits = np.zeros((3, k))
            labels = np.array([0, 1, k - 1])
            loss, _ = softmax_cross_entropy(logits, labels)
            assert abs(loss - np.log(k)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        loss, grad = softmax_cross_entropy(logits.copy(), labels)

        def loss_of(v):
            return softmax_cross_entropy(v, labels)[0]

        assert max_rel_err(grad, numeric_grad(loss_of, logits)) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(67)
        logits = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])
        l0, _ = softmax_cross_entropy(logits, labels)
        l1, _ = softmax_cross_entropy(logits + 100.0, labels)
        assert abs(l0 - l1) < 1e-9
