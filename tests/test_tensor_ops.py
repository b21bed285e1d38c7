"""Forward values and gradients for the raw array operations.

Forward results are checked against hand-computed values and a quadruple-loop
reference convolution; every backward path is checked against central finite
differences on float64 inputs.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from pfqkit.batchnorm import bn_forward_infer, bn_forward_train, init_bn
from pfqkit.quantization import QuantConfig, quantize
from pfqkit.tensor_ops import (
    ShapeError,
    _pad_input,
    affine_backward,
    affine_forward,
    conv2d_backward,
    conv2d_forward,
    conv_output_extent,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    depthwise_conv2d_prepare,
    elementwise_add,
    ensure_finite,
    global_avg_pool_backward,
    global_avg_pool_forward,
    relu6_backward,
    relu6_forward,
    relu_backward,
    relu_forward,
    softmax_cross_entropy,
)

from oracles import brute_force_conv2d, depthwise_as_grouped, max_rel_err, numeric_grad


@pytest.mark.parametrize("call, message", [
    (lambda: conv2d_forward(np.ones((2, 3, 4)), np.ones((1, 2, 3, 3))),
     "conv2d expects 4-d input and weights"),
    (lambda: depthwise_conv2d_forward(np.ones((1, 2, 4, 4)), np.ones((2, 3, 3))),
     "depthwise_conv2d expects 4-d input and weights"),
    (lambda: affine_forward(np.ones((2, 3, 1)), np.ones((3, 2))),
     "affine expects 2-d input and weights"),
    (lambda: affine_forward(np.ones((2, 3)), np.ones((4, 2))),
     "affine dim mismatch: input 3, weights 4"),
    (lambda: global_avg_pool_forward(np.ones((2, 3))), "global_avg_pool expects 4-d input"),
    (lambda: softmax_cross_entropy(np.ones((2, 3, 1)), np.zeros(2, int)),
     r"softmax_cross_entropy expects \(N, K\) logits"),
    (lambda: bn_forward_infer(np.ones((2, 3, 4)), init_bn(3)), "bn expects 2-d or 4-d input"),
    (lambda: bn_forward_infer(np.ones((2, 4)), init_bn(3)),
     "bn channel mismatch: input 4, params 3"),
])
def test_direct_op_calls_name_the_shape_they_reject(call, message):
    """An op called directly, outside a graph that validated its shapes,
    raises ShapeError with its own message on an input or weights of the
    wrong rank, and on a size that does not match its parameters."""
    with pytest.raises(ShapeError, match=f"^{message}$"):
        call()


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

    @pytest.mark.parametrize("op", [conv2d_forward, depthwise_conv2d_forward])
    @pytest.mark.parametrize("stride, padding, message", [
        ((0, 1), (1, 1), "stride 0 < 1"),
        ((1, -2), (1, 1), "stride -2 < 1"),
        ((1, 1), (-1, 0), "padding -1 < 0"),
    ])
    def test_rejects_bad_stride_or_padding_by_name(self, op, stride, padding, message):
        """A stride below 1 (once a ZeroDivisionError) and a negative padding
        (once a broadcast error deep in the op) raise ShapeError naming them."""
        x = np.ones((1, 2, 6, 6))
        w = np.ones((2, 1, 3, 3)) if op is depthwise_conv2d_forward else np.ones((3, 2, 3, 3))
        with pytest.raises(ShapeError, match=message):
            op(x, w, None, stride, padding)

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


@pytest.mark.parametrize("ph, pw", [(ph, pw) for ph in range(3) for pw in range(3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sliced", [False, True], ids=["contiguous", "sliced"])
def test_pad_input_matches_np_pad(ph, pw, dtype, sliced):
    """The padded copy is np.pad's zero padding byte for byte, C-contiguous
    and separate from x; unpadded, x itself comes back."""
    rng = np.random.default_rng(37)
    shape = (2, 3, 5, 4)
    x = _sliced(rng, shape, dtype) if sliced else rng.standard_normal(shape).astype(dtype)
    x[0, 0, 0, 0] = -0.0
    got = _pad_input(x, ph, pw)
    if ph == pw == 0:
        assert got is x
        return
    want = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous and not np.shares_memory(got, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1])
def test_pointwise_input_gradient_is_the_patch_gradient(dtype, pad):
    """A 1x1, stride-1 convolution returns its patch gradient as the input
    gradient; the bytes equal the general scatter onto a zeroed buffer."""
    rng = np.random.default_rng(53)
    x = rng.standard_normal((3, 6, 5, 4)).astype(dtype)
    w = rng.standard_normal((7, 6, 1, 1)).astype(dtype)
    g = rng.standard_normal(conv2d_forward(x, w, None, padding=(pad, pad)).shape).astype(dtype)
    gx, _, _ = conv2d_backward(g, x, w, padding=(pad, pad))
    n, o, ho, wo = g.shape
    patch = np.matmul(w.reshape(7, 6).T, g.reshape(n, o, ho * wo)).reshape(n, 6, ho, wo)
    scatter = np.zeros((n, 6, ho, wo), dtype)
    scatter += patch
    want = scatter[:, :, pad:ho - pad, pad:wo - pad]
    assert gx.dtype == dtype and gx.shape == x.shape and gx.flags.c_contiguous
    assert gx.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel, stride", [(1, 1), (3, 1), (3, 2)])
def test_unpadded_conv_of_a_non_contiguous_input_matches_its_copy(kernel, stride):
    """An unpadded conv views its patches straight from x, so a sliced x is
    made contiguous first; forward and backward give the bytes of a copy."""
    rng = np.random.default_rng(59)
    x = _sliced(rng, (2, 4, 7, 6), np.float32)
    xc = np.ascontiguousarray(x)
    w = rng.standard_normal((5, 4, kernel, kernel)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    st = (stride, stride)
    out = conv2d_forward(x, w, b, st)
    assert out.tobytes() == conv2d_forward(xc, w, b, st).tobytes()
    g = rng.standard_normal(out.shape).astype(np.float32)
    for got, want in zip(conv2d_backward(g, x, w, st), conv2d_backward(g, xc, w, st)):
        assert got.tobytes() == want.tobytes()


def _finite_checked_ops():
    """Every op that checks its arguments with ensure_finite, by test id:
    (op name in the error, call, clean array arguments by name)."""
    rng = np.random.default_rng(43)
    x4 = rng.standard_normal((2, 3, 5, 5))
    bn = init_bn(3, dtype=np.float64)
    cfg = QuantConfig(bits=4, m=-1.0, M_up=1.0, initialized=True)
    return {
        "conv2d": ("conv2d", lambda x, weights, bias: conv2d_forward(x, weights, bias, padding=(1, 1)),
                   dict(x=x4, weights=rng.standard_normal((4, 3, 3, 3)), bias=rng.standard_normal(4))),
        "depthwise_conv2d": (
            "depthwise_conv2d",
            lambda x, weights, bias: depthwise_conv2d_forward(x, weights, bias, padding=(1, 1)),
            dict(x=x4, weights=rng.standard_normal((3, 1, 3, 3)), bias=rng.standard_normal(3))),
        "affine": ("affine", affine_forward,
                   dict(x=rng.standard_normal((2, 6)), weights=rng.standard_normal((6, 4)),
                        bias=rng.standard_normal(4))),
        "bn_forward_train": ("bn", lambda x: bn_forward_train(x, bn), dict(x=x4)),
        "bn_forward_infer": ("bn", lambda x: bn_forward_infer(x, bn), dict(x=x4)),
        "quantize": ("quantize", lambda x: quantize(x, cfg), dict(x=x4)),
    }


FINITE_CHECKED = _finite_checked_ops()
NON_FINITE = [(case, arg, bad) for case, (_, _, arrays) in FINITE_CHECKED.items()
              for arg in arrays for bad in (np.nan, np.inf, -np.inf)]


@pytest.mark.parametrize("case, arg, bad", NON_FINITE,
                         ids=[f"{c}-{a}-{b}" for c, a, b in NON_FINITE])
def test_non_finite_argument_raises_naming_it(case, arg, bad):
    op, call, arrays = FINITE_CHECKED[case]
    call(**arrays)  # the clean arguments pass
    poisoned = arrays[arg].copy()
    poisoned.flat[poisoned.size // 2] = bad
    with pytest.raises(ValueError, match=f"^{op}: non-finite values in {arg}$"):
        call(**{**arrays, arg: poisoned})


# ensure_finite tests a C-contiguous float32/float64 array with one self-dot
# and falls back to the elementwise test only when the dot is not finite.
LAYOUTS = {"contiguous": lambda a: a, "strided": lambda a: a[:, ::2, 1:]}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_check_finds_a_non_finite_value_anywhere(dtype, bad, where, layout):
    a = LAYOUTS[layout](np.random.default_rng(9).standard_normal((4, 6, 10)).astype(dtype))
    assert a.flags.c_contiguous == (layout == "contiguous")
    ensure_finite("op", arg=a)
    a[np.unravel_index({"first": 0, "middle": a.size // 2, "last": a.size - 1}[where],
                       a.shape)] = bad
    with pytest.raises(ValueError, match="^op: non-finite values in arg$"):
        ensure_finite("op", clean=np.ones(3, dtype), arg=a)
    # next to finite values whose squares overflow, the fallback still finds it
    a[0, 0, 1] = 1e30
    with pytest.raises(ValueError, match="^op: non-finite values in arg$"):
        ensure_finite("op", arg=a)


@pytest.mark.parametrize("a", [
    np.full((3, 5), 1e30, dtype=np.float32),
    np.full(7, -1e200, dtype=np.float64),
    np.finfo(np.float32).max * np.ones((2, 2, 2), dtype=np.float32),
    np.arange(12, dtype=np.int64).reshape(3, 4),
    np.arange(12, dtype=np.int32)[::2],
    np.ones(4, dtype=bool),
    np.float32(2.5),
    np.ones((2, 3), dtype=np.float16),
    np.zeros((0, 4), dtype=np.float32),
], ids=["f32-overflowing", "f64-overflowing", "f32-max", "int64", "int32-strided", "bool",
        "scalar", "f16", "empty"])
def test_finite_check_passes_finite_arrays_without_a_warning(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ensure_finite("op", arg=a)


@pytest.mark.parametrize("a", [np.array([1.0, np.inf], dtype=np.float16), np.float64(np.nan),
                               np.array(-np.inf, dtype=np.float32)],
                         ids=["f16", "scalar", "0-d"])
def test_finite_check_rejects_other_non_finite_inputs(a):
    with pytest.raises(ValueError, match="^op: non-finite values in arg$"):
        ensure_finite("op", arg=a)


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

    @pytest.mark.parametrize("ks, st, pad", [((3, 3), (1, 1), (1, 1)), ((3, 3), (2, 2), (1, 1)),
                                             ((2, 3), (1, 2), (0, 1))])
    def test_without_input_grad_only_grad_x_is_skipped(self, ks, st, pad):
        """input_grad=False returns no input gradient and the weight and bias
        gradients of the full call, byte for byte."""
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 3, 7, 6)).astype(np.float32)
        w = rng.standard_normal((3, 1) + ks).astype(np.float32)
        g = rng.standard_normal(depthwise_conv2d_forward(x, w, None, st, pad).shape)
        g = g.astype(np.float32)
        gx, gw, gb = depthwise_conv2d_backward(g, x, w, st, pad)
        skipped, gw2, gb2 = depthwise_conv2d_backward(g, x, w, st, pad, input_grad=False)
        assert gx is not None and skipped is None
        assert gw2.tobytes() == gw.tobytes() and gb2.tobytes() == gb.tobytes()

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

    @staticmethod
    def _forward_peak(stride, prepare=False):
        """tracemalloc peak of a warm float32 (8, 4, 32, 32) 3x3 forward at
        padding 1, and its output; with prepare, of a forward handed its
        depthwise_conv2d_prepare record, made outside the measurement."""
        x = np.random.default_rng(83).standard_normal((8, 4, 32, 32)).astype(np.float32)
        w = np.ones((4, 1, 3, 3), np.float32)
        b = np.ones(4, np.float32)
        geometry = (stride, stride), (1, 1)
        depthwise_conv2d_forward(x, w, b, *geometry)
        prepared = (depthwise_conv2d_prepare(w, b, *geometry, x.shape[1:], x.dtype)
                    if prepare else None)
        tracemalloc.start()
        try:
            out = depthwise_conv2d_forward(x, w, b, *geometry, prepared=prepared)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_peak_memory(self, stride):
        """A kernel that materializes the kh*kw patch matrix peaks above 11x
        the output and fails here."""
        peak, out = self._forward_peak(stride)
        padded = 8 * 4 * 34 * 34 * 4
        assert peak <= padded + 2.5 * out.nbytes

    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_builds_no_padded_copy(self, stride):
        """The forward reads the unpadded input: its peak is the output, one
        output-sized product temporary and the prepared record: three
        (C, Wp, Wo) bands, one per kernel row, and the (C, Ho, Wo) bias row;
        plus at most 8 KiB of index and iterator scratch that does not grow
        with the batch. Handed a prepared record, it holds neither. A forward
        that pads x first holds a further (8, 4, 34, 34) float32 copy
        (148 kB) and fails here."""
        peak, out = self._forward_peak(stride)
        record = 3 * 4 * 34 * out.shape[3] * 4 + out.nbytes // 8
        assert peak <= 2 * out.nbytes + record + 8192
        peak, out = self._forward_peak(stride, prepare=True)
        assert peak <= 2 * out.nbytes + 8192

    def test_backward_peak_memory(self):
        """The weight gradient holds one (N, C, W, Wo) product and a (C, Wp,
        Wo) sum; the input gradient then holds grad_x, one temporary of the
        largest residue group of input rows modulo the stride, (N, C, H/sh,
        W), and the transposed band. At stride 1 the temporary is added onto
        all of grad_x, a contiguous add; at stride 2 it is half as large, and
        its add onto every other row runs through numpy's two ufunc buffers.
        So the backward peaks below stride 1 on the same input. A backward
        that runs the input gradient through a padded or dilated input-sized
        buffer peaks at about the same at both strides (about 636 kB) and
        fails here; so does a stride-1 add over a row range of every plane,
        which also pays the two buffers."""
        x = np.random.default_rng(83).standard_normal((8, 4, 32, 32)).astype(np.float32)
        w = np.ones((4, 1, 3, 3), np.float32)
        peaks = {}
        for stride in (1, 2):
            g = np.ones(depthwise_conv2d_forward(x, w, None, (stride, stride), (1, 1)).shape,
                        np.float32)
            depthwise_conv2d_backward(g, x, w, (stride, stride), (1, 1))
            tracemalloc.start()
            try:
                depthwise_conv2d_backward(g, x, w, (stride, stride), (1, 1))
                peaks[stride] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        small = 32 * 1024  # the weight gradient, its lanes, matmul's own scratch
        band = 4 * 32 * 34 * 4  # (C, Wo, Wp) at stride 1, half as tall at stride 2
        ufunc_buffers = 2 * np.getbufsize() * x.itemsize
        assert peaks[1] <= 2 * x.nbytes + band + small
        assert peaks[2] <= x.nbytes + x.nbytes // 2 + band // 2 + ufunc_buffers + small
        assert peaks[2] < peaks[1]


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

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("forward, backward", [(relu_forward, relu_backward),
                                                   (relu6_forward, relu6_backward)])
    def test_backward_from_output_matches_backward_from_input(self, forward, backward, dt):
        """The engine hands the backward the activation's output, not its
        input; the mask read off y must be the mask read off x, byte for
        byte, at the thresholds, at both zeros and at their neighbours."""
        edges = [dt(0.0), dt(-0.0), dt(6.0), dt(-6.0)]
        near = [np.nextafter(e, dt(d)) for e in edges for d in (-np.inf, np.inf)]
        x = np.array(edges + near + [-3.0, 3.0, 9.0, np.inf, -np.inf, np.nan], dtype=dt)
        g = np.random.default_rng(5).standard_normal((3,) + x.shape).astype(dt)
        x = np.broadcast_to(x, g.shape)
        assert backward(g, forward(x)).tobytes() == backward(g, x).tobytes()

    def test_global_avg_pool_constant_exact(self):
        # dyadic constant: the mean of 16 copies of 0.25 is exact in binary
        x = np.full((2, 3, 4, 4), 0.25)
        out = global_avg_pool_forward(x)
        assert out.shape == (2, 3)
        assert np.all(out == 0.25)

    @pytest.mark.parametrize("dt", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (64, 64, 8, 8), (3, 5, 7, 9), (2, 3, 1, 13),
                                       (0, 4, 3, 3)])
    def test_global_avg_pool_gives_the_bytes_of_the_mean(self, dt, shape):
        """One sum over both spatial axes divided in place rounds as
        x.mean(axis=(2, 3)) does, on contiguous and strided inputs."""
        x = (np.random.default_rng(54).standard_normal(shape) * 1e3).astype(dt)
        for v in (x, x[:, ::-1], np.asfortranarray(x)):
            out, mean = global_avg_pool_forward(v), v.mean(axis=(2, 3))
            assert out.dtype == mean.dtype == dt and out.shape == mean.shape
            assert out.tobytes() == mean.tobytes()

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
