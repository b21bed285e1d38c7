"""Property: the banded-matmul depthwise convolution matches the reference
einsum forward and per-tap backward (tests/oracles.py) on random shapes.

Kernels are 1..3 on each axis, strides 1..3 and paddings 0..k per axis, so
padding may reach the kernel size, and extents run from the smallest valid
one (down to 1) to a few strides past the kernel, so the stride often does
not divide size + 2p - k. Both storage dtypes, with and without bias. The
reference sees the same values widened to float64, with a dense random
grad_out in every case. The same grad_out is then cut the way relu6's
backward mask cuts it, leaving exact +0.0 and -0.0 entries: about half of
it (checked against the reference again) and all of it. For the dense and
both cut gradients, the gradients must match the forms they replaced
(tests/oracles.py): the weight gradient byte for byte, the input gradient
byte for byte up to the sign of a zero, with exactly +0.0 on input rows no
kernel row reads. The pinned examples have kernel rows and columns that
read only padding, which the input gradient skips, input rows no kernel
row reads, and a row wide enough for numpy's pairwise sum.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfqkit.tensor_ops import depthwise_conv2d_backward, depthwise_conv2d_forward

from oracles import (fancy_index_depthwise_weight_grad, max_rel_err, reference_depthwise_backward,
                     reference_depthwise_forward, zero_fill_depthwise_input_grad)

TOL = {np.float32: 1e-5, np.float64: 1e-12}


@st.composite
def cases(draw):
    k = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    pad = tuple(draw(st.integers(0, ki)) for ki in k)
    hw = tuple(draw(st.integers(max(1, ki - 2 * pi), ki + 2 * si + 2))
               for ki, pi, si in zip(k, pad, stride))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 4))) + hw
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, k, stride, pad, dtype, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cases())
@example(((2, 3, 1, 2), (3, 3), (3, 3), (2, 3), np.float64, True, 7))
@example(((2, 3, 7, 5), (1, 2), (3, 1), (0, 1), np.float32, False, 5))
@example(((1, 2, 8, 3), (2, 1), (3, 2), (0, 0), np.float32, True, 3))
@example(((2, 2, 3, 24), (3, 3), (1, 1), (1, 1), np.float32, False, 9))
def test_matches_reference(case):
    shape, k, stride, pad, dt, has_bias, seed = case
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = rng.standard_normal(shape).astype(dt)
    w = rng.standard_normal((c, 1) + k).astype(dt)
    b = rng.standard_normal(c).astype(dt) if has_bias else None

    def run():
        out = depthwise_conv2d_forward(x, w, b, stride, pad)
        g = np.random.default_rng(seed + 1).standard_normal(out.shape).astype(dt)
        return (out,) + depthwise_conv2d_backward(g, x, w, stride, pad, has_bias), g

    def check(want, got):
        for name, a, ref in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
            if ref is None:
                assert a is None, name
                continue
            assert a.dtype == dt and a.shape == ref.shape, name
            assert max_rel_err(a, ref) <= TOL[dt], name

    before = [None if a is None else a.tobytes() for a in (x, w, b)]
    got, g = run()
    assert [None if a is None else a.tobytes() for a in (x, w, b)] == before
    wide = [None if a is None else a.astype(np.float64) for a in (x, w, b)]
    check((reference_depthwise_forward(*wide, stride, pad),) +
          reference_depthwise_backward(g.astype(np.float64), *wide[:2], stride, pad, has_bias), got)
    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous

    ho = got[0].shape[2]
    read = {j * stride[0] + u - pad[0] for j in range(ho) for u in range(k[0])}
    unread = [r for r in range(shape[2]) if r not in read]
    cut = np.random.default_rng(seed + 2).random(g.shape)
    for keep in (1.0, 0.5, 0.0):
        gk = np.multiply(g, cut < keep)  # relu6's mask: -0.0 where a negative entry is cut
        grad_x, grad_w, _ = depthwise_conv2d_backward(gk, x, w, stride, pad, False)
        if keep == 0.5:
            check(reference_depthwise_backward(gk.astype(np.float64), *wide[:2], stride, pad, False),
                  (grad_x, grad_w, None))
        assert grad_w.tobytes() == fancy_index_depthwise_weight_grad(gk, x, w, stride, pad).tobytes()
        old = zero_fill_depthwise_input_grad(gk, x, w, stride, pad)
        assert (grad_x + 0.0).tobytes() == (old + 0.0).tobytes()  # -0.0 + 0.0 is +0.0
        assert (grad_x[:, :, unread] == 0).all() and not np.signbit(grad_x[:, :, unread]).any()

    again, _ = run()
    assert [None if a is None else a.tobytes() for a in again] == \
        [None if a is None else a.tobytes() for a in got]
