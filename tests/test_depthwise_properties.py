"""Property: the banded-matmul depthwise convolution matches the reference
einsum forward and per-tap backward (tests/oracles.py) on random shapes.

Kernels are 1..3 on each axis, strides 1..3 and paddings 0..k per axis, so
padding may reach the kernel size, and extents run from the smallest valid
one (down to 1) to a few strides past the kernel, so the stride often does
not divide size + 2p - k. Both storage dtypes, with and without bias. The
reference sees the same values widened to float64. The pinned example has
kernel rows and columns that read only padding, which the input gradient
skips.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfqkit.tensor_ops import depthwise_conv2d_backward, depthwise_conv2d_forward

from oracles import max_rel_err, reference_depthwise_backward, reference_depthwise_forward

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

    before = [None if a is None else a.tobytes() for a in (x, w, b)]
    got, g = run()
    assert [None if a is None else a.tobytes() for a in (x, w, b)] == before
    wide = [None if a is None else a.astype(np.float64) for a in (x, w, b, g)]
    want = (reference_depthwise_forward(*wide[:3], stride, pad),) + \
        reference_depthwise_backward(wide[3], *wide[:2], stride, pad, has_bias)
    for name, a, ref in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        if ref is None:
            assert a is None, name
            continue
        assert a.dtype == dt and a.shape == ref.shape, name
        assert max_rel_err(a, ref) <= TOL[dt], name
    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous

    again, _ = run()
    assert [None if a is None else a.tobytes() for a in again] == \
        [None if a is None else a.tobytes() for a in got]
