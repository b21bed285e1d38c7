"""Property: training-mode batch normalization matches the textbook float64
forward and backward (tests/oracles.py) on random inputs.

Inputs are (N, C) or (N, C, H, W) with at least 2 elements per channel, in
both storage dtypes. Scales may be zero or negative. Each channel is either
spread out (standard normal, plus an offset) or near-constant: s * noise
with s at most 1e-3, so its variance is far below epsilon and BN maps it to
about beta. Those are the dead channels PfQ prunes: the output of a filter
whose weights have decayed towards zero, fed to BN by a conv without bias.
The reference sees the same values widened to float64.

Each result is compared against the size of the terms it is a sum of, not
only against itself: grad_x is gamma * inv_std * g minus its projections on
the constant and on x-hat, and with few elements per channel those nearly
cancel (two elements leave a factor of about epsilon / sigma^2), so no
rounding of the formula reaches 1e-12 of the remainder alone. The same goes
for the sums grad_gamma and grad_beta. Where nothing cancels, the scale is
the result's own largest entry, as in max_rel_err.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pfqkit.batchnorm import BNParams, bn_backward_train, bn_forward_train

from oracles import reference_bn_backward, reference_bn_train

TOL = {np.float32: 1e-5, np.float64: 1e-12}


@st.composite
def cases(draw):
    c = draw(st.integers(1, 4))
    if draw(st.booleans()):
        shape = (draw(st.integers(2, 8)), c)
    else:
        shape = (draw(st.integers(1, 3)), c, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        if shape[0] * shape[2] * shape[3] < 2:
            shape = (2,) + shape[1:]
    gamma = draw(st.lists(st.sampled_from([0.0, -1.5, -0.3, 0.7, 2.0]), min_size=c, max_size=c))
    spreads = draw(st.lists(st.sampled_from([1.0, 1e-3, 1e-5]), min_size=c, max_size=c))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, gamma, spreads, dtype, draw(st.integers(0, 2**16))


def _channels(a, shape):
    return a.reshape((1, -1) + (1,) * (len(shape) - 2))


def _rel_err(a, ref, terms):
    scale = max(np.max(np.abs(ref)), np.max(np.abs(terms)), 1e-300)
    return np.max(np.abs(a.astype(np.float64) - ref)) / scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cases())
def test_matches_reference(case):
    shape, gamma, spreads, dt, seed = case
    rng = np.random.default_rng(seed)
    c = shape[1]
    spreads = np.asarray(spreads)
    offsets = np.where(spreads == 1.0, rng.uniform(-2, 2, c), 0.0)
    x = (rng.standard_normal(shape) * _channels(spreads, shape)
         + _channels(offsets, shape)).astype(dt)
    g = rng.standard_normal(shape).astype(dt)
    params = BNParams(gamma=np.asarray(gamma, dt), beta=rng.standard_normal(c).astype(dt),
                      running_mean=rng.standard_normal(c).astype(dt),
                      running_var=rng.uniform(0.5, 2, c).astype(dt), epsilon=1e-5, rho=0.9)
    inputs = [x, g, params.gamma, params.beta, params.running_mean, params.running_var]
    before = [a.tobytes() for a in inputs]

    out, stats, updated, cache = bn_forward_train(x, params)
    got = (out, updated.running_mean, updated.running_var) + bn_backward_train(g, cache)

    wide = [a.astype(np.float64) for a in inputs]
    ref_out, mu, sigma2 = reference_bn_train(wide[0], wide[2], wide[3], params.epsilon)
    count = x.size // c
    want = (ref_out,
            wide[4] * 0.9 + mu * 0.1,
            wide[5] * 0.9 + sigma2 * 0.1 * count / (count - 1)) + \
        reference_bn_backward(wide[1], wide[0], wide[2], params.epsilon)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    inv_std = _channels(1 / np.sqrt(sigma2 + params.epsilon), shape)
    xhat = (wide[0] - _channels(mu, shape)) * inv_std
    terms = (0, 0, 0, wide[1] * _channels(wide[2], shape) * inv_std,
             np.abs(wide[1] * xhat).sum(axis=axes), np.abs(wide[1]).sum(axis=axes))
    names = ("out", "running_mean", "running_var", "grad_x", "grad_gamma", "grad_beta")
    for name, a, ref, t in zip(names, got, want, terms):
        assert a.dtype == dt and a.shape == ref.shape, name
        assert _rel_err(a, ref, t) <= TOL[dt], name
    assert [a.tobytes() for a in inputs] == before
