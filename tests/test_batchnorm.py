"""Batch normalization: frozen hand values, gradient checks, fold identity."""

import numpy as np
import pytest

from pfqkit.batchnorm import (
    BNParams,
    bn_backward_train,
    bn_forward_infer,
    bn_forward_train,
    fold_bn,
    init_bn,
)
from pfqkit.graph import WeightParams
from pfqkit.tensor_ops import ShapeError, conv2d_forward

from oracles import max_rel_err, numeric_grad, reference_bn_train, replay_running_stats


def _params(gamma, beta, mean, var, eps=1e-5, rho=0.9):
    return BNParams(
        gamma=np.asarray(gamma, dtype=np.float64),
        beta=np.asarray(beta, dtype=np.float64),
        running_mean=np.asarray(mean, dtype=np.float64),
        running_var=np.asarray(var, dtype=np.float64),
        epsilon=eps,
        rho=rho,
    )


class TestInferForward:
    def test_hand_value(self):
        # (3 - 1) / sqrt(3.99999 + 1e-5) * 2 + 0.5 = 2.5
        p = _params([2.0], [0.5], [1.0], [3.99999])
        x = np.full((1, 1, 1, 1), 3.0)
        out = bn_forward_infer(x, p)
        assert abs(out[0, 0, 0, 0] - 2.5) < 1e-12

    def test_matches_scale_shift_form(self):
        rng = np.random.default_rng(3)
        p = _params(rng.uniform(0.5, 2, 4), rng.standard_normal(4),
                    rng.standard_normal(4), rng.uniform(0.1, 2, 4))
        x = rng.standard_normal((2, 4, 3, 3))
        out = bn_forward_infer(x, p)
        direct = ((x - p.running_mean.reshape(1, 4, 1, 1))
                  / np.sqrt(p.running_var.reshape(1, 4, 1, 1) + p.epsilon)
                  * p.gamma.reshape(1, 4, 1, 1) + p.beta.reshape(1, 4, 1, 1))
        assert max_rel_err(out, direct) < 1e-12


class TestTrainForward:
    def test_matches_textbook_reference(self):
        rng = np.random.default_rng(7)
        for shape in [(4, 3, 5, 5), (6, 3)]:
            x = rng.standard_normal(shape)
            p = _params(rng.uniform(0.5, 2, 3), rng.standard_normal(3),
                        np.zeros(3), np.ones(3))
            out, stats, _, _ = bn_forward_train(x, p)
            want, mu, sigma2 = reference_bn_train(x, p.gamma, p.beta, p.epsilon)
            assert max_rel_err(out, want) < 1e-12
            assert max_rel_err(stats.mu, mu) < 1e-12
            assert max_rel_err(stats.sigma2, sigma2) < 1e-12

    def test_running_var_decay_hand_value(self):
        """A zero-variance batch decays the running variance by exactly rho."""
        p = _params([1.0], [0.0], [0.0], [1.0], rho=0.9)
        x = np.full((2, 1, 1, 1), 5.0)  # constant batch, sigma2 = 0
        _, stats, updated, _ = bn_forward_train(x, p)
        assert stats.sigma2[0] == 0.0
        assert abs(updated.running_var[0] - 0.9) < 1e-15
        assert abs(updated.running_mean[0] - 0.5) < 1e-15  # 0*0.9 + 5*0.1

    def test_running_var_bessel_hand_value(self):
        # batch {0, 2}: mu=1, biased sigma2=1; update with rho=0.5, N=2 gives
        # 1*0.5 + 1*0.5*(2/1) = 1.5
        p = _params([1.0], [0.0], [0.0], [1.0], rho=0.5)
        x = np.array([0.0, 2.0]).reshape(2, 1)
        _, stats, updated, _ = bn_forward_train(x, p)
        assert stats.sigma2[0] == 1.0
        assert abs(updated.running_var[0] - 1.5) < 1e-15

    def test_count_is_batch_times_spatial(self):
        p = _params([1.0], [0.0], [0.0], [1.0])
        x = np.random.default_rng(0).standard_normal((3, 1, 4, 5))
        _, stats, _, _ = bn_forward_train(x, p)
        assert stats.count == 60

    def test_rejects_single_element(self):
        p = _params([1.0], [0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            bn_forward_train(np.zeros((1, 1, 1, 1)), p)

    def test_replay_matches_library_float32(self):
        """Recorded batch stats replayed through the float32 recurrence land on
        the library's stored running statistics bit for bit."""
        rng = np.random.default_rng(19)
        p = init_bn(3)
        logged = []
        for step in range(25):
            x = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
            _, stats, p, _ = bn_forward_train(x, p)
            logged.append((stats.mu, stats.sigma2, stats.count))
        m, v = replay_running_stats(np.zeros(3), np.ones(3), 0.9, logged)
        assert np.array_equal(m, p.running_mean)
        assert np.array_equal(v, p.running_var)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(37, 5), (300, 4), (6, 5, 7, 3), (16, 3, 9, 9)])
def test_reductions_match_numpy_mean_and_sum(shape, dtype):
    """The batch mean is x.mean and grad_beta is grad_out.sum over the same
    axes, byte for byte: same summation order, same rounding of the divide."""
    rng = np.random.default_rng(53)
    axes = (0, 2, 3)[:len(shape) - 1]
    p = init_bn(shape[1], dtype=dtype)
    for _ in range(10):
        x = (rng.standard_normal(shape) * rng.uniform(0.1, 100) + rng.uniform(-50, 50)).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        _, stats, _, cache = bn_forward_train(x, p)
        _, _, grad_beta = bn_backward_train(g, cache)
        for got, want in ((stats.mu, x.mean(axis=axes)), (grad_beta, g.sum(axis=axes))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _broadcast_bn(x, g, gamma, beta, eps):
    """The training forward and backward with every per-channel operand a
    (1, C, 1, 1) broadcast, the form the per-image rows replaced: the same
    ufuncs in the same order. Returns (centered, out, grad_x, grad_gamma,
    grad_beta)."""
    c = x.shape[1]
    shape = (1, c) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))
    count = x.size // c

    def dot(a, b):
        return np.einsum("ncm,ncm->c", a.reshape(a.shape[0], c, -1), b.reshape(b.shape[0], c, -1))

    mu = np.add.reduce(x, axis=axes) / count
    centered = x - mu.reshape(shape)
    inv_std = 1.0 / np.sqrt(dot(centered, centered) / count + eps)
    out = centered * (gamma * inv_std).reshape(shape)
    out += beta.reshape(shape)
    grad_gamma = dot(g, centered) * inv_std
    grad_beta = np.add.reduce(g, axis=axes)
    grad_x = g - centered * (grad_gamma * inv_std / count).reshape(shape)
    grad_x -= (grad_beta / count).reshape(shape)
    grad_x *= (gamma * inv_std).reshape(shape)
    return centered, out, grad_x, grad_gamma, grad_beta


def _transposed(a):
    """A non-contiguous view of a's values: the last two axes of a
    C-contiguous array, swapped back."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)


@pytest.mark.parametrize("case", ["contiguous", "transposed x", "non-contiguous out",
                                  "2-d", "float32 x, float64 params"])
def test_per_image_rows_match_the_broadcast_form(case):
    """The per-channel passes run against one (C, H, W) row broadcast over the
    batch, byte-identical to (1, C, 1, 1) broadcasts for every layout and
    dtype mix. No operand is reshaped, so a non-contiguous out receives the
    result itself (an out= write through a reshaped copy would be lost)."""
    rng = np.random.default_rng(61)
    shape = (6, 5) if case == "2-d" else (4, 3, 5, 6)
    c = shape[1]
    x = (rng.standard_normal(shape) * 3 + rng.uniform(-2, 2, (1, c) + shape[2:])).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    pdt = np.float64 if case == "float32 x, float64 params" else np.float32
    p = BNParams(gamma=rng.uniform(-2, 2, c).astype(pdt), beta=rng.standard_normal(c).astype(pdt),
                 running_mean=np.zeros(c, pdt), running_var=np.ones(c, pdt))
    if case == "transposed x":
        x, g = _transposed(x), _transposed(g)
        assert not x.flags.c_contiguous and not g.flags.c_contiguous
    out_f = out_b = None
    if case == "non-contiguous out":
        out_f, out_b = _transposed(np.empty(shape, np.float32)), _transposed(np.empty(shape, np.float32))
        assert not out_f.flags.c_contiguous
    want = _broadcast_bn(x, g, p.gamma, p.beta, p.epsilon)

    out, _, _, cache = bn_forward_train(x, p, out=out_f)
    got_centered = cache.centered
    got = (got_centered, out) + bn_backward_train(g, cache, out=out_b)
    for name, a, ref in zip(("centered", "out", "grad_x", "grad_gamma", "grad_beta"), got, want):
        assert a.dtype == ref.dtype and a.shape == ref.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(ref).tobytes(), name
    if out_f is not None:
        assert got_centered is out_f and got[2] is out_b


# bn_forward_train checks x for non-finite values only when a channel sum is
# not finite; a nan or an infinity anywhere makes its channel's sum so.
NON_FINITE_PLACES = [(shape, dtype, where, bad)
                     for shape in [(6, 3), (4, 3, 5, 5)]
                     for dtype in [np.float32, np.float64]
                     for where in ["first", "middle", "last"]
                     for bad in [np.nan, np.inf, -np.inf]]


@pytest.mark.parametrize("shape, dtype, where, bad", NON_FINITE_PLACES,
                         ids=[f"{len(s)}d-{np.dtype(d).name}-{w}-{b}"
                              for s, d, w, b in NON_FINITE_PLACES])
def test_train_forward_rejects_a_non_finite_input(shape, dtype, where, bad):
    x = np.random.default_rng(7).standard_normal(shape).astype(dtype)
    x.flat[{"first": 0, "middle": x.size // 2, "last": x.size - 1}[where]] = bad
    params = init_bn(3, dtype=dtype)
    with pytest.raises(ValueError, match="^bn: non-finite values in x$"):
        bn_forward_train(x, params)


def test_train_forward_runs_on_a_finite_input_whose_sums_overflow(monkeypatch):
    """+-1e38 in float32: the channel sums overflow, so x is checked, passes,
    and the forward runs on as it would with no check at all."""
    import pfqkit.batchnorm as bn_module

    x = np.where(np.random.default_rng(8).random((8, 3, 4, 4)) < 0.5,
                 np.float32(-1e38), np.float32(1e38)).astype(np.float32)
    x[:, 0] = np.float32(1e38)  # channel 0's sum is +inf
    params = init_bn(3)
    checked = []
    original = bn_module.ensure_finite
    monkeypatch.setattr(bn_module, "ensure_finite",
                        lambda op, **a: checked.append(op) or original(op, **a))
    with np.errstate(all="ignore"):
        out, stats, updated, _ = bn_forward_train(x, params)
        monkeypatch.setattr(bn_module, "ensure_finite", lambda op, **a: None)
        want, want_stats, want_updated, _ = bn_forward_train(x, params)
    assert checked == ["bn"]
    assert out.tobytes() == want.tobytes()
    assert stats.mu.tobytes() == want_stats.mu.tobytes()
    assert updated.running_var.tobytes() == want_updated.running_var.tobytes()


class TestTrainBackward:
    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        # 4-d feature maps, and (N, C) input as after a flatten
        for shape in [(3, 2, 3, 3)] * 8 + [(5, 2)] * 8:
            x = rng.standard_normal(shape)
            gamma = rng.uniform(0.5, 2.0, 2)
            beta = rng.standard_normal(2)
            tgt = rng.standard_normal(x.shape)

            def loss_of(x_, g_, b_):
                p = _params(g_, b_, np.zeros(2), np.ones(2))
                out, _, _, _ = bn_forward_train(x_, p)
                return float(np.sum(out * tgt))

            p = _params(gamma, beta, np.zeros(2), np.ones(2))
            _, _, _, cache = bn_forward_train(x, p)
            gx, gg, gb = bn_backward_train(tgt, cache)
            assert gx.shape == x.shape
            assert max_rel_err(gx, numeric_grad(lambda v: loss_of(v, gamma, beta), x)) < 1e-4
            assert max_rel_err(gg, numeric_grad(lambda v: loss_of(x, v, beta), gamma)) < 1e-4
            assert max_rel_err(gb, numeric_grad(lambda v: loss_of(x, gamma, v), beta)) < 1e-4

    def test_grad_float32_keeps_dtype(self):
        rng = np.random.default_rng(33)
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        p = init_bn(3)
        out, stats, updated, cache = bn_forward_train(x, p)
        gx, gg, gb = bn_backward_train(rng.standard_normal(x.shape).astype(np.float32), cache)
        for a in (out, stats.mu, stats.sigma2, updated.running_mean, updated.running_var,
                  cache.centered, cache.inv_std, gx, gg, gb):
            assert a.dtype == np.float32


class TestFold:
    def test_hand_value(self):
        # factor = 0.5 / sqrt(0.04) = 2.5; w_hat = 2.5*2 = 5,
        # b_hat = 2.5*1 + 0.25 - 2.5*3 = -4.75
        conv = WeightParams(weights=np.full((1, 1, 1, 1), 2.0), bias=np.array([1.0]))
        bn = _params([0.5], [0.25], [3.0], [0.04 - 1e-5])
        folded = fold_bn(conv, bn)
        assert abs(folded.weights[0, 0, 0, 0] - 5.0) < 1e-12
        assert abs(folded.bias[0] + 4.75) < 1e-12

    def test_folded_conv_matches_conv_bn_infer(self):
        rng = np.random.default_rng(37)
        for trial in range(10):
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 5))
            x = rng.standard_normal((2, ci, 6, 6))
            w = rng.standard_normal((co, ci, 3, 3))
            b = rng.standard_normal(co)
            bn = _params(rng.uniform(0.2, 2.0, co), rng.standard_normal(co),
                         rng.standard_normal(co), rng.uniform(0.05, 3.0, co))
            two_step = bn_forward_infer(conv2d_forward(x, w, b), bn)
            folded = fold_bn(WeightParams(w, b), bn)
            one_step = conv2d_forward(x, folded.weights, folded.bias)
            assert max_rel_err(one_step, two_step) < 1e-12

    def test_biasless_conv_gets_bias(self):
        conv = WeightParams(weights=np.ones((2, 1, 1, 1)), bias=None)
        bn = _params([1.0, 1.0], [0.5, -0.5], [0.0, 0.0], [1.0 - 1e-5, 1.0 - 1e-5])
        folded = fold_bn(conv, bn)
        assert folded.bias is not None
        assert np.allclose(folded.bias, [0.5, -0.5])

    def test_channel_mismatch_rejected(self):
        conv = WeightParams(weights=np.ones((2, 1, 1, 1)), bias=None)
        bn = _params([1.0], [0.0], [0.0], [1.0])
        with pytest.raises(ShapeError):
            fold_bn(conv, bn)


class TestInit:
    def test_fresh_params(self):
        p = init_bn(4)
        assert np.all(p.gamma == 1.0)
        assert np.all(p.beta == 0.0)
        assert np.all(p.running_mean == 0.0)
        assert np.all(p.running_var == 1.0)
        assert p.gamma.dtype == np.float32
