"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (scalar loops, central
differences) so library results can be checked against code that shares no
machinery with the package under test.
"""

import numpy as np


def brute_force_conv2d(x, weights, bias, stride, padding):
    """Direct quadruple-loop convolution (cross-correlation) oracle.

    x: (N, C, H, W), weights: (O, C, kh, kw), bias: (O,) or None.
    Zero padding, integer strides. Accumulates in float64.
    """
    n, c, h, w = x.shape
    o, ci, kh, kw = weights.shape
    assert ci == c
    sh, sw = stride
    ph, pw = padding
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, ho, wo), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for j in range(ho):
                for k in range(wo):
                    acc = 0.0
                    for ic in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += weights[oi, ic, u, v] * xp[ni, ic, j * sh + u, k * sw + v]
                    if bias is not None:
                        acc += bias[oi]
                    out[ni, oi, j, k] = acc
    return out


def reference_quantize(x, m, M, bits):
    """Fake quantization written out step by step: clamp to [m, M], map to
    the grid index (x - m) / scale, round half away from zero, map back.
    Arithmetic runs in the dtype numpy promotes x and the bounds to, and the
    result is cast back to x's dtype."""
    scale = (M - m) / (2 ** bits)
    t = (np.clip(x, m, M) - m) / scale
    rounded = np.where(t >= 0, np.floor(t + 0.5), np.ceil(t - 0.5))
    return (rounded * scale + m).astype(x.dtype, copy=False)


def depthwise_as_grouped(weights):
    """Expand depthwise weights (C, 1, kh, kw) to an equivalent full-conv
    weight tensor (C, C, kh, kw) with zeros off the diagonal."""
    c, one, kh, kw = weights.shape
    assert one == 1
    full = np.zeros((c, c, kh, kw), dtype=weights.dtype)
    for i in range(c):
        full[i, i] = weights[i, 0]
    return full


def numeric_grad(f, x, h=1e-3):
    """Central-difference gradient of scalar f at x, elementwise in float64."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return g


def max_rel_err(analytic, numeric):
    """Max absolute difference normalized by the numeric gradient's scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(numeric)), 1e-8)
    return np.max(np.abs(analytic - numeric)) / scale


def replay_running_stats(initial_mean, initial_var, rho, stats):
    """Replay the running-statistic recurrences from recorded batch stats.

    stats is a sequence of (mu, sigma2, count) tuples, one per update. The
    arrays stay in float32 (the storage dtype of the recorded values) and the
    scalars rho and the N/(N-1) factor enter as python floats, the precision
    convention the recurrence contract fixes.
    """
    m = np.asarray(initial_mean, dtype=np.float32).copy()
    v = np.asarray(initial_var, dtype=np.float32).copy()
    for mu, sigma2, count in stats:
        m = m * rho + np.asarray(mu, dtype=np.float32) * (1.0 - rho)
        v = v * rho + np.asarray(sigma2, dtype=np.float32) * (1.0 - rho) * (count / (count - 1))
    return m, v


def reference_bn_train(x, gamma, beta, eps):
    """Batch-normalize with batch statistics, the textbook way."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    mu = x.mean(axis=axes)
    sigma2 = np.mean((x - _expand(mu, x.ndim)) ** 2, axis=axes)
    xhat = (x - _expand(mu, x.ndim)) / np.sqrt(_expand(sigma2, x.ndim) + eps)
    return xhat * _expand(gamma, x.ndim) + _expand(beta, x.ndim), mu, sigma2


def _expand(v, ndim):
    if ndim == 2:
        return v.reshape(1, -1)
    return v.reshape(1, -1, 1, 1)
