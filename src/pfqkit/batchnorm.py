"""Batch normalization: training/inference forward, backward, and folding.

Statistics are per channel. In training mode the batch mean uses the plain
1/N average and the batch variance is the biased 1/N moment; the running
variance update applies the N/(N-1) correction, where N counts the elements
contributing to one channel (batch times spatial extent). Running statistics
are part of the parameter record and updates are returned functionally; the
caller decides where to store them.

The training forward takes the mean with numpy's pairwise sum and the
variance as the mean square of the centered input (two passes), then writes
out = centered * (gamma * inv_std) + beta. Its cache holds the centered
input x - mu, inv_std = 1/sqrt(sigma2 + epsilon) and gamma: one full-size
array. The normalized input x-hat = centered * inv_std is never built; the
backward folds inv_std into its per-channel coefficients instead.

The training kernels' per-channel elementwise passes (subtract mu, scale,
add beta; in the backward the coefficient, mean and gamma * inv_std
passes) take their per-channel operand as a row (tensor_ops._row, which
the conv and depthwise bias adds use too): the vector repeated into one
C-contiguous image of shape (C, H, W), broadcast over the batch. numpy
then runs each pass as one C*H*W inner loop per image, where a (1, C, 1, 1)
operand gives one loop per (image, channel) plane, 1,024 elements long at
32x32 and 64 at 8x8. The ufuncs and their order are unchanged, and so are
the bytes. No operand is reshaped, so a non-contiguous x or out is read
and written in place. In float32 on one core of an Intel Xeon, over the 13
BN layers of the width-32 benchmark net at batch 64 (32x32 down to 8x8),
the rows took the forward from a median of 53.2 to 44.9 ms a step and the
backward from 49.4 to 40.8 ms. A row costs one ndarray.repeat and a reshape,
about 1.5 us (np.repeat's wrapper would double that), which at a toy net's
(8, 8, 8, 8) to (8, 16, 4, 4) is about what the longer loops save, so there
it is neutral. The inference forward stays on broadcasts: a folded net has
no BN layer, so it runs only where an unfolded net is evaluated, such as
the toy pre-train's per-epoch evaluation, whose tensors are too small for a
row to pay.

Each kernel takes out=, an array it may write into when out has its
result's dtype: the training forward writes the centered input there (the
engine hands over the conv output, which BN was its last reader of), the
inference forward its output, and the backward grad_x (the engine hands
over the consumed cache's centered input). Without out, no kernel writes to
its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import _row, ensure_finite, result_buffer, ShapeError


@dataclass
class BNParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    rho: float = 0.9  # fraction of the old running value kept per update


@dataclass
class BatchStats:
    mu: np.ndarray
    sigma2: np.ndarray
    count: int


@dataclass
class BNCache:
    centered: np.ndarray  # x - mu; the normalized input is centered * inv_std
    inv_std: np.ndarray
    gamma: np.ndarray


def init_bn(channels, epsilon=1e-5, rho=0.9, dtype=np.float32):
    """Fresh parameters: unit scale, zero shift, running mean 0, running var 1."""
    return BNParams(
        gamma=np.ones(channels, dtype=dtype),
        beta=np.zeros(channels, dtype=dtype),
        running_mean=np.zeros(channels, dtype=dtype),
        running_var=np.ones(channels, dtype=dtype),
        epsilon=epsilon,
        rho=rho,
    )


def _axes_and_expand(x, channels):
    """Reduction axes and per-channel broadcast shape for (N, C, H, W) or (N, C) input."""
    if x.ndim not in (2, 4):
        raise ShapeError("bn expects 2-d or 4-d input")
    if x.shape[1] != channels:
        raise ShapeError(f"bn channel mismatch: input {x.shape[1]}, params {channels}")
    return (0, 2, 3)[:x.ndim - 1], (1, channels, 1, 1)[:x.ndim]


def _per_channel_dot(a, b):
    """sum(a * b) per channel over the (N, C, ...) arrays a and b, without
    building the full-size product."""
    n, c = a.shape[:2]
    return np.einsum("ncm,ncm->c", a.reshape(n, c, -1), b.reshape(n, c, -1))


def bn_forward_train(x, params, out=None):
    """Normalize with batch statistics and advance the running statistics.

    Returns (out, BatchStats, updated BNParams, BNCache). The centered input,
    which the cache keeps, is written into out when given (it may be x).
    Raises ShapeError on a malformed x, then ValueError on a non-finite one:
    a nan or an infinity makes its channel's sum non-finite, so x itself is
    checked only when a channel sum is (a finite x whose sum overflows then
    runs on).
    """
    c = params.gamma.shape[0]
    axes, _ = _axes_and_expand(x, c)
    sums = np.add.reduce(x, axis=axes)
    if not np.isfinite(sums).all():
        ensure_finite("bn", x=x)
    count = x.size // c
    if count < 2:
        raise ValueError(f"bn training needs at least 2 elements per channel, got {count}")

    image, hw = x.shape[1:], count // x.shape[0]
    mu = sums / count
    centered = np.subtract(x, _row(mu, image, hw), out=result_buffer(out, x, mu))
    sigma2 = _per_channel_dot(centered, centered) / count
    inv_std = 1.0 / np.sqrt(sigma2 + params.epsilon)
    out = centered * _row(params.gamma * inv_std, image, hw)
    out += _row(params.beta, image, hw)

    rho = params.rho
    bessel = count / (count - 1)
    new_mean = params.running_mean * rho + mu * (1.0 - rho)
    new_var = params.running_var * rho + sigma2 * (1.0 - rho) * bessel
    updated = replace(
        params,
        running_mean=new_mean.astype(params.running_mean.dtype, copy=False),
        running_var=new_var.astype(params.running_var.dtype, copy=False),
    )
    stats = BatchStats(mu=mu, sigma2=sigma2, count=count)
    cache = BNCache(centered=centered, inv_std=inv_std, gamma=params.gamma)
    return out, stats, updated, cache


def bn_forward_infer(x, params, out=None):
    """Normalize with the stored running statistics, into out when out has
    the result's dtype (it may be x)."""
    ensure_finite("bn", x=x)
    c = params.gamma.shape[0]
    _, shape = _axes_and_expand(x, c)
    inv_std = 1.0 / np.sqrt(params.running_var + params.epsilon)
    scale = (params.gamma * inv_std).reshape(shape)
    shift = (params.beta - params.gamma * inv_std * params.running_mean).reshape(shape)
    out = result_buffer(out, x, scale, shift)
    return np.add(np.multiply(x, scale, out=out), shift, out=out)


def bn_backward_train(grad_out, cache, out=None):
    """Gradients through the training-mode forward.

    Returns (grad_x, grad_gamma, grad_beta). grad_x is written into out when
    out has its dtype; the engine hands over the consumed cache.centered.
    """
    centered, inv_std = cache.centered, cache.inv_std
    c = cache.gamma.shape[0]
    axes, _ = _axes_and_expand(centered, c)
    count = centered.size // c
    image, hw = centered.shape[1:], count // centered.shape[0]

    grad_gamma = _per_channel_dot(grad_out, centered) * inv_std
    grad_beta = np.add.reduce(grad_out, axis=axes)

    # gamma * inv_std * (g - mean(g) - xhat * mean(g * xhat)) with
    # xhat = centered * inv_std, built in one buffer
    coeff = _row(grad_gamma * inv_std / count, image, hw)
    grad_x = np.multiply(centered, coeff, out=result_buffer(out, centered, coeff))
    np.subtract(grad_out, grad_x, out=grad_x)
    grad_x -= _row(grad_beta / count, image, hw)
    grad_x *= _row(cache.gamma * inv_std, image, hw)
    return grad_x, grad_gamma, grad_beta


def fold_bn(conv, bn):
    """Fold a BN layer into the convolution that feeds it.

    conv is a ConvParams or DepthwiseConvParams; a new params object of the
    same type is returned, always carrying a bias. Uses the running statistics,
    so the folded conv reproduces inference-mode conv+BN.
    """
    factor = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
    out_ch = conv.weights.shape[0]
    if factor.shape[0] != out_ch:
        raise ShapeError(f"fold: conv has {out_ch} output channels, bn has {factor.shape[0]}")
    new_w = conv.weights * factor.reshape((out_ch,) + (1,) * (conv.weights.ndim - 1))
    old_b = conv.bias if conv.bias is not None else np.zeros(out_ch, dtype=conv.weights.dtype)
    new_b = factor * old_b + bn.beta - factor * bn.running_mean
    return type(conv)(
        weights=new_w.astype(conv.weights.dtype, copy=False),
        bias=new_b.astype(conv.weights.dtype, copy=False),
    )
