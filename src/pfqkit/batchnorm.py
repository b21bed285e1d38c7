"""Batch normalization: training/inference forward, backward, and folding.

Statistics are per channel. In training mode the batch mean uses the plain
1/N average and the batch variance is the biased 1/N moment; the running
variance update applies the N/(N-1) correction, where N counts the elements
contributing to one channel (batch times spatial extent). Running statistics
are part of the parameter record and updates are returned functionally; the
caller decides where to store them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_ops import ensure_finite, ShapeError


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
    xhat: np.ndarray
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


def bn_forward_train(x, params):
    """Normalize with batch statistics and advance the running statistics.

    Returns (out, BatchStats, updated BNParams, BNCache).
    """
    ensure_finite("bn", x)
    c = params.gamma.shape[0]
    axes, shape = _axes_and_expand(x, c)
    count = x.size // c
    if count < 2:
        raise ValueError(f"bn training needs at least 2 elements per channel, got {count}")

    mu = x.mean(axis=axes)
    xhat = x - mu.reshape(shape)  # centered here, normalized in place below
    sigma2 = _per_channel_dot(xhat, xhat) / count
    inv_std = 1.0 / np.sqrt(sigma2 + params.epsilon)
    xhat *= inv_std.reshape(shape)
    out = xhat * params.gamma.reshape(shape)
    out += params.beta.reshape(shape)

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
    cache = BNCache(xhat=xhat, inv_std=inv_std, gamma=params.gamma)
    return out, stats, updated, cache


def bn_forward_infer(x, params):
    """Normalize with the stored running statistics."""
    ensure_finite("bn", x)
    c = params.gamma.shape[0]
    _, shape = _axes_and_expand(x, c)
    inv_std = 1.0 / np.sqrt(params.running_var + params.epsilon)
    scale = (params.gamma * inv_std).reshape(shape)
    shift = (params.beta - params.gamma * inv_std * params.running_mean).reshape(shape)
    return x * scale + shift


def bn_backward_train(grad_out, cache):
    """Gradients through the training-mode forward.

    Returns (grad_x, grad_gamma, grad_beta).
    """
    xhat = cache.xhat
    c = cache.gamma.shape[0]
    axes, shape = _axes_and_expand(xhat, c)
    count = xhat.size // c

    grad_gamma = _per_channel_dot(grad_out, xhat)
    grad_beta = grad_out.sum(axis=axes)

    # gamma * inv_std * (g - mean(g) - xhat * mean(g * xhat)), built in one buffer
    grad_x = xhat * (grad_gamma / count).reshape(shape)
    np.subtract(grad_out, grad_x, out=grad_x)
    grad_x -= (grad_beta / count).reshape(shape)
    grad_x *= (cache.gamma * cache.inv_std).reshape(shape)
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
