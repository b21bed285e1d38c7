"""Dense tensor operations for small convolutional networks.

Tensors are plain numpy arrays, NCHW for feature maps. Every op is a pure
function with an explicit backward companion; there is no tape, and no op
writes to its inputs. Full convolutions lay each image's patches out as a
(C*kh*kw, Ho*Wo) im2col matrix in NCHW order and left-multiply it by the
(O, C*kh*kw) weights in one batched matmul, whose product is already the
NCHW output; for a 1x1, stride-1, unpadded convolution the matrix is a view
of the input. Depthwise convolutions contract a strided patch view with
einsum in the forward pass; with optimize=True that einsum copies the view
into a full (N, C, kh, kw, Ho, Wo) patch matrix, kh*kw times the size of the
output, so a 3x3 depthwise forward peaks at about 11x its output at stride 1
and 14.5x at stride 2. The backward pass loops over the kh x kw kernel taps.
Every reduction order is fixed, so results repeat run to run on a fixed
machine. All ops preserve the input dtype, so the same code runs in float32
(the storage dtype of models) and float64 (used by gradient checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


@dataclass
class ConvParams:
    """Full convolution weights (out_ch, in_ch, kh, kw) and optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None


@dataclass
class DepthwiseConvParams:
    """Per-channel convolution weights (channels, 1, kh, kw) and optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None


def ensure_finite(name, *arrays):
    for a in arrays:
        if a is not None and not np.all(np.isfinite(a)):
            raise ValueError(f"{name}: non-finite values in input")


def conv_output_extent(size, kernel, stride, pad):
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"convolution output extent {out} < 1 "
            f"(size={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


def _pad_input(x, ph, pw):
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _unpad(grad_xp, ph, pw):
    """Strip the padding from an input gradient, C-contiguous: the backward op
    that consumes it streams over it, and a strided view slows that down."""
    h, w = grad_xp.shape[2], grad_xp.shape[3]
    return np.ascontiguousarray(grad_xp[:, :, ph:h - ph, pw:w - pw])


def _im2col(x, kh, kw, sh, sw):
    """View the padded input as (N, C, kh, kw, Ho, Wo) patches without copying."""
    n, c, h, w = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    ns, cs, hs, ws = x.strides
    shape = (n, c, kh, kw, ho, wo)
    strides = (ns, cs, hs, ws, hs * sh, ws * sw)
    return np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)


def conv2d_forward(x, weights, bias=None, stride=(1, 1), padding=(0, 0)):
    """Cross-correlate x (N, C, H, W) with weights (O, C, kh, kw).

    Zero padding only. Returns (N, O, Ho, Wo), C-contiguous. The patches of
    each image form a (C*kh*kw, Ho*Wo) matrix, and the weights, viewed as
    (O, C*kh*kw), multiply it from the left, so each image's product is
    already its (O, Ho*Wo) output plane.
    """
    ensure_finite("conv2d", x, weights, bias)
    if x.ndim != 4 or weights.ndim != 4:
        raise ShapeError("conv2d expects 4-d input and weights")
    n, c, h, w = x.shape
    o, ci, kh, kw = weights.shape
    if ci != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, weights expect {ci}")
    sh, sw = stride
    ph, pw = padding
    ho = conv_output_extent(h, kh, sh, ph)
    wo = conv_output_extent(w, kw, sw, pw)
    cols = _im2col(_pad_input(x, ph, pw), kh, kw, sh, sw).reshape(n, c * kh * kw, ho * wo)
    out = np.matmul(weights.reshape(o, c * kh * kw), cols).reshape(n, o, ho, wo)
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out


def conv2d_backward(grad_out, x, weights, stride=(1, 1), padding=(0, 0), has_bias=True):
    """Gradients of conv2d_forward. Returns (grad_x, grad_weights, grad_bias).

    Rebuilds the forward's (N, C*kh*kw, Ho*Wo) patch matrices. With grad_out
    viewed as (N, O, Ho*Wo), the weight gradient is the sum over images of
    grad_out times the transposed patch matrix, and the patch gradient is
    the transposed weights times grad_out. Each kernel tap's (N, C, Ho, Wo)
    slab of the patch gradient is added back onto the strided input
    positions the tap read.
    """
    n, c = x.shape[:2]
    o, ci, kh, kw = weights.shape
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]

    xp = _pad_input(x, ph, pw)
    cols = _im2col(xp, kh, kw, sh, sw).reshape(n, c * kh * kw, ho * wo)
    g3 = grad_out.reshape(n, o, ho * wo)

    grad_w = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
    grad_b = grad_out.sum(axis=(0, 2, 3)) if has_bias else None

    grad_cols = np.matmul(weights.reshape(o, c * kh * kw).T, g3).reshape(n, c, kh, kw, ho, wo)
    grad_xp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            grad_xp[:, :, u:u + ho * sh:sh, v:v + wo * sw:sw] += grad_cols[:, :, u, v]
    return _unpad(grad_xp, ph, pw), grad_w, grad_b


def depthwise_conv2d_forward(x, weights, bias=None, stride=(1, 1), padding=(0, 0)):
    """Per-channel convolution: weights (C, 1, kh, kw), channel i only sees
    input channel i. Returns (N, C, Ho, Wo)."""
    ensure_finite("depthwise_conv2d", x, weights, bias)
    n, c, h, w = x.shape
    cw, one, kh, kw = weights.shape
    if cw != c or one != 1:
        raise ShapeError(f"depthwise weights (C,1,kh,kw) expected, got {weights.shape} for {c} channels")
    sh, sw = stride
    ph, pw = padding
    ho = conv_output_extent(h, kh, sh, ph)
    wo = conv_output_extent(w, kw, sw, pw)
    xp = _pad_input(x, ph, pw)
    cols = _im2col(xp, kh, kw, sh, sw)  # (N, C, kh, kw, Ho, Wo)
    out = np.einsum("ncuvjk,cuv->ncjk", cols, weights[:, 0], optimize=True)
    if bias is not None:
        out = out + bias.reshape(1, c, 1, 1)
    return out


def depthwise_conv2d_backward(grad_out, x, weights, stride=(1, 1), padding=(0, 0), has_bias=True):
    """Gradients of depthwise_conv2d_forward. Returns (grad_x, grad_weights, grad_bias).

    One pass over the kh x kw kernel taps. Tap (u, v) saw the strided slice
    xp[:, :, u::sh, v::sw] of the padded input, Ho x Wo of it, so the weight
    gradient of that tap is the per-channel dot product of the slice with
    grad_out, and grad_out scaled by the tap weight is added back onto the
    same slice of the input gradient.
    """
    c = x.shape[1]
    kh, kw = weights.shape[2], weights.shape[3]
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]

    xp = _pad_input(x, ph, pw)
    grad_w = np.empty(weights.shape, dtype=np.result_type(x, grad_out))
    grad_b = grad_out.sum(axis=(0, 2, 3)) if has_bias else None

    grad_xp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            tap = (slice(None), slice(None), slice(u, u + ho * sh, sh), slice(v, v + wo * sw, sw))
            grad_w[:, 0, u, v] = np.einsum("ncjk,ncjk->c", xp[tap], grad_out)
            grad_xp[tap] += grad_out * weights[:, 0, u, v].reshape(1, c, 1, 1)
    return _unpad(grad_xp, ph, pw), grad_w, grad_b


def affine_forward(x, weights, bias=None):
    """x (N, D) @ weights (D, K) + bias (K,)."""
    ensure_finite("affine", x, weights, bias)
    if x.ndim != 2 or weights.ndim != 2:
        raise ShapeError("affine expects 2-d input and weights")
    if x.shape[1] != weights.shape[0]:
        raise ShapeError(f"affine dim mismatch: input {x.shape[1]}, weights {weights.shape[0]}")
    out = x @ weights
    if bias is not None:
        out = out + bias
    return out


def affine_backward(grad_out, x, weights, has_bias=True):
    grad_x = grad_out @ weights.T
    grad_w = x.T @ grad_out
    grad_b = grad_out.sum(axis=0) if has_bias else None
    return grad_x, grad_w, grad_b


def relu_forward(x):
    return np.maximum(x, 0)


def relu_backward(grad_out, x):
    # Derivative at exactly zero is taken as zero, so channels parked at the
    # activation threshold receive no gradient.
    return grad_out * (x > 0)


def relu6_forward(x):
    return np.clip(x, 0, 6)


def relu6_backward(grad_out, x):
    return grad_out * ((x > 0) & (x < 6))


def global_avg_pool_forward(x):
    """(N, C, H, W) -> (N, C) spatial mean."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects 4-d input")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(grad_out, spatial_shape):
    h, w = spatial_shape
    n, c = grad_out.shape
    return np.broadcast_to(grad_out.reshape(n, c, 1, 1), (n, c, h, w)) / (h * w)


def elementwise_add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy over the batch. Returns (loss, grad_logits).

    labels are integer class ids, shape (N,).
    """
    if logits.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects (N, K) logits")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsumexp
    loss = -log_probs[np.arange(n), labels].mean()
    probs = np.exp(log_probs)
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype, copy=False)
