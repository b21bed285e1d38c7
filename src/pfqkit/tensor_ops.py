"""Dense tensor operations for small convolutional networks.

Tensors are plain numpy arrays, NCHW for feature maps. Every op is a pure
function with an explicit backward companion; there is no tape, and no op
writes to its inputs unless that input is handed over as out=: relu and
relu6, forward and backward, write their result into out (which may be an
input), as quantize and the BN kernels do when out has their result's dtype
(result_buffer). The engine hands arrays over under its ownership rule.
Full convolutions lay each image's patches out as a
(C*kh*kw, Ho*Wo) im2col matrix in NCHW order and left-multiply it by the
(O, C*kh*kw) weights in one batched matmul, whose product is already the
NCHW output; for a 1x1, stride-1, unpadded convolution the matrix is a view
of the input. Depthwise convolutions run one batched matmul per kernel row,
forward and backward, at every stride and padding, and never pad: the
input rows that row u reads inside the unpadded input, as (rows, W)
matrices, times the W rows of a banded (Wp, Wo) matrix per channel that
carries that row's taps on its diagonals. The input gradient is the
adjoint: grad_out times the transposed band, onto the input rows row u
read, so its cost follows grad_out and a stride-2 layer does a quarter of
a stride-1 layer's work. The first kernel row to reach each residue of the
input rows modulo the stride writes its product there directly (matmul
out=), and only the rows of that residue it does not reach are zeroed
before the later rows add on: the same bytes as adding every row onto a
zero-filled gradient, up to the sign of a zero, which adding onto +0 would
clear. The forward's transient is the output,
one output-sized product temporary and the band; the backward's is one
(N, C, W, Wo) per-row product for the weight gradient, then the input
gradient and one per-row product for it.
The band does about W/kw times the multiply-adds of a direct per-tap sum,
which BLAS repays at the widths the library serves (builder defaults, demos,
CIFAR and the benchmark nets are at most 32x32) but not far beyond: in
float32 on one core of an Intel Xeon, the stride-1 backward on a
(4, 32, 128, 128) input took 1.0-1.4x as long as per-tap loops (44-57 ms
against 41-44 ms), most of it the banded weight gradient; at stride 2 the
backward beat them (16 ms against 23 ms).
Every reduction order is fixed, so results repeat run to run on a fixed
machine. All ops preserve the input dtype, so the same code runs in float32
(the storage dtype of models) and float64 (used by gradient checks).

On the small tensors of a toy net a call costs more in numpy's Python
layer than in arithmetic, so the ops avoid its wrappers where a direct
call gives the same bytes. A full convolution's padded input is a new
zero array with the input copied into its interior (np.pad costs four to
eight times as much per call at that size); its patch view is built with
the ndarray constructor, not as_strided (1.1 against 3.9-4.1 µs a call).
The band diagonals are set and read through a strided view of the band,
with no index arrays, and the depthwise row plans are built once per shape
and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def ensure_finite(op, **arrays):
    """Raise ValueError naming op and the first argument that holds a nan or
    an infinity; None arguments are skipped."""
    for arg, a in arrays.items():
        if a is not None and not np.isfinite(a).all():
            raise ValueError(f"{op}: non-finite values in {arg}")


def result_buffer(out, *operands):
    """out when the result of operands has its dtype, else None: an op handed
    out= writes into it only where that rounds as a new array would."""
    return out if out is not None and np.result_type(*operands) == out.dtype else None


def conv_output_extent(size, kernel, stride, pad):
    """Output extent along one axis; raises ShapeError on a stride below 1, a
    negative padding or an output shorter than 1."""
    if stride < 1:
        raise ShapeError(f"convolution stride {stride} < 1")
    if pad < 0:
        raise ShapeError(f"convolution padding {pad} < 0")
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"convolution output extent {out} < 1 "
            f"(size={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


def _pad_input(x, ph, pw):
    """Zero-pad the spatial axes into a new C-contiguous array; unpadded, x
    itself (the 1x1 convolution's patch matrix is a view of it)."""
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _unpad(grad_xp, ph, pw):
    """Strip the padding from an input gradient, C-contiguous: the backward op
    that consumes it streams over it, and a strided view slows that down."""
    h, w = grad_xp.shape[2], grad_xp.shape[3]
    return np.ascontiguousarray(grad_xp[:, :, ph:h - ph, pw:w - pw])


def _im2col(x, kh, kw, sh, sw):
    """View the padded input as (N, C, kh, kw, Ho, Wo) patches without copying
    (a non-contiguous x is copied first)."""
    x = np.ascontiguousarray(x)
    n, c, h, w = x.shape
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    ns, cs, hs, ws = x.strides
    shape = (n, c, kh, kw, ho, wo)
    strides = (ns, cs, hs, ws, hs * sh, ws * sw)
    return np.ndarray(shape, x.dtype, buffer=x, strides=strides)


def conv2d_forward(x, weights, bias=None, stride=(1, 1), padding=(0, 0)):
    """Cross-correlate x (N, C, H, W) with weights (O, C, kh, kw).

    Zero padding only. Returns (N, O, Ho, Wo), C-contiguous. The patches of
    each image form a (C*kh*kw, Ho*Wo) matrix, and the weights, viewed as
    (O, C*kh*kw), multiply it from the left, so each image's product is
    already its (O, Ho*Wo) output plane.
    """
    ensure_finite("conv2d", x=x, weights=weights, bias=bias)
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
    xp = _pad_input(x, ph, pw)
    # The output is allocated before the patch matrix, whose memory then goes
    # back to the top of the heap when it is freed, not into a hole under the
    # output that the next layer's arrays would not fit: with glibc's malloc,
    # that hole made the heap of a wide_infer batch grow and be trimmed on
    # every batch, with 2.7k page faults a batch.
    out = np.empty((n, o, ho * wo), dtype=np.result_type(x, weights))
    cols = _im2col(xp, kh, kw, sh, sw).reshape(n, c * kh * kw, ho * wo)
    out = np.matmul(weights.reshape(o, c * kh * kw), cols, out=out).reshape(n, o, ho, wo)
    if bias is not None:
        out += bias.reshape(1, o, 1, 1)
    return out


def conv2d_backward(grad_out, x, weights, stride=(1, 1), padding=(0, 0), has_bias=True,
                    input_grad=True):
    """Gradients of conv2d_forward. Returns (grad_x, grad_weights, grad_bias);
    grad_x is None when input_grad is False.

    Rebuilds the forward's (N, C*kh*kw, Ho*Wo) patch matrices. With grad_out
    viewed as (N, O, Ho*Wo), the weight gradient is the sum over images of
    grad_out times the transposed patch matrix, and the patch gradient is
    the transposed weights times grad_out. Each kernel tap's (N, C, Ho, Wo)
    slab of the patch gradient is added back onto the strided input
    positions the tap read. A 1x1, stride-1 convolution reads every input
    position once, so its patch gradient is the padded input's gradient as
    it stands (up to the sign of a zero, which adding onto +0 would clear).
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
    if not input_grad:
        return None, grad_w, grad_b

    grad_cols = np.matmul(weights.reshape(o, c * kh * kw).T, g3).reshape(n, c, kh, kw, ho, wo)
    if kh == kw == sh == sw == 1:
        grad_xp = grad_cols.reshape(xp.shape).astype(xp.dtype, copy=False)
    else:
        grad_xp = np.zeros(xp.shape, dtype=xp.dtype)
        for u in range(kh):
            for v in range(kw):
                grad_xp[:, :, u:u + ho * sh:sh, v:v + wo * sw:sw] += grad_cols[:, :, u, v]
    return _unpad(grad_xp, ph, pw), grad_w, grad_b


def _diagonals(band, kw, sw, transposed=False):
    """The (C, kw, Wo) view of a C-contiguous band's tap diagonals, with no
    index arrays: tap v of output column k sits at (k*sw + v, k) of a
    (C, Wp, Wo) band, the strided run from offset v*Wo with step sw*Wo + 1,
    and at (k, k*sw + v) of the transposed (C, Wo, Wp) band, from offset v
    with step Wp + sw."""
    c, rows, cols = band.shape
    wo, v_step, k_step = (rows, 1, cols + sw) if transposed else (cols, cols, sw * cols + 1)
    s = band.itemsize
    return np.ndarray((c, kw, wo), band.dtype, buffer=band,
                      strides=(band.strides[0], v_step * s, k_step * s))


@lru_cache
def _row_plan(kh, h, ho, sh, ph):
    """The kernel rows of a depthwise convolution over the unpadded input, as
    (u, j0, j1, r0): tap row u of output row j reads input row j*sh + u - ph,
    which lies inside [0, h) for the output rows [j0, j1), read from input
    row r0 on with step sh. Rows that read only padding are left out. The
    first row that covers every output row leads and the rest follow in
    order, so a 3x3 kernel at padding 1 adds its rows as (1 + 0) + 2, which
    rounds as the padded sum (0 + 1) + 2 did. Built once per shape."""
    plan = []
    for u in range(kh):
        j0, j1 = max(0, (ph - u + sh - 1) // sh), min(ho, (h - 1 + ph - u) // sh + 1)
        if j0 < j1:
            plan.append((u, j0, j1, j0 * sh + u - ph))
    full = [row for row in plan if row[2] - row[1] == ho][:1]
    return tuple(full + [row for row in plan if row not in full])


def _depthwise_rows(x, taps, sh, sw, ph, pw, ho, wo):
    """Per-channel cross-correlation of x (N, C, H, W), zero-padded by
    (ph, pw), with taps (C, kh, kw) as one batched matmul per kernel row.

    Kernel row u right-multiplies its input rows (_row_plan), as (j1-j0, W)
    matrices, by a banded matrix per channel that holds taps[c, u, v] at
    (k*sw + v, k) of the padded (Wp, Wo) band; only the band's W rows of the
    unpadded input's columns take part, so no padded copy of x is built. The
    product lands on output rows [j0, j1). A row that covers every output row
    writes the output directly, and the output starts from zeros only when
    no row covers it all. Each other row's product goes into the same rows
    of one output-sized temporary, zero elsewhere, which is added whole: a
    numpy ufunc over a row range of every plane runs buffered, and adding
    rows 1-31 of every plane of a (64, 32, 32, 32) float32 batch that way
    took 1.7-1.9 ms against 0.7 ms for a contiguous add of the same
    elements.
    One band buffer serves every row, since only the values on its diagonals
    change.
    """
    n, c, h, w = x.shape
    kh, kw = taps.shape[1:]
    plan = _row_plan(kh, h, ho, sh, ph)
    band = np.zeros((c, w + 2 * pw, wo), dtype=np.result_type(x, taps))
    diag = _diagonals(band, kw, sw)
    cols = band[:, pw:pw + w]  # the band rows of the unpadded input's columns

    def product(u, j0, j1, r0, out=None):
        diag[...] = taps[:, u, :, None]
        return np.matmul(x[:, :, r0:r0 + (j1 - j0) * sh:sh], cols, out=out)

    if plan and plan[0][2] - plan[0][1] == ho:
        out = product(*plan[0])
        plan = plan[1:]
    else:
        out = np.zeros((n, c, ho, wo), dtype=band.dtype)
    tmp = np.zeros(out.shape, dtype=out.dtype) if plan else None
    for u, j0, j1, r0 in plan:
        tmp[:, :, :j0] = 0
        tmp[:, :, j1:] = 0
        product(u, j0, j1, r0, out=tmp[:, :, j0:j1])
        out += tmp
    return out


def depthwise_conv2d_forward(x, weights, bias=None, stride=(1, 1), padding=(0, 0)):
    """Per-channel convolution: weights (C, 1, kh, kw), channel i only sees
    input channel i. Returns (N, C, Ho, Wo), C-contiguous."""
    ensure_finite("depthwise_conv2d", x=x, weights=weights, bias=bias)
    n, c, h, w = x.shape
    cw, one, kh, kw = weights.shape
    if cw != c or one != 1:
        raise ShapeError(f"depthwise weights (C,1,kh,kw) expected, got {weights.shape} for {c} channels")
    sh, sw = stride
    ph, pw = padding
    ho = conv_output_extent(h, kh, sh, ph)
    wo = conv_output_extent(w, kw, sw, pw)
    out = _depthwise_rows(x, weights[:, 0], sh, sw, ph, pw, ho, wo)
    if bias is not None:
        out += bias.reshape(1, c, 1, 1)
    return out


def depthwise_conv2d_backward(grad_out, x, weights, stride=(1, 1), padding=(0, 0), has_bias=True,
                              input_grad=True):
    """Gradients of depthwise_conv2d_forward. Returns (grad_x, grad_weights,
    grad_bias); grad_x is None when input_grad is False.

    The forward is a banded matmul per kernel row (_depthwise_rows), and both
    gradients walk the same rows of the unpadded input (_row_plan). Kernel
    row u's weight gradient is read off the (C, Wp, Wo) matrix sum over
    images of x_rows^T @ grad_out[:, :, j0:j1]: the product fills the rows of
    the unpadded columns of a zero-bordered (C, Wp, Wo) array, and tap (u, v)
    is the sum along its band diagonal (k*sw + v, k). Its input gradient is
    the adjoint of the same product: grad_out[:, :, j0:j1] @ band_u^T, with
    the transposed band cut to the unpadded input's columns, lands straight
    on the input rows that row u read, so neither gradient builds a padded
    array. The input gradient's multiply-adds scale with grad_out, so a
    stride-2 layer does a quarter of a stride-1 layer's on the same input.

    The input rows fall into one group per residue modulo sh. The first
    kernel row of a group in plan order writes its product into its rows
    (matmul out=), the group's rows it does not reach are zeroed, and later
    rows of the group add onto them. Every input row thus sums its terms in
    plan order, as adding each row onto a zero-filled grad_x did, and keeps
    those bytes up to the sign of a zero (adding a -0.0 onto +0 gave +0.0).
    A group no kernel row reaches is zeroed whole. For a 3x3 kernel at
    padding 1, the middle kernel row writes the whole gradient at stride 1,
    and nothing is added onto the even rows at stride 2.

    grad_out is not checked for finite values (the forward still raises
    ValueError on a non-finite input through ensure_finite). A non-finite
    grad_out entry (j, k) meets the zeros of band row k, 0 * inf is nan, so
    it spreads across the full width of every input row j*sh + u it reaches
    (one per kernel row), where a per-tap sum keeps it to the kh x kw
    positions the taps touch; the weight gradient of its channel reads the
    whole column k and goes non-finite at every tap.
    """
    n, c, h, w = x.shape
    kh, kw = weights.shape[2], weights.shape[3]
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    plan = _row_plan(kh, h, ho, sh, ph)
    grad_b = grad_out.sum(axis=(0, 2, 3)) if has_bias else None

    dtype = np.result_type(x, grad_out)
    grad_w = np.zeros(weights.shape, dtype=dtype)  # rows that read only padding stay zero
    summed = np.zeros((c, w + 2 * pw, wo), dtype=dtype)
    diag = _diagonals(summed, kw, sw)
    # (C, kw, Wo) in (kw, Wo, C) memory order, which sets the diagonal sums'
    # summation order; a C-order copy sums, and rounds, differently
    lanes = np.empty((kw, wo, c), dtype=dtype).transpose(2, 0, 1)
    prod = np.empty((n, c, w, wo), dtype=dtype)
    for u, j0, j1, r0 in plan:
        rows = x[:, :, r0:r0 + (j1 - j0) * sh:sh]
        np.matmul(rows.swapaxes(2, 3), grad_out[:, :, j0:j1], out=prod)
        summed[:, pw:pw + w] = np.add.reduce(prod, axis=0)
        lanes[...] = diag
        grad_w[:, 0, u] = lanes.sum(axis=2)
    del summed, prod
    if not input_grad:
        return None, grad_w, grad_b

    band_t = np.zeros((c, wo, w + 2 * pw), dtype=np.result_type(grad_out, weights))
    diag_t = _diagonals(band_t, kw, sw, transposed=True)
    cols = band_t[:, :, pw:pw + w]  # the columns of the unpadded input
    grad_x = np.empty(x.shape, dtype=x.dtype)
    tmp = np.empty((n, c, ho, w), dtype=band_t.dtype)
    written = set()  # the residues r0 % sh whose first kernel row has run
    for u, j0, j1, r0 in plan:
        diag_t[...] = weights[:, 0, u, :, None]
        r1, group = r0 + (j1 - j0) * sh, r0 % sh
        if group in written:
            grad_x[:, :, r0:r1:sh] += np.matmul(grad_out[:, :, j0:j1], cols, out=tmp[:, :, :j1 - j0])
        else:
            written.add(group)
            np.matmul(grad_out[:, :, j0:j1], cols, out=grad_x[:, :, r0:r1:sh])
            grad_x[:, :, group:r0:sh] = 0
            grad_x[:, :, r1::sh] = 0
    for group in range(sh):
        if group not in written:
            grad_x[:, :, group::sh] = 0
    return grad_x, grad_w, grad_b


def affine_forward(x, weights, bias=None):
    """x (N, D) @ weights (D, K) + bias (K,)."""
    ensure_finite("affine", x=x, weights=weights, bias=bias)
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


def relu_forward(x, out=None):
    return np.maximum(x, 0, out=out)


def relu_backward(grad_out, y, out=None):
    """Gradient through relu from its output y: y > 0 selects exactly the
    inputs x > 0. The derivative at exactly zero is taken as zero, so
    channels parked at the activation threshold receive no gradient."""
    return np.multiply(grad_out, y > 0, out=out)


def relu6_forward(x, out=None):
    return x.clip(0, 6, out=out)


def relu6_backward(grad_out, y, out=None):
    """Gradient through relu6 from its output y: 0 < y < 6 selects exactly
    the inputs 0 < x < 6."""
    return np.multiply(grad_out, (y > 0) & (y < 6), out=out)


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
