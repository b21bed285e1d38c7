"""Dense tensor operations for small convolutional networks.

Tensors are plain numpy arrays, NCHW for feature maps. Every op is a pure
function with an explicit backward companion; there is no tape, and no op
writes to its inputs unless that input is handed over as out=: relu and
relu6, forward and backward, write their result into out (which may be an
input), as quantize and the BN kernels (result_buffer) do when out has
their result's dtype. The engine hands arrays over under its ownership rule.
Every reduction order is fixed, so results repeat run to run on a fixed
machine. All ops preserve the input dtype, so the same code runs in float32
(the storage dtype of models) and float64 (used by gradient checks).

Prepare. Each weighted forward (conv2d, depthwise_conv2d, affine) has a
prepare companion that takes the weights, the bias, the geometry and the
input's per-image shape and dtype, checks the weights and the bias for
non-finite values (ValueError naming the argument) and the shapes
(ShapeError), and returns a record of everything the forward derives from
those alone: the weight matrix, the bias row, the output extents and, for
depthwise, the kernel rows' bands. A forward checks x (unless
check_x=False), then uses the record handed to it as prepared= or calls
its prepare for one, so a direct call checks and raises in that order: x,
weights, bias, shapes. Each engine step binds one record.

Full convolutions lay each image's patches out as a (C*kh*kw, Ho*Wo)
im2col matrix in NCHW order and left-multiply it by the (O, C*kh*kw)
weights in one batched matmul, whose product is already the NCHW output;
for a 1x1, stride-1, unpadded convolution the matrix is a view of the
input. A full convolution's padded input is a new zero array with the
input copied into its interior, and its patch view is built with the
ndarray constructor.

Depthwise convolutions run one batched matmul per kernel row, forward and
backward, at every stride and padding, and never pad: the input rows that
row u reads inside the unpadded input (_row_plan), as (rows, W) matrices,
times the W rows of a banded (Wp, Wo) matrix per channel that carries that
row's taps on its diagonals (_bands). The input gradient is the adjoint:
grad_out times the transposed band, onto the input rows row u read, so its
cost follows grad_out. Both directions sum their kernel rows through
_row_sums. The band diagonals are set and read through a strided view of
the band, with no index arrays, and the row plans are cached per shape.

A conv or depthwise bias is added as a row (_row): the bias repeated into
one C-contiguous (O, Ho, Wo) image, broadcast over the batch, so numpy runs
the add as one O*Ho*Wo inner loop per image rather than one per plane, with
the same bytes. ensure_finite tests a C-contiguous float32 or float64 array
with one BLAS self-dot and falls back to the elementwise test only when the
dot is not finite (_finite), so it raises on exactly the inputs the
elementwise test rejects.
"""

import math
from functools import lru_cache

import numpy as np


class ShapeError(ValueError):
    pass


def ensure_finite(op, **arrays):
    """Raise ValueError naming op and the first argument that holds a nan or
    an infinity; None arguments are skipped."""
    for arg, a in arrays.items():
        if a is not None and not _finite(a):
            raise ValueError(f"{op}: non-finite values in {arg}")


def _finite(a):
    """Whether every element of a is finite. A C-contiguous float32 or
    float64 array is first tested with one BLAS self-dot: every square is
    >= 0, +inf or nan, so a nan or an infinity anywhere makes the dot
    non-finite. Only a non-finite dot, which a finite array whose squares
    overflow also gives, falls back to the elementwise test, so the answer
    is always the elementwise one. np.vdot, unlike np.dot, raises no
    overflow warning for such an array. The dot is a scalar, which
    math.isfinite tests without the dispatch of a ufunc call."""
    if (isinstance(a, np.ndarray) and a.dtype.char in "fd" and a.flags.c_contiguous
            and math.isfinite(np.vdot(a, a))):
        return True
    return bool(np.isfinite(a).all())


def _row(v, image, hw):
    """The per-channel vector v, each entry repeated hw times, as one
    C-contiguous image of shape (C, H, W) or (C,). Broadcast over the batch
    axis, it lets numpy run an elementwise pass as one C*H*W inner loop per
    image, where a (1, C, 1, 1) operand gives one loop per (image, channel)
    plane."""
    return v.repeat(hw).reshape(image)


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


def conv2d_prepare(weights, bias, stride, padding, image, dtype):
    """What conv2d_forward derives from everything but the input's values,
    for an input of per-image shape image (C, H, W) and the given dtype.

    Checks weights and bias for non-finite values (ValueError naming the
    argument), then the shapes (ShapeError), in the order the forward always
    has. Returns (matrix, row, ho, wo, dtype): the weights viewed as the
    (O, C*kh*kw) matrix, the bias as an (O, Ho, Wo) row (None without a
    bias), the output extents and the output dtype.
    """
    ensure_finite("conv2d", weights=weights, bias=bias)
    if len(image) != 3 or weights.ndim != 4:
        raise ShapeError("conv2d expects 4-d input and weights")
    c, h, w = image
    o, ci, kh, kw = weights.shape
    if ci != c:
        raise ShapeError(f"conv2d channel mismatch: input {c}, weights expect {ci}")
    ho = conv_output_extent(h, kh, stride[0], padding[0])
    wo = conv_output_extent(w, kw, stride[1], padding[1])
    row = None if bias is None else _row(bias, (o, ho, wo), ho * wo)
    return weights.reshape(o, ci * kh * kw), row, ho, wo, np.result_type(dtype, weights)


def conv2d_forward(x, weights, bias=None, stride=(1, 1), padding=(0, 0), *, check_x=True,
                   prepared=None):
    """Cross-correlate x (N, C, H, W) with weights (O, C, kh, kw).

    Zero padding only. Returns (N, O, Ho, Wo), C-contiguous. The patches of
    each image form a (C*kh*kw, Ho*Wo) matrix, and the weights, viewed as
    (O, C*kh*kw), multiply it from the left, so each image's product is
    already its (O, Ho*Wo) output plane. check_x=False skips the non-finite
    check of x only, for a caller that knows x is finite. prepared is
    conv2d_prepare's record for these weights, bias, geometry and x's
    per-image shape and dtype; without it the forward calls
    conv2d_prepare after checking x.
    """
    if check_x:
        ensure_finite("conv2d", x=x)
    if prepared is None:
        prepared = conv2d_prepare(weights, bias, stride, padding, x.shape[1:], x.dtype)
    matrix, row, ho, wo, dtype = prepared
    kh, kw = weights.shape[2:]
    xp = _pad_input(x, *padding)
    # The output is allocated before the patch matrix, whose memory then goes
    # back to the top of the heap when it is freed, not into a hole under the
    # output that the next layer's arrays would not fit: with glibc's malloc,
    # that hole made the heap grow and be trimmed on every batch.
    n, o = x.shape[0], matrix.shape[0]
    out = np.empty((n, o, ho * wo), dtype=dtype)
    cols = _im2col(xp, kh, kw, *stride).reshape(n, matrix.shape[1], ho * wo)
    out = np.matmul(matrix, cols, out=out).reshape(n, o, ho, wo)
    if row is not None:
        out += row
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


def _bands(taps, w, sw, pw, wo, dtype):
    """Per kernel row u, the banded (Wp, Wo) matrix per channel that holds
    taps[c, u, v] at (k*sw + v, k), cut to the W rows of the unpadded
    input's columns: a (kh, C, W, Wo) view of one zeroed (kh, C, Wp, Wo)
    array, whose diagonals are set in one assignment."""
    c, kh, kw = taps.shape
    bands = np.zeros((kh * c, w + 2 * pw, wo), dtype=dtype)
    _diagonals(bands, kw, sw)[...] = taps.transpose(1, 0, 2).reshape(kh * c, kw, 1)
    return bands.reshape(kh, c, w + 2 * pw, wo)[:, :, pw:pw + w]


def _row_sums(dest, terms):
    """Sum kernel-row products into dest (N, C, rows, cols), every row of
    dest adding its terms in the order given. terms yields (rows, band, i0,
    i1) in _row_plan order: the product rows @ band belongs on dest's rows
    [i0, i1). The first term writes its product there (matmul out=) and
    zeroes dest's other rows; each later term fills the same rows of one
    temporary shaped like dest, zero elsewhere, which is then added whole,
    since numpy runs an in-place add over a row range or a strided slice of
    every plane through its small ufunc buffers. No terms at all zero dest.
    The bytes are those of adding every product onto a zero-filled dest, up
    to the sign of a zero, which adding onto +0 would clear. A term is drawn
    only after the one before it has been multiplied, so terms may refill
    one band between yields.
    """
    part = None
    for rows, band, i0, i1 in terms:
        if part is dest:
            part = np.empty(dest.shape, dtype=np.result_type(rows, band))
        elif part is None:
            part = dest
        part[:, :, :i0] = 0
        part[:, :, i1:] = 0
        np.matmul(rows, band, out=part[:, :, i0:i1])
        if part is not dest:
            dest += part
    if part is None:
        dest[...] = 0


def depthwise_conv2d_prepare(weights, bias, stride, padding, image, dtype):
    """What depthwise_conv2d_forward derives from everything but the input's
    values, for an input of per-image shape image (C, H, W) and the given
    dtype.

    Checks weights and bias for non-finite values (ValueError naming the
    argument), then the shapes (ShapeError). Returns (plan, bands, row, ho,
    wo, dtype): the kernel rows over the unpadded input (_row_plan), one
    band per kernel row (_bands), the bias as a (C, Ho, Wo) row (None
    without a bias), the output extents and the output dtype.
    """
    ensure_finite("depthwise_conv2d", weights=weights, bias=bias)
    if len(image) != 3 or weights.ndim != 4:
        raise ShapeError("depthwise_conv2d expects 4-d input and weights")
    c, h, w = image
    cw, one, kh, kw = weights.shape
    if cw != c or one != 1:
        raise ShapeError(f"depthwise weights (C,1,kh,kw) expected, got {weights.shape} for {c} channels")
    sh, sw = stride
    ph, pw = padding
    ho = conv_output_extent(h, kh, sh, ph)
    wo = conv_output_extent(w, kw, sw, pw)
    dtype = np.result_type(dtype, weights)
    row = None if bias is None else _row(bias, (c, ho, wo), ho * wo)
    return (_row_plan(kh, h, ho, sh, ph), _bands(weights[:, 0], w, sw, pw, wo, dtype), row,
            ho, wo, dtype)


def depthwise_conv2d_forward(x, weights, bias=None, stride=(1, 1), padding=(0, 0), *,
                             check_x=True, prepared=None):
    """Per-channel convolution: weights (C, 1, kh, kw), channel i only sees
    input channel i. Returns (N, C, Ho, Wo), C-contiguous. check_x and
    prepared (depthwise_conv2d_prepare's record) as in conv2d_forward."""
    if check_x:
        ensure_finite("depthwise_conv2d", x=x)
    if prepared is None:
        prepared = depthwise_conv2d_prepare(weights, bias, stride, padding, x.shape[1:], x.dtype)
    plan, bands, row, ho, wo, dtype = prepared
    sh = stride[0]
    out = np.empty(x.shape[:2] + (ho, wo), dtype=dtype)
    _row_sums(out, ((x[:, :, r0:r0 + (j1 - j0) * sh:sh], bands[u], j0, j1)
                    for u, j0, j1, r0 in plan))
    if row is not None:
        out += row
    return out


def depthwise_conv2d_backward(grad_out, x, weights, stride=(1, 1), padding=(0, 0), has_bias=True,
                              input_grad=True):
    """Gradients of depthwise_conv2d_forward. Returns (grad_x, grad_weights,
    grad_bias); grad_x is None when input_grad is False.

    Both gradients walk the forward's kernel rows over the unpadded input
    (_row_plan). Kernel row u's weight gradient is read off the (C, Wp, Wo)
    matrix sum over images of x_rows^T @ grad_out[:, :, j0:j1]: the product
    fills the rows of the unpadded columns of a zero-bordered (C, Wp, Wo)
    array, and tap (u, v) is the sum along its band diagonal (k*sw + v, k).
    Its input gradient is the adjoint, grad_out[:, :, j0:j1] @ band_u^T with
    the transposed band cut to the unpadded input's columns, summed by
    _row_sums onto each stride residue grad_x[:, :, g::sh] of the input rows.

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

    def terms(group):
        # Kernel row u reads input rows r0, r0 + sh, ...: rows r0 // sh on of
        # its stride residue group.
        for u, j0, j1, r0 in plan:
            if r0 % sh == group:
                diag_t[...] = weights[:, 0, u, :, None]
                yield grad_out[:, :, j0:j1], cols, r0 // sh, r0 // sh + j1 - j0

    grad_x = np.empty(x.shape, dtype=x.dtype)
    for group in range(sh):
        _row_sums(grad_x[:, :, group::sh], terms(group))
    return grad_x, grad_w, grad_b


def affine_prepare(weights, bias, image):
    """What affine_forward derives from everything but the input's values,
    for an input of per-image shape image (D,): checks weights and bias for
    non-finite values (ValueError naming the argument), then the shapes
    (ShapeError), and returns (weights, bias)."""
    ensure_finite("affine", weights=weights, bias=bias)
    if len(image) != 1 or weights.ndim != 2:
        raise ShapeError("affine expects 2-d input and weights")
    if image[0] != weights.shape[0]:
        raise ShapeError(f"affine dim mismatch: input {image[0]}, weights {weights.shape[0]}")
    return weights, bias


def affine_forward(x, weights, bias=None, *, check_x=True, prepared=None):
    """x (N, D) @ weights (D, K) + bias (K,). check_x and prepared
    (affine_prepare's record) as in conv2d_forward."""
    if check_x:
        ensure_finite("affine", x=x)
    if prepared is None:
        prepared = affine_prepare(weights, bias, x.shape[1:])
    weights, bias = prepared
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
    """(N, C, H, W) -> (N, C) spatial mean: one sum over both axes, divided
    in place by H*W, the bytes of x.mean(axis=(2, 3)) without its
    dispatch."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects 4-d input")
    out = np.add.reduce(x, axis=(2, 3))
    return np.true_divide(out, x.shape[2] * x.shape[3], out=out)


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
