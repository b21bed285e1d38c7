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


def reference_depthwise_forward(x, weights, bias, stride, padding):
    """Depthwise convolution the direct way: einsum of the weights with the
    strided (N, C, kh, kw, Ho, Wo) patch view of the zero-padded input.
    Arithmetic in the dtype numpy promotes the inputs to."""
    c, _, kh, kw = weights.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, _, hp, wp = xp.shape
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    ns, cs, hs, ws = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, kh, kw, ho, wo), strides=(ns, cs, hs, ws, hs * sh, ws * sw))
    out = np.einsum("ncuvjk,cuv->ncjk", cols, weights[:, 0], optimize=True)
    if bias is not None:
        out = out + bias.reshape(1, c, 1, 1)
    return out


def reference_depthwise_backward(grad_out, x, weights, stride, padding, has_bias=True):
    """Gradients of reference_depthwise_forward, one kernel tap at a time.
    Tap (u, v) read the strided slice xp[:, :, u::sh, v::sw] of the padded
    input, Ho x Wo of it: its weight gradient is the per-channel dot product
    of that slice with grad_out, and grad_out times the tap weight goes back
    onto the same slice of the input gradient. Returns (grad_x, grad_w,
    grad_b)."""
    c, _, kh, kw = weights.shape
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    grad_w = np.empty(weights.shape, dtype=np.result_type(x, grad_out))
    grad_xp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            tap = (slice(None), slice(None), slice(u, u + ho * sh, sh), slice(v, v + wo * sw, sw))
            grad_w[:, 0, u, v] = np.einsum("ncjk,ncjk->c", xp[tap], grad_out)
            grad_xp[tap] += grad_out * weights[:, 0, u, v].reshape(1, c, 1, 1)
    grad_x = grad_xp[:, :, ph:xp.shape[2] - ph, pw:xp.shape[3] - pw]
    grad_b = grad_out.sum(axis=(0, 2, 3)) if has_bias else None
    return grad_x, grad_w, grad_b


def _banded_plan(kh, h, ho, sh, ph):
    """Kernel rows (u, j0, j1, r0) of the banded depthwise gradients: row u
    covers output rows [j0, j1) and reads input rows r0, r0 + sh, ...; the
    first row covering every output row goes first, the rest in order."""
    plan = []
    for u in range(kh):
        j0, j1 = max(0, (ph - u + sh - 1) // sh), min(ho, (h - 1 + ph - u) // sh + 1)
        if j0 < j1:
            plan.append((u, j0, j1, j0 * sh + u - ph))
    full = [row for row in plan if row[2] - row[1] == ho][:1]
    return full + [row for row in plan if row not in full]


def _band_index(kw, sw, wo):
    """Fancy index of the (C, Wp, Wo) band entries (k*sw + v, k) as (C, kw, Wo)."""
    k = np.arange(wo)
    return slice(None), np.arange(kw)[:, None] + sw * k, k


def fancy_index_depthwise_weight_grad(grad_out, x, weights, stride, padding):
    """The banded depthwise weight gradient as the library first wrote it:
    per kernel row, the (C, Wp, Wo) sum over images of x_rows^T @ grad_out
    in a zero-bordered array, whose tap diagonals are read through fancy-
    index arrays and summed. The library reads them through a strided view,
    copied into the fancy-index copy's (kw, Wo, C) layout so that the sum
    keeps its order, and must give these bytes."""
    n, c, h, w = x.shape
    kh, kw = weights.shape[2], weights.shape[3]
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    dtype = np.result_type(x, grad_out)
    grad_w = np.zeros(weights.shape, dtype=dtype)
    summed = np.zeros((c, w + 2 * pw, wo), dtype=dtype)
    prod = np.empty((n, c, w, wo), dtype=dtype)
    for u, j0, j1, r0 in _banded_plan(kh, h, ho, sh, ph):
        np.matmul(x[:, :, r0:r0 + (j1 - j0) * sh:sh].swapaxes(2, 3), grad_out[:, :, j0:j1], out=prod)
        summed[:, pw:pw + w] = np.add.reduce(prod, axis=0)
        grad_w[:, 0, u] = summed[_band_index(kw, sw, wo)].sum(axis=2)
    return grad_w


def zero_fill_depthwise_input_grad(grad_out, x, weights, stride, padding):
    """The banded depthwise input gradient as the library first wrote it:
    each kernel row's product grad_out[:, :, j0:j1] @ band_u^T is added onto
    a zero-filled grad_x at the input rows the row read, and the band's
    diagonals are set through fancy-index arrays. The library now writes
    the first product of each stride residue directly instead, which gives
    the same bytes up to the sign of a zero: a direct write keeps a -0.0
    that adding onto +0.0 made +0.0."""
    n, c, h, w = x.shape
    kh, kw = weights.shape[2], weights.shape[3]
    sh, sw = stride
    ph, pw = padding
    ho, wo = grad_out.shape[2], grad_out.shape[3]
    _, rows, k = _band_index(kw, sw, wo)
    band_t = np.zeros((c, wo, w + 2 * pw), dtype=np.result_type(grad_out, weights))
    cols = band_t[:, :, pw:pw + w]
    grad_x = np.zeros(x.shape, dtype=x.dtype)
    tmp = np.empty((n, c, ho, w), dtype=band_t.dtype)
    for u, j0, j1, r0 in _banded_plan(kh, h, ho, sh, ph):
        band_t[:, k, rows] = weights[:, 0, u, :, None]
        part = np.matmul(grad_out[:, :, j0:j1], cols, out=tmp[:, :, :j1 - j0])
        grad_x[:, :, r0:r0 + (j1 - j0) * sh:sh] += part
    return grad_x


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


def reference_bn_backward(grad_out, x, gamma, eps):
    """Gradients of reference_bn_train through the batch statistics, the
    chain rule of Ioffe & Szegedy (arXiv 1502.03167) term by term, in
    float64. Returns (grad_x, grad_gamma, grad_beta)."""
    g, x = np.asarray(grad_out, np.float64), np.asarray(x, np.float64)
    gamma = np.asarray(gamma, np.float64)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    m = x.size // x.shape[1]
    mu = _expand(x.mean(axis=axes), x.ndim)
    var = _expand(np.mean((x - mu) ** 2, axis=axes), x.ndim)
    xhat = (x - mu) / np.sqrt(var + eps)
    grad_xhat = g * _expand(gamma, x.ndim)
    grad_var = np.sum(grad_xhat * (x - mu) * -0.5 * (var + eps) ** -1.5, axis=axes)
    grad_mu = (np.sum(-grad_xhat / np.sqrt(var + eps), axis=axes)
               + grad_var * np.sum(-2.0 * (x - mu), axis=axes) / m)
    grad_x = (grad_xhat / np.sqrt(var + eps) + _expand(grad_var, x.ndim) * 2.0 * (x - mu) / m
              + _expand(grad_mu, x.ndim) / m)
    return grad_x, np.sum(g * xhat, axis=axes), np.sum(g, axis=axes)


def _expand(v, ndim):
    if ndim == 2:
        return v.reshape(1, -1)
    return v.reshape(1, -1, 1, 1)


def reference_forward(graph, x):
    """The inference-mode output of an unquantized graph, in float64: a walk
    of the layer list through the oracles above, brute_force_conv2d and
    reference_depthwise_forward, with every other kind written out the
    obvious way (BN from its running statistics). It imports nothing from
    the package. A quantization point that would change a value (an
    enabled weight point, an enabled activation point with an initialized
    range) raises ValueError: quantized graphs are out of its scope."""

    def f64(a):
        return None if a is None else np.asarray(a, np.float64)

    outputs = {}
    prev = f64(x)
    for layer in graph.layers:
        kind, p = layer.kind, layer.params
        point = p if kind == "quant_point" else layer.weight_quant
        if point is not None and point.enabled and (kind != "quant_point"
                                                    or point.cfg.initialized):
            raise ValueError(f"reference_forward: layer '{layer.name}' is quantized")
        if kind == "conv":
            prev = brute_force_conv2d(prev, f64(p.weights), f64(p.bias), layer.stride, layer.padding)
        elif kind == "depthwise_conv":
            prev = reference_depthwise_forward(prev, f64(p.weights), f64(p.bias), layer.stride,
                                               layer.padding)
        elif kind == "affine":
            prev = prev @ f64(p.weights) + (0.0 if p.bias is None else f64(p.bias))
        elif kind == "bn":
            mean, var, gamma, beta = (_expand(f64(a), prev.ndim) for a in (
                p.running_mean, p.running_var, p.gamma, p.beta))
            prev = (prev - mean) / np.sqrt(var + float(p.epsilon)) * gamma + beta
        elif kind == "relu":
            prev = np.maximum(prev, 0.0)
        elif kind == "relu6":
            prev = np.minimum(np.maximum(prev, 0.0), 6.0)
        elif kind == "global_avg_pool":
            prev = prev.mean(axis=(2, 3))
        elif kind == "add_junction":
            prev = outputs[p[0]] + outputs[p[1]]
        elif kind != "quant_point":
            raise ValueError(f"reference_forward: unknown kind '{kind}'")
        outputs[layer.name] = prev
    return prev
