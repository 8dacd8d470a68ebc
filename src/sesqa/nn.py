"""Network building blocks on top of the autodiff core.

Shapes follow the (batch, channels, time) convention for sequence ops and
(batch, features) for dense layers.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ad import Tensor, _accum, _make, as_tensor

# Fixed binomial low-pass used before every factor-4 subsampling.
BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
BN_EPS = 1e-5
STATS_EPS = 1e-8


def _tap_spans(K, T):
    """(k, dst, src) per tap whose shift s = k - (K-1)//2 leaves samples in
    range: column t of tap block k holds sample t + s, so block[:, dst] =
    row[:, src], and the block's other columns are zero."""
    spans = []
    for k in range(K):
        s = k - (K - 1) // 2
        lo, n = max(0, -s), T - abs(s)
        if n > 0:
            spans.append((k, slice(lo, lo + n), slice(lo + s, lo + s + n)))
    return spans


def _tap_columns(x, K):
    """Yield each row of x (B,C,T) as its (K*C, T) column matrix, whose
    block k is the row shifted by k - (K-1)//2 with zero-filled edges: the
    row itself for K=1, else one buffer rewritten for every row."""
    _, C, T = x.shape
    if K == 1:
        yield from x
        return
    cols = np.zeros((K * C, T), dtype=x.dtype)   # the edges stay zero
    spans = _tap_spans(K, T)
    for xi in x:
        for k, dst, src in spans:
            cols[k * C:(k + 1) * C, dst] = xi[:, src]
        yield cols


def conv1d(x, w, b):
    """Cross-correlation with 'same' zero padding, stride 1.

    x: (B,C,T), w: (F,C,K), b: (F,). Output (B,F,T). w is laid out once
    as a tap-major (F, K*C) matrix W2, and each batch row is one GEMM of
    W2 against that row's (K*C, T) column matrix of shifted copies (the
    row itself for K=1). The backward pass rebuilds each row's columns:
    dW2 += g_i @ cols_i^T, and W2^T @ g_i is overlap-added into dx in K
    slices. Neither pass holds a padded or im2col copy of the batch.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    B, C, T = x.data.shape
    F, Cw, K = w.data.shape
    if Cw != C:
        raise ValueError("conv1d channel mismatch: input %d, weight %d" % (C, Cw))
    W2 = w.data.transpose(0, 2, 1).reshape(F, K * C)
    bias = b.data[:, None]
    y = np.empty((B, F, T), dtype=x.data.dtype)
    for yi, cols in zip(y, _tap_columns(x.data, K)):
        np.matmul(W2, cols, out=yi)
        yi += bias

    def backward(g):
        _accum(b, g.sum(axis=(0, 2)))
        dW2 = np.zeros((F, K * C), dtype=w.data.dtype)
        dx = np.zeros((B, C, T), dtype=x.data.dtype)
        dcols = np.empty((K * C, T), dtype=g.dtype)
        spans = _tap_spans(K, T)
        for i, cols in enumerate(_tap_columns(x.data, K)):
            dW2 += g[i] @ cols.T
            np.matmul(W2.T, g[i], out=dcols)
            for k, dst, src in spans:
                dx[i, :, src] += dcols[k * C:(k + 1) * C, dst]
        _accum(w, np.ascontiguousarray(
            dW2.reshape(F, K, C).transpose(0, 2, 1)))
        _accum(x, dx)

    return _make(y, (x, w, b), backward)


def blurpool(x, factor=4):
    """Anti-aliased downsampling: fixed binomial blur, reflect pad, stride 4."""
    x = as_tensor(x)
    B, C, T = x.data.shape
    K = len(BLUR_KERNEL)
    if T < K:
        raise ValueError("blurpool input too short: %d < %d" % (T, K))
    pad = (K - 1) // 2
    ker = BLUR_KERNEL.astype(x.data.dtype)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)), mode="reflect")
    windows = sliding_window_view(xp, K, axis=2)[:, :, ::factor]  # (B,C,To,K)
    y = windows @ ker
    To = y.shape[2]

    def backward(g):
        if not x.requires_grad:
            return
        dxp = np.zeros((B, C, T + 2 * pad), dtype=x.data.dtype)
        for k in range(K):
            dxp[:, :, k:k + (To - 1) * factor + 1:factor] += ker[k] * g
        dx = dxp[:, :, pad:pad + T].copy()
        # fold reflected pad positions back onto their sources
        for i in range(pad):
            dx[:, :, pad - i] += dxp[:, :, i]
            dx[:, :, T - 1 - (pad - i)] += dxp[:, :, T + 2 * pad - 1 - i]
        _accum(x, dx)

    return _make(y, (x,), backward)


def mu_law_compand(x, mu):
    """sign(x) * ln(1 + mu|x|) / ln(1 + mu), differentiable in x and mu."""
    x, mu = as_tensor(x), as_tensor(mu)
    m = float(mu.data)
    ax = np.abs(x.data)
    sign = np.sign(x.data)
    L = float(np.log1p(m))  # a Python float keeps y in x's dtype
    gnum = np.log1p(m * ax)
    y = sign * gnum / L

    def backward(g):
        if x.requires_grad:
            _accum(x, g * m / ((1.0 + m * ax) * L))
        if mu.requires_grad:
            dmu = sign * (ax / (1.0 + m * ax) * L - gnum / (1.0 + m)) / (L * L)
            _accum(mu, np.array((g * dmu).sum(), dtype=mu.data.dtype))

    return _make(y, (x, mu), backward)


def stats_pool(x):
    """Time-axis mean and population std per channel: (B,C,T) -> (B,2C)."""
    x = as_tensor(x)
    B, C, T = x.data.shape
    mu = x.data.mean(axis=2)
    centered = x.data - mu[:, :, None]
    var = np.mean(centered ** 2, axis=2)
    std = np.sqrt(var + STATS_EPS)
    y = np.concatenate([mu, std], axis=1)

    def backward(g):
        if not x.requires_grad:
            return
        gm = g[:, :C]
        gs = g[:, C:]
        dx = gm[:, :, None] / T + gs[:, :, None] * centered / (T * std[:, :, None])
        _accum(x, dx)

    return _make(y, (x,), backward)


class BatchNorm:
    """Batch normalization over all axes except channel.

    Works on (B,F) with channel axis 1, and on (B,C,T) with channel axis 1.
    Train mode normalizes with the batch statistics and stores them as
    the running stats; eval mode normalizes with the running stats.
    Training ends with one recalibration pass (training.recalibrate_bn),
    so the stats eval mode reads are those of that pass.
    """

    def __init__(self, num_features, dtype=np.float32):
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def __call__(self, x, train: bool):
        return batchnorm(x, self.gamma, self.beta, self, train)


def _channel_moments(x: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """One-pass per-channel mean and population variance (float64 accum)."""
    n = int(np.prod([x.shape[a] for a in axes]))
    s = x.sum(axis=axes, dtype=np.float64)
    if x.ndim == 3:
        sq = np.einsum("bct,bct->c", x, x, dtype=np.float64)
    else:
        sq = np.einsum("bc,bc->c", x, x, dtype=np.float64)
    mu = s / n
    var = np.maximum(sq / n - mu ** 2, 0.0)
    return mu.astype(x.dtype), var.astype(x.dtype)


def batchnorm(x, gamma, beta, state: BatchNorm, train: bool):
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    nd = x.data.ndim
    if nd == 2:
        axes, pshape = (0,), (1, -1)
    elif nd == 3:
        axes, pshape = (0, 2), (1, -1, 1)
    else:
        raise ValueError("batchnorm expects 2-D or 3-D input")
    n = int(np.prod([x.data.shape[a] for a in axes]))

    if train:
        if n < 2:
            raise ValueError("batch statistics need more than one element")
        mu, var = _channel_moments(x.data, axes)
        state.running_mean[...] = mu
        state.running_var[...] = var
    else:
        mu = state.running_mean.astype(x.data.dtype)
        var = state.running_var.astype(x.data.dtype)

    ivstd = 1.0 / np.sqrt(var + BN_EPS)
    # fused affine: y = x * scale + shift
    scale = (gamma.data * ivstd).reshape(pshape)
    shift = (beta.data - gamma.data * ivstd * mu).reshape(pshape)
    y = np.empty_like(x.data)
    np.multiply(x.data, scale, out=y)
    np.add(y, shift, out=y)

    def backward(g):
        # per-channel reductions shared by dgamma and the train-mode dx
        sg = g.sum(axis=axes, dtype=np.float64)
        if g.ndim == 3:
            sgx = np.einsum("bct,bct->c", g, x.data, dtype=np.float64)
        else:
            sgx = np.einsum("bc,bc->c", g, x.data, dtype=np.float64)
        dgamma = ((sgx - mu.astype(np.float64) * sg)
                  * ivstd.astype(np.float64)).astype(g.dtype)
        if gamma.requires_grad:
            _accum(gamma, dgamma)
        if beta.requires_grad:
            _accum(beta, sg.astype(g.dtype))
        if x.requires_grad:
            if train:
                # dx = a*g + b*x + c with per-channel coefficients
                a = gamma.data * ivstd
                bb = -a * ivstd * dgamma / n
                cc = (-a * sg.astype(g.dtype) / n
                      - bb * mu)
                dx = g * a.reshape(pshape)
                dx += x.data * bb.reshape(pshape)
                dx += cc.reshape(pshape)
                _accum(x, dx)
            else:
                _accum(x, g * scale)

    return _make(y, (x, gamma, beta), backward)


def linear(x, w, b):
    """x (B,I) @ w (I,O) + b (O,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def backward(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _make(x.data @ w.data + b.data, (x, w, b), backward)
