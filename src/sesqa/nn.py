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
BN_MOMENTUM = 0.1
STATS_EPS = 1e-8


def conv1d(x, w, b):
    """Cross-correlation with 'same' zero padding, stride 1.

    x: (B,C,T), w: (F,C,K), b: (F,). Output (B,F,T). The padded batch is
    one (C, B*(T+K-1)) matrix and each tap one GEMM over a shifted column
    view: K BLAS calls per batch, not B*K, and no patch matrix.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    B, C, T = x.data.shape
    F, Cw, K = w.data.shape
    if Cw != C:
        raise ValueError("conv1d channel mismatch: input %d, weight %d" % (C, Cw))
    pl = (K - 1) // 2
    pr = K - 1 - pl
    Tp = T + K - 1
    n = B * Tp - (K - 1)        # columns whose K taps stay in range
    xf = np.pad(x.data.transpose(1, 0, 2),
                ((0, 0), (0, 0), (pl, pr))).reshape(C, B * Tp)
    y = np.empty((B, F, T), dtype=x.data.dtype)
    y[:] = b.data[:, None]
    yt = y.transpose(1, 0, 2)
    tmp = np.empty((F, B * Tp), dtype=x.data.dtype)
    for k in range(K):
        # column b*Tp + t of tmp is output (b, t); the rest go unread
        np.matmul(w.data[:, :, k], xf[:, k:k + n], out=tmp[:, :n])
        yt += tmp.reshape(F, B, Tp)[:, :, :T]

    def backward(g):
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2)))
        if w.requires_grad:
            xp2 = np.pad(x.data, ((0, 0), (0, 0), (pl, pr)))
            dw = np.empty((F, C, K), dtype=w.data.dtype)
            for k in range(K):
                dw[:, :, k] = np.matmul(
                    g, xp2[:, :, k:k + T].transpose(0, 2, 1)).sum(axis=0)
            _accum(w, dw)
        if x.requires_grad:
            dxp = np.zeros((B, C, T + K - 1), dtype=x.data.dtype)
            tmp2 = np.empty((B, C, T), dtype=x.data.dtype)
            for k in range(K):
                np.matmul(w.data[:, :, k].T, g, out=tmp2)
                dxp[:, :, k:k + T] += tmp2
            _accum(x, dxp[:, :, pl:pl + T])

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
    Train mode uses batch statistics and updates running stats with
    momentum 0.1; eval mode uses running stats.
    """

    def __init__(self, num_features, dtype=np.float32):
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self.momentum = BN_MOMENTUM  # set to 1.0 for recalibration passes

    def __call__(self, x, train: bool):
        return batchnorm(x, self.gamma, self.beta, self, train,
                         momentum=self.momentum)

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}


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


def batchnorm(x, gamma, beta, state: BatchNorm, train: bool,
              momentum=BN_MOMENTUM, eps=BN_EPS):
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
        state.running_mean[...] = ((1 - momentum) * state.running_mean
                                   + momentum * mu.astype(state.running_mean.dtype))
        state.running_var[...] = ((1 - momentum) * state.running_var
                                  + momentum * var.astype(state.running_var.dtype))
    else:
        mu = state.running_mean.astype(x.data.dtype)
        var = state.running_var.astype(x.data.dtype)

    ivstd = 1.0 / np.sqrt(var + eps)
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
