"""Network building blocks on top of the autodiff core.

Shapes follow the (batch, channels, time) convention for sequence ops and
(batch, features) for dense layers. `batchnorm` can carry the ReLU after
it, and `blurpool` the BatchNorm and ReLU before it (see BatchNorm).
"""

from __future__ import annotations

import numpy as np

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
    slices (for K=1, W2^T @ g_i is dx_i). Neither pass holds a padded or
    im2col copy of the batch.
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
            if K == 1:  # the one tap span is the identity
                np.matmul(W2.T, g[i], out=dx[i])
                continue
            np.matmul(W2.T, g[i], out=dcols)
            for k, dst, src in spans:
                dx[i, :, src] += dcols[k * C:(k + 1) * C, dst]
        _accum(w, np.ascontiguousarray(
            dW2.reshape(F, K, C).transpose(0, 2, 1)))
        _accum(x, dx)

    return _make(y, (x, w, b), backward)


def _blur4(xp, out=None):
    """The forward of blurpool on x = xp[..., 2:-2], after writing xp's
    2-sample reflect pad: binomial blur, stride 4, as a polyphase sum:
    window j's taps 0-3 are row j of xp seen as (..., To, 4), its tap 4 is
    row j+1's first sample. blurpool calls it on a padded copy of the batch,
    or with bn on one (C, T+4) row buffer at a time as Model.infer does."""
    ker = BLUR_KERNEL.astype(xp.dtype)
    To = -(-(xp.shape[-1] - 4) // 4)
    xp[..., :2] = xp[..., 4:2:-1]
    xp[..., -2:] = xp[..., -4:-6:-1]
    y = np.matmul(xp[..., :4 * To].reshape(*xp.shape[:-1], To, 4), ker[:4],
                  out=out)
    y += ker[4] * xp[..., 4:4 * To + 1:4]
    return y


def _blur4_backward(g, dx):
    """The backward of _blur4, from g (..., To) into dx (..., T), which it
    returns. No padded buffer: tap k of window j is padded position 4j + k,
    so dx[4j + k - 2]; taps 0-3 write disjoint phases, tap 4 adds to the
    phase of tap 0, and only tap 4 reaches past 4To - 3."""
    ker = BLUR_KERNEL.astype(dx.dtype)
    T, To = dx.shape[-1], g.shape[-1]
    dx[..., 4 * To - 2:] = 0
    for k in range(5):
        j0, j1 = int(k < 2), min(To, (T + 1 - k) // 4 + 1)
        phase = dx[..., 4 * j0 + k - 2:4 * j1 + k - 2:4]
        if k < 4:
            np.multiply(g[..., j0:j1], ker[k], out=phase)
        else:
            phase += ker[4] * g[..., j0:j1]
    # the reflected pad positions 0, 1, T+2, T+3 fold onto 2, 1, T-2, T-3
    for p, t in ((0, 2), (1, 1), (T + 2, T - 2), (T + 3, T - 3)):
        dx[..., t] += sum(ker[k] * g[..., (p - k) // 4] for k in range(5)
                          if k <= p < 4 * To + k and (p - k) % 4 == 0)
    return dx


def blurpool(x, factor=4, bn=None, train=False):
    """Anti-aliased downsampling by 4 (see _blur4), differentiable in x.
    With a BatchNorm state `bn`, blurpool(relu(batchnorm(x))) one batch row
    at a time, keeping no normalized or padded batch: the backward masks
    each row with the ReLU mask recomputed from x, then runs BatchNorm's
    two passes in place on dx, the one (B, C, T) array it makes."""
    x = as_tensor(x)
    B, C, T = x.data.shape
    if factor != 4 or T < len(BLUR_KERNEL):
        raise ValueError("blurpool needs factor 4 and 5 samples, not %d, %d"
                         % (factor, T))
    if bn is None:
        xp = np.pad(x.data, ((0, 0), (0, 0), (2, 2)))   # _blur4 reflects it
        return _make(_blur4(xp), (x,), lambda g: _accum(
            x, _blur4_backward(g, np.empty((B, C, T), dtype=g.dtype))))

    gamma, beta = bn.gamma, bn.beta
    mu, ivstd, scale, shift = _bn_affine(x.data, gamma.data, beta.data, bn,
                                         train)
    y = np.empty((B, C, -(-T // 4)), dtype=x.data.dtype)
    row = np.empty((C, T + 4), dtype=x.data.dtype)
    for xi, yi in zip(x.data, y):
        _bn_row(xi, scale, shift, True, row[:, 2:-2])
        _blur4(row, out=yi)

    def backward(g):
        dx = np.empty((B, C, T), dtype=g.dtype)
        row = np.empty((C, T), dtype=x.data.dtype)
        gm_rows = (np.multiply(_blur4_backward(gi, dxi),
                               _bn_row(xi, scale, shift, False, row) > 0,
                               out=dxi) for gi, xi, dxi in zip(g, x.data, dx))
        _bn_backward(gm_rows, dx, x.data, mu, ivstd, scale, train, gamma, beta)
        _accum(x, dx)

    return _make(y, (x, gamma, beta), backward)


def gated_residual(h, f, gate):
    """g*h + (1-g)*f = f + g*(h-f) with g = sigmoid(gate) per channel of
    (B,C,T). dh = g*G, df = (1-g)*G, dgate = sum_bt (h-f)*G * g*(1-g)."""
    h, f, gate = as_tensor(h), as_tensor(f), as_tensor(gate)
    g = (1.0 / (1.0 + np.exp(-gate.data)))[:, None]
    y = f.data + g * (h.data - f.data)

    def backward(G):
        _accum(h, G * g)
        _accum(f, G * (1.0 - g))
        dg = np.einsum("bct,bct->c", h.data - f.data, G, dtype=np.float64)
        _accum(gate, dg * (g * (1.0 - g))[:, 0])

    return _make(y, (h, f, gate), backward)


def mu_law_compand(x, mu):
    """sign(x) * ln(1 + mu|x|) / ln(1 + mu), differentiable in x and mu;
    y is built in place, and the backward recomputes its terms from x."""
    x, mu = as_tensor(x), as_tensor(mu)
    m = float(mu.data)
    L = float(np.log1p(m))  # a Python float keeps y in x's dtype
    y = np.abs(x.data)
    np.log1p(np.multiply(y, m, out=y), out=y)
    y *= np.sign(x.data)
    y /= L

    def backward(g):
        a = np.abs(x.data)
        if x.requires_grad:
            _accum(x, g * m / ((1.0 + m * a) * L))
        if mu.requires_grad:
            # dmu in two buffers, in its closed form's order of operations
            b = np.multiply(a, m)
            np.multiply(np.divide(a, np.add(b, 1.0, out=b), out=b), L, out=b)
            np.log1p(np.multiply(a, m, out=a), out=a)
            np.subtract(b, np.divide(a, 1.0 + m, out=a), out=b)
            b *= np.sign(x.data, out=a)
            b /= L * L
            _accum(mu, np.array(np.multiply(g, b, out=b).sum(),
                                dtype=mu.data.dtype))

    return _make(y, (x, mu), backward)


def stats_pool(x):
    """Time-axis mean and population std per channel: (B,C,T) -> (B,2C)."""
    x = as_tensor(x)
    B, C, T = x.data.shape
    mu = x.data.mean(axis=2)
    centered = x.data - mu[:, :, None]
    std = np.sqrt(np.mean(centered ** 2, axis=2) + STATS_EPS)
    y = np.concatenate([mu, std], axis=1)

    def backward(g):
        _accum(x, g[:, :C, None] / T
               + g[:, C:, None] * centered / (T * std[:, :, None]))

    return _make(y, (x,), backward)


class BatchNorm:
    """Batch normalization over all axes except channel.

    Works on (B,F) with channel axis 1, and on (B,C,T) with channel axis 1.
    Train mode normalizes with the batch statistics and stores them as
    the running stats; eval mode normalizes with the running stats.
    Training ends with one train-mode encoder pass (training.recalibrate_bn),
    whose stats Model.infer folds into the layer before each BatchNorm.
    Eval mode itself runs only in tests and in Model.encode(train=False),
    the reference that infer is tested against.

    The channel sums (train mode's moments, the backward's sg and sgx) are
    taken one batch row at a time in the input's dtype, a GEMV and an
    einsum per row, and accumulated across rows in float64. Each is taken
    of values shifted near the channel mean, so that float32 does not
    cancel: x less a pilot mean for the moments (_channel_moments), x less
    mu for sgx. These row sums were checked to give the same bits at 1 and
    2 BLAS threads.

    relu=True clamps the output at zero in place, and the ReLU mask is
    y > 0. The encoder's res and mlp BatchNorms carry their ReLU this way;
    enc.pool*.bn runs inside blurpool(bn=...), which keeps no normalized
    batch and recomputes the mask from x in the forward's float32 ops.
    """

    def __init__(self, num_features, dtype=np.float32):
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def __call__(self, x, train: bool, relu: bool = False):
        return batchnorm(x, self.gamma, self.beta, self, train, relu)


def _as3(a: np.ndarray) -> np.ndarray:
    """(B,C,T) as is, (B,F) as its (1,F,B) view: channel axis 1 both ways."""
    return a if a.ndim == 3 else a.T[None]


def _channel_moments(x3: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population variance of x3 (B,C,T) over B and T.

    Each channel is shifted by a pilot mean, the first row's channel mean,
    and the moments are taken of the shifted d = x - pilot, whose one-pass
    E[d^2] - E[d]^2 does not cancel when |mean| >> std. Each row's sum of d
    (one GEMV, d @ ones) and of d^2 (one einsum) is taken in x's dtype, and
    the per-row sums are accumulated across rows in float64.
    """
    B, C, T = x3.shape
    ones = np.ones(T, dtype=x3.dtype)
    pilot = (x3[0] @ ones) / T
    d = np.empty((C, T), dtype=x3.dtype)
    s1, s2 = np.zeros((2, C))
    for xi in x3:
        np.subtract(xi, pilot[:, None], out=d)
        s1 += d @ ones
        s2 += np.einsum("ct,ct->c", d, d)
    m1 = s1 / (B * T)
    var = np.maximum(s2 / (B * T) - m1 ** 2, 0.0)
    return (pilot + m1).astype(x3.dtype), var.astype(x3.dtype)


def _bn_affine(x3, gamma, beta, state, train):
    """mu, 1/std, scale and (C, 1) shift of y = x*scale + shift on x3: in
    train mode from the batch moments, stored as the running stats."""
    if train:
        if x3.shape[0] * x3.shape[2] < 2:
            raise ValueError("batch statistics need more than one element")
        mu, var = _channel_moments(x3)
        state.running_mean[...] = mu
        state.running_var[...] = var
    else:
        mu = state.running_mean.astype(x3.dtype)
        var = state.running_var.astype(x3.dtype)
    ivstd = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * ivstd
    return mu, ivstd, scale, (beta - scale * mu)[:, None]


def _bn_row(xi, scale, shift, relu, out):
    """One (C, T) row of BatchNorm's affine into out, then the ReLU."""
    np.multiply(xi, scale[:, None], out=out)
    out += shift
    if relu:
        np.maximum(out, 0, out=out)
    return out


def _bn_backward(gm_rows, dx3, x3, mu, ivstd, scale, train, gamma, beta):
    """BatchNorm's backward into dx3 (B,C,T) from the rows of the masked
    upstream gradient gm, each yielded by gm_rows once ready (dx3 may hold
    gm). Pass 1 takes the row sums sg = sum(gm), sgx = sum(gm * (x - mu))
    (see BatchNorm); pass 2 writes dx = a*gm + b*x + c per channel in train
    mode, a*gm in eval mode."""
    B, C, T = x3.shape
    ones = np.ones(T, dtype=dx3.dtype)
    tmp = np.empty((C, T), dtype=dx3.dtype)   # one row, both passes
    sg, sgx = np.zeros((2, C))
    gm = []
    for gmi, xi in zip(gm_rows, x3):
        gm.append(gmi)
        sg += gmi @ ones
        sgx += np.einsum("ct,ct->c", gmi,
                         np.subtract(xi, mu[:, None], out=tmp))
    dgamma = (sgx * ivstd).astype(dx3.dtype)
    _accum(gamma, dgamma)
    _accum(beta, sg.astype(dx3.dtype))
    bb = -scale * ivstd * dgamma / (B * T)
    cc = -scale * sg.astype(dx3.dtype) / (B * T) - bb * mu
    for gmi, xi, dxi in zip(gm, x3, dx3):
        np.multiply(gmi, scale[:, None], out=dxi)
        if train:
            dxi += np.multiply(xi, bb[:, None], out=tmp)
            dxi += cc[:, None]


def batchnorm(x, gamma, beta, state: BatchNorm, train: bool,
              relu: bool = False):
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.ndim not in (2, 3):
        raise ValueError("batchnorm expects 2-D or 3-D input")
    x3 = _as3(x.data)
    mu, ivstd, scale, shift = _bn_affine(x3, gamma.data, beta.data, state,
                                         train)
    out = np.empty_like(x.data)
    y = _as3(out)
    for xi, yi in zip(x3, y):
        _bn_row(xi, scale, shift, relu, yi)

    def backward(g):
        dx = np.empty(x.data.shape, dtype=g.dtype)
        g3, dx3 = _as3(g), _as3(dx)
        gm_rows = (np.multiply(gi, yi > 0, out=dxi)
                   for gi, yi, dxi in zip(g3, y, dx3)) if relu else g3
        _bn_backward(gm_rows, dx3, x3, mu, ivstd, scale, train, gamma, beta)
        _accum(x, dx)

    return _make(out, (x, gamma, beta), backward)


def linear(x, w, b):
    """x (B,I) @ w (I,O) + b (O,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def backward(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _make(x.data @ w.data + b.data, (x, w, b), backward)
