"""Finite-difference validation of the autodiff core and the network ops.

Every gradient check runs in float64; the checker nudges values off kinks
(relu/abs at zero) before comparing. Tolerance is 1e-5 relative error.
The float32 BatchNorm tests compare its row sums against float64 ones.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sesqa import ad, nn, objectives

TOL = 1e-5


def t64(rng, *shape, scale=1.0):
    return ad.Tensor(scale * rng.normal(size=shape), requires_grad=True)


def gradient_check(fn, tensors, n_coords=None, step=1e-5, kink_tol=1e-6,
                   rng=None):
    """Max relative error between reverse-mode and central differences.

    `fn` must return a scalar Tensor computed from `tensors` (all float64,
    requires_grad). Coordinates sitting exactly on a ReLU/abs kink are
    nudged away before checking. When n_coords is given, that many random
    coordinates per tensor are probed instead of all of them.
    """
    rng = rng or np.random.default_rng(0)
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ValueError("gradient_check requires float64 tensors")
        flat = t.data.reshape(-1)
        near = np.abs(flat) < kink_tol
        flat[near] += 2 * kink_tol  # nudge off potential kinks at zero

    out = fn()
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("non-finite output in gradient_check")
    for t in tensors:
        t.grad = None
    out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    max_rel = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        if n_coords is None or n_coords >= flat.size:
            coords = np.arange(flat.size)
        else:
            coords = rng.choice(flat.size, size=n_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            fp = float(fn().data)
            flat[i] = orig - step
            fm = float(fn().data)
            flat[i] = orig
            num = (fp - fm) / (2 * step)
            denom = max(1.0, abs(num) + abs(aflat[i]))
            max_rel = max(max_rel, abs(num - aflat[i]) / denom)
    return max_rel


def check(fn, tensors, n_coords=None, rng=None):
    err = gradient_check(fn, tensors, n_coords=n_coords, rng=rng)
    assert err < TOL, "gradient mismatch: %g" % err


# ------------------------------------------------------------ basic ops

def test_grad_elementwise_ops():
    rng = np.random.default_rng(0)
    x = t64(rng, 3, 4)
    y = t64(rng, 3, 4)
    check(lambda: ad.mean(x * y + x), [x, y])
    check(lambda: ad.mean(ad.relu(x)), [x])
    check(lambda: ad.mean(ad.sigmoid(x)), [x])
    check(lambda: ad.mean(ad.softplus(x)), [x])
    check(lambda: ad.mean(ad.absolute(x)), [x])
    z = ad.Tensor(np.abs(rng.normal(size=(3, 4))) + 0.5, requires_grad=True)
    check(lambda: ad.mean(ad.log(z)), [z])


def test_grad_broadcasting():
    rng = np.random.default_rng(1)
    x = t64(rng, 4, 5)
    b = t64(rng, 5)
    check(lambda: ad.mean(x + b), [x, b])
    check(lambda: ad.mean(x * b), [x, b])


def test_grad_matmul_linear():
    rng = np.random.default_rng(2)
    x = t64(rng, 3, 4)
    w = t64(rng, 4, 2)
    b = t64(rng, 2)
    check(lambda: ad.mean(nn.linear(x, w, b)), [x, w, b])


def test_grad_reductions_and_shapes():
    rng = np.random.default_rng(3)
    x = t64(rng, 2, 3, 4)
    check(lambda: ad.tensor_sum(x), [x])
    check(lambda: ad.mean(ad.tensor_sum(x, axis=1)), [x])
    check(lambda: ad.mean(ad.reshape(x, (6, 4))), [x])
    y = t64(rng, 2, 5)
    check(lambda: ad.mean(ad.index_select(y, np.array([1, 1, 0]), axis=0)),
          [y])
    a = t64(rng, 2, 3)
    b = t64(rng, 2, 2)
    check(lambda: ad.mean(ad.concat([a, b], axis=1)), [a, b])


def test_grad_clamps():
    rng = np.random.default_rng(4)
    # keep values away from the clamp corners
    x = ad.Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    x.data[np.abs(x.data - 1.0) < 0.05] += 0.2
    x.data[np.abs(x.data + 1.0) < 0.05] -= 0.2
    check(lambda: ad.mean(ad.clip(x, -np.inf, 1.0)), [x])
    check(lambda: ad.mean(ad.clip(x, -1.0, 1.0)), [x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_unary_gradients_at_kinks(dtype):
    """The finite-difference checks stay off kinks; this pins, bit for
    bit, the gradient each kinked op returns on and beside its kink."""
    def grad(op, values):
        x = ad.Tensor(np.array(values, dtype=dtype), requires_grad=True)
        ad.tensor_sum(op(x)).backward()
        assert x.grad.dtype == dtype
        return x.grad.tolist()

    assert grad(ad.relu, [0.0, 0.5]) == [0.0, 1.0]
    assert grad(ad.absolute, [0.0, -0.0, -0.5]) == [0.0, 0.0, -1.0]
    assert grad(lambda x: ad.clip(x, -1.0, 1.0),
                [-1.0, 1.0, -0.5, 0.5, -2.0, 2.0]) == [0, 0, 1, 1, 0, 0]
    # the consistency margin's form, at and below BETA
    assert grad(lambda x: ad.clip(x, -np.inf, objectives.BETA),
                [objectives.BETA, objectives.BETA / 2]) == [0.0, 1.0]


def test_grad_losses():
    rng = np.random.default_rng(5)
    p = ad.Tensor(rng.uniform(0.1, 0.9, size=6), requires_grad=True)
    tgt = (rng.random(6) > 0.5).astype(np.float64)
    check(lambda: ad.bce_loss(p, tgt), [p])
    x = t64(rng, 6)
    target = rng.normal(size=6)
    check(lambda: ad.l1_loss(x, target), [x])


# --------------------------------------------------------- network ops

def test_grad_conv1d():
    rng = np.random.default_rng(6)
    x = t64(rng, 2, 3, 8)
    w = t64(rng, 4, 3, 3, scale=0.5)
    b = t64(rng, 4)
    check(lambda: ad.mean(nn.conv1d(x, w, b)), [x, w, b])
    # even kernel (the pooling blocks use K=4)
    w4 = t64(rng, 2, 3, 4, scale=0.5)
    b4 = t64(rng, 2)
    check(lambda: ad.mean(nn.conv1d(x, w4, b4)), [x, w4, b4])
    # one input channel (enc.pool0) and the 1-tap residual convs
    x1 = t64(rng, 2, 1, 9)
    w14 = t64(rng, 3, 1, 4, scale=0.5)
    b14 = t64(rng, 3)
    check(lambda: ad.mean(nn.conv1d(x1, w14, b14)), [x1, w14, b14])
    w1 = t64(rng, 4, 3, 1, scale=0.5)
    check(lambda: ad.mean(nn.conv1d(x, w1, b)), [x, w1, b])


def _conv1d_direct(x, w, b, g):
    """The direct sum y[b,f,t] = b[f] + sum_ck w[f,c,k] x[b,c,t+k-pl] and
    its adjoint for the output gradient g: (y, dx, dw, db)."""
    K, T = w.shape[2], x.shape[2]
    pl = (K - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pl, K - 1 - pl)))
    y = b[None, :, None] + np.stack(
        [np.einsum("fck,bck->bf", w, xp[:, :, t:t + K]) for t in range(T)],
        axis=2)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for t in range(T):
        dxp[:, :, t:t + K] += np.einsum("bf,fck->bck", g[:, :, t], w)
        dw += np.einsum("bf,bck->fck", g[:, :, t], xp[:, :, t:t + K])
    return y, dxp[:, :, pl:pl + T], dw, g.sum(axis=(0, 2))


def test_conv1d_matches_direct_sum():
    # each row is one GEMM over stacked, zero-filled tap shifts; T=7 with
    # K=4 leaves both edges of every shifted block out of range
    rng = np.random.default_rng(16)
    for C in (2, 1):
        x = rng.normal(size=(3, C, 7))
        for K in (1, 3, 4):
            w = rng.normal(size=(5, C, K))
            b = rng.normal(size=5)
            g = rng.normal(size=(3, 5, 7))
            want, dx, dw, db = _conv1d_direct(x, w, b, g)
            xt, wt, bt = (ad.Tensor(a.copy(), requires_grad=True)
                          for a in (x, w, b))
            y = nn.conv1d(xt, wt, bt)
            assert y.data.shape == (3, 5, 7) and y.data.flags.c_contiguous
            np.testing.assert_allclose(y.data, want, rtol=0, atol=1e-12)
            ad.tensor_sum(y * ad.Tensor(g)).backward()
            np.testing.assert_allclose(xt.grad, dx, rtol=0, atol=1e-12)
            np.testing.assert_allclose(wt.grad, dw, rtol=0, atol=1e-12)
            np.testing.assert_allclose(bt.grad, db, rtol=0, atol=1e-12)


def test_conv1d_keeps_no_batch_copy():
    # the graph may keep x, w, b and the (F, K*C) weight matrix, but no
    # padded or column copy of the batch: columns are rebuilt in backward
    rng = np.random.default_rng(17)
    x = ad.Tensor(rng.normal(size=(8, 1, 48000)).astype(np.float32),
                  requires_grad=True)
    w = ad.Tensor(rng.normal(size=(8, 1, 4)).astype(np.float32),
                  requires_grad=True)
    b = ad.Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = nn.conv1d(x, w, b)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert retained - y.data.nbytes < 64 * 1024


def test_grad_blurpool():
    rng = np.random.default_rng(7)
    x = t64(rng, 2, 3, 21)
    check(lambda: ad.mean(nn.blurpool(x, 4)), [x])
    # every length mod 4 sets the last window and the reflected edges
    # apart; random weights give each output its own gradient
    for T in (20, 22, 23):
        x = t64(rng, 2, 3, T)
        w = ad.Tensor(rng.normal(size=(2, 3, -(-T // 4))))
        check(lambda: ad.mean(nn.blurpool(x, 4) * w), [x])


def test_blurpool_backward_keeps_no_padded_copy():
    # dx is written directly: no (B, C, T+4) buffer, which with its
    # fold-back copy into dx took twice the size of dx
    rng = np.random.default_rng(18)
    x = ad.Tensor(rng.normal(size=(8, 4, 48000)).astype(np.float32),
                  requires_grad=True)
    y = nn.blurpool(x, 4)
    g = rng.normal(size=y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.data.shape
    assert peak < 1.5 * x.data.nbytes


def _bn_state(rng, C, dtype):
    """A BatchNorm of C channels with random gamma, beta and running stats."""
    state = nn.BatchNorm(C, dtype=dtype)
    state.gamma.data[...] = rng.uniform(0.5, 1.5, C)
    state.beta.data[...] = rng.normal(0, 0.5, C)
    state.running_mean[...] = rng.normal(size=C)
    state.running_var[...] = rng.uniform(0.5, 2.0, C)
    return state


@pytest.mark.parametrize("train", [True, False])
def test_grad_blurpool_bn(train):
    rng = np.random.default_rng(21)
    state = _bn_state(rng, 3, np.float64)
    for T in (20, 22, 23):
        x = t64(rng, 2, 3, T)
        w = ad.Tensor(rng.normal(size=(2, 3, -(-T // 4))))

        def fn():
            # keep running stats fixed so repeated forwards are identical
            saved = state.running_mean.copy(), state.running_var.copy()
            out = ad.mean(nn.blurpool(x, 4, bn=state, train=train) * w)
            state.running_mean, state.running_var = saved
            return out

        check(fn, [x, state.gamma, state.beta])


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("shape", [(3, 8, 48128), (4, 128, 188)],
                         ids=["pool0", "res"])
def test_blurpool_bn_matches_batchnorm_then_blurpool(shape, train):
    """The BatchNorm prologue gives the bits of batchnorm(relu=True) then
    blurpool: y, every gradient and both running stats."""
    rng = np.random.default_rng(22)
    C = shape[1]
    x = (rng.normal(0, 2, (1, C, 1))
         + rng.normal(size=shape)).astype(np.float32)
    g = rng.normal(size=shape[:2] + (-(-shape[2] // 4),)).astype(np.float32)
    out = []
    for fused in (True, False):
        state = _bn_state(np.random.default_rng(23), C, np.float32)
        xt = ad.Tensor(x, requires_grad=True)
        if fused:
            y = nn.blurpool(xt, 4, bn=state, train=train)
        else:
            y = nn.blurpool(state(xt, train, relu=True), 4)
        ad.tensor_sum(y * ad.Tensor(g)).backward()
        out.append((y.data, xt.grad, state.gamma.grad, state.beta.grad,
                    state.running_mean, state.running_var))
    for name, a, b in zip(("y", "dx", "dgamma", "dbeta", "running_mean",
                           "running_var"), *out):
        assert a.dtype == np.float32 and np.array_equal(a, b), name


def test_blurpool_bn_keeps_no_batch_copy():
    # the graph keeps x and the output, no normalized or padded batch, and
    # the backward makes dx and a few rows
    rng = np.random.default_rng(24)
    x = ad.Tensor(rng.normal(size=(8, 4, 48000)).astype(np.float32),
                  requires_grad=True)
    state = nn.BatchNorm(4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = nn.blurpool(x, 4, bn=state, train=True)
        retained = tracemalloc.get_traced_memory()[0] - before
        g = rng.normal(size=y.shape).astype(np.float32)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert retained - y.data.nbytes < 64 * 1024
    assert x.grad.shape == x.data.shape and state.gamma.grad is not None
    assert peak < 1.5 * x.data.nbytes


def test_grad_mu_law():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.uniform(-1, 1, size=(2, 1, 16)), requires_grad=True)
    m = ad.Tensor(np.array(5.0), requires_grad=True)
    check(lambda: ad.mean(nn.mu_law_compand(x, m)), [x, m])


def _mu_law_formula(x, m, g):
    """mu_law_compand's output and its x and mu gradients for the upstream
    gradient g, each from its closed form with every temporary kept."""
    ax, sign = np.abs(x), np.sign(x)
    L = float(np.log1p(m))
    gnum = np.log1p(m * ax)
    dmu = sign * (ax / (1.0 + m * ax) * L - gnum / (1.0 + m)) / (L * L)
    return (sign * gnum / L, g * m / ((1.0 + m * ax) * L),
            np.array((g * dmu).sum(), dtype=np.float32))


def test_mu_law_matches_the_formula_bit_for_bit():
    rng = np.random.default_rng(19)
    x = rng.normal(scale=0.3, size=(3, 1, 1000)).astype(np.float32)
    x[0, 0, :6] = [0.0, -0.0, 1.0, -1.0, 1e-30, -7.5]
    g = rng.normal(size=x.shape).astype(np.float32)
    xt = ad.Tensor(x, requires_grad=True)
    mt = ad.Tensor(np.array(8.0, dtype=np.float32), requires_grad=True)
    y = nn.mu_law_compand(xt, mt)
    y._backward(g)
    want = _mu_law_formula(x, 8.0, g)
    for got, w in zip((y.data, xt.grad, mt.grad), want):
        assert got.dtype == w.dtype == np.float32
        assert got.tobytes() == w.tobytes()


def test_mu_law_mu_gradient_matches_the_formula_at_batch_size():
    # the mu gradient is formed in two reused buffers; at a training
    # batch's row length it keeps the closed form's bits
    rng = np.random.default_rng(25)
    x = rng.normal(scale=0.3, size=(8, 1, 48128)).astype(np.float32)
    x[3, 0, :4] = [0.0, -0.0, 1.0, -1.0]
    g = rng.normal(size=x.shape).astype(np.float32)
    mt = ad.Tensor(np.array(8.0, dtype=np.float32), requires_grad=True)
    nn.mu_law_compand(ad.Tensor(x), mt)._backward(g)
    assert mt.grad.tobytes() == _mu_law_formula(x, 8.0, g)[2].tobytes()


def test_mu_law_forward_holds_only_its_output():
    x = np.random.default_rng(20).normal(
        size=(16, 1, 48128)).astype(np.float32)
    tracemalloc.start()
    try:
        with ad.no_grad():
            before = tracemalloc.get_traced_memory()[0]
            y = nn.mu_law_compand(x, 8.0)
            peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert y.data.shape == x.shape
    assert peak <= 2 * x.nbytes + 65536


def test_grad_stats_pool():
    rng = np.random.default_rng(9)
    x = t64(rng, 2, 3, 10)
    check(lambda: ad.mean(nn.stats_pool(x)), [x])


@pytest.mark.parametrize(
    "train, relu", [(True, False), (False, False), (True, True),
                    (False, True)],
    ids=["True", "False", "True-relu", "False-relu"])
def test_grad_batchnorm(train, relu):
    rng = np.random.default_rng(10)
    x = t64(rng, 4, 3, 6)
    gamma = ad.Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
    beta = t64(rng, 3)
    state = nn.BatchNorm(3, dtype=np.float64)
    state.running_mean = rng.normal(size=3)
    state.running_var = rng.uniform(0.5, 2.0, size=3)

    def fn():
        # keep running stats fixed so repeated forwards are identical
        saved = state.running_mean.copy(), state.running_var.copy()
        out = ad.mean(nn.batchnorm(x, gamma, beta, state, train, relu))
        state.running_mean, state.running_var = saved
        return out

    check(fn, [x, gamma, beta])


def test_grad_gated_residual():
    rng = np.random.default_rng(12)
    h = t64(rng, 2, 3, 5)
    f = t64(rng, 2, 3, 5)
    gate = t64(rng, 3)
    w = ad.Tensor(rng.normal(size=(2, 3, 5)))
    check(lambda: ad.mean(nn.gated_residual(h, f, gate) * w), [h, f, gate])


def test_batchnorm_train_stores_batch_stats():
    """Train mode stores its batch statistics as the running stats, so an
    eval-mode pass over the same batch gives the same output."""
    x = np.random.default_rng(11).normal(2.0, 3.0, size=(5, 3, 7))
    state = nn.BatchNorm(3, dtype=np.float64)
    y_train = nn.batchnorm(x, state.gamma, state.beta, state, True).data
    np.testing.assert_allclose(state.running_mean, x.mean(axis=(0, 2)),
                               rtol=1e-12)
    np.testing.assert_allclose(state.running_var, x.var(axis=(0, 2)),
                               rtol=1e-10)
    y_eval = nn.batchnorm(x, state.gamma, state.beta, state, False).data
    np.testing.assert_allclose(y_eval, y_train, rtol=1e-10, atol=1e-12)


def _bn_forward_backward(x, g, gamma, beta, relu):
    """Train-mode nn.batchnorm on x with upstream gradient g, all in x's
    dtype: (y, dx, dgamma, dbeta, state)."""
    state = nn.BatchNorm(x.shape[1], dtype=x.dtype)
    state.gamma.data[...] = gamma
    state.beta.data[...] = beta
    xt = ad.Tensor(x, requires_grad=True)
    y = nn.batchnorm(xt, state.gamma, state.beta, state, True, relu)
    ad.tensor_sum(y * ad.Tensor(g)).backward()
    return y.data, xt.grad, state.gamma.grad, state.beta.grad, state


@pytest.mark.parametrize("ratio", [1e3, 1e4])
@pytest.mark.parametrize("shape", [(4, 8, 4096), (512, 16)],
                         ids=["BCT", "BF"])
def test_batchnorm_float32_with_large_means(shape, ratio):
    """float32 channels whose means are `ratio` standard deviations. The
    pilot shift keeps the one-pass variance of _channel_moments within
    1e-5 of a float64 two-pass one (unshifted float32 row sums lose it to
    cancellation), and centring x on mu keeps dgamma within 1e-5 (of its
    max abs) of the float64 sum(g * (x - mu)) / sqrt(var + eps) of the
    same mu and var."""
    rng = np.random.default_rng(13)
    C = shape[1]
    std = rng.uniform(0.5, 2.0, C)
    mean = ratio * std * rng.choice([-1.0, 1.0], C)
    at = (1, C, 1)[:len(shape)]
    x = (mean.reshape(at) + std.reshape(at) * rng.normal(size=shape))
    x = x.astype(np.float32)
    x64 = nn._as3(x).astype(np.float64)
    ref_mu = x64.mean(axis=(0, 2))
    ref_var = ((x64 - ref_mu[:, None]) ** 2).mean(axis=(0, 2))
    mu, var = nn._channel_moments(nn._as3(x))
    np.testing.assert_allclose(mu, ref_mu, rtol=1e-6)
    np.testing.assert_allclose(var, ref_var, rtol=1e-5)

    g = rng.normal(size=shape).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, C).astype(np.float32)
    *_, dgamma, _, state = _bn_forward_backward(x, g, gamma, 0 * gamma,
                                                False)
    mu64 = state.running_mean.astype(np.float64)
    ivstd = 1 / np.sqrt(state.running_var.astype(np.float64) + nn.BN_EPS)
    ref = np.einsum("bct,bct->c", nn._as3(g).astype(np.float64),
                    x64 - mu64[:, None]) * ivstd
    assert np.max(np.abs(dgamma - ref)) < 1e-5 * np.max(np.abs(ref))


@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
def test_batchnorm_float32_matches_float64(relu):
    """One input at the enc.pool0 shape, normalised once in float32 (row
    sums in float32, accumulated in float64) and once in float64: y, dx,
    dgamma and dbeta agree within 1e-5 of each array's max abs."""
    rng = np.random.default_rng(14)
    C = 8
    mean, std = rng.normal(0, 2, (1, C, 1)), rng.uniform(0.5, 2, (1, C, 1))
    x = rng.normal(mean, std, size=(4, C, 48128)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    gamma = rng.uniform(0.5, 1.5, C).astype(np.float32)
    beta = rng.normal(0, 0.5, C).astype(np.float32)
    r32 = _bn_forward_backward(x, g, gamma, beta, relu)[:4]
    r64 = _bn_forward_backward(*(a.astype(np.float64)
                                 for a in (x, g, gamma, beta)), relu)[:4]
    for name, a32, a64 in zip(("y", "dx", "dgamma", "dbeta"), r32, r64):
        assert a32.dtype == np.float32
        err = np.max(np.abs(a32 - a64)) / np.max(np.abs(a64))
        assert err < 1e-5, "%s: %g" % (name, err)


_BN_DIGEST = """
import hashlib, json, sys
import numpy as np
from sesqa import ad, nn
h = hashlib.sha256()
for i, shape in enumerate(json.loads(sys.argv[1])):
    rng = np.random.default_rng(i)
    C = shape[1]
    at = (1, C, 1)[:len(shape)]
    x = (rng.normal(size=at) + rng.normal(size=shape)).astype(np.float32)
    g = rng.normal(size=shape).astype(np.float32)
    for relu in (False, True):
        state = nn.BatchNorm(C)
        xt = ad.Tensor(x, requires_grad=True)
        y = nn.batchnorm(xt, state.gamma, state.beta, state, True, relu)
        ad.tensor_sum(y * ad.Tensor(g)).backward()
        for a in (y.data, xt.grad, state.gamma.grad, state.beta.grad,
                  state.running_mean, state.running_var):
            h.update(a.tobytes())
    if len(shape) == 3:   # the BatchNorm prologue of blurpool
        state = nn.BatchNorm(C)
        xt = ad.Tensor(x, requires_grad=True)
        y = nn.blurpool(xt, 4, bn=state, train=True)
        g4 = rng.normal(size=y.shape).astype(np.float32)
        ad.tensor_sum(y * ad.Tensor(g4)).backward()
        for a in (y.data, xt.grad, state.gamma.grad, state.beta.grad,
                  state.running_mean, state.running_var):
            h.update(a.tobytes())
print(h.hexdigest())
"""


def test_batchnorm_bits_do_not_depend_on_blas_threads():
    """Train-mode BatchNorm forward and backward, alone and as the prologue
    of blurpool, run at 1 and at 2 BLAS threads in two fresh processes,
    give bit-identical outputs: the GEMV row sums add no thread-count
    dependence of their own."""
    shapes = [(4, 8, 48128), (4, 16, 12032), (4, 128, 188), (44, 400),
              (3, 5, 999)]
    src = str(Path(nn.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _BN_DIGEST,
                              json.dumps(shapes)],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        digests.add(run.stdout)
    assert len(digests) == 1


# ---------------------------------------- full architecture composition

def _mini_encoder_params(rng, n_res=6):
    """Float64 miniature of the encoder: same op sequence, tiny widths."""
    P = {"m": ad.Tensor(np.array(2.0), requires_grad=True)}
    c_in = 1
    for i in range(4):
        P["p%d.w" % i] = t64(rng, 2, c_in, 4, scale=0.4)
        P["p%d.b" % i] = t64(rng, 2, scale=0.1)
        P["p%d.g" % i] = ad.Tensor(rng.uniform(0.8, 1.2, 2),
                                   requires_grad=True)
        P["p%d.be" % i] = t64(rng, 2, scale=0.1)
        c_in = 2
    for r in range(n_res):
        for j, (f, c, k) in enumerate(((3, 2, 1), (3, 3, 3), (2, 3, 1))):
            P["r%d.%d.w" % (r, j)] = t64(rng, f, c, k, scale=0.4)
            P["r%d.%d.b" % (r, j)] = t64(rng, f, scale=0.1)
        P["r%d.gate" % r] = ad.Tensor(rng.uniform(-1, 1, 2),
                                      requires_grad=True)
    P["mlp0.w"] = t64(rng, 4, 6, scale=0.4)
    P["mlp0.b"] = t64(rng, 6, scale=0.1)
    P["mlp1.w"] = t64(rng, 6, 4, scale=0.4)
    P["mlp1.b"] = t64(rng, 4, scale=0.1)
    P["score.w"] = t64(rng, 4, 1, scale=0.4)
    P["score.b"] = t64(rng, 1, scale=0.1)
    return P


def _mini_encode(x, P, n_res=6):
    h = nn.mu_law_compand(x, ad.softplus(P["m"]))
    for i in range(4):
        h = nn.conv1d(h, P["p%d.w" % i], P["p%d.b" % i])
        h = ad.relu(ad.reshape(P["p%d.g" % i], (1, -1, 1)) * h
                    + ad.reshape(P["p%d.be" % i], (1, -1, 1)))
        h = nn.blurpool(h, 4)
    for r in range(n_res):
        f = h
        for j in range(3):
            f = ad.relu(f)
            f = nn.conv1d(f, P["r%d.%d.w" % (r, j)], P["r%d.%d.b" % (r, j)])
        gate = ad.reshape(ad.sigmoid(P["r%d.gate" % r]), (1, -1, 1))
        h = gate * h + ad.add_const(ad.mul_const(gate, -1.0), 1.0) * f
    h = nn.stats_pool(h)
    h = ad.relu(nn.linear(h, P["mlp0.w"], P["mlp0.b"]))
    return nn.linear(h, P["mlp1.w"], P["mlp1.b"])


def _mini_score(z, P):
    logit = nn.linear(z, P["score.w"], P["score.b"])
    return ad.reshape(ad.add_const(ad.mul_const(ad.sigmoid(logit), 4.0),
                                   1.0), (-1,))


def _check_composite(loss_fn, seed):
    """Gradient-check loss_fn(scores...) through the full mini encoder at
    10 random coordinates of representative parameter tensors."""
    rng = np.random.default_rng(seed)
    P = _mini_encoder_params(rng)
    x = ad.Tensor(rng.uniform(-0.9, 0.9, size=(4, 1, 320)))

    def fn():
        z = _mini_encode(x, P)
        return loss_fn(z, P)

    probes = [P["p0.w"], P["r0.1.w"], P["r5.gate"], P["mlp0.w"],
              P["score.w"], P["m"]]
    err = gradient_check(fn, probes, n_coords=2,
                         rng=np.random.default_rng(seed + 1))
    assert err < TOL, "composite gradient mismatch: %g" % err


def test_grad_encoder_mos():
    _check_composite(
        lambda z, P: ad.l1_loss(_mini_score(z, P), np.array([2., 3., 4., 3.5])),
        seed=20)


def test_grad_encoder_rank():
    def loss(z, P):
        s = _mini_score(z, P)
        return objectives.loss_rank(ad.index_select(s, np.array([0, 1])),
                                    ad.index_select(s, np.array([2, 3])))
    _check_composite(loss, seed=21)


def test_grad_encoder_cons():
    def loss(z, P):
        s = _mini_score(z, P)
        pick = lambda i: ad.index_select(s, np.array([i]))
        return objectives.loss_cons(pick(0), pick(1), pick(2), pick(3))
    _check_composite(loss, seed=22)


def test_grad_encoder_classification_losses():
    rng = np.random.default_rng(23)
    tgt_bin = np.array([1.0, 0.0])
    tgt_dt = (rng.random((4, 3)) > 0.5).astype(np.float64)
    tgt_ds = rng.uniform(0, 1, size=(4, 4))

    def sd_like(z, P):
        za = ad.index_select(z, np.array([0, 1]), axis=0)
        zb = ad.index_select(z, np.array([2, 3]), axis=0)
        pair = ad.concat([za, zb], axis=1)
        p = ad.sigmoid(nn.linear(pair, P["sd.w"], P["sd.b"]))
        return objectives.loss_sd(ad.reshape(p, (-1,)), tgt_bin)

    def dt_like(z, P):
        p = ad.sigmoid(nn.linear(z, P["dt.w"], P["dt.b"]))
        return objectives.loss_dt(p, tgt_dt)

    def ds_like(z, P):
        p = ad.sigmoid(nn.linear(z, P["ds.w"], P["ds.b"]))
        return objectives.loss_ds(p, tgt_ds)

    def mr_like(z, P):
        za = ad.index_select(z, np.array([0, 1]), axis=0)
        zb = ad.index_select(z, np.array([2, 3]), axis=0)
        p = nn.linear(ad.concat([za, zb], axis=1), P["mr.w"], P["mr.b"])
        return objectives.loss_mr(p, np.array([[0.5, -1.0], [2.0, 0.3]]),
                                  mask=np.array([[1.0, 1.0], [1.0, 0.0]]))

    for seed, loss in ((24, sd_like), (25, dt_like), (26, ds_like),
                       (27, mr_like)):
        rng2 = np.random.default_rng(seed)
        P = _mini_encoder_params(rng2)
        P["sd.w"], P["sd.b"] = t64(rng2, 8, 1), t64(rng2, 1)
        P["dt.w"], P["dt.b"] = t64(rng2, 4, 3), t64(rng2, 3)
        P["ds.w"], P["ds.b"] = t64(rng2, 4, 4), t64(rng2, 4)
        P["mr.w"], P["mr.b"] = t64(rng2, 8, 2), t64(rng2, 2)
        x = ad.Tensor(rng2.uniform(-0.9, 0.9, size=(4, 1, 320)))

        def fn(loss=loss, P=P, x=x):
            return loss(_mini_encode(x, P), P)

        probes = [P["p0.w"], P["r3.0.w"], P["mlp1.w"]]
        err = gradient_check(fn, probes, n_coords=2,
                             rng=np.random.default_rng(seed + 100))
        assert err < TOL, "composite gradient mismatch: %g" % err


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_grad_accumulates_over_reuse():
    x = ad.Tensor(np.array(2.0), requires_grad=True)
    y = x * x  # dy/dx = 2x through two paths
    y.backward()
    assert np.isclose(x.grad, 4.0)


def test_accum_never_writes_a_shared_gradient():
    u = ad.Tensor(np.ones(3), requires_grad=True)
    v = ad.Tensor(np.ones(3), requires_grad=True)
    # the outer add hands one array to the inner add and to u; u then
    # takes a second gradient, and the inner add passes its array on to v
    b = ad.add(ad.add(u, v), u)
    ad.tensor_sum(ad.mul_const(b, 1.0)).backward()
    np.testing.assert_array_equal(v.grad, 1.0)
    np.testing.assert_array_equal(u.grad, 2.0)
    # a float64 term does not promote a float32 gradient
    w = ad.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    ad._accum(w, np.ones(2, dtype=np.float32))
    ad._accum(w, np.ones(2))
    assert w.grad.dtype == np.float32


def test_no_grad_records_no_graph():
    w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    b = ad.Tensor(np.zeros(2), requires_grad=True)
    x = np.ones((4, 3))
    with ad.no_grad():
        with ad.no_grad():
            y = ad.relu(nn.linear(x, w, b))
        # the outer block still holds after the inner one exits
        y2 = nn.linear(x, w, b)
    for out in (y, y2):
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    # the graph is recorded again once the block is left
    assert nn.linear(x, w, b).requires_grad


def test_no_grad_restores_flag_after_exception():
    w = ad.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside the block")
    assert ad.add(w, w).requires_grad
