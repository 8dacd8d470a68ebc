"""Finite-difference validation of the autodiff core and the network ops.

Everything runs in float64; the checker nudges values off kinks (relu/abs
at zero) before comparing. Tolerance is 1e-5 relative error.
"""

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
    check(lambda: ad.mean(ad.exp(ad.mul_const(x, 0.3))), [x])
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
    check(lambda: ad.mean(x @ w), [x, w])
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
    check(lambda: ad.mean(ad.clamp_max(x, 1.0)), [x])
    check(lambda: ad.mean(ad.clip(x, -1.0, 1.0)), [x])


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


def test_conv1d_matches_direct_sum():
    # the forward pass folds the batch into one matrix; no output column
    # may pick up samples from a neighbouring row
    rng = np.random.default_rng(16)
    x = rng.normal(size=(3, 2, 7))
    for K in (1, 3, 4):
        w = rng.normal(size=(5, 2, K))
        b = rng.normal(size=5)
        pl = (K - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (pl, K - 1 - pl)))
        want = b[None, :, None] + np.stack(
            [np.einsum("fck,bck->bf", w, xp[:, :, t:t + K]) for t in range(7)],
            axis=2)
        got = nn.conv1d(x, w, b).data
        assert got.shape == (3, 5, 7) and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_grad_blurpool():
    rng = np.random.default_rng(7)
    x = t64(rng, 2, 3, 21)
    check(lambda: ad.mean(nn.blurpool(x, 4)), [x])


def test_grad_mu_law():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.uniform(-1, 1, size=(2, 1, 16)), requires_grad=True)
    m = ad.Tensor(np.array(5.0), requires_grad=True)
    check(lambda: ad.mean(nn.mu_law_compand(x, m)), [x, m])


def test_grad_stats_pool():
    rng = np.random.default_rng(9)
    x = t64(rng, 2, 3, 10)
    check(lambda: ad.mean(nn.stats_pool(x)), [x])


@pytest.mark.parametrize("train", [True, False])
def test_grad_batchnorm(train):
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
        out = ad.mean(nn.batchnorm(x, gamma, beta, state, train))
        state.running_mean, state.running_var = saved
        return out

    check(fn, [x, gamma, beta])


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


def test_no_grad_records_no_graph():
    w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
    b = ad.Tensor(np.zeros(2), requires_grad=True)
    x = np.ones((4, 3))
    with ad.no_grad():
        with ad.no_grad():
            y = ad.relu(ad.matmul(x, w))
        # the outer block still holds after the inner one exits
        y2 = nn.linear(x, w, b)
    for out in (y, y2):
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    # the graph is recorded again once the block is left
    assert ad.matmul(x, w).requires_grad


def test_no_grad_restores_flag_after_exception():
    w = ad.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside the block")
    assert ad.add(w, w).requires_grad
