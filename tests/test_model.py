import copy
import hashlib
import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sesqa import ad, cli, model, nn
from sesqa.audio import write_wav
from sesqa.measures import MeasureNormalizer
from sesqa.model import (INFER_BATCH, LATENT_DIM, MIN_INPUT_SAMPLES,
                         CheckpointError, Model, ModelConfig, load_checkpoint,
                         save_checkpoint)

from conftest import speechlike

RATE = 48000


@pytest.fixture(scope="module")
def full_model():
    return Model(ModelConfig(channel_mult=1.0, seed=0))


@pytest.fixture(scope="module")
def small_model():
    return Model(ModelConfig(channel_mult=0.25, measure_names=("ssnr", "llr"),
                             seed=3))


def test_shapes_full_multiplier(full_model):
    x = speechlike(seed=0, seconds=1.0).samples[None, :]
    assert x.shape == (1, RATE)
    z = full_model.encode(x)
    assert z.data.shape == (1, LATENT_DIM) == (1, 200)
    assert full_model.stats_dim == 512
    s = full_model.score(z)
    assert s.data.shape == (1,)
    assert 1.0 < float(s.data[0]) < 5.0


def test_latent_dim_invariant_to_length(full_model):
    for seconds in (1.0, 1.5):
        x = speechlike(seed=1, seconds=seconds).samples[None, :]
        z = full_model.encode(x)
        assert z.data.shape == (1, 200)


def _unfused_encode(m, frames, train):
    """Model.encode as separate ops: each BatchNorm then its own ReLU, and
    the gated residual as g*h + (1-g)*f from seven autodiff ops."""
    p, bns = m.params, m.bns
    h = nn.mu_law_compand(ad.Tensor(m._prepare(frames)),
                          ad.softplus(p["enc.m"]))
    for i in range(4):
        h = nn.conv1d(h, p["enc.pool%d.w" % i], p["enc.pool%d.b" % i])
        h = nn.blurpool(ad.relu(bns["enc.pool%d.bn" % i](h, train)), 4)
    for r in range(6):
        f = bns["enc.res%d.bn_pre" % r](h, train)
        for j in range(3):
            f = nn.conv1d(ad.relu(f), p["enc.res%d.conv%d.w" % (r, j)],
                          p["enc.res%d.conv%d.b" % (r, j)])
            f = bns["enc.res%d.conv%d.bn" % (r, j)](f, train)
        g = ad.reshape(ad.sigmoid(p["enc.res%d.gate" % r]), (1, -1, 1))
        h = g * h + ad.add_const(ad.mul_const(g, -1.0), 1.0) * f
    h = bns["enc.stats_bn"](nn.stats_pool(h), train)
    h = nn.linear(h, p["enc.mlp0.w"], p["enc.mlp0.b"])
    h = ad.relu(bns["enc.mlp0.bn"](h, train))
    h = nn.linear(h, p["enc.mlp1.w"], p["enc.mlp1.b"])
    return bns["enc.mlp1.bn"](h, train)


@pytest.mark.parametrize("train", [True, False])
def test_encode_matches_unfused_ops(monkeypatch, train):
    # float64, so that only the order of summation can differ
    monkeypatch.setattr(model, "DTYPE", np.float64)
    m = Model(ModelConfig(channel_mult=0.125, seed=5))
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.9, 0.9, size=(6, 4096))
    w = rng.normal(size=(6, LATENT_DIM))
    out = []
    for encode in (m.encode, lambda x, train: _unfused_encode(m, x, train)):
        for t in m.params.values():
            t.grad = None
        z = encode(x, train=train)
        ad.mean(z * ad.Tensor(w)).backward()
        out.append((z.data, {n: t.grad for n, t in m.params.items()
                             if t.grad is not None}))
    (z, grads), (z_ref, grads_ref) = out
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-10)
    assert grads.keys() == grads_ref.keys() and len(grads) > 100
    for name, g_ref in grads_ref.items():
        # the biases in front of a train-mode BatchNorm have a gradient
        # that is zero in exact arithmetic, so 1e-15 is added to the bound
        err = np.abs(grads[name] - g_ref).max()
        assert err <= 1e-10 * np.abs(g_ref).max() + 1e-15, (name, err)


def test_too_short_input_rejected(small_model):
    with pytest.raises(ValueError):
        small_model.encode(np.zeros((1, MIN_INPUT_SAMPLES - 1),
                                    dtype=np.float32))
    # exactly the minimum is fine
    z = small_model.encode(np.zeros((1, MIN_INPUT_SAMPLES), dtype=np.float32))
    assert z.data.shape == (1, 200)


def test_eval_forward_deterministic(small_model):
    x = speechlike(seed=2, seconds=1.0).samples[None, :]
    z0 = small_model.encode(x).data
    z1 = small_model.encode(x).data
    np.testing.assert_array_equal(z0, z1)


def _check_infer_rows(m, frames, z, s):
    """Each row of infer's latents `z` and scores `s` against
    encode(train=False) of that row alone and its score. One row against a
    batch: BLAS may sum in another order, and infer folds each BatchNorm
    into its layer, so float32 allows rounding relative to the latents'
    scale; in float64 only a fold error could exceed 1e-10."""
    if m.params["enc.m"].data.dtype == np.float64:
        z_tol, s_rtol = {"rtol": 0, "atol": 1e-10}, 1e-10
    else:
        z_tol, s_rtol = {"rtol": 1e-4, "atol": 1e-4 * np.abs(z).max()}, 1e-5
    for i, x in enumerate(frames):
        z_ref = m.encode(x[None, :], train=False)
        np.testing.assert_allclose(z[i], z_ref.data[0], **z_tol)
        np.testing.assert_allclose(s[i], m.score(z_ref).data[0], rtol=s_rtol)


def test_infer_matches_encode_and_score_across_chunks(small_model):
    frames = [speechlike(seed=100 + i, seconds=1.0).samples
              for i in range(INFER_BATCH + 1)]
    z, s = small_model.infer(frames)
    assert z.shape == (INFER_BATCH + 1, LATENT_DIM)
    assert s.shape == (INFER_BATCH + 1,)
    _check_infer_rows(small_model, frames, z, s)
    z2, s2 = small_model.infer(np.stack(frames))
    np.testing.assert_array_equal(z2, z)
    np.testing.assert_array_equal(s2, s)


@pytest.mark.parametrize("seconds", [1.37, 6.0])
def test_infer_matches_encode_on_lengths(small_model, seconds):
    # 1.37 s is 65,760 samples, not a multiple of PAD_MULTIPLE
    frames = [speechlike(seed=11, seconds=seconds).samples]
    _check_infer_rows(small_model, frames, *small_model.infer(frames))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_infer_reads_the_current_state(monkeypatch, dtype):
    """infer builds its plan from the parameters and running stats of the
    moment: after each change below it matches encode(train=False) again.
    The biases are non-zero, and the BatchNorms are calibrated on the
    frames and then moved off those stats and off the identity affine,
    so that each change moves the latents and a fold error shows."""
    monkeypatch.setattr(model, "DTYPE", dtype)
    m = Model(ModelConfig(channel_mult=0.125, seed=5))
    rng = np.random.default_rng(7)
    for name, t in m.params.items():
        if name.endswith(".b"):
            t.data[...] = rng.normal(0.0, 0.1, t.data.shape)
    frames = [speechlike(seed=30 + i, seconds=1.0).samples for i in range(3)]
    with ad.no_grad():
        m.encode(np.stack(frames), train=True)
    for bn in m.bns.values():
        c = len(bn.running_mean)
        bn.running_mean += rng.normal(0.0, 0.3, c) * np.sqrt(bn.running_var)
        bn.running_var *= rng.uniform(0.5, 2.0, c)
        bn.gamma.data[...] = rng.uniform(0.5, 1.5, c)
        bn.beta.data[...] = rng.normal(0.0, 0.3, c)
    p, bn = m.params, m.bns["enc.res1.conv1.bn"]
    # each change in place, array <- array * scale + shift
    changes = ((p["enc.m"].data, 1.0, 1.0),
               (p["enc.res2.gate"].data, -1.0, 0),
               (p["enc.pool1.w"].data, 1.5, 0),
               (p["enc.pool1.b"].data, 1.0, 0.2),
               (bn.gamma.data, 2.0, 0),
               (bn.running_mean, 1.0, 0.5),
               (bn.running_var, 4.0, 0))
    z, s = m.infer(frames)
    _check_infer_rows(m, frames, z, s)
    for a, scale, shift in changes:
        a *= scale
        a += shift
        z_prev, (z, s) = z, m.infer(frames)
        assert z.dtype == s.dtype == dtype
        _check_infer_rows(m, frames, z, s)
        assert np.abs(z - z_prev).max() > 1e-2 * np.abs(z).max()


def test_infer_builds_no_graph(small_model, monkeypatch):
    # infer runs no encode; the autodiff ops it does run (mu-law
    # companding, stats pooling, the score head) record no graph
    made = []

    def recording(make):
        def wrapper(*args):
            made.append(make(*args))
            return made[-1]
        return wrapper

    monkeypatch.setattr(ad, "_make", recording(ad._make))
    monkeypatch.setattr(nn, "_make", recording(nn._make))
    for p in small_model.params.values():
        p.grad = None
    small_model.infer(np.stack([speechlike(seed=9, seconds=1.0).samples] * 2))
    assert made
    assert all(not t.requires_grad and t._parents == ()
               and t._backward is None for t in made)
    assert all(p.grad is None for p in small_model.params.values())


def test_infer_peak_memory_below_encode(small_model):
    # the fused pool rows make no (B, ch(32), T) pre-blur activation, so
    # all of infer peaks below that one array; encode's pool blocks make
    # none either (nn.blurpool's BatchNorm prologue), but keep the conv
    # output, and encode still peaks above infer
    x = np.stack([speechlike(seed=40 + i, seconds=1.0).samples
                  for i in range(INFER_BATCH)])
    T = -(-x.shape[1] // model.PAD_MULTIPLE) * model.PAD_MULTIPLE
    pre_blur = INFER_BATCH * small_model.config.ch(32) * T * 4

    def peak(run):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def encode():
        with ad.no_grad():
            small_model.encode(x, train=False)

    infer_peak = peak(lambda: small_model.infer(x))
    assert infer_peak < pre_blur
    assert infer_peak < peak(encode)


def test_score_reference(small_model):
    x = np.stack([speechlike(seed=4, seconds=1.0).samples,
                  speechlike(seed=5, seconds=1.0).samples])
    z, _ = small_model.infer(x)
    w = small_model.params["head.score.w"].data[:, 0].astype(np.float64)
    b = float(small_model.params["head.score.b"].data[0])
    s = small_model.score_reference(z[:1], z[1:])
    assert s.shape == (1,)
    assert 1.0 < float(s[0]) < 5.0
    logit = (z[0] - z[1]).astype(np.float64) @ w + b
    np.testing.assert_allclose(s[0], 1.0 + 4.0 / (1.0 + np.exp(-logit)),
                               rtol=1e-5)
    # identical latents land on the sigmoid midpoint of the bias
    mid = small_model.score_reference(z, z)
    np.testing.assert_allclose(mid, 1.0 + 4.0 / (1.0 + np.exp(-b)),
                               rtol=1e-6)


def test_scores_strictly_inside_range(small_model):
    # latents far out on either side of the score head saturate the
    # sigmoid; the clipped logit keeps 1 and 5 out of reach
    w = small_model.params["head.score.w"].data[:, 0]
    z = np.stack([300.0 * w, -300.0 * w]).astype(np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = small_model.score(z).data
        s_ref = small_model.score_reference(z, z[::-1])
    for scores in (s, s_ref):
        assert scores.dtype == np.float32
        assert np.all((scores > 1.0) & (scores < 5.0)), scores
        assert scores[0] > 4.999 and scores[1] < 1.001


def test_head_forward_shapes(small_model):
    m = small_model
    x = np.stack([speechlike(seed=6, seconds=1.0).samples,
                  speechlike(seed=7, seconds=1.0).samples])
    z = m.encode(x)
    assert m.head_forward("dt", z).data.shape == (2, 38)
    assert m.head_forward("ds", z).data.shape == (2, 37)
    za, zb = z, z
    assert m.head_forward("sd", za, zb).data.shape == (2, 1)
    assert m.head_forward("jnd", za, zb).data.shape == (2, 1)
    assert m.head_forward("mr", za, zb).data.shape == (2, 2)
    p = m.head_forward("sd", za, zb).data
    assert np.all((p > 0) & (p < 1))
    with pytest.raises(ValueError):
        m.head_forward("sd", za)          # pair head, one latent
    with pytest.raises(ValueError):
        m.head_forward("dt", za, zb)      # single head, two latents
    with pytest.raises(ValueError):
        m.head_forward("nope", za)


def test_checkpoint_roundtrip_bit_exact(tmp_path, small_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model, path)
    back = load_checkpoint(path)
    assert back.config == small_model.config

    a0 = small_model.state_arrays()
    a1 = back.state_arrays()
    assert set(a0) == set(a1)
    for k in a0:
        np.testing.assert_array_equal(a0[k], a1[k])

    x = speechlike(seed=8, seconds=1.0).samples[None, :]
    np.testing.assert_array_equal(small_model.encode(x).data,
                                  back.encode(x).data)


def test_checkpoint_files_identical(tmp_path, small_model):
    p0, p1 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(small_model, p0)
    save_checkpoint(small_model, p1)
    assert p0.read_bytes() == p1.read_bytes()


def test_failed_save_keeps_the_old_checkpoint(tmp_path, small_model,
                                              monkeypatch):
    """A save that fails while it writes tensor data leaves the file
    already at the path as it was, and no temporary file behind."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model, path)
    first = path.read_bytes()

    class Unreadable:   # a tensor whose data cannot be read
        shape, dtype = (1,), np.dtype(np.float32)

        def __array__(self, *args, **kwargs):
            raise OSError("tensor data lost")

    arrays = {**small_model.state_arrays(), "zz.lost": Unreadable()}
    monkeypatch.setattr(small_model, "state_arrays", lambda: arrays)
    with pytest.raises(OSError, match="tensor data lost"):
        save_checkpoint(small_model, path)
    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_error_cases(tmp_path, small_model):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage that is not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    good = tmp_path / "good.ckpt"
    save_checkpoint(small_model, good)
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(trunc)

    wrong_ver = tmp_path / "ver.ckpt"
    wrong_ver.write_bytes(blob[:4] + b"\xff\x00\x00\x00" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(wrong_ver)

    # valid magic and version, but the metadata has no "config" key
    meta = b'{"tensors": []}'
    no_config = tmp_path / "no_config.ckpt"
    no_config.write_bytes(blob[:8] + struct.pack("<I", len(meta)) + meta)
    with pytest.raises(CheckpointError):
        load_checkpoint(no_config)


def test_load_checkpoint_draws_no_random_number(tmp_path, small_model,
                                                monkeypatch):
    """The loaded model's tensors are the file's, each in an array of its
    own, so that no view keeps the file's bytes alive; no RNG is made."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint made an RNG")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    got = load_checkpoint(path).state_arrays()
    for name, a in small_model.state_arrays().items():
        np.testing.assert_array_equal(got[name], a)
        assert got[name].flags.owndata, name


@pytest.mark.parametrize("dropped", ["enc.m", "enc.res0.bn_pre.running_var"])
def test_checkpoint_missing_tensor(tmp_path, small_model, monkeypatch,
                                   dropped):
    """A file without one of the model's tensors, a scalar or a running
    stat, gives CheckpointError and exit code 4."""
    arrays = {k: a for k, a in small_model.state_arrays().items()
              if k != dropped}
    path, wav = tmp_path / "short.ckpt", tmp_path / "x.wav"
    with monkeypatch.context() as m:
        m.setattr(small_model, "state_arrays", lambda: arrays)
        save_checkpoint(small_model, path)
    with pytest.raises(CheckpointError, match="missing tensor %s" % dropped):
        load_checkpoint(path)
    write_wav(speechlike(seed=8, seconds=1.0), wav)
    assert cli.main(["score", "--checkpoint", str(path), str(wav)]) \
        == cli.EXIT_CHECKPOINT


def test_checkpoint_resave_is_byte_identical(tmp_path):
    m = Model(ModelConfig(channel_mult=0.125, measure_names=("ssnr", "llr"),
                          seed=4))
    rng = np.random.default_rng(21)
    for bn in m.bns.values():
        bn.running_mean[...] = rng.normal(size=bn.running_mean.shape)
        bn.running_var[...] = rng.uniform(0.1, 3.0, bn.running_var.shape)
    m.normalizer = MeasureNormalizer(means={"ssnr": 0.1, "llr": -2.5},
                                     stds={"ssnr": 1 / 3, "llr": 7.25})
    p0, p1 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, p0)
    save_checkpoint(load_checkpoint(p0), p1)
    assert p1.read_bytes() == p0.read_bytes()


def test_checkpoint_with_pair_head_loads(tmp_path, small_model, monkeypatch):
    """Checkpoints written while the model had the pair-score head carry
    head.score_pair.{w,b} after head.score.b; they load, the extra tensors
    are dropped, and inference is unchanged."""
    arrays = {}
    for name, a in small_model.state_arrays().items():
        arrays[name] = a
        if name == "head.score.b":
            arrays["head.score_pair.w"] = np.full((2 * LATENT_DIM, 1), 0.5,
                                                  dtype=np.float32)
            arrays["head.score_pair.b"] = np.ones(1, dtype=np.float32)
    path = tmp_path / "pair.ckpt"
    with monkeypatch.context() as m:
        m.setattr(small_model, "state_arrays", lambda: arrays)
        save_checkpoint(small_model, path)
    back = load_checkpoint(path)
    assert "head.score_pair.w" not in back.state_arrays()
    x = np.stack([speechlike(seed=s, seconds=1.0).samples for s in (8, 9)])
    for got, want in zip(back.infer(x), small_model.infer(x)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_kinds", [37, 5])
def test_checkpoint_with_n_kinds(tmp_path, small_model, monkeypatch,
                                 n_kinds):
    """Files written while ModelConfig had an `n_kinds` field hold it in
    their config block. At 37, one per degradation kind, the file loads and
    scores as before. Any other value came with dt and ds heads of other
    widths, which give a CheckpointError and exit code 4."""
    arrays = {}
    for name, a in small_model.state_arrays().items():
        if name.startswith(("head.dt.", "head.ds.l1.", "head.ds.bn.")):
            a = a[..., :a.shape[-1] - 37 + n_kinds]   # 38 or 37 wide
        arrays[name] = a
    c = small_model.config
    config = {"channel_mult": c.channel_mult, "n_kinds": n_kinds,
              "measure_names": c.measure_names, "seed": c.seed}
    path, wav = tmp_path / "old.ckpt", tmp_path / "x.wav"
    with monkeypatch.context() as m:
        m.setattr(small_model, "state_arrays", lambda: arrays)
        m.setattr(model, "asdict", lambda _: config)
        save_checkpoint(small_model, path)
    write_wav(speechlike(seed=8, seconds=1.0), wav)
    rc = cli.main(["score", "--checkpoint", str(path), str(wav)])
    if n_kinds != 37:
        assert rc == cli.EXIT_CHECKPOINT
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path)
        return
    assert rc == cli.EXIT_OK
    back = load_checkpoint(path)
    assert back.config == small_model.config
    x = np.stack([speechlike(seed=s, seconds=1.0).samples for s in (8, 9)])
    for got, want in zip(back.infer(x), small_model.infer(x)):
        np.testing.assert_array_equal(got, want)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["float32", "<f4", "int8", "zz", "c8", "f8,i4", "O"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10)
_DROP = object()
_META_TARGETS = st.one_of(
    st.sampled_from([(), ("config",), ("tensors",), ("normalizer",)]),
    st.tuples(st.just("config"),
              st.sampled_from(["channel_mult", "measure_names", "seed"])),
    st.tuples(st.just("tensors"), st.integers(0, 999)),
    st.tuples(st.just("tensors"), st.integers(0, 999),
              st.sampled_from(["name", "shape", "dtype"])),
    st.tuples(st.just("normalizer"), st.sampled_from(["means", "stds"])))


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory, small_model):
    path = tmp_path_factory.mktemp("ckpt") / "fuzz.ckpt"
    save_checkpoint(small_model, path)
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    return path, blob[:8], json.loads(blob[12:12 + n]), blob[12 + n:]


@pytest.mark.parametrize("field, value", [
    ("channel_mult", 0), ("channel_mult", -1), ("channel_mult", float("inf")),
    ("channel_mult", float("nan")), ("channel_mult", True),
    ("measure_names", "ssnr"), ("measure_names", ["ssnr", 1]),
    ("measure_names", None), ("seed", -1), ("seed", 1.0), ("seed", False)],
    ids=["mult0", "mult-1", "mult-inf", "mult-nan", "mult-true",
         "names-str", "names-int", "names-none", "seed-1", "seed-float",
         "seed-false"])
def test_config_refused_like_checkpoint(fuzz_checkpoint, tmp_path, field,
                                        value):
    """ModelConfig and load_checkpoint refuse the same values, in the same
    words: a config that trains can always be read back."""
    with pytest.raises(ValueError) as built:
        ModelConfig(**{field: value})
    _, head, meta, tensors = fuzz_checkpoint
    meta = copy.deepcopy(meta)
    meta["config"][field] = value
    blob = json.dumps(meta).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(head + struct.pack("<I", len(blob)) + blob + tensors)
    with pytest.raises(CheckpointError) as loaded:
        load_checkpoint(path)
    assert str(loaded.value) == str(built.value)


@settings(max_examples=200, deadline=None)
@given(target=_META_TARGETS, value=_JSON | st.just(_DROP))
def test_load_checkpoint_fuzzed_metadata(fuzz_checkpoint, target, value):
    """Any JSON in any place of the metadata block gives a Model or
    CheckpointError, nothing else."""
    path, head, meta, tensors = fuzz_checkpoint
    meta = copy.deepcopy(meta)
    meta["normalizer"] = {"means": {"ssnr": 1.0}, "stds": {"ssnr": 2.0}}
    node = None
    for k in target:  # walk to the parent of the target
        node = meta if node is None else node[key]
        key = k % len(node) if isinstance(node, list) else k
    if node is None:
        meta = meta if value is _DROP else value
    elif value is _DROP:
        del node[key]
    else:
        node[key] = value
    blob = json.dumps(meta).encode()
    path.write_bytes(head + struct.pack("<I", len(blob)) + blob + tensors)
    try:
        model = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(model, Model)


def test_seed_changes_weights():
    m0 = Model(ModelConfig(channel_mult=0.25, seed=0))
    m1 = Model(ModelConfig(channel_mult=0.25, seed=1))
    w0 = m0.params["enc.mlp0.w"].data
    w1 = m1.params["enc.mlp0.w"].data
    assert not np.array_equal(w0, w1)
    # same seed: identical build
    m2 = Model(ModelConfig(channel_mult=0.25, seed=0))
    np.testing.assert_array_equal(w0, m2.params["enc.mlp0.w"].data)


# ----------------------------------------------------------- layout

LAYOUT_CONFIG = ModelConfig(channel_mult=0.125, seed=5,
                            measure_names=("ssnr", "llr"))
# state_arrays() of LAYOUT_CONFIG: the number of tensors, and the SHA-256
# prefixes of their ordered [name, shape] list and of their bytes in that
# order, so that a change to a name, a width, the creation order or the
# RNG draws shows here before it changes every checkpoint
LAYOUT_GOLDEN = (217, "f63f1d10dfdeac5e", "19b4108d0bf53a49")
ENCODER_BLOCKS = (("enc.mu",) + tuple("enc.pool%d" % i for i in range(4))
                  + tuple("enc.res%d" % r for r in range(6))
                  + ("enc.stats", "enc.mlp"))


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _block_of(name: str) -> str:
    """The encoder block that a parameter or BatchNorm name belongs to."""
    if name == "enc.m":
        return "enc.mu"
    for prefix in ("enc.stats", "enc.mlp"):
        if name.startswith(prefix):
            return prefix
    return ".".join(name.split(".")[:2])


def test_state_layout_golden():
    arrays = Model(LAYOUT_CONFIG).state_arrays()
    layout = [[name, list(a.shape)] for name, a in arrays.items()]
    data = b"".join(np.ascontiguousarray(a).tobytes()
                    for a in arrays.values())
    assert (len(layout), _sha16(json.dumps(layout).encode()),
            _sha16(data)) == LAYOUT_GOLDEN


def test_each_block_builds_its_own_parameters():
    assert tuple(name for name, *_ in model.BLOCKS) == ENCODER_BLOCKS
    full = Model(LAYOUT_CONFIG)
    shell = Model.__new__(Model)    # no parameters yet
    shell.config, shell.params, shell.bns = LAYOUT_CONFIG, {}, {}
    rng, width = np.random.default_rng(LAYOUT_CONFIG.seed), 1
    for name, build, *_ in model.BLOCKS:
        before = set(shell.params) | set(shell.bns)
        width = build(shell, rng, name, width)
        made = (set(shell.params) | set(shell.bns)) - before
        assert made and {_block_of(n) for n in made} == {name}, name
    # the rows make every encoder tensor, in order, with the same draws
    assert list(shell.params) == [n for n in full.params
                                  if n.startswith("enc.")]
    assert list(shell.bns) == [n for n in full.bns if n.startswith("enc.")]
    for name, t in shell.params.items():
        np.testing.assert_array_equal(t.data, full.params[name].data)
