import struct

import numpy as np
import pytest

from sesqa.model import (INFER_BATCH, LATENT_DIM, MIN_INPUT_SAMPLES,
                         PAIR_VARIANTS, CheckpointError, Model, ModelConfig,
                         load_checkpoint, pair_score, save_checkpoint)

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


def test_infer_matches_encode_and_score_across_chunks(small_model):
    frames = [speechlike(seed=100 + i, seconds=1.0).samples
              for i in range(INFER_BATCH + 1)]
    z, s = small_model.infer(frames)
    assert z.shape == (INFER_BATCH + 1, LATENT_DIM)
    assert s.shape == (INFER_BATCH + 1,)
    # one row against a batch: BLAS may sum in another order, so allow
    # float32 rounding relative to the latents' scale
    atol = 1e-4 * np.abs(z).max()
    for i, x in enumerate(frames):
        z_ref = small_model.encode(x[None, :], train=False)
        np.testing.assert_allclose(z[i], z_ref.data[0], rtol=1e-4, atol=atol)
        np.testing.assert_allclose(s[i], small_model.score(z_ref).data[0],
                                   rtol=1e-5)
    z2, s2 = small_model.infer(np.stack(frames))
    np.testing.assert_array_equal(z2, z)
    np.testing.assert_array_equal(s2, s)


def test_infer_builds_no_graph(small_model, monkeypatch):
    encoded = []
    encode = Model.encode

    def recording_encode(self, *args, **kwargs):
        encoded.append(encode(self, *args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(Model, "encode", recording_encode)
    for p in small_model.params.values():
        p.grad = None
    small_model.infer(np.stack([speechlike(seed=9, seconds=1.0).samples] * 2))
    assert len(encoded) == 1
    assert not encoded[0].requires_grad and encoded[0]._parents == ()
    assert all(p.grad is None for p in small_model.params.values())


def test_pair_score_variants(small_model):
    x = np.stack([speechlike(seed=4, seconds=1.0).samples,
                  speechlike(seed=5, seconds=1.0).samples])
    z = small_model.encode(x).data
    for variant in PAIR_VARIANTS:
        s = small_model.score_pair_reference(z[:1], z[1:], variant=variant)
        assert s.shape == (1,)
        assert 1.0 < float(s[0]) < 5.0
    with pytest.raises(ValueError):
        small_model.score_pair_reference(z[:1], z[1:], variant="bogus")


def test_pair_score_dual_vs_diff_equivalence():
    # with the same weight vector the two subtractive variants coincide
    r = np.random.default_rng(0)
    z_i, z_j = r.normal(size=(1, 8)), r.normal(size=(1, 8))
    w, b = r.normal(size=8), 0.3
    a = pair_score(z_i, z_j, w, b, "dual-linear")
    d = pair_score(z_i, z_j, w, b, "diff-linear")
    np.testing.assert_allclose(a, d, rtol=1e-12)
    # identical latents land on the sigmoid midpoint of the bias
    mid = pair_score(z_i, z_i, w, 0.0, "dual-linear")
    assert np.isclose(mid[0], 3.0)


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


def test_seed_changes_weights():
    m0 = Model(ModelConfig(channel_mult=0.25, seed=0))
    m1 = Model(ModelConfig(channel_mult=0.25, seed=1))
    w0 = m0.params["enc.mlp0.w"].data
    w1 = m1.params["enc.mlp0.w"].data
    assert not np.array_equal(w0, w1)
    # same seed: identical build
    m2 = Model(ModelConfig(channel_mult=0.25, seed=0))
    np.testing.assert_array_equal(w0, m2.params["enc.mlp0.w"].data)
