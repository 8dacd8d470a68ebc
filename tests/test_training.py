import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sesqa import ad, objectives, training
from sesqa.audio import AudioFormatError, write_wav
from sesqa.degrade import KIND_NAMES, read_quadruple_manifest
from sesqa.manifest import ManifestError
from sesqa.measures import MEASURE_NAMES, MeasureVector, fit_normalizer
from sesqa.model import Model, ModelConfig
from sesqa.training import (FRAME_SAMPLES, QHState, SwaState, TrainConfig,
                            _batch_losses, _measure_targets, assemble_batch,
                            augment, load_jnd_items, load_mos_items, lr_at,
                            qh_step, read_jnd_manifest, read_mos_manifest,
                            recalibrate_bn, swa_finalize, train)

from conftest import speechlike


def _param(value):
    t = ad.Tensor(np.array([value], dtype=np.float64), requires_grad=True)
    return {"w": t}


def _qh_reference(grads, lr=0.01, nu1=0.7, nu2=1.0, b1=0.995, b2=0.999,
                  eps=1e-8, w0=1.0):
    """Independent scalar re-derivation of the update rule."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        num = (1 - nu1) * g + nu1 * m_hat
        den = np.sqrt((1 - nu2) * g * g + nu2 * v_hat)
        w -= lr * num / (den + eps)
    return w


def test_qh_matches_scalar_reference(monkeypatch):
    monkeypatch.setattr(training, "LOOKAHEAD_K", 10 ** 9)  # never fires
    params = _param(1.0)
    state = QHState(params)
    grads = [0.3, -0.5, 0.8]
    for g in grads:
        params["w"].grad = np.array([g])
        qh_step(params, state, lr=0.01)
    assert np.isclose(params["w"].data[0], _qh_reference(grads, lr=0.01),
                      rtol=1e-12)


def test_lookahead_interpolates_slow_weights(monkeypatch):
    monkeypatch.setattr(training, "LOOKAHEAD_K", 2)
    monkeypatch.setattr(training, "LOOKAHEAD_ALPHA", 0.5)
    params = _param(1.0)
    state = QHState(params)
    fasts = []
    for g in (0.3, -0.5):
        params["w"].grad = np.array([g])
        qh_step(params, state, lr=0.01)
        fasts.append(float(params["w"].data[0]))
    # after k steps the weight snaps to slow + alpha (fast - slow)
    fast_ref = _qh_reference([0.3, -0.5], lr=0.01)
    assert np.isclose(fasts[-1], 1.0 + 0.5 * (fast_ref - 1.0), rtol=1e-12)


def test_qh_error_cases():
    params = _param(1.0)
    state = QHState(params)
    with pytest.raises(ValueError):
        qh_step(params, state, lr=0.0)
    params["w"].grad = np.array([np.nan])
    with pytest.raises(FloatingPointError):
        qh_step(params, state, lr=0.01)
    # missing grad is a no-op
    params["w"].grad = None
    before = params["w"].data.copy()
    qh_step(params, state, lr=0.01)
    np.testing.assert_array_equal(params["w"].data, before)


@pytest.mark.parametrize("mask", [("mos", "nope"), (), []])
def test_train_config_rejects_bad_mask(mask):
    with pytest.raises(ValueError):
        TrainConfig(loss_mask=mask)


def test_train_config_mask_is_a_tuple():
    assert TrainConfig(loss_mask=["mos", "jnd"]).loss_mask == ("mos", "jnd")
    assert TrainConfig().loss_mask == objectives.LOSS_NAMES


def test_lr_schedule():
    cfg = TrainConfig(base_lr=1e-3)
    total = 100
    assert lr_at(0, total, cfg) == 1e-3
    assert lr_at(69, total, cfg) == 1e-3
    assert np.isclose(lr_at(70, total, cfg), 2e-4)
    assert np.isclose(lr_at(89, total, cfg), 2e-4)
    assert np.isclose(lr_at(90, total, cfg), 4e-5)
    assert np.isclose(lr_at(99, total, cfg), 4e-5)
    with pytest.raises(ValueError):
        lr_at(100, total, cfg)
    with pytest.raises(ValueError):
        lr_at(-1, total, cfg)


def test_swa_average():
    state = SwaState()
    with pytest.raises(ValueError):
        state.average()
    p = _param(1.0)
    state.absorb(p)
    p["w"].data = np.array([3.0])
    state.absorb(p)
    assert np.isclose(state.average()["w"][0], 2.0)


def test_swa_finalize_and_bn_recalibration():
    model = Model(ModelConfig(channel_mult=0.25, measure_names=("ssnr",),
                              seed=0))
    frames = np.stack([speechlike(seed=40 + i, seconds=1.0).samples
                       for i in range(4)])
    state = SwaState()
    state.absorb(model.params)

    bn = model.bns["enc.stats_bn"]
    garbage = np.full_like(bn.running_mean, 123.0)
    bn.running_mean = garbage.copy()
    swa_finalize(state, model, frames)
    assert not np.allclose(bn.running_mean, garbage)
    # idempotent: a second pass over the same frames changes nothing
    snap = bn.running_mean.copy()
    recalibrate_bn(model, frames)
    np.testing.assert_allclose(bn.running_mean, snap, rtol=1e-5)


def test_recalibrate_bn_same_stats_without_graph(monkeypatch):
    frames = np.stack([speechlike(seed=40 + i, seconds=1.0).samples
                       for i in range(4)])
    stats = []
    for no_grad in (ad.no_grad, contextlib.nullcontext):
        monkeypatch.setattr(ad, "no_grad", no_grad)
        model = Model(ModelConfig(channel_mult=0.25, measure_names=("ssnr",),
                                  seed=0))
        recalibrate_bn(model, frames)
        stats.append({n: (bn.running_mean, bn.running_var)
                      for n, bn in model.bns.items()})
    for name, (mean, var) in stats[0].items():
        np.testing.assert_array_equal(mean, stats[1][name][0])
        np.testing.assert_array_equal(var, stats[1][name][1])


def test_recalibrate_bn_sets_every_encoder_batchnorm():
    """Every encoder BatchNorm takes the sample's stats; the head
    BatchNorms, which run only in train mode, keep what they held."""
    model = Model(ModelConfig(channel_mult=0.25, measure_names=("ssnr",),
                              seed=0))
    heads = {"head.%s.bn" % h for h in ("jnd", "dt", "sd", "ds", "mr")}
    assert heads <= set(model.bns)
    for bn in model.bns.values():
        bn.running_mean = np.full_like(bn.running_mean, 123.0)
        bn.running_var = np.full_like(bn.running_var, 123.0)
    frames = np.stack([speechlike(seed=40 + i, seconds=1.0).samples
                       for i in range(4)])
    recalibrate_bn(model, frames)
    for name, bn in model.bns.items():
        if name in heads:
            assert np.all(bn.running_mean == 123.0), name
            assert np.all(bn.running_var == 123.0), name
        else:
            assert not np.any(bn.running_mean == 123.0), name
            assert not np.any(bn.running_var == 123.0), name


def test_float32_contract(monkeypatch):
    """Inference outputs, a training step's latents and every parameter
    gradient stay float32."""
    from toyrun import build_dataset
    quads, _, mos_items, jnd_items, _ = build_dataset(
        n_train=4, n_heldout=0, seed=99, with_measures=False)
    model = Model(ModelConfig(channel_mult=0.25, seed=0))
    z, s = model.infer([f.samples for f in quads[0].frames()])
    assert z.dtype == s.dtype == np.float32

    encoded = []
    encode = Model.encode

    def recording_encode(self, *args, **kwargs):
        encoded.append(encode(self, *args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(Model, "encode", recording_encode)
    batch = assemble_batch(quads, np.arange(4), np.random.default_rng(0),
                           mos_items=mos_items, jnd_items=jnd_items)
    mask = objectives.LOSS_NAMES
    total, _ = objectives.total_loss(_batch_losses(model, batch, mask), mask)
    total.backward()
    assert [z.dtype for z in encoded] == [np.float32]
    grads = {n: p.grad for n, p in model.params.items() if p.grad is not None}
    assert any(n.startswith("enc.pool0") for n in grads)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


def test_loaders_reject_other_rates(tmp_path):
    ok, low = tmp_path / "ok.wav", tmp_path / "low.wav"
    write_wav(speechlike(seed=30, seconds=1.0), ok)
    write_wav(speechlike(seed=31, seconds=3.0, rate=16000), low)
    with pytest.raises(AudioFormatError):
        load_mos_items([{"path": str(low), "mos": 3.0}])
    with pytest.raises(AudioFormatError):
        load_jnd_items([{"path_a": str(ok), "path_b": str(low), "jnd": 1.0}])
    assert len(load_mos_items([{"path": str(ok), "mos": 3.0}])) == 1


def test_augment_consistency():
    rng = np.random.default_rng(0)
    base = speechlike(seed=50, seconds=1.2).samples
    a, b = augment([base, base * 2.0], rng)
    # identical gain and crop: pairwise ratio survives
    np.testing.assert_allclose(b, 2.0 * a, rtol=1e-5)
    assert len(a) == FRAME_SAMPLES
    gains = []
    for _ in range(200):
        (x,) = augment([base], rng)
        g = np.max(np.abs(x)) / 1.0
        gains.append(g)
    g = np.array(gains)
    assert np.all(g <= 1.0 + 1e-6) and np.all(g >= 10 ** (-6 / 20) * 0.99)
    with pytest.raises(ValueError):
        augment([base[:100]], rng)


def test_assemble_batch_ratios_and_targets():
    from toyrun import build_dataset
    quads, _, mos_items, jnd_items, _ = build_dataset(
        n_train=6, n_heldout=0, seed=99, with_measures=False)
    rng = np.random.default_rng(1)
    batch = assemble_batch(quads, np.arange(4), rng,
                           mos_items=mos_items, jnd_items=jnd_items)
    # 16 quadruple cuts, 2 MOS items (4 * 0.25/0.5), 2 JND pairs
    assert batch.frames.shape == (16 + 2 + 4, FRAME_SAMPLES)
    assert batch.frames.dtype == np.float32
    assert batch.dt_targets.shape[:2] == batch.ds_targets.shape[:2] == (4, 2)
    assert batch.mos_targets.shape == batch.jnd_targets.shape == (2,)
    # no side data: quadruple-only batch with empty side targets
    bare = assemble_batch(quads, np.arange(4), rng)
    assert bare.frames.shape == (16, FRAME_SAMPLES)
    assert bare.mos_targets.shape == bare.jnd_targets.shape == (0,)
    # measure targets are the rows of the selected quadruples
    targets = np.arange(12, dtype=np.float32).reshape(6, 2)
    mask = np.ones_like(targets)
    mask[[1, 3]] = 0.0
    picked = assemble_batch(quads, np.array([4, 1]), rng,
                            measure_targets=(targets, mask))
    np.testing.assert_array_equal(picked.mr_targets, targets[[4, 1]])
    np.testing.assert_array_equal(picked.mr_mask, [[1, 1], [0, 0]])
    unmeasured = assemble_batch(quads, np.array([3, 1]), rng,
                                measure_targets=(targets, mask))
    assert unmeasured.mr_targets is None and unmeasured.mr_mask is None
    with pytest.raises(ValueError):
        assemble_batch(quads, np.array([], dtype=int), rng)


def test_measure_targets_mask_missing_measures():
    vecs = {0: MeasureVector({"ssnr": 1.0, "stoi": 0.5, "mcd": 4.0}),
            1: MeasureVector({"ssnr": 3.0}),
            2: MeasureVector({"ssnr": 2.0, "stoi": 0.9})}
    names = ("ssnr", "stoi", "mcd")   # mcd: in one vector, so not fitted
    norm = fit_normalizer(vecs.values())
    targets, mask = _measure_targets(vecs, names, norm, 4)  # 3: no vector
    assert targets.dtype == mask.dtype == np.float32
    np.testing.assert_array_equal(
        mask, [[1, 1, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]])
    for row, vec in vecs.items():
        for col, name in enumerate(names):
            if mask[row, col]:
                assert targets[row, col] == np.float32(
                    norm.apply_value(name, vec.values[name]))
    assert not targets[mask == 0].any()


@pytest.fixture(scope="module")
def three_quads():
    from toyrun import build_dataset
    return build_dataset(n_train=3, n_heldout=0, seed=99)


@pytest.mark.parametrize("case", ["jnd", "mr", "mos"])
def test_one_row_batches_train(three_quads, case, tmp_path):
    """Batch size 2 over 3 quadruples: a forward whose BatchNorm would see
    a single row gives no loss that step instead of raising. That is jnd
    with one JND pair, mr with one quadruple, and every loss when the
    encoder sees one MOS frame."""
    quads, _, mos_items, jnd_items, lookup = three_quads
    data = {"jnd": {"jnd_items": jnd_items},
            "mr": {"measure_lookup": lookup},
            "mos": {"mos_items": mos_items}}[case]
    model = Model(ModelConfig(channel_mult=0.125, measure_names=MEASURE_NAMES,
                              seed=0))
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0,
                      loss_mask=("mos",) if case == "mos"
                      else objectives.LOSS_NAMES)
    ckpt = tmp_path / "m.ckpt"
    with pytest.warns(UserWarning, match="no data"):
        log = train(model, cfg, quads, checkpoint_path=ckpt, **data)
    assert ckpt.exists()
    # the first step holds 2 quadruples (1 JND pair, 1 MOS item), the
    # second 1 quadruple (no JND pair or MOS item)
    fired = [set(rec) - {"step", "epoch", "lr", "total"} for rec in log]
    if case == "jnd":
        assert [f >= {"rank", "cons"} and "jnd" not in f
                for f in fired] == [True, True]
    elif case == "mr":
        assert ["mr" in f for f in fired] == [True, False]
    else:
        assert fired == [set(), set()]
        assert [rec["total"] for rec in log] == [0.0, 0.0]


def test_constant_measure_masked(three_quads, recwarn):
    """A measure whose training values never vary is left out of the
    normalizer: only its column is masked, the others stay targets, and
    train regresses them with one warning naming the measure."""
    quads, _, _, _, lookup = three_quads
    lookup = {i: MeasureVector({**v.values, "sisdr": 60.0})
              for i, v in lookup.items()}
    norm = fit_normalizer(lookup.values())
    _, mask = _measure_targets(lookup, MEASURE_NAMES, norm, len(quads))
    expected = [[name in lookup[row].values and name != "sisdr"
                 for name in MEASURE_NAMES] for row in range(len(quads))]
    np.testing.assert_array_equal(mask, expected)
    assert mask.any()
    model = Model(ModelConfig(channel_mult=0.125, measure_names=MEASURE_NAMES,
                              seed=0))
    log = train(model, TrainConfig(epochs=1, batch_size=3, seed=0,
                                   loss_mask=("mr",)),
                quads, measure_lookup=lookup)
    left_out = [str(w.message) for w in recwarn
                if "left out" in str(w.message)]
    assert len(left_out) == 1 and left_out[0].endswith(": sisdr")
    assert [np.isfinite(rec["mr"]) for rec in log] == [True]
    assert "sisdr" not in model.normalizer.means


def test_short_clip_warning_names_it(tmp_path):
    ok, short = tmp_path / "ok.wav", tmp_path / "short.wav"
    write_wav(speechlike(seed=32, seconds=1.0), ok)
    write_wav(speechlike(seed=33, seconds=0.5), short)
    with pytest.warns(UserWarning, match="skipping .*short.wav"):
        assert load_jnd_items([{"path_a": str(ok), "path_b": str(short),
                                "jnd": 1.0}]) == []
    with pytest.warns(UserWarning, match="skipping .*short.wav"):
        assert load_mos_items([{"path": str(short), "mos": 3.0}]) == []


def test_batch_rows_in_encoder_order(three_quads, monkeypatch):
    """`frames` holds the augmented ik, il, jk, jl cuts of each quadruple,
    then the MOS items, then each JND pair's a and b, drawn in that RNG
    order. The encoder reads all of it, or only the rows after the
    quadruples when no quadruple loss is enabled."""
    quads, _, mos_items, jnd_items, _ = three_quads
    batch = assemble_batch(quads, np.array([2, 0, 1]), np.random.default_rng(5),
                           mos_items=mos_items, jnd_items=jnd_items)
    rng = np.random.default_rng(5)
    rows, mos, jnd = [], [], []
    for idx in (2, 0, 1):
        rows += augment([f.samples for f in quads[idx].frames()], rng)
    for pick in rng.integers(0, len(mos_items), size=2):
        rows += augment(mos_items[pick][:1], rng)
        mos.append(mos_items[pick][1])
    for pick in rng.integers(0, len(jnd_items), size=2):
        rows += augment(jnd_items[pick][:2], rng)
        jnd.append(jnd_items[pick][2])
    np.testing.assert_array_equal(batch.frames, np.stack(rows))
    np.testing.assert_array_equal(batch.mos_targets, np.float32(mos))
    np.testing.assert_array_equal(batch.jnd_targets, np.float32(jnd))

    model = Model(ModelConfig(channel_mult=0.125, seed=0))
    seen = []
    encode = model.encode
    monkeypatch.setattr(model, "encode",
                        lambda x, train: seen.append(x) or encode(x, train))
    assert set(_batch_losses(model, batch, ("mos",))) == {"mos"}
    assert set(_batch_losses(model, batch, ("dt",))) == {"dt"}
    assert seen[0].base is batch.frames and seen[1] is batch.frames
    np.testing.assert_array_equal(seen[0], batch.frames[12:])


def test_manifest_readers(tmp_path):
    mos = tmp_path / "mos.jsonl"
    mos.write_text('{"path": "a.wav", "mos": 3.5}\n'
                   '\n'
                   '{"path": "b.wav", "mos": 2.0,'
                   ' "listener_scores": [1, 2, 3]}\n')
    items = read_mos_manifest(mos)
    assert [i["mos"] for i in items] == [3.5, 2.0]
    assert items[1]["listener_scores"] == [1.0, 2.0, 3.0]

    jnd = tmp_path / "jnd.jsonl"
    jnd.write_text('{"path_a": "a.wav", "path_b": "b.wav", "jnd": 1}\n')
    pairs = read_jnd_manifest(jnd)
    assert pairs[0]["jnd"] == 1.0


_FIELDS = ("path", "mos", "listener_scores", "path_a", "path_b", "jnd",
           "id", "delay_ms", "wav_ik", "wav_il", "wav_jk", "wav_jl",
           "chain_i", "chain_j", "kind", "strength", "aux", "seed")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(KIND_NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(), inner,
                      max_size=6),
    max_leaves=12)
_RECORDS = st.lists(
    st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=len(_FIELDS)),
    max_size=3).map(lambda recs: b"\n".join(json.dumps(r).encode()
                                            for r in recs))
_MANIFESTS = st.one_of(
    st.binary(max_size=200),
    _RECORDS,
    st.tuples(_RECORDS, st.binary(max_size=8)).map(b"\n".join))


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("manifests") / "m.jsonl"


@pytest.mark.parametrize("reader", [read_mos_manifest, read_jnd_manifest,
                                    read_quadruple_manifest])
@settings(max_examples=200, deadline=None)
@given(blob=_MANIFESTS)
def test_manifest_readers_fuzzed(manifest_path, reader, blob):
    """Any bytes give a list of records or ManifestError naming the file
    and the line, nothing else."""
    manifest_path.write_bytes(blob)
    try:
        records = reader(manifest_path)
    except ManifestError as e:
        assert str(e).startswith("%s:" % manifest_path)
        return
    assert isinstance(records, list)
