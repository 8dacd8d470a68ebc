import hashlib
import json
import warnings

import numpy as np
import pytest
from scipy import signal

from sesqa.audio import AudioFormatError, AudioFrame, write_wav
from sesqa.degrade import (CleanPool, DegradationSpec, apply_chain,
                           apply_degradation, generate_quadruple,
                           sample_chain, sample_spec)
from sesqa.degrade import kernels
from sesqa.degrade.chains import FIRST_STAGE, SECOND_STAGE
from sesqa.degrade.kinds import (KIND_NAMES, NATIVE_KINDS, STFT_WINDOW_CHOICES,
                                 TRANSCODE_KINDS, UnavailableDegradationError,
                                 kind_probabilities, strength_to_params)
from sesqa.degrade.quadruples import (CLEAN_INDEX, N_DT_CLASSES,
                                      PoolExhaustedError, chain_targets,
                                      iter_quadruples,
                                      read_quadruple_manifest,
                                      write_quadruple_manifest)
from sesqa.degrade.transcode import validate_template

from conftest import speechlike, write_skipped_wavs

RATE = 48000

FAKE_TRANSCODER = ('python3 -c "import shutil,sys;'
                   ' shutil.copy(sys.argv[1], sys.argv[2])"'
                   " {in} {out} {codec} {bitrate}")


def _achieved_snr(x, y):
    n = y - x
    return 10.0 * np.log10(np.sum(x ** 2) / np.sum(n ** 2))


def recover_delay(q, probe_len=20000):
    """Normalized cross-correlation of the delayed cut against the
    zero-offset cut; the argmax is the sample delay."""
    x = q.x_ik.samples.astype(np.float64)
    probe = q.x_il.samples[:probe_len].astype(np.float64)
    c = signal.correlate(x, probe, mode="valid", method="fft")
    energy = signal.correlate(x * x, np.ones(probe_len), mode="valid",
                              method="fft")
    return int(np.argmax(c / np.sqrt(np.maximum(energy, 1e-12))))


# ------------------------------------------------------- SNR fidelity

@pytest.mark.parametrize("kind", ["additive_noise", "colored_noise",
                                  "hum_noise", "additive_noise_pool"])
def test_noise_snr_accuracy(kind):
    frame = speechlike(seed=11, seconds=1.0)
    noise_pool = None
    if kind == "additive_noise_pool":
        # one item shorter than the frame (tiled), one longer (cut)
        kind, noise_pool = "additive_noise", [
            AudioFrame(np.random.default_rng(2).normal(size=n)
                       .astype(np.float32), RATE) for n in (20000, 90000)]
    rng = np.random.default_rng(0)
    for draw in range(100):
        s = float(rng.uniform())
        spec = DegradationSpec(kind=kind, strength=s,
                               aux_params={"partial": False},
                               seed=int(rng.integers(2 ** 31)))
        out = apply_degradation(frame, spec, noise_pool=noise_pool)
        want = spec.aux_params["snr_db"]
        got = _achieved_snr(frame.samples.astype(np.float64),
                            out.samples.astype(np.float64))
        assert abs(got - want) <= 0.1, (kind, draw, want, got)
        if noise_pool is not None:
            fallback = apply_degradation(frame, spec)
            assert not np.array_equal(out.samples, fallback.samples)


# ---------------------------------------------------------- clipping

def test_clipping_fraction_accuracy():
    frame = speechlike(seed=12, seconds=1.0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        s = float(rng.uniform())
        spec = DegradationSpec(kind="clipping", strength=s)
        out = apply_degradation(frame, spec)
        want = spec.aux_params["fraction"]
        got = np.mean(np.abs(out.samples) < np.abs(frame.samples))
        assert abs(got - want) <= 0.01, (s, want, got)
        assert np.max(np.abs(out.samples)) <= np.max(np.abs(frame.samples))


# ------------------------------------------------------------ mu-law

def test_mu_law_level_counts():
    frame = speechlike(seed=13, seconds=0.5)
    for s in np.linspace(0.0, 1.0, 9):
        spec = DegradationSpec(kind="mu_law", strength=float(s))
        bits = spec.aux_params["bits"]
        out = apply_degradation(frame, spec)
        assert len(np.unique(out.samples)) <= 2 ** bits, (s, bits)


# ----------------------------------------------------------- reverse

def test_reverse_is_involutive():
    frame = speechlike(seed=14, seconds=0.5)
    spec = DegradationSpec(kind="reverse", strength=0.5)
    twice = apply_degradation(apply_degradation(frame, spec), spec)
    np.testing.assert_array_equal(twice.samples, frame.samples)
    once = apply_degradation(frame, spec)
    np.testing.assert_array_equal(once.samples, frame.samples[::-1])


# ----------------------------------------------- every kernel runs sane

@pytest.mark.parametrize("kind", NATIVE_KINDS)
def test_kernel_preserves_length_and_sanity(kind):
    frame = speechlike(seed=15, seconds=1.0)
    rng = np.random.default_rng(hash(kind) % 2 ** 31)
    for s in (0.1, 0.9):
        spec = sample_spec(kind, rng, strength=s)
        out = apply_degradation(frame, spec)
        assert len(out) == len(frame)
        assert out.sample_rate == frame.sample_rate
        assert np.all(np.isfinite(out.samples))
        if kind != "reverse":
            assert not np.array_equal(out.samples, frame.samples), (kind, s)


# --------------------------------------- STFT family: scipy bit for bit

STFT_KINDS = ("griffin_lim", "phase_randomization", "phase_shuffle",
              "spectrogram_convolution", "spectrogram_holes",
              "spectrogram_noise")


def _scipy_stft(x, spec):
    return signal.stft(x, nperseg=spec.aux_params["window"])[2]


def _scipy_istft(z, spec, n):
    y = signal.istft(z, nperseg=spec.aux_params["window"])[1]
    return y[:n] if len(y) >= n else np.pad(y, (0, n - len(y)))


@pytest.mark.parametrize("window", STFT_WINDOW_CHOICES)
def test_stft_and_istft_match_scipy_bytes(window):
    spec = DegradationSpec(kind="griffin_lim", strength=0.5,
                           aux_params={"window": window})
    rng = np.random.default_rng(window)
    # 52800 and 4096 are whole hops at every window; 52801 and 4097 not
    for n in (4096, 4097, 52800, 52801):
        x = rng.normal(size=n)
        z = kernels._stft(x, spec)
        ref = _scipy_stft(x, spec)
        assert z.shape == ref.shape and z.strides == ref.strides
        assert z.tobytes() == ref.tobytes()
        holed = np.where(rng.random(z.shape) < 0.5, 0.0, z)
        # inverts to zeros of both signs; scipy's loop adds them to 0.0
        tiny = np.zeros_like(z)
        tiny[1, ::2], tiny[1, 1::2] = 5e-324, -5e-324
        for spectrum in (z, holed, tiny):
            y = kernels._istft(spectrum, spec, n)
            assert y.dtype == np.float64
            assert y.tobytes() == _scipy_istft(spectrum, spec, n).tobytes()


@pytest.mark.parametrize("kind", STFT_KINDS)
def test_stft_kernels_match_scipy_reference(kind, monkeypatch):
    x = speechlike(seed=21, seconds=1.1).samples.astype(np.float64)
    assert len(x) == 52800
    rng = np.random.default_rng(len(kind))
    specs = [sample_spec(kind, rng) for _ in range(4)]
    ours = [kernels._KERNELS[kind](x, spec) for spec in specs]
    monkeypatch.setattr(kernels, "_stft", _scipy_stft)
    monkeypatch.setattr(kernels, "_istft", _scipy_istft)
    for spec, y in zip(specs, ours):
        assert y.tobytes() == kernels._KERNELS[kind](x, spec).tobytes(), spec


def test_with_phase_keeps_magnitude_and_phase():
    rng = np.random.default_rng(24)
    z = (rng.normal(size=(129, 400)) + 1j * rng.normal(size=(129, 400))
         ) * np.logspace(-30, 3, 400)
    mag = rng.uniform(0.0, 10.0, size=z.shape)
    est = kernels._with_phase(mag, z)
    np.testing.assert_allclose(np.abs(est), mag,
                               rtol=4 * np.finfo(float).eps, atol=0)
    wrapped = np.angle(est * np.exp(-1j * np.angle(z)))
    assert np.max(np.abs(wrapped)) < 1e-12


def test_with_phase_gives_a_zero_bin_phase_0():
    z = np.array([1 + 1j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                  complex(-0.0, -0.0), -2j])
    mag = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = kernels._with_phase(mag, z)
    np.testing.assert_array_equal(est[1:5], mag[1:5])
    np.testing.assert_allclose(est[[0, 5]], [np.sqrt(2) * (1 + 1j), -0.5j],
                               rtol=1e-15)


def _trig_phase(mag, z):
    """The projection as `np.angle` and `exp` write it: the reference."""
    return mag * np.exp(1j * np.angle(z))


@pytest.mark.parametrize("kind", ["griffin_lim", "phase_shuffle"])
def test_phase_kernels_match_the_trigonometric_step(kind, monkeypatch):
    x = speechlike(seed=21, seconds=1.1).samples.astype(np.float64)
    assert len(x) == 52800
    specs = [DegradationSpec(kind=kind, strength=0.7, seed=window,
                             aux_params={"window": window})
             for window in STFT_WINDOW_CHOICES]
    ours = [kernels._KERNELS[kind](x, spec) for spec in specs]
    monkeypatch.setattr(kernels, "_with_phase", _trig_phase)
    for spec, y in zip(specs, ours):
        ref = kernels._KERNELS[kind](x, spec)
        assert not np.array_equal(y, x)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), spec


@pytest.mark.parametrize("kind", STFT_KINDS)
def test_stft_kinds_on_a_frame_shorter_than_the_window(kind):
    frame = speechlike(seed=22, seconds=2000 / RATE)
    spec = sample_spec(kind, np.random.default_rng(5))
    spec = DegradationSpec(kind=kind, strength=spec.strength, seed=spec.seed,
                           aux_params={**spec.aux_params, "window": 4096})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_degradation(frame, spec)
    assert len(out) == len(frame) == 2000
    assert np.all(np.isfinite(out.samples))


def test_stft_kinds_refuse_an_odd_window():
    # the overlap-add assumes hop = window / 2 exactly
    spec = DegradationSpec(kind="griffin_lim", strength=0.5,
                           aux_params={"window": 1001})
    with pytest.raises(ValueError, match="odd"):
        apply_degradation(speechlike(seed=23, seconds=0.1), spec)


def test_degradation_rejects_other_rates():
    low = speechlike(seed=17, seconds=0.5, rate=16000)
    for kind in ("clipping", "transcode_mp3"):
        spec = DegradationSpec(kind=kind, strength=0.5)
        with pytest.raises(AudioFormatError):
            apply_degradation(low, spec, transcoder_cmd=FAKE_TRANSCODER)


def test_kernel_determinism():
    frame = speechlike(seed=16, seconds=0.7)
    spec = sample_spec("additive_noise", np.random.default_rng(3))
    a = apply_degradation(frame, spec)
    b = apply_degradation(frame, spec)
    np.testing.assert_array_equal(a.samples, b.samples)


# ------------------------------------------------------ spec plumbing

def test_spec_validation_and_roundtrip():
    with pytest.raises(ValueError):
        DegradationSpec(kind="clipping", strength=1.5)
    with pytest.raises(KeyError):
        DegradationSpec(kind="flanger", strength=0.5)
    spec = sample_spec("colored_noise", np.random.default_rng(4))
    back = DegradationSpec.from_dict(spec.to_dict())
    assert back == spec


def test_strength_to_params_monotone_snr():
    mild = strength_to_params("additive_noise", 0.0)["snr_db"]
    strong = strength_to_params("additive_noise", 1.0)["snr_db"]
    assert mild > strong
    with pytest.raises(ValueError):
        strength_to_params("additive_noise", -0.1)
    for kind in KIND_NAMES:
        p = strength_to_params(kind, 0.3)
        assert isinstance(p, dict)


def test_kind_probabilities_normalized():
    names, probs = kind_probabilities()
    assert names == KIND_NAMES
    assert np.isclose(probs.sum(), 1.0)
    sub_names, sub_probs = kind_probabilities(NATIVE_KINDS)
    assert np.isclose(sub_probs.sum(), 1.0)
    with pytest.raises(ValueError):
        kind_probabilities(())


# ------------------------------------------------- generator RNG order

# SHA-256 prefixes of the spec JSON the generator draws, so that a change
# to the kind table, a sampler's draw order or its key order shows here
# before it changes every manifest. Four specs per kind, from
# default_rng([i, 0]) for i in 0..3.
SPEC_DIGESTS = {
    "additive_noise": "67b7d2b45f7f7191",
    "colored_noise": "5bdf963941c1d902",
    "hum_noise": "7f245bd0881f8af2",
    "tonal_noise": "f2830ebf4836c034",
    "resample": "04ef52248e128534",
    "mu_law": "5b58cd7d16ea0bbe",
    "clipping": "b92100bb6b88f8ae",
    "reverse": "4abb10d55d5f5c89",
    "insert_silence": "7a82acd0fbbda295",
    "insert_noise": "39463f9b01623198",
    "insert_attenuation": "c717a52a4c9e02f5",
    "perturb_amplitude": "1979dc64e6cc785d",
    "sample_duplicate": "3a0e22a4af26216f",
    "delay": "6b479960bb1909bc",
    "extreme_eq": "bc94e90df39b624f",
    "bandpass": "c3da31992f1c4116",
    "bandreject": "7ba48bed96294bb0",
    "highpass": "d6f57bfc6afc9583",
    "lowpass": "773f6bb04c0ac092",
    "chorus": "bc389d350016bbb2",
    "overdrive": "43b2087845be4a16",
    "phaser": "8e64913d737ac2a4",
    "reverb": "fedfc053f20a98cb",
    "tremolo": "2204438c8c230ad4",
    "griffin_lim": "667feb5db3144829",
    "phase_randomization": "0055b55921ecaa27",
    "phase_shuffle": "7d20d81c8c0a0247",
    "spectrogram_convolution": "a27378fce9d0879c",
    "spectrogram_holes": "e088d144d8f342ad",
    "spectrogram_noise": "43fee3b1fec80818",
    "transcode_mp3": "06b2c33a42997d83",
    "transcode_ac3": "af07aaab482f06aa",
    "transcode_eac3": "045c79027c69b21c",
    "transcode_mp2": "ad0c77d2f9c91a71",
    "transcode_wma": "0b8f6a8f3448fe5c",
    "transcode_ogg": "002b9b4d3bb1d9cc",
    "transcode_opus": "8679738d6fbe1038",
}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def test_generator_rng_order_golden():
    assert tuple(SPEC_DIGESTS) == KIND_NAMES
    got = {kind: _digest([sample_spec(kind, np.random.default_rng([i, 0]))
                          .to_dict() for i in range(4)])
           for kind in KIND_NAMES}
    assert got == SPEC_DIGESTS
    # 8 chains per stage, over all kinds and over the native kinds
    rng = np.random.default_rng(2024)
    chains = [sample_chain(stage, rng, available=available)
              for available in (None, NATIVE_KINDS)
              for stage in ("first", "second") for _ in range(8)]
    assert _digest([[s.to_dict() for s in c] for c in chains]) \
        == "4a375fdadfe67f4e"


# ---------------------------------------------------------- chains

def test_chain_length_distribution_small():
    # quick 3-sigma check at 20k draws; the full 1e5 run lives in the
    # acceptance suite
    rng = np.random.default_rng(5)
    n = 20000
    for dist, stage in ((FIRST_STAGE, "first"), (SECOND_STAGE, "second")):
        counts = np.zeros(max(dist.counts) + 1)
        for _ in range(n):
            counts[len(sample_chain(stage, rng,
                                    available=NATIVE_KINDS[:6]))] += 1
        for k, p in zip(dist.counts, dist.count_probs):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[k] - n * p) <= 3 * sigma, (stage, k)


def test_chain_kinds_unique_and_stage_validation():
    rng = np.random.default_rng(6)
    for _ in range(200):
        chain = sample_chain("second", rng, available=NATIVE_KINDS)
        kinds = [s.kind for s in chain]
        assert len(kinds) == len(set(kinds))
    with pytest.raises(ValueError):
        sample_chain("third", rng)


# -------------------------------------------------------- quadruples

@pytest.fixture(scope="module")
def pool():
    frames = [speechlike(seed=20 + i, seconds=1.2) for i in range(4)]
    return CleanPool({"synth": frames})


def test_quadruple_structure(pool):
    q = generate_quadruple(pool, np.random.default_rng(7))
    n = len(q.x_ik)
    assert all(len(f) == n for f in q.frames())
    assert q.chain_j[:len(q.chain_i)] == q.chain_i
    assert len(q.chain_j) > len(q.chain_i)
    assert 0.0 <= q.delay_ms <= 100.0
    assert q.dt_targets_i.shape == (N_DT_CLASSES,)
    # clean first cut is possible; flag must match the chain
    if not q.chain_i:
        assert q.dt_targets_i[CLEAN_INDEX] == 1.0


def test_clean_pool_datasets_and_skipped_files(tmp_path, monkeypatch):
    """Each subdirectory is a dataset, and the loose WAVs form one more;
    a file at another rate, one shorter than 1.1 s and a silent cut are
    drawn and skipped, so every parent comes from a usable file."""
    for sub in ("a", "b", "empty"):
        (tmp_path / sub).mkdir()
    good = [tmp_path / "loose.wav", tmp_path / "a" / "good.wav",
            tmp_path / "b" / "good.wav"]
    for i, path in enumerate(good):
        write_wav(speechlike(seed=40 + i, seconds=1.3), path)
    (tmp_path / "a" / "notes.txt").write_text("not audio")
    skipped = write_skipped_wavs(tmp_path / "b")

    pool = CleanPool.from_directory(tmp_path)
    assert pool.names == sorted(["a", "b", tmp_path.name])
    assert pool.datasets["a"] == [good[1]]
    assert pool.datasets["b"] == sorted(skipped + [good[2]])
    assert pool.datasets[tmp_path.name] == [good[0]]

    loaded = []
    load = pool._load
    monkeypatch.setattr(pool, "_load",
                        lambda item: loaded.append(item) or load(item))
    parents = {generate_quadruple(pool, np.random.default_rng([12, i]))
               .parent_id for i in range(30)}
    assert parents <= {str(p) for p in good}
    assert set(skipped) <= set(loaded)     # each skip rule was reached


def test_clean_pool_of_skipped_files_is_exhausted(tmp_path):
    write_skipped_wavs(tmp_path)
    pool = CleanPool.from_directory(tmp_path)
    with pytest.raises(PoolExhaustedError, match="no usable parent frame"):
        pool.sample_parent(np.random.default_rng(0))


def test_chain_targets_clean_and_max_strength():
    dt, ds = chain_targets([])
    assert dt[CLEAN_INDEX] == 1.0 and not ds.any()
    specs = [DegradationSpec(kind="clipping", strength=0.2),
             DegradationSpec(kind="clipping", strength=0.6)]
    dt, ds = chain_targets(specs)
    i = KIND_NAMES.index("clipping")
    assert dt[i] == 1.0 and np.isclose(ds[i], 0.6)


def test_delay_recovery_small(pool):
    # cross-correlation recovers the cut offset; full 1k-item version in
    # the acceptance suite
    for i in range(25):
        q = generate_quadruple(pool, np.random.default_rng([8, i]))
        d_true = int(round(q.delay_ms * RATE / 1000.0))
        assert abs(recover_delay(q) - d_true) <= 1


def test_iter_quadruples_deterministic(pool):
    a = [q.x_ik.samples for _, q in iter_quadruples(pool, 3, master_seed=9)]
    b = [q.x_ik.samples for _, q in iter_quadruples(pool, 3, master_seed=9)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_manifest_roundtrip(tmp_path, pool):
    quads = list(iter_quadruples(pool, 2, master_seed=10))
    wav_dir = tmp_path / "wavs"
    manifest = tmp_path / "quads.jsonl"
    write_quadruple_manifest(quads, wav_dir, manifest)
    back = read_quadruple_manifest(manifest)
    assert len(back) == 2
    from sesqa.degrade.quadruples import load_quadruple
    q0 = load_quadruple(back[0])
    np.testing.assert_array_equal(q0.x_ik.samples, quads[0][1].x_ik.samples)
    assert q0.delay_ms == quads[0][1].delay_ms
    np.testing.assert_array_equal(q0.dt_targets_j, quads[0][1].dt_targets_j)


# --------------------------------------------------------- transcode

def test_transcode_requires_command():
    frame = speechlike(seed=30, seconds=0.5)
    spec = DegradationSpec(kind=TRANSCODE_KINDS[0], strength=0.5)
    with pytest.raises(UnavailableDegradationError):
        apply_degradation(frame, spec)


def test_transcode_template_validation():
    with pytest.raises(ValueError):
        validate_template("ffmpeg -i {in} {out}")  # missing codec/bitrate
    validate_template("enc {in} {out} {codec} {bitrate}")


def test_transcode_with_fake_codec():
    frame = speechlike(seed=31, seconds=0.5)
    spec = DegradationSpec(kind="transcode_mp3", strength=0.3)
    out = apply_degradation(frame, spec, transcoder_cmd=FAKE_TRANSCODER)
    # the copy codec is lossless: a float32 wav round-trip is bit-exact
    np.testing.assert_array_equal(out.samples, frame.samples)


def test_transcode_failure_is_reported():
    frame = speechlike(seed=32, seconds=0.5)
    spec = DegradationSpec(kind="transcode_mp3", strength=0.3)
    with pytest.raises(UnavailableDegradationError):
        apply_degradation(frame, spec,
                          transcoder_cmd="false {in} {out} {codec} {bitrate}")


def test_transcode_output_at_other_rate_is_rejected():
    frame = speechlike(seed=32, seconds=0.5)
    spec = DegradationSpec(kind="transcode_mp3", strength=0.3)
    # a "codec" that relabels its input as 16 kHz: the rate field sits at
    # byte 24 of the WAV header
    to_16k = ('python3 -c "import struct,sys;'
              " d=bytearray(open(sys.argv[1],'rb').read());"
              " struct.pack_into('<I',d,24,16000);"
              " open(sys.argv[2],'wb').write(d)\""
              " {in} {out} {codec} {bitrate}")
    with pytest.raises(UnavailableDegradationError,
                       match="transcode_mp3 is at 16000 Hz"):
        apply_degradation(frame, spec, transcoder_cmd=to_16k)


def test_chain_application_order():
    frame = speechlike(seed=33, seconds=0.5)
    chain = [DegradationSpec(kind="clipping", strength=0.4),
             DegradationSpec(kind="reverse", strength=0.0)]
    out = apply_chain(frame, chain)
    step = apply_degradation(apply_degradation(frame, chain[0]), chain[1])
    np.testing.assert_array_equal(out.samples, step.samples)
