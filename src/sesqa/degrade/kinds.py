"""Degradation kind registry: one row per kind in `KINDS`.

Every kind takes a single strength in [0, 1] where 0 is the mildest
perceptually-noticeable setting and 1 the strongest. dB and frequency /
bitrate quantities interpolate log-linearly; everything else linearly.
Extra randomized aspects (noise color, filter Q, LFO rates, ...) are aux
parameters sampled at chain time by the row's `aux` sampler.

Row order and each sampler's draw order fix every generated manifest. Row
order is the dt/ds target layout and the index order of the kind draw;
a sampler's RNG draws decide every later draw in the quadruple, and the
order of its dict keys decides the manifest's JSON bytes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np


class UnavailableDegradationError(RuntimeError):
    """Requested a degradation that is not available in this setup
    (e.g. codec transcoding without a configured transcoder)."""


STFT_WINDOW_CHOICES = (256, 512, 1024, 2048, 4096)
PARTIAL_PROB = 0.25


def _none(_):
    return {}


class Kind(NamedTuple):
    # raw sampling probability; the raw values do not sum to 1 and are
    # always renormalized over the currently available kinds
    prob: float
    params: Callable[[float], dict]                  # strength -> params
    aux: Callable[[np.random.Generator], dict] = _none


def _loglin(mild: float, strong: float, s: float) -> float:
    return float(mild * (strong / mild) ** s)


def _lin(key, mild, slope):
    return lambda s: {key: mild + slope * s}


def _log(key, mild, strong):
    return lambda s: {key: _loglin(mild, strong, s)}


def _sections(s):
    return {"n_sections": int(round(1.0 + 9.0 * s))}


def _transcode(prob, codec, mild, strong):
    # (mild, strong) bitrate endpoints in kbps
    return Kind(prob, lambda s: {"codec": codec,
                                 "bitrate_kbps": _loglin(mild, strong, s)})


def _partial(rng):
    return bool(rng.random() < PARTIAL_PROB)


def _waveform(rng):
    return str(rng.choice(["sine", "sawtooth", "square"]))


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _band(rng):
    return {"freq_hz": _log_uniform(rng, 100.0, 4000.0)}


def _lfo(lo, hi):
    return lambda rng: {"rate_hz": float(rng.uniform(lo, hi))}


def _window(rng):
    return {"window": int(rng.choice(STFT_WINDOW_CHOICES))}


KINDS = {
    "additive_noise": Kind(0.29, _lin("snr_db", 35.0, -50.0),
                           lambda rng: {"partial": _partial(rng)}),
    "colored_noise": Kind(0.07, _lin("snr_db", 45.0, -60.0), lambda rng: {
        "partial": _partial(rng),
        "exponent": float(rng.uniform(0.0, 0.7))}),
    "hum_noise": Kind(0.035, _lin("snr_db", 35.0, -50.0), lambda rng: {
        "partial": _partial(rng), "waveform": _waveform(rng),
        "freq_hz": (float(rng.choice([50.0, 60.0]))
                    + float(rng.uniform(-2.0, 2.0)))}),
    "tonal_noise": Kind(0.011, _lin("snr_db", 35.0, -50.0), lambda rng: {
        "waveform": _waveform(rng),
        "freq_hz": _log_uniform(rng, 20.0, 12000.0)}),
    "resample": Kind(0.011, _log("target_rate", 32000.0, 2000.0)),
    "mu_law": Kind(0.011, lambda s: {"bits": int(round(10.0 - 8.0 * s))}),
    "clipping": Kind(0.011, _lin("fraction", 0.005, 0.985)),
    "reverse": Kind(0.05, _none),
    "insert_silence": Kind(0.011, _sections),
    "insert_noise": Kind(0.011, _sections),
    "insert_attenuation": Kind(0.011, _sections),
    "perturb_amplitude": Kind(0.011, _sections),
    "sample_duplicate": Kind(0.011, _sections),
    "delay": Kind(0.035, _lin("gain", 0.15, 0.85),
                  lambda rng: {"n_taps": int(rng.integers(1, 5))}),
    "extreme_eq": Kind(0.006, _lin("gain_db", 20.0, 20.0), lambda rng: {
        "sign": int(rng.choice([-1, 1])), "q": float(rng.uniform(0.5, 5.0)),
        "freq_hz": _log_uniform(rng, 100.0, 8000.0)}),
    "bandpass": Kind(0.006, _lin("q", 0.5, 9.5), _band),
    "bandreject": Kind(0.006, _lin("q", 10.0, -9.5), _band),
    "highpass": Kind(0.011, _log("cutoff_hz", 150.0, 4000.0)),
    "lowpass": Kind(0.011, _log("cutoff_hz", 8000.0, 250.0)),
    "chorus": Kind(0.011, _lin("gain", 0.15, 0.85), _lfo(0.5, 2.0)),
    "overdrive": Kind(0.011, _lin("gain_db", 12.0, 38.0)),
    "phaser": Kind(0.011, _lin("gain", 0.1, 0.9), _lfo(0.2, 1.5)),
    "reverb": Kind(0.035, _lin("snr_db", 10.0, -15.0), lambda rng: {
        "rt60_s": float(rng.uniform(0.2, 1.5)),
        "predelay_ms": float(rng.uniform(0.0, 50.0))}),
    "tremolo": Kind(0.011, _lin("depth", 0.3, 0.7), _lfo(2.0, 8.0)),
    "griffin_lim": Kind(0.023, _none, _window),
    "phase_randomization": Kind(0.011, _lin("affected_fraction", 0.25, 0.75),
                                _window),
    "phase_shuffle": Kind(0.011, _lin("affected_fraction", 0.25, 0.75),
                          _window),
    "spectrogram_convolution": Kind(0.011, _lin("kernel_sigma", 0.5, 2.5),
                                    _window),
    "spectrogram_holes": Kind(0.011, _lin("dropout", 0.15, 0.83), _window),
    "spectrogram_noise": Kind(0.011, _lin("dropout", 0.15, 0.83), _window),
    "transcode_mp3": _transcode(0.023, "libmp3lame", 96.0, 2.0),
    "transcode_ac3": _transcode(0.035, "ac3", 96.0, 2.0),
    "transcode_eac3": _transcode(0.023, "eac3", 96.0, 16.0),
    "transcode_mp2": _transcode(0.023, "mp2", 96.0, 32.0),
    "transcode_wma": _transcode(0.023, "wmav2", 128.0, 32.0),
    "transcode_ogg": _transcode(0.023, "libvorbis", 64.0, 32.0),
    "transcode_opus": _transcode(0.046, "libopus", 64.0, 2.0),
}

KIND_NAMES = tuple(KINDS)

TRANSCODE_KINDS = tuple(k for k in KIND_NAMES if k.startswith("transcode_"))
NATIVE_KINDS = tuple(k for k in KIND_NAMES if not k.startswith("transcode_"))


def strength_to_params(kind: str, strength: float) -> dict:
    """Map a strength in [0, 1] onto the kind's physical parameter(s)."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must be in [0, 1], got %r" % strength)
    if kind not in KINDS:
        raise KeyError("unknown degradation kind %r" % kind)
    return KINDS[kind].params(float(strength))


def kind_probabilities(available=None) -> tuple:
    """(names, probs) renormalized over `available` kinds (default: all)."""
    names = tuple(available) if available is not None else KIND_NAMES
    p = np.array([KINDS[n].prob for n in names], dtype=np.float64)
    if not len(names):
        raise ValueError("no degradation kinds available")
    return names, p / p.sum()
