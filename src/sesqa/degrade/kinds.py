"""Degradation kind registry: names, sampling probabilities, and the
strength -> physical-parameter maps.

Every kind takes a single strength in [0, 1] where 0 is the mildest
perceptually-noticeable setting and 1 the strongest. dB and frequency /
bitrate quantities interpolate log-linearly; everything else linearly.
Extra randomized aspects (noise color, filter Q, LFO rates, ...) live in
per-kind aux parameters sampled at chain time.
"""

from __future__ import annotations

import numpy as np


class UnavailableDegradationError(RuntimeError):
    """Requested a degradation that is not available in this setup
    (e.g. codec transcoding without a configured transcoder)."""


# name -> sampling probability. The raw probabilities do not sum to 1;
# they are always renormalized over the currently available kinds.
KIND_PROBS = {
    "additive_noise": 0.29,
    "colored_noise": 0.07,
    "hum_noise": 0.035,
    "tonal_noise": 0.011,
    "resample": 0.011,
    "mu_law": 0.011,
    "clipping": 0.011,
    "reverse": 0.05,
    "insert_silence": 0.011,
    "insert_noise": 0.011,
    "insert_attenuation": 0.011,
    "perturb_amplitude": 0.011,
    "sample_duplicate": 0.011,
    "delay": 0.035,
    "extreme_eq": 0.006,
    "bandpass": 0.006,
    "bandreject": 0.006,
    "highpass": 0.011,
    "lowpass": 0.011,
    "chorus": 0.011,
    "overdrive": 0.011,
    "phaser": 0.011,
    "reverb": 0.035,
    "tremolo": 0.011,
    "griffin_lim": 0.023,
    "phase_randomization": 0.011,
    "phase_shuffle": 0.011,
    "spectrogram_convolution": 0.011,
    "spectrogram_holes": 0.011,
    "spectrogram_noise": 0.011,
    "transcode_mp3": 0.023,
    "transcode_ac3": 0.035,
    "transcode_eac3": 0.023,
    "transcode_mp2": 0.023,
    "transcode_wma": 0.023,
    "transcode_ogg": 0.023,
    "transcode_opus": 0.046,
}

KIND_NAMES = tuple(KIND_PROBS)

TRANSCODE_KINDS = tuple(k for k in KIND_NAMES if k.startswith("transcode_"))
NATIVE_KINDS = tuple(k for k in KIND_NAMES if not k.startswith("transcode_"))

TRANSCODE_CODECS = {
    "transcode_mp3": "libmp3lame",
    "transcode_ac3": "ac3",
    "transcode_eac3": "eac3",
    "transcode_mp2": "mp2",
    "transcode_wma": "wmav2",
    "transcode_ogg": "libvorbis",
    "transcode_opus": "libopus",
}

# (mild, strong) bitrate endpoints in kbps; log-linear in strength
TRANSCODE_BITRATES = {
    "transcode_mp3": (96.0, 2.0),
    "transcode_ac3": (96.0, 2.0),
    "transcode_eac3": (96.0, 16.0),
    "transcode_mp2": (96.0, 32.0),
    "transcode_wma": (128.0, 32.0),
    "transcode_ogg": (64.0, 32.0),
    "transcode_opus": (64.0, 2.0),
}


def _loglin(mild: float, strong: float, s: float) -> float:
    return float(mild * (strong / mild) ** s)


def strength_to_params(kind: str, strength: float) -> dict:
    """Map a strength in [0, 1] onto the kind's physical parameter(s)."""
    if not 0.0 <= strength <= 1.0:
        raise ValueError("strength must be in [0, 1], got %r" % strength)
    s = float(strength)
    if kind == "additive_noise" or kind == "hum_noise" or kind == "tonal_noise":
        return {"snr_db": 35.0 - 50.0 * s}
    if kind == "colored_noise":
        return {"snr_db": 45.0 - 60.0 * s}
    if kind == "resample":
        return {"target_rate": _loglin(32000.0, 2000.0, s)}
    if kind == "mu_law":
        return {"bits": int(round(10.0 - 8.0 * s))}
    if kind == "clipping":
        return {"fraction": 0.005 + 0.985 * s}
    if kind == "reverse":
        return {}
    if kind in ("insert_silence", "insert_noise", "insert_attenuation",
                "perturb_amplitude", "sample_duplicate"):
        return {"n_sections": int(round(1.0 + 9.0 * s))}
    if kind == "delay":
        return {"gain": 0.15 + 0.85 * s}
    if kind == "extreme_eq":
        return {"gain_db": 20.0 + 20.0 * s}
    if kind == "bandpass":
        return {"q": 0.5 + 9.5 * s}
    if kind == "bandreject":
        return {"q": 10.0 - 9.5 * s}
    if kind == "highpass":
        return {"cutoff_hz": _loglin(150.0, 4000.0, s)}
    if kind == "lowpass":
        return {"cutoff_hz": _loglin(8000.0, 250.0, s)}
    if kind == "chorus":
        return {"gain": 0.15 + 0.85 * s}
    if kind == "overdrive":
        return {"gain_db": 12.0 + 38.0 * s}
    if kind == "phaser":
        return {"gain": 0.1 + 0.9 * s}
    if kind == "reverb":
        return {"snr_db": 10.0 - 15.0 * s}
    if kind == "tremolo":
        return {"depth": 0.3 + 0.7 * s}
    if kind == "griffin_lim":
        return {}
    if kind in ("phase_randomization", "phase_shuffle"):
        return {"affected_fraction": 0.25 + 0.75 * s}
    if kind == "spectrogram_convolution":
        return {"kernel_sigma": 0.5 + 2.5 * s}
    if kind in ("spectrogram_holes", "spectrogram_noise"):
        return {"dropout": 0.15 + 0.83 * s}
    if kind in TRANSCODE_KINDS:
        mild, strong = TRANSCODE_BITRATES[kind]
        return {"codec": TRANSCODE_CODECS[kind],
                "bitrate_kbps": _loglin(mild, strong, s)}
    raise KeyError("unknown degradation kind %r" % kind)


def kind_probabilities(available=None) -> tuple:
    """(names, probs) renormalized over `available` kinds (default: all)."""
    names = tuple(available) if available is not None else KIND_NAMES
    p = np.array([KIND_PROBS[n] for n in names], dtype=np.float64)
    if not len(names):
        raise ValueError("no degradation kinds available")
    return names, p / p.sum()
