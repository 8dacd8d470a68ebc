"""Native degradation kernels (30 kinds), at 48 kHz only.

Every kernel maps a 48 kHz signal and a DegradationSpec to a signal of
the same length, deterministically: all randomness derives from the
spec's seed. `apply_degradation` raises AudioFormatError for a frame at
any other rate. Codec transcoding kinds are dispatched to the external
transcoder hook in `transcode`.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft, ndimage, signal

from ..audio import (AudioFormatError, AudioFrame, CANONICAL_RATE,
                     DegenerateInputError)
from .kinds import NATIVE_KINDS, TRANSCODE_KINDS, UnavailableDegradationError
from .transcode import transcode

RATE = CANONICAL_RATE

EDGE_FADE_S = 0.010       # raised-cosine boundary for partial application
MIN_PARTIAL_S = 0.300
GRIFFIN_LIM_ITERS = 32
MU = 255.0                # companding constant for mu-law quantization


def _rng(spec) -> np.random.Generator:
    return np.random.default_rng(spec.seed)


def _partial_mask(n: int, rng: np.random.Generator) -> np.ndarray:
    """Mask selecting a random segment (>= 300 ms) with 10 ms cosine edges."""
    min_len = min(int(MIN_PARTIAL_S * RATE), n)
    seg_len = int(rng.integers(min_len, n + 1))
    start = int(rng.integers(0, n - seg_len + 1))
    mask = np.zeros(n)
    mask[start:start + seg_len] = 1.0
    fade = min(int(EDGE_FADE_S * RATE), seg_len // 2)
    if fade > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
        if start > 0:
            mask[start:start + fade] = ramp
        if start + seg_len < n:
            mask[start + seg_len - fade:start + seg_len] = ramp[::-1]
    return mask


def _fit(y, n):
    """`y` cut or zero-padded to `n` samples."""
    return y[:n] if len(y) >= n else np.pad(y, (0, n - len(y)))


def _mix_at_snr(x: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """Add `noise` scaled so the overall SNR is exactly `snr_db`."""
    ex = np.sum(x.astype(np.float64) ** 2)
    en = np.sum(noise.astype(np.float64) ** 2)
    if ex <= 0.0:
        raise DegenerateInputError("cannot mix noise into a silent frame")
    if en <= 0.0:
        raise DegenerateInputError("degenerate (all-zero) noise signal")
    scale = np.sqrt(ex / en) * 10.0 ** (-snr_db / 20.0)
    return x + scale * noise


def _colored_noise(n: int, exponent: float,
                   rng: np.random.Generator) -> np.ndarray:
    """1/f^exponent noise via spectral shaping of white noise."""
    white = rng.normal(size=n)
    spec = sp_fft.rfft(white)
    f = sp_fft.rfftfreq(n)
    shape = np.ones_like(f)
    shape[1:] = f[1:] ** (-exponent)
    shape[0] = 0.0
    return sp_fft.irfft(spec * shape, n)


def _tone(n: int, freq: float, waveform: str,
          rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n) / RATE
    phase = rng.uniform(0.0, 2 * np.pi)
    arg = 2 * np.pi * freq * t + phase
    if waveform == "sine":
        return np.sin(arg)
    if waveform == "sawtooth":
        return signal.sawtooth(arg)
    if waveform == "square":
        return signal.square(arg)
    raise ValueError("unknown waveform %r" % waveform)


def _noise_mix(x, spec, noise):
    mask = (_partial_mask(len(x), _rng(spec))
            if spec.aux_params.get("partial") else 1.0)
    return _mix_at_snr(x, noise * mask, spec.aux_params["snr_db"])


# ------------------------------------------------------- noise family

def _k_additive_noise(x, spec, noise_pool=None):
    rng = _rng(spec)
    if noise_pool:
        item = noise_pool[int(rng.integers(len(noise_pool)))]
        src = item.samples if isinstance(item, AudioFrame) else np.asarray(item)
        if len(src) >= len(x):
            off = int(rng.integers(0, len(src) - len(x) + 1))
            noise = np.array(src[off:off + len(x)], dtype=np.float64)
        else:
            reps = int(np.ceil(len(x) / len(src)))
            noise = np.tile(np.asarray(src, dtype=np.float64), reps)[:len(x)]
    else:
        # hermetic fallback: colored noise with a random exponent
        noise = _colored_noise(len(x), rng.uniform(0.0, 0.7), rng)
    return _noise_mix(x, spec, noise)


def _k_colored_noise(x, spec, **_):
    noise = _colored_noise(len(x), spec.aux_params.get("exponent", 0.35),
                           _rng(spec))
    return _noise_mix(x, spec, noise)


def _k_hum_noise(x, spec, **_):
    aux = spec.aux_params
    noise = _tone(len(x), aux.get("freq_hz", 50.0),
                  aux.get("waveform", "sine"), _rng(spec))
    return _noise_mix(x, spec, noise)


def _k_tonal_noise(x, spec, **_):
    aux = spec.aux_params
    noise = _tone(len(x), aux.get("freq_hz", 1000.0),
                  aux.get("waveform", "sine"), _rng(spec))
    return _mix_at_snr(x, noise, aux["snr_db"])


# ---------------------------------------------- sample-domain distortions

def _k_resample(x, spec, **_):
    target = max(2, int(round(spec.aux_params["target_rate"])))
    g = np.gcd(target, RATE)
    down = signal.resample_poly(x, target // g, RATE // g)
    return _fit(signal.resample_poly(down, RATE // g, target // g), len(x))


def _k_mu_law(x, spec, **_):
    bits = int(spec.aux_params["bits"])
    levels = 2 ** bits
    peak = np.max(np.abs(x))
    if peak == 0.0:
        return x.copy()
    xn = x / peak
    comp = np.sign(xn) * np.log1p(MU * np.abs(xn)) / np.log1p(MU)
    q = np.round((comp + 1.0) / 2.0 * (levels - 1))
    comp_q = q / (levels - 1) * 2.0 - 1.0
    out = np.sign(comp_q) * ((1.0 + MU) ** np.abs(comp_q) - 1.0) / MU
    return out * peak


def _k_clipping(x, spec, **_):
    frac = spec.aux_params["fraction"]
    thresh = np.quantile(np.abs(x), 1.0 - frac)
    if thresh <= 0.0:
        raise DegenerateInputError("cannot clip an all-zero frame")
    return np.clip(x, -thresh, thresh)


def _k_reverse(x, spec, **_):
    return x[::-1].copy()


# -------------------------------------------------------- insert family

def _sections(n, spec):
    rng = _rng(spec)
    count = int(spec.aux_params["n_sections"])
    out = []
    for _ in range(count):
        length = int(rng.uniform(0.020, 0.120) * RATE)
        length = min(length, n)
        start = int(rng.integers(0, n - length + 1))
        out.append((start, length))
    return out, rng


def _k_insert_silence(x, spec, **_):
    y = x.copy()
    for start, length in _sections(len(x), spec)[0]:
        y[start:start + length] = 0.0
    return y


def _k_insert_noise(x, spec, **_):
    y = x.copy()
    secs, rng = _sections(len(x), spec)
    level = np.sqrt(np.mean(x ** 2)) or 1.0
    for start, length in secs:
        y[start:start + length] = level * rng.normal(size=length)
    return y


def _k_insert_attenuation(x, spec, **_):
    y = x.copy()
    secs, rng = _sections(len(x), spec)
    for start, length in secs:
        y[start:start + length] *= rng.uniform(0.0, 0.8)
    return y


def _k_perturb_amplitude(x, spec, **_):
    y = x.copy()
    secs, rng = _sections(len(x), spec)
    for start, length in secs:
        y[start:start + length] *= 1.0 + 0.5 * rng.normal(size=length)
    return y


def _k_sample_duplicate(x, spec, **_):
    y = x.copy()
    for start, length in _sections(len(x), spec)[0]:
        if start == 0:
            continue
        src = y[max(0, start - length):start]
        reps = int(np.ceil(length / len(src)))
        y[start:start + length] = np.tile(src, reps)[:length]
    return y


# --------------------------------------------------------------- effects

def _k_delay(x, spec, **_):
    rng = _rng(spec)
    gain = spec.aux_params["gain"]
    n_taps = int(spec.aux_params.get("n_taps", 1))
    y = x.copy()
    for k in range(n_taps):
        d = int(rng.uniform(0.010, 0.500) * RATE)
        g = gain * 0.6 ** k
        if d < len(x):
            y[d:] += g * x[:-d]
    return y


def _biquad_peaking(freq, q, gain_db):
    """RBJ peaking-EQ biquad coefficients."""
    a_lin = 10.0 ** (gain_db / 40.0)
    w0 = 2 * np.pi * freq / RATE
    alpha = np.sin(w0) / (2 * q)
    b = np.array([1 + alpha * a_lin, -2 * np.cos(w0), 1 - alpha * a_lin])
    a = np.array([1 + alpha / a_lin, -2 * np.cos(w0), 1 - alpha / a_lin])
    return b / a[0], a / a[0]


def _k_extreme_eq(x, spec, **_):
    aux = spec.aux_params
    gain_db = aux["gain_db"] * aux.get("sign", 1)
    b, a = _biquad_peaking(aux.get("freq_hz", 1000.0),
                           aux.get("q", 1.0), gain_db)
    return signal.lfilter(b, a, x)


def _band_edges(spec):
    freq = spec.aux_params.get("freq_hz", 1000.0)
    q = spec.aux_params["q"]
    bw = freq / max(q, 1e-3)
    lo = max(freq - bw / 2.0, 10.0)
    hi = min(freq + bw / 2.0, RATE / 2.0 - 10.0)
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def _butter(x, cutoff, btype):
    """Fourth-order Butterworth filter, as second-order sections."""
    return signal.sosfilt(signal.butter(4, cutoff, btype=btype, fs=RATE,
                                        output="sos"), x)


def _k_bandpass(x, spec, **_):
    return _butter(x, _band_edges(spec), "bandpass")


def _k_bandreject(x, spec, **_):
    return _butter(x, _band_edges(spec), "bandstop")


def _k_highpass(x, spec, **_):
    return _butter(x, spec.aux_params["cutoff_hz"], "highpass")


def _k_lowpass(x, spec, **_):
    return _butter(x, spec.aux_params["cutoff_hz"], "lowpass")


def _k_chorus(x, spec, **_):
    gain = spec.aux_params["gain"]
    rate_hz = spec.aux_params.get("rate_hz", 1.0)
    rng = _rng(spec)
    t = np.arange(len(x))
    base = 0.025 * RATE
    depth = 0.008 * RATE
    lfo = np.sin(2 * np.pi * rate_hz * t / RATE + rng.uniform(0, 2 * np.pi))
    delay = base + depth * lfo
    pos = np.clip(t - delay, 0, len(x) - 1)
    i0 = pos.astype(np.intp)
    i1 = np.minimum(i0 + 1, len(x) - 1)
    frac = pos - i0
    voice = (1 - frac) * x[i0] + frac * x[i1]
    return x + gain * voice


def _k_overdrive(x, spec, **_):
    g = 10.0 ** (spec.aux_params["gain_db"] / 20.0)
    return np.tanh(g * x) / np.tanh(g)


def _k_phaser(x, spec, **_):
    gain = spec.aux_params["gain"]
    rate_hz = spec.aux_params.get("rate_hz", 0.5)
    rng = _rng(spec)
    block = 480  # 10 ms blocks with piecewise-constant allpass coefficient
    n_stages = 4
    y = np.array(x, dtype=np.float64)
    zi = np.zeros((n_stages, 1))
    phase0 = rng.uniform(0, 2 * np.pi)
    out = np.empty_like(y)
    for start in range(0, len(y), block):
        stop = min(start + block, len(y))
        tmid = (start + stop) / 2.0 / RATE
        # sweep the allpass corner between 200 Hz and 2 kHz
        fc = 200.0 * 10.0 ** (0.5 + 0.5 * np.sin(
            2 * np.pi * rate_hz * tmid + phase0))
        c = (np.tan(np.pi * fc / RATE) - 1) / (np.tan(np.pi * fc / RATE) + 1)
        seg = y[start:stop]
        for st in range(n_stages):
            seg, zi[st] = signal.lfilter([c, 1.0], [1.0, c], seg, zi=zi[st])
        out[start:stop] = seg
    return x + gain * out


def _k_reverb(x, spec, **_):
    aux = spec.aux_params
    rng = _rng(spec)
    rt60 = aux.get("rt60_s", 0.6)
    pre = int(aux.get("predelay_ms", 10.0) / 1000.0 * RATE)
    ir_len = min(int(rt60 * RATE), len(x))
    t = np.arange(ir_len) / RATE
    ir = rng.normal(size=ir_len) * np.exp(-t * np.log(1000.0) / rt60)
    ir = np.concatenate([np.zeros(pre), ir])
    wet = signal.fftconvolve(x, ir)[:len(x)]
    return _mix_at_snr(x, wet, aux["snr_db"])


def _k_tremolo(x, spec, **_):
    depth = spec.aux_params["depth"]
    rate_hz = spec.aux_params.get("rate_hz", 4.0)
    rng = _rng(spec)
    t = np.arange(len(x)) / RATE
    lfo = 0.5 + 0.5 * np.sin(2 * np.pi * rate_hz * t
                             + rng.uniform(0, 2 * np.pi))
    return x * (1.0 - depth * lfo)


# --------------------------------------------------------- STFT family

@functools.cache
def _hann(n):
    """The periodic Hann window of length `n` (read-only) and its sum."""
    if n % 2:
        raise ValueError("STFT window %d is odd; the hop must be half" % n)
    win = signal.get_window("hann", n)
    win.flags.writeable = False
    return win, win.sum()


def _stft(x, spec):
    """STFT with a Hann window of the spec's length and half overlap.

    Bit for bit scipy's `stft(x, nperseg=window)[2]`, down to its layout
    (a (freq, time) view of a (time, freq) array, so later sums run in
    the same order), but the window is kept on a signal shorter than it:
    the half-window zero pad at each end always gives a whole frame.
    """
    n = int(spec.aux_params.get("window", 1024))
    win, total = _hann(n)
    h = n // 2
    xp = np.concatenate([np.zeros(h), x, np.zeros(h + (-len(x)) % h)])
    z = sp_fft.rfft(sliding_window_view(xp, n)[::h] * win)
    z *= np.sqrt(1.0 / total ** 2)
    return z.T


def _istft(z, spec, n):
    """Bit for bit scipy's `istft(z, nperseg=window)[1]`, fit to `n`.

    With hop = window/2 every kept output block is the second half of
    segment j-1 plus the first half of segment j, so the overlap-add is
    two slab adds; starting from 0.0 keeps scipy's loop's signed zeros.
    """
    win, total = _hann(int(spec.aux_params.get("window", 1024)))
    h = len(win) // 2
    seg = sp_fft.irfft((z + 0j).T, n=len(win))     # one segment a row
    seg *= total
    seg *= win
    y = (0.0 + seg[:-1, h:]) + seg[1:, :h]
    y /= win[h:] ** 2 + win[:h] ** 2       # >= 0.5 for a Hann window
    return _fit(y.ravel(), n)


def _with_phase(mag, z):
    """`mag` with the phase of `z`; a bin where `z` is 0 gets phase 0."""
    a = np.abs(z)
    zero = a == 0
    if zero.any():
        z, a = np.where(zero, 1.0, z), np.where(zero, 1.0, a)
    return z * (mag / a)


def _k_griffin_lim(x, spec, **_):
    z = _stft(x, spec)
    mag = np.abs(z)
    rng = _rng(spec)
    phase = rng.uniform(0, 2 * np.pi, size=mag.shape)
    est = mag * np.exp(1j * phase)
    for _ in range(GRIFFIN_LIM_ITERS):
        y = _istft(est, spec, len(x))
        z2 = _stft(y, spec)
        est = _with_phase(mag, z2)
    return _istft(est, spec, len(x))


def _k_phase_randomization(x, spec, **_):
    z = _stft(x, spec)
    rng = _rng(spec)
    frac = spec.aux_params.get("affected_fraction", 1.0)
    cols = rng.random(z.shape[1]) < frac
    phase = rng.uniform(0, 2 * np.pi, size=z.shape)
    z[:, cols] = np.abs(z[:, cols]) * np.exp(1j * phase[:, cols])
    return _istft(z, spec, len(x))


def _k_phase_shuffle(x, spec, **_):
    z = _stft(x, spec)
    rng = _rng(spec)
    frac = spec.aux_params.get("affected_fraction", 1.0)
    cols = np.flatnonzero(rng.random(z.shape[1]) < frac)
    if len(cols) > 1:
        perm = rng.permutation(cols)
        z[:, cols] = _with_phase(np.abs(z[:, cols]), z[:, perm])
    return _istft(z, spec, len(x))


def _k_spectrogram_convolution(x, spec, **_):
    z = _stft(x, spec)
    sigma = spec.aux_params.get("kernel_sigma", 1.0)
    z = (ndimage.gaussian_filter(z.real, sigma)
         + 1j * ndimage.gaussian_filter(z.imag, sigma))
    return _istft(z, spec, len(x))


def _k_spectrogram_holes(x, spec, **_):
    z = _stft(x, spec)
    rng = _rng(spec)
    drop = rng.random(z.shape) < spec.aux_params["dropout"]
    z[drop] = 0.0
    return _istft(z, spec, len(x))


def _k_spectrogram_noise(x, spec, **_):
    z = _stft(x, spec)
    rng = _rng(spec)
    drop = rng.random(z.shape) < spec.aux_params["dropout"]
    level = np.mean(np.abs(z))
    mags = level * rng.rayleigh(size=int(drop.sum()))
    phases = rng.uniform(0, 2 * np.pi, size=int(drop.sum()))
    z[drop] = mags * np.exp(1j * phases)
    return _istft(z, spec, len(x))


# each native kind's signal processing is the function `_k_<kind>` above
_KERNELS = {kind: globals()["_k_" + kind] for kind in NATIVE_KINDS}


def apply_degradation(frame: AudioFrame, spec, noise_pool=None,
                      transcoder_cmd=None) -> AudioFrame:
    """Apply one degradation to a 48 kHz frame; output has its length."""
    if frame.sample_rate != RATE:
        raise AudioFormatError("sample rate %d Hz, degradations need %d Hz"
                               % (frame.sample_rate, RATE))
    if spec.kind in TRANSCODE_KINDS:
        if transcoder_cmd is None:
            raise UnavailableDegradationError(
                "%s requires a configured external transcoder" % spec.kind)
        y = _fit(transcode(frame, spec, transcoder_cmd), len(frame))
    else:
        x = np.asarray(frame.samples, dtype=np.float64)
        y = _KERNELS[spec.kind](x, spec, noise_pool=noise_pool)
    if len(y) != len(frame):
        raise AssertionError("kernel %s changed the length" % spec.kind)
    return frame.with_samples(np.asarray(y, dtype=np.float32))


def apply_chain(frame: AudioFrame, chain,
                noise_pool=None, transcoder_cmd=None) -> AudioFrame:
    for spec in chain:
        frame = apply_degradation(frame, spec, noise_pool=noise_pool,
                                  transcoder_cmd=transcoder_cmd)
    return frame
