"""Reference-based objective quality measures.

These supply the regression targets for the measure-estimation head. All
functions take a clean reference and a degraded signal of equal length and
return a scalar. The rate is fixed at 48 kHz, the model's one input rate:
an AudioFrame at any other rate raises AudioFormatError, and plain arrays
are taken to be 48 kHz. The framing windows and filterbanks are built once,
at import. Windowing conventions are fixed here:

* SSNR / LLR / WSSD: 30 ms frames, 75% overlap, Hann window, at 48 kHz.
* STOI: resampled to 10 kHz internally, 15 one-third-octave bands starting
  at 150 Hz, 384 ms analysis segments, -15 dB clipping.
* MCD / LMBD: 40 mel bands, 25 ms frames with 10 ms hop; MCD uses cepstra
  1..13 (c0 excluded).

Bit-exact agreement with any external implementation is a non-goal.

LLR depends on the solver on frames whose order-16 LPC normal equations
are ill-conditioned (condition number above 1e6, as on strongly low-passed
48 kHz frames): there the Levinson recursion here, run on all frames at
once, and a frame-by-frame one differ by up to about 1e-2 in LLR. On
well-conditioned frames they agree to about 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct, irfft, next_fast_len, rfft
from scipy.signal import resample_poly

from .audio import (CANONICAL_RATE, AudioFormatError, AudioFrame,
                    DegenerateInputError)

MEASURE_NAMES = ("ssnr", "llr", "wssd", "stoi", "sisdr", "mcd", "lmbd")

SSNR_MIN_DB = -10.0
SSNR_MAX_DB = 35.0
SISDR_CAP_DB = 60.0
LPC_ORDER = 16
RATE = CANONICAL_RATE

_EPS = 1e-12


def _as_samples(x) -> np.ndarray:
    if isinstance(x, AudioFrame):
        if x.sample_rate != RATE:
            raise AudioFormatError("sample rate %d Hz, measures need %d Hz"
                                   % (x.sample_rate, RATE))
        x = x.samples
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("measures expect 1-D signals")
    return x


def _check_pair(reference, degraded) -> tuple[np.ndarray, np.ndarray]:
    r = _as_samples(reference)
    d = _as_samples(degraded)
    if len(r) != len(d):
        raise ValueError("reference and degraded lengths differ: %d vs %d"
                         % (len(r), len(d)))
    if len(r) == 0 or not np.any(r):
        raise DegenerateInputError("silent reference signal")
    return r, d


def _frame(x: np.ndarray, size: int, hop: int, window=None) -> np.ndarray:
    """Stack overlapping frames as rows; trailing partial frame dropped.

    Without a window the rows are a read-only view of `x`."""
    if len(x) < size:
        raise DegenerateInputError("signal shorter than one analysis frame")
    frames = sliding_window_view(x, size)[::hop]
    if window is not None:
        frames = frames * window
    return frames


# 30 ms Hann frames with 75% overlap for SSNR, LLR and WSSD
_FRAME = int(round(0.030 * RATE))
_HOP = _FRAME // 4
_WIN = np.hanning(_FRAME)
_NFFT = 2048  # WSSD and MCD/LMBD: the power of two above 30 ms and 25 ms


# ------------------------------------------------------------------ SSNR

def ssnr(reference, degraded) -> float:
    """Segmental SNR, mean over 30 ms frames, each clamped to [-10, 35] dB."""
    r, d = _check_pair(reference, degraded)
    rf = _frame(r, _FRAME, _HOP)
    df = _frame(d, _FRAME, _HOP)
    sig = np.sum(rf ** 2, axis=1)
    noise = np.sum((rf - df) ** 2, axis=1)
    keep = sig > 0
    if not np.any(keep):
        raise DegenerateInputError("no active reference frames")
    with np.errstate(divide="ignore"):
        snr = 10.0 * np.log10(sig[keep] / np.maximum(noise[keep], _EPS))
    return float(np.mean(np.clip(snr, SSNR_MIN_DB, SSNR_MAX_DB)))


# ------------------------------------------------------------------- LLR

def _levinson(r: np.ndarray, order: int) -> np.ndarray:
    """Levinson-Durbin recursion on every row of r (N, order+1) at once;
    returns LPC coefficients [1, a1..ap] per row.

    A row whose prediction error has fallen to _EPS is perfectly
    predictable: its reflection coefficients are 0 from then on."""
    a = np.zeros(r.shape)
    a[:, 0] = 1.0
    err = r[:, 0].copy()
    for i in range(1, order + 1):
        done = err <= _EPS
        acc = r[:, i] + np.einsum("ij,ij->i", a[:, 1:i], r[:, i - 1:0:-1])
        k = -acc / np.where(done, 1.0, err)
        k[done] = 0.0
        a[:, 1:i + 1] += k[:, None] * a[:, i - 1::-1]
        err *= 1.0 - k * k
    return a


def _autocorr(frames: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation lags 0..order of every row."""
    # any length >= frame + order keeps circular wrap-around off lags
    # 0..order; at 48 kHz that is 1458, which transforms in under half the
    # time of the next power of two, 2048
    nfft = next_fast_len(frames.shape[1] + order, real=True)
    spec = rfft(frames, nfft, axis=1)
    return irfft(spec.real ** 2 + spec.imag ** 2, nfft, axis=1)[:, :order + 1]


def _lpc_quadform(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """a^T R a per row, R the Toeplitz matrix built from autocorrelation r."""
    p = a.shape[1] - 1
    acc = r[:, 0] * np.einsum("ij,ij->i", a, a)
    for m in range(1, p + 1):
        acc += 2.0 * r[:, m] * np.einsum("ij,ij->i", a[:, :-m], a[:, m:])
    return acc


def llr(reference, degraded) -> float:
    """Log-likelihood ratio between LPC fits, mean over 30 ms frames."""
    r, d = _check_pair(reference, degraded)
    ac_r = _autocorr(_frame(r, _FRAME, _HOP, _WIN), LPC_ORDER)
    ac_d = _autocorr(_frame(d, _FRAME, _HOP, _WIN), LPC_ORDER)
    active = ac_r[:, 0] > _EPS
    ac_r, ac_d = ac_r[active], ac_d[active]
    num = _lpc_quadform(_levinson(ac_d, LPC_ORDER), ac_r)
    den = _lpc_quadform(_levinson(ac_r, LPC_ORDER), ac_r)
    ok = (den > _EPS) & np.isfinite(num) & np.isfinite(den)
    if not np.any(ok):
        raise DegenerateInputError("no analyzable frames for LLR")
    return float(np.mean(np.log(np.maximum(num[ok] / den[ok], _EPS))))


# ------------------------------------------------------------------ WSSD

# Critical-band centers and bandwidths (Hz) for the weighted spectral
# slope distance, following the classic 25-band layout.
_WSS_CF = np.array([
    50.0, 120.0, 190.0, 260.0, 330.0, 400.0, 470.0, 540.0, 617.372,
    703.378, 798.717, 904.128, 1020.38, 1148.30, 1288.72, 1442.54,
    1610.70, 1794.16, 1993.93, 2211.08, 2446.71, 2701.97, 2978.04,
    3276.17, 3597.63])
_WSS_BW = np.array([
    70.0, 70.0, 70.0, 70.0, 70.0, 70.0, 70.0, 77.3724, 86.0056, 95.3398,
    105.411, 116.256, 127.914, 140.423, 153.823, 168.154, 183.457,
    199.776, 217.153, 235.631, 255.255, 276.072, 298.126, 321.465,
    346.136])
_WSS_KMAX = 20.0
_WSS_KLOCMAX = 1.0
# Gaussian band filters, shape (25, _NFFT // 2 + 1)
_WSS_FILTER = np.exp(-11.0 * ((np.fft.rfftfreq(_NFFT, 1.0 / RATE)[None, :]
                               - _WSS_CF[:, None]) / _WSS_BW[:, None]) ** 2)


def _wss_band_db(frames: np.ndarray) -> np.ndarray:
    """Per-frame critical-band energies in dB, shape (n_frames, 25)."""
    spec = np.abs(rfft(frames, _NFFT, axis=1)) ** 2
    bands = spec @ _WSS_FILTER.T
    return 10.0 * np.log10(np.maximum(bands, _EPS))


def _wss_peaks(db: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Nearest spectral peak, per frame and band, in the slope direction.

    A rising band walks up to the next local maximum, a falling band back
    to the previous one: the first band at or after j whose slope is <= 0
    (or the last band), or the last band at or before j entered by a slope
    >= 0 (or the first band). Shape (n_frames, n_bands - 1)."""
    n_bands = db.shape[1]
    band = np.arange(n_bands)
    stop_up = np.ones(db.shape, dtype=bool)
    stop_up[:, :-1] = slope <= 0
    stop_down = np.ones(db.shape, dtype=bool)
    stop_down[:, 1:] = slope >= 0
    up = np.minimum.accumulate(np.where(stop_up, band, n_bands)[:, ::-1],
                               axis=1)[:, ::-1]
    down = np.maximum.accumulate(np.where(stop_down, band, -1), axis=1)
    peak = np.where(slope > 0, up[:, :-1], down[:, :-1])
    return np.take_along_axis(db, peak, axis=1)


def wssd(reference, degraded) -> float:
    """Weighted spectral slope distance over 30 ms frames."""
    r, d = _check_pair(reference, degraded)
    db_r = _wss_band_db(_frame(r, _FRAME, _HOP, _WIN))
    db_d = _wss_band_db(_frame(d, _FRAME, _HOP, _WIN))

    slope_r = np.diff(db_r, axis=1)
    slope_d = np.diff(db_d, axis=1)
    loc_peak = _wss_peaks(db_r, slope_r)
    db_max = db_r.max(axis=1, keepdims=True)
    w_glob = _WSS_KMAX / (_WSS_KMAX + db_max - db_r[:, :-1])
    w_loc = _WSS_KLOCMAX / (_WSS_KLOCMAX + loc_peak - db_r[:, :-1])
    w = w_glob * w_loc
    vals = np.sum(w * (slope_r - slope_d) ** 2, axis=1) / np.sum(w, axis=1)
    return float(np.mean(vals))


# ------------------------------------------------------------------ STOI

_STOI_RATE = 10000
_STOI_FRAME = 256
_STOI_HOP = 128
_STOI_NFFT = 512
_STOI_NBANDS = 15
_STOI_FIRST_CF = 150.0
_STOI_SEG = 30          # frames per 384 ms analysis segment
_STOI_CLIP_DB = -15.0
_STOI_VAD_RANGE_DB = 40.0
_STOI_WIN = np.hanning(_STOI_FRAME)
_STOI_CF = _STOI_FIRST_CF * 2.0 ** (np.arange(_STOI_NBANDS) / 3.0)
_STOI_FREQS = np.fft.rfftfreq(_STOI_NFFT, 1.0 / _STOI_RATE)
# one-third-octave band matrix (15, _STOI_NFFT // 2 + 1) of 0s and 1s
_STOI_BANDS = ((_STOI_FREQS >= _STOI_CF[:, None] * 2.0 ** (-1.0 / 6.0))
               & (_STOI_FREQS < _STOI_CF[:, None] * 2.0 ** (1.0 / 6.0))
               ).astype(np.float64)


def stoi(reference, degraded) -> float:
    """Short-time objective intelligibility (correlation based, in [-1, 1])."""
    r, d = _check_pair(reference, degraded)
    r = resample_poly(r, _STOI_RATE, RATE)
    d = resample_poly(d, _STOI_RATE, RATE)
    rf = _frame(r, _STOI_FRAME, _STOI_HOP, _STOI_WIN)
    df = _frame(d, _STOI_FRAME, _STOI_HOP, _STOI_WIN)

    # energy VAD on the reference; drop frames 40 dB below the loudest
    energy = 20.0 * np.log10(np.linalg.norm(rf, axis=1) + _EPS)
    keep = energy > energy.max() - _STOI_VAD_RANGE_DB
    rf, df = rf[keep], df[keep]
    if len(rf) < _STOI_SEG:
        raise DegenerateInputError("too few active frames for STOI")

    xr = np.sqrt((np.abs(rfft(rf, _STOI_NFFT, axis=1)) ** 2) @ _STOI_BANDS.T)
    xd = np.sqrt((np.abs(rfft(df, _STOI_NFFT, axis=1)) ** 2) @ _STOI_BANDS.T)

    clip_gain = 10.0 ** (-_STOI_CLIP_DB / 20.0)
    # every analysis segment at once: (segments, 30 frames, 15 bands)
    X = sliding_window_view(xr, _STOI_SEG, axis=0).transpose(0, 2, 1)
    Y = sliding_window_view(xd, _STOI_SEG, axis=0).transpose(0, 2, 1)
    alpha = np.sqrt(np.sum(X ** 2, axis=1, keepdims=True)
                    / np.maximum(np.sum(Y ** 2, axis=1, keepdims=True), _EPS))
    Yc = np.minimum(Y * alpha, X * clip_gain)
    Xc = X - X.mean(axis=1, keepdims=True)
    Yc = Yc - Yc.mean(axis=1, keepdims=True)
    denom = np.linalg.norm(Xc, axis=1) * np.linalg.norm(Yc, axis=1)
    return float(np.mean(np.sum(Xc * Yc, axis=1) / np.maximum(denom, _EPS)))


# ----------------------------------------------------------------- SISDR

def sisdr(reference, degraded) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, capped at +/-60."""
    r, d = _check_pair(reference, degraded)
    scale = np.dot(d, r) / np.dot(r, r)
    target = scale * r
    err = d - target
    num = np.dot(target, target)
    den = np.dot(err, err)
    if den <= _EPS * max(num, 1.0):
        return SISDR_CAP_DB
    if num <= 0.0:
        return -SISDR_CAP_DB
    val = 10.0 * np.log10(num / den)
    return float(np.clip(val, -SISDR_CAP_DB, SISDR_CAP_DB))


# ------------------------------------------------------------- MCD, LMBD

_MEL_NBANDS = 40
_MEL_NCEP = 13
_MEL_FRAME = int(round(0.025 * RATE))
_MEL_HOP = int(round(0.010 * RATE))
_MEL_WIN = np.hanning(_MEL_FRAME)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _mel_filterbank() -> np.ndarray:
    """Triangular filters (40, _NFFT // 2 + 1) up to the Nyquist rate."""
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(RATE / 2.0),
                                   _MEL_NBANDS + 2))
    freqs = np.fft.rfftfreq(_NFFT, 1.0 / RATE)
    fb = np.zeros((_MEL_NBANDS, len(freqs)))
    for i in range(_MEL_NBANDS):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (freqs - lo) / max(mid - lo, _EPS)
        down = (hi - freqs) / max(hi - mid, _EPS)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb


_MEL_FB = _mel_filterbank()


def _log_mel(x: np.ndarray) -> np.ndarray:
    frames = _frame(x, _MEL_FRAME, _MEL_HOP, _MEL_WIN)
    spec = np.abs(rfft(frames, _NFFT, axis=1)) ** 2
    return np.log(np.maximum(spec @ _MEL_FB.T, _EPS))


def mcd(reference, degraded) -> float:
    """Mel-cepstral distortion in dB over cepstra 1..13 (c0 excluded)."""
    r, d = _check_pair(reference, degraded)
    cep_r = dct(_log_mel(r), type=2, norm="ortho", axis=1)
    cep_d = dct(_log_mel(d), type=2, norm="ortho", axis=1)
    diff = cep_r[:, 1:_MEL_NCEP + 1] - cep_d[:, 1:_MEL_NCEP + 1]
    per_frame = np.sqrt(np.sum(diff ** 2, axis=1))
    return float(10.0 * np.sqrt(2.0) / np.log(10.0) * np.mean(per_frame))


def lmbd(reference, degraded) -> float:
    """Log-mel-band distortion: mean absolute log-energy difference in dB."""
    r, d = _check_pair(reference, degraded)
    lm_r = _log_mel(r)
    lm_d = _log_mel(d)
    return float(np.mean(np.abs(lm_r - lm_d)) * 10.0 / np.log(10.0))


# ----------------------------------------------------------- registry

_REGISTRY = {
    "ssnr": ssnr,
    "llr": llr,
    "wssd": wssd,
    "stoi": stoi,
    "sisdr": sisdr,
    "mcd": mcd,
    "lmbd": lmbd,
}


def compute_measure(kind: str, reference, degraded) -> float:
    """Dispatch a single measure by name, one of MEASURE_NAMES; any other
    name raises KeyError."""
    if kind not in _REGISTRY:
        raise KeyError("unknown measure %r" % kind)
    return _REGISTRY[kind](reference, degraded)


@dataclass
class MeasureVector:
    """Measure values for one (reference, degraded) pair.

    `values` holds the computed measures; a measure that declines its
    input (DegenerateInputError) is left out.
    """

    values: dict = field(default_factory=dict)


def compute_measure_vector(reference, degraded) -> MeasureVector:
    values = {}
    for name in MEASURE_NAMES:
        try:
            values[name] = compute_measure(name, reference, degraded)
        except DegenerateInputError:
            pass
    return MeasureVector(values=values)


@dataclass(frozen=True)
class MeasureNormalizer:
    """Per-measure affine map fitted so training values get zero mean and
    unit variance."""

    means: dict
    stds: dict

    def apply_value(self, name: str, value: float) -> float:
        return (value - self.means[name]) / self.stds[name]

    def to_dict(self) -> dict:
        return {"means": dict(self.means), "stds": dict(self.stds)}

    @classmethod
    def from_dict(cls, d) -> "MeasureNormalizer":
        return cls(means={k: float(v) for k, v in d["means"].items()},
                   stds={k: float(v) for k, v in d["stds"].items()})


def fit_normalizer(corpus) -> MeasureNormalizer:
    """Fit per-measure mean/std over MeasureVectors.

    A measure is fitted when at least two vectors hold it and its values
    are not all equal. Any other measure is left out, so the result may
    be empty; nothing is raised.
    """
    pooled = {}
    for vec in corpus:
        for name, v in vec.values.items():
            pooled.setdefault(name, []).append(v)
    means, stds = {}, {}
    for name, vals in pooled.items():
        arr = np.asarray(vals, dtype=np.float64)
        if len(arr) >= 2 and arr.std() > 0.0:
            means[name], stds[name] = float(arr.mean()), float(arr.std())
    return MeasureNormalizer(means=means, stds=stds)
