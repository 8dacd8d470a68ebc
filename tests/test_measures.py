import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from sesqa import measures
from sesqa.audio import AudioFormatError, AudioFrame
from sesqa.measures import (MEASURE_NAMES, MeasureNormalizer, MeasureVector,
                            compute_measure, compute_measure_vector,
                            fit_normalizer)

from conftest import speechlike

RATE = 48000

IDENTITY_OPTIMA = {"ssnr": 35.0, "llr": 0.0, "wssd": 0.0, "stoi": 1.0,
                   "sisdr": 60.0, "mcd": 0.0, "lmbd": 0.0}


@pytest.fixture(scope="module")
def clean():
    return speechlike(seed=0, seconds=1.5).samples


def _at_snr(x, noise, snr_db):
    g = np.sqrt(np.sum(x ** 2) / (np.sum(noise ** 2) * 10 ** (snr_db / 10)))
    return (x + g * noise).astype(np.float32)


def test_identity_optima(clean):
    for name, best in IDENTITY_OPTIMA.items():
        v = compute_measure(name, clean, clean)
        assert np.isclose(v, best, atol=1e-6), (name, v)


def test_measures_reject_other_rates(clean):
    noise = np.random.default_rng(5).normal(size=len(clean)).astype(np.float32)
    deg = _at_snr(clean, noise, 10.0)
    ref_f, deg_f = AudioFrame(clean, RATE), AudioFrame(deg, RATE)
    for name in MEASURE_NAMES:
        assert compute_measure(name, ref_f, deg_f) == \
            compute_measure(name, clean, deg)
        with pytest.raises(AudioFormatError):
            compute_measure(name, AudioFrame(clean, 16000), deg)


def test_unavailable_measures_raise(clean):
    """PESQ and its composites are not implemented, so asking for one
    raises KeyError like any other name outside MEASURE_NAMES."""
    for name in ("pesq", "csig", "cbak", "covl"):
        assert name not in MEASURE_NAMES
        with pytest.raises(KeyError):
            compute_measure(name, clean, clean)


def test_unknown_measure_raises(clean):
    """A name outside MEASURE_NAMES, or a measure's name in other case,
    raises KeyError."""
    for name in ("nonsense", "SSNR"):
        with pytest.raises(KeyError):
            compute_measure(name, clean, clean)


@pytest.mark.parametrize("name", ["ssnr", "sisdr"])
def test_snr_measures_monotone(clean, name):
    noise = np.random.default_rng(1).normal(size=len(clean)).astype(np.float32)
    vals = [compute_measure(name, clean, _at_snr(clean, noise, s))
            for s in (30.0, 20.0, 10.0, 0.0)]
    assert all(a > b for a, b in zip(vals, vals[1:])), vals


def test_sisdr_scale_invariant(clean):
    noise = np.random.default_rng(2).normal(size=len(clean)).astype(np.float32)
    y = _at_snr(clean, noise, 12.0)
    v0 = compute_measure("sisdr", clean, y)
    v1 = compute_measure("sisdr", clean * 3.0, y * 3.0)
    assert np.isclose(v0, v1, atol=1e-6)


def test_vector_contents(clean):
    noise = np.random.default_rng(3).normal(size=len(clean)).astype(np.float32)
    vec = compute_measure_vector(clean, _at_snr(clean, noise, 15.0))
    assert set(vec.values) == set(MEASURE_NAMES)
    assert all(np.isfinite(v) for v in vec.values.values())


def test_normalizer_fit_and_apply(clean):
    rng = np.random.default_rng(4)
    noise = rng.normal(size=len(clean)).astype(np.float32)
    vecs = [compute_measure_vector(clean, _at_snr(clean, noise, s))
            for s in (25.0, 15.0, 5.0)]
    norm = fit_normalizer(vecs)
    for name in MEASURE_NAMES:
        vals = np.array([norm.apply_value(name, v.values[name])
                         for v in vecs])
        assert np.isclose(vals.mean(), 0.0, atol=1e-5)
        assert np.isclose(vals.std(), 1.0, atol=1e-4)
    back = MeasureNormalizer.from_dict(norm.to_dict())
    assert back.means == norm.means and back.stds == norm.stds


def test_normalizer_failure_modes(clean):
    """A measure with under two values, or with no variance, is left out
    of the normalizer; nothing is raised."""
    one = [compute_measure_vector(clean, clean)]
    for corpus in ([], one, one * 3):   # identical: zero variance
        norm = fit_normalizer(corpus)
        assert norm.means == {} and norm.stds == {}
    # sisdr never varies, stoi has one value: only ssnr is fitted
    norm = fit_normalizer([MeasureVector({"ssnr": 1.0, "sisdr": 60.0,
                                          "stoi": 0.9}),
                           MeasureVector({"ssnr": 3.0, "sisdr": 60.0})])
    assert norm.means == {"ssnr": 2.0} and norm.stds == {"ssnr": 1.0}


# Frame-by-frame reference implementations of the batched kernels.

def _frame_gather(x, size, hop, window=None):
    n = 1 + (len(x) - size) // hop
    frames = x[hop * np.arange(n)[:, None] + np.arange(size)]
    return frames if window is None else frames * window


def _levinson_row(r, order):
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = r[0]
    for i in range(1, order + 1):
        if err <= 1e-12:  # perfectly predictable: stop early
            break
        acc = r[i] + np.dot(a[1:i], r[i - 1:0:-1])
        k = -acc / err
        a[1:i + 1] += k * a[i - 1::-1][:i]
        err *= 1.0 - k * k
    return a


def _wss_peaks_row(db, sl):
    n_bands = len(db)
    loc_peak = np.empty(n_bands - 1)
    for j in range(n_bands - 1):
        k = j
        if sl[j] > 0:  # rising: walk up to the next local maximum
            while k < n_bands - 1 and db[k + 1] > db[k]:
                k += 1
        else:  # falling: nearest peak is behind
            while k > 0 and db[k - 1] > db[k]:
                k -= 1
        loc_peak[j] = db[k]
    return loc_peak


def _autocorr_direct(frame, order):
    return np.array([frame[:len(frame) - k] @ frame[k:]
                     for k in range(order + 1)])


@pytest.mark.parametrize("window", [None, np.hanning(1440)])
def test_frame_matches_gather(clean, window):
    x = clean.astype(np.float64)
    np.testing.assert_array_equal(measures._frame(x, 1440, 360, window),
                                  _frame_gather(x, 1440, 360, window))


def test_levinson_matches_scalar():
    order = 16
    rng = np.random.default_rng(6)
    white = rng.normal(size=(6, 1440))
    colored = white[:, 1:] + 0.5 * white[:, :-1]
    rows = [_autocorr_direct(f, order) for f in (*white, *colored)]
    # an all-zero frame, and a pure sinusoid predictable from two lags
    stops = [np.zeros(order + 1), np.cos(0.3 * np.arange(order + 1))]
    r = np.array(rows + stops)
    want = np.array([_levinson_row(row, order) for row in r])
    assert np.all(want[-2:, 3:] == 0.0)  # both stopped early
    np.testing.assert_allclose(measures._levinson(r, order), want,
                               rtol=0, atol=1e-12)


def test_wss_peaks_match_loop():
    rng = np.random.default_rng(7)
    # integer dB values: many equal neighbours (plateaus)
    db = np.round(rng.normal(0.0, 2.0, size=(200, 25)))
    ramp = np.arange(25.0)
    db = np.vstack([db, rng.normal(size=(50, 25)) * 30.0,
                    ramp, -ramp, np.zeros(25), np.minimum(ramp, 12.0)])
    slope = np.diff(db, axis=1)
    want = np.array([_wss_peaks_row(d, s) for d, s in zip(db, slope)])
    np.testing.assert_array_equal(measures._wss_peaks(db, slope), want)


def test_wssd_matches_loop(clean):
    noise = np.random.default_rng(1).normal(size=len(clean))
    ref = clean.astype(np.float64)
    deg = _at_snr(clean, noise, 10.0).astype(np.float64)
    win = np.hanning(1440)
    db_r = measures._wss_band_db(_frame_gather(ref, 1440, 360, win))
    db_d = measures._wss_band_db(_frame_gather(deg, 1440, 360, win))
    vals = []
    for r, d in zip(db_r, db_d):
        sl_r, sl_d = np.diff(r), np.diff(d)
        w = (20.0 / (20.0 + r.max() - r[:-1])
             * (1.0 / (1.0 + _wss_peaks_row(r, sl_r) - r[:-1])))
        vals.append(np.sum(w * (sl_r - sl_d) ** 2) / np.sum(w))
    assert measures.wssd(ref, deg) == np.mean(vals)


@pytest.mark.parametrize("snr_db", [10.0, 0.0])
def test_llr_matches_toeplitz_lpc(clean, snr_db):
    order = 16
    noise = np.random.default_rng(1).normal(size=len(clean))
    ref = clean.astype(np.float64)
    deg = _at_snr(clean, noise, snr_db).astype(np.float64)
    win = np.hanning(1440)
    vals = []
    for fr, fd in zip(_frame_gather(ref, 1440, 360, win),
                      _frame_gather(deg, 1440, 360, win)):
        ac_r = _autocorr_direct(fr, order)
        ac_d = _autocorr_direct(fd, order)
        a_r = np.r_[1.0, solve_toeplitz(ac_r[:order], -ac_r[1:])]
        a_d = np.r_[1.0, solve_toeplitz(ac_d[:order], -ac_d[1:])]
        big_r = ac_r[np.abs(np.subtract.outer(np.arange(order + 1),
                                              np.arange(order + 1)))]
        vals.append(np.log((a_d @ big_r @ a_d) / (a_r @ big_r @ a_r)))
    assert np.isclose(measures.llr(ref, deg), np.mean(vals),
                      rtol=1e-9, atol=0)


def _stoi_loop(ref, deg):
    """STOI with its segments taken one at a time: the reference."""
    m = measures
    r = m.resample_poly(ref, m._STOI_RATE, RATE)
    d = m.resample_poly(deg, m._STOI_RATE, RATE)
    rf = _frame_gather(r, m._STOI_FRAME, m._STOI_HOP, m._STOI_WIN)
    df = _frame_gather(d, m._STOI_FRAME, m._STOI_HOP, m._STOI_WIN)
    energy = 20.0 * np.log10(np.linalg.norm(rf, axis=1) + m._EPS)
    keep = energy > energy.max() - m._STOI_VAD_RANGE_DB
    rf, df = rf[keep], df[keep]
    xr = np.sqrt((np.abs(m.rfft(rf, m._STOI_NFFT, axis=1)) ** 2)
                 @ m._STOI_BANDS.T)
    xd = np.sqrt((np.abs(m.rfft(df, m._STOI_NFFT, axis=1)) ** 2)
                 @ m._STOI_BANDS.T)
    clip_gain = 10.0 ** (-m._STOI_CLIP_DB / 20.0)
    corrs = []
    for k in range(m._STOI_SEG, len(xr) + 1):
        X = xr[k - m._STOI_SEG:k]  # (30, 15)
        Y = xd[k - m._STOI_SEG:k]
        alpha = np.sqrt(np.sum(X ** 2, axis=0)
                        / np.maximum(np.sum(Y ** 2, axis=0), m._EPS))
        Yc = np.minimum(Y * alpha, X * clip_gain)
        Xc = X - X.mean(axis=0)
        Yc = Yc - Yc.mean(axis=0)
        denom = (np.linalg.norm(Xc, axis=0) * np.linalg.norm(Yc, axis=0))
        corrs.append(np.sum(Xc * Yc, axis=0) / np.maximum(denom, m._EPS))
    return float(np.mean(corrs))


def test_stoi_matches_loop(clean):
    rng = np.random.default_rng(8)
    ref = clean.astype(np.float64)
    # noise at three SNRs, a quiet stretch the VAD drops, and a gain
    quiet = ref.copy()
    quiet[20000:40000] *= 1e-4
    pairs = [(ref, _at_snr(clean, rng.normal(size=len(clean)), snr))
             for snr in (20.0, 5.0, -5.0)]
    pairs += [(quiet, quiet[::-1].copy()), (ref, 0.3 * ref)]
    for r, d in pairs:
        d = np.asarray(d, dtype=np.float64)
        assert measures.stoi(r, d) == _stoi_loop(r, d)


def test_vector_leaves_out_a_measure_that_declines():
    """On 0.35 s cuts STOI has fewer than 30 active frames and raises
    DegenerateInputError; the vector leaves it out and keeps the other
    six measures."""
    clean = speechlike(seed=91, seconds=0.35).samples
    noise = np.random.default_rng(5).normal(size=len(clean)).astype(
        np.float32)
    degraded = _at_snr(clean, noise, 10.0)
    with pytest.raises(measures.DegenerateInputError):
        compute_measure("stoi", clean, degraded)
    vec = compute_measure_vector(clean, degraded)
    assert set(vec.values) == set(MEASURE_NAMES) - {"stoi"}
    assert all(np.isfinite(v) for v in vec.values.values())
