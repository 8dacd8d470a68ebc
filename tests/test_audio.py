import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sesqa.audio import (AudioFormatError, AudioFrame, DegenerateInputError,
                         extract_slice, is_usable, peak_normalize, read_wav,
                         read_wav_48k, write_wav)

from conftest import speechlike, wav_bytes


def test_frame_is_immutable_and_mono():
    f = AudioFrame(np.zeros(100, dtype=np.float32) + 0.5, 48000)
    with pytest.raises(ValueError):
        f.samples[0] = 1.0
    with pytest.raises(ValueError):
        AudioFrame(np.zeros((2, 100)), 48000)
    with pytest.raises(ValueError):
        AudioFrame(np.array([np.nan]), 48000)


@pytest.mark.parametrize("depth", ["32f", 16, 24])
def test_wav_roundtrip(tmp_path, depth):
    """write_wav's 32-bit float reads back exactly; integer PCM, which is
    read but never written, reads back within one quantisation step."""
    f = speechlike(seed=3, seconds=0.25)
    path = tmp_path / "x.wav"
    if depth == "32f":
        write_wav(f, path)
    else:
        full = 2.0 ** (depth - 1)
        q = np.clip(np.round(f.samples * full), -full, full - 1).astype("<i4")
        # the low `depth` bits of each little-endian int32
        payload = q.view(np.uint8).reshape(-1, 4)[:, :depth // 8].tobytes()
        path.write_bytes(wav_bytes(payload, fmt_tag=1, bits=depth))
    back = read_wav(path)
    assert back.sample_rate == f.sample_rate
    assert len(back) == len(f)
    if depth == "32f":
        np.testing.assert_array_equal(back.samples, f.samples)
    else:
        bits = int(depth)
        tol = 1.5 / 2.0 ** (bits - 1)
        assert np.max(np.abs(back.samples - f.samples)) < tol


def test_wav_extensible_24_bit_reads_as_plain(tmp_path):
    """A WAVE_FORMAT_EXTENSIBLE fmt chunk gives the samples of the plain
    one with the same payload."""
    payload = np.random.default_rng(4).integers(
        0, 256, size=3 * 500, dtype=np.uint8).tobytes()
    plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
    plain.write_bytes(wav_bytes(payload, fmt_tag=1, bits=24))
    ext.write_bytes(wav_bytes(payload, fmt_tag=1, bits=24, extensible=True))
    want = read_wav(plain)
    assert len(want) == 500
    np.testing.assert_array_equal(read_wav(ext).samples, want.samples)


def test_wav_multichannel_downmix(tmp_path):
    # hand-build a 2-channel 16-bit file: L = 0.5, R = -0.5 -> mean 0
    import struct
    rate, n = 48000, 64
    lr = np.empty(2 * n, dtype="<i2")
    lr[0::2] = int(0.5 * 2 ** 15)
    lr[1::2] = -int(0.5 * 2 ** 15)
    payload = lr.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, rate, rate * 4, 4, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    path = tmp_path / "stereo.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    f = read_wav(path)
    assert len(f) == n
    assert np.max(np.abs(f.samples)) < 1e-4


def test_read_wav_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"not audio at all")
    with pytest.raises(AudioFormatError):
        read_wav(p)
    one_sample = np.float32(0.5).tobytes()
    for blob in (
            # a 16-bit data chunk of 3 bytes holds one and a half samples
            wav_bytes(b"\x01\x02\x03", fmt_tag=1, bits=16),
            wav_bytes(one_sample, rate=0),
            wav_bytes(np.float32(np.nan).tobytes()),
            # a fmt chunk declaring 16 bytes with 4 present
            b"RIFF\x18\x00\x00\x00WAVEfmt \x10\x00\x00\x00\x03\x00\x01\x00"):
        p.write_bytes(blob)
        with pytest.raises(AudioFormatError):
            read_wav(p)


def _fuzzed_tail(tag, channels, rate, bits, extra, fmt_size, payload,
                 declared, junk) -> bytes:
    """What follows `fmt `: a fmt chunk and a data chunk with arbitrary
    fields and sizes, then arbitrary bytes."""
    fields = struct.pack("<HHIIHH", tag, channels, rate, 0, 0, bits) + extra
    if fmt_size is None:
        fmt_size = len(fields)
    if declared is None:
        declared = len(payload)
    return (struct.pack("<I", fmt_size) + fields + b"data"
            + struct.pack("<I", declared) + payload + junk)


_u16 = st.integers(0, 0xFFFF)
_u32 = st.integers(0, 0xFFFFFFFF)
_WAV_TAILS = st.one_of(
    st.binary(max_size=96),
    st.builds(
        _fuzzed_tail,
        tag=st.sampled_from([1, 3, 0xFFFE]) | _u16,
        channels=st.sampled_from([0, 1, 2, 3]) | _u16,
        rate=st.sampled_from([0, 1, 16000, 48000]) | _u32,
        bits=st.sampled_from([0, 16, 24, 32]) | _u16,
        extra=st.binary(max_size=28),
        fmt_size=st.none() | _u32,
        payload=st.binary(max_size=64),
        declared=st.none() | _u32,
        junk=st.binary(max_size=16)))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "x.wav"


@settings(max_examples=200, deadline=None)
@given(tail=_WAV_TAILS)
def test_read_wav_fuzzed(fuzz_path, tail):
    """Whatever follows a valid RIFF/WAVE/fmt prefix, read_wav returns a
    frame or raises AudioFormatError, nothing else."""
    body = b"WAVEfmt " + tail
    fuzz_path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    try:
        frame = read_wav(fuzz_path)
    except AudioFormatError:
        return
    assert isinstance(frame, AudioFrame) and frame.sample_rate > 0


def test_read_wav_48k_rejects_other_rates(tmp_path):
    p = tmp_path / "low.wav"
    write_wav(speechlike(seed=3, seconds=0.25, rate=16000), p)
    assert read_wav(p).sample_rate == 16000
    with pytest.raises(AudioFormatError):
        read_wav_48k(p)
    write_wav(speechlike(seed=3, seconds=0.25), p)
    assert read_wav_48k(p).sample_rate == 48000


def test_peak_normalize():
    f = AudioFrame(np.array([0.1, -0.25, 0.2], dtype=np.float32), 48000)
    g = peak_normalize(f)
    assert np.isclose(np.max(np.abs(g.samples)), 1.0)
    with pytest.raises(DegenerateInputError):
        peak_normalize(AudioFrame(np.zeros(10), 48000))


def test_extract_slice_bounds():
    f = AudioFrame(np.arange(100, dtype=np.float32), 48000)
    cut = extract_slice(f, 10, 20)
    np.testing.assert_array_equal(cut.samples, np.arange(10, 30))
    with pytest.raises(IndexError):
        extract_slice(f, 90, 20)
    for offset, length in ((-1, 20), (10, 0), (10, -5)):
        with pytest.raises(ValueError):
            extract_slice(f, offset, length)


def test_silence_gate():
    rate = 48000
    loud = speechlike(seed=5, seconds=1.0)
    assert is_usable(loud.samples, rate)
    assert not is_usable(np.zeros(rate, dtype=np.float32), rate)
    # mostly silent with a short burst: below the 50% active threshold
    x = np.zeros(rate, dtype=np.float32)
    x[:rate // 10] = 0.5
    assert not is_usable(x, rate)
