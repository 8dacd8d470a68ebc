"""Mono raw-audio frames and WAV PCM I/O.

Everything downstream works on 32-bit float mono buffers at a fixed rate
(canonically 48 kHz). WAV reading handles 16/24-bit integer PCM and 32-bit
float, little-endian RIFF only; WAV writing gives 32-bit float only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CANONICAL_RATE = 48000

# Silence gate: a frame is usable when at least half of its
# 20 ms windows have RMS above -45 dBFS.
SILENCE_WINDOW_S = 0.020
SILENCE_RMS_DBFS = -45.0
SILENCE_MIN_ACTIVE = 0.5


class AudioFormatError(ValueError):
    """Malformed or unsupported WAV data."""


class DegenerateInputError(ValueError):
    """Input signal carries no usable content (e.g. all zeros)."""


@dataclass(frozen=True)
class AudioFrame:
    """Immutable mono audio buffer."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if s.ndim != 1:
            raise ValueError("AudioFrame is mono; got shape %r" % (s.shape,))
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")

    def __len__(self):
        return len(self.samples)

    def with_samples(self, samples) -> "AudioFrame":
        return AudioFrame(samples, self.sample_rate, self.source_id)


def _find_chunk(data: bytes, fourcc: bytes, start: int) -> tuple[int, int]:
    """Return (payload offset, payload size) of the first `fourcc` chunk."""
    pos = start
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if cid == fourcc:
            return pos + 8, size
        pos += 8 + size + (size & 1)
    raise AudioFormatError("missing %r chunk" % fourcc)


def read_wav(path) -> AudioFrame:
    """Read a RIFF WAV file as a mono float frame.

    Integer PCM is scaled by 2^(bits-1); multichannel input is averaged
    down to mono. Raises AudioFormatError for malformed headers or
    unsupported encodings.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError("not a RIFF/WAVE file: %s" % path)

    fmt_off, fmt_size = _find_chunk(data, b"fmt ", 12)
    if fmt_size < 16 or fmt_off + fmt_size > len(data):
        raise AudioFormatError("truncated fmt chunk")
    fmt_tag, channels, rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", data, fmt_off)
    if fmt_tag == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: sub-format GUID leads with the tag
        if fmt_size < 40:
            raise AudioFormatError("truncated extensible fmt chunk")
        (fmt_tag,) = struct.unpack_from("<H", data, fmt_off + 24)
    if channels < 1:
        raise AudioFormatError("zero channels")

    data_off, data_size = _find_chunk(data, b"data", 12)
    raw = data[data_off:data_off + data_size]
    if len(raw) < data_size:
        raise AudioFormatError("data chunk shorter than declared")
    if (fmt_tag, bits) not in ((1, 16), (1, 24), (3, 32)):
        raise AudioFormatError(
            "unsupported encoding: format tag %d, %d bits" % (fmt_tag, bits))
    if len(raw) % (bits // 8):
        raise AudioFormatError("data chunk of %d bytes is not a whole number "
                               "of %d-bit samples" % (len(raw), bits))

    if bits == 16:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 2.0 ** 15
    elif bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        ints = (b[:, 0].astype(np.int32)
                | (b[:, 1].astype(np.int32) << 8)
                | (b[:, 2].astype(np.int32) << 16))
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        x = ints.astype(np.float32) / 2.0 ** 23
    else:
        x = np.frombuffer(raw, dtype="<f4").astype(np.float32)

    if channels > 1:
        x = x[: (len(x) // channels) * channels]
        x = x.reshape(-1, channels).mean(axis=1)
    try:
        return AudioFrame(x, rate, source_id=str(path))
    except ValueError as e:  # a sample rate of 0, non-finite float samples
        raise AudioFormatError("%s: %s" % (path, e)) from e


def read_wav_48k(path) -> AudioFrame:
    """read_wav for audio that reaches the model, which is trained on
    48 kHz only: any other rate raises AudioFormatError."""
    frame = read_wav(path)
    if frame.sample_rate != CANONICAL_RATE:
        raise AudioFormatError("%s: sample rate %d Hz, the model needs %d Hz"
                               % (path, frame.sample_rate, CANONICAL_RATE))
    return frame


def write_wav(frame: AudioFrame, path) -> None:
    """Write `frame` as mono 32-bit float WAV."""
    payload = np.asarray(frame.samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, frame.sample_rate,
                      4 * frame.sample_rate, 4, 32)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def peak_normalize(frame: AudioFrame) -> AudioFrame:
    """Scale so that max |sample| is exactly 1."""
    peak = float(np.max(np.abs(frame.samples), initial=0.0))
    if peak == 0.0:
        raise DegenerateInputError("cannot peak-normalize an all-zero frame")
    return frame.with_samples(frame.samples / peak)


def extract_slice(frame: AudioFrame, offset: int, length: int) -> AudioFrame:
    """Samples [offset, offset + length) of `frame` as a new frame."""
    if offset < 0:
        raise ValueError("offset must be >= 0")
    if length <= 0:
        raise ValueError("length must be > 0")
    if offset + length > len(frame.samples):
        raise IndexError("slice [%d, %d) out of bounds for frame of %d samples"
                         % (offset, offset + length, len(frame.samples)))
    return frame.with_samples(frame.samples[offset:offset + length])


def is_usable(samples: np.ndarray, sample_rate: int) -> bool:
    """Silence gate for frame sampling: enough 20 ms windows above -45 dBFS."""
    win = max(1, int(round(SILENCE_WINDOW_S * sample_rate)))
    n = len(samples) // win
    if n == 0:
        return False
    chunks = np.asarray(samples[: n * win], dtype=np.float64).reshape(n, win)
    rms = np.sqrt(np.mean(chunks ** 2, axis=1))
    thresh = 10.0 ** (SILENCE_RMS_DBFS / 20.0)
    return np.mean(rms > thresh) >= SILENCE_MIN_ACTIVE
