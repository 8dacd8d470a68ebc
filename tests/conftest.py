import os
import struct
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sesqa.audio import AudioFrame, write_wav  # noqa: E402


def speechlike(seed=0, seconds=1.5, rate=48000) -> AudioFrame:
    """Harmonic + modulated test signal; enough structure for the
    spectral measures and the silence gate."""
    r = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    f0 = r.uniform(100, 220)
    x = np.zeros_like(t)
    for h in range(1, 7):
        x += r.uniform(0.3, 1.0) / h * np.sin(2 * np.pi * h * f0 * t)
    x *= 0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t)
    x += 0.005 * r.normal(size=len(t))
    return AudioFrame((x / np.max(np.abs(x))).astype(np.float32), rate)


def write_skipped_wavs(directory) -> list:
    """Write into the pathlib `directory` WAVs that a clean pool must
    never use as a parent: one at 44.1 kHz, one shorter than 1.1 s, and
    one silent throughout; return their paths."""
    frames = {"rate.wav": speechlike(seed=30, seconds=1.5, rate=44100),
              "short.wav": speechlike(seed=31, seconds=1.05),
              "silent.wav": AudioFrame(np.zeros(72000), 48000)}
    for name, frame in frames.items():
        write_wav(frame, directory / name)
    return [directory / name for name in frames]


def wav_bytes(payload: bytes, rate=48000, fmt_tag=3, bits=32,
              channels=1, extensible=False) -> bytes:
    """A RIFF/WAVE file with any header values, for malformed-input tests.
    `extensible` writes a WAVE_FORMAT_EXTENSIBLE fmt chunk, whose
    sub-format GUID leads with `fmt_tag`."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else fmt_tag,
                      channels, rate, rate * block, block, bits)
    if extensible:
        # cbSize, valid bits, channel mask, then the GUID xxxx0000-0000-
        # 0010-8000-00aa00389b71 in its little-endian byte order
        fmt += struct.pack("<HHIH14s", 22, bits, 0, fmt_tag,
                           bytes.fromhex("000000001000800000aa00389b71"))
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.fixture
def clean_frame():
    return speechlike(seed=1, seconds=1.0)
