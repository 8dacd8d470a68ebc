"""External codec transcoding hook.

Codec round-trips (MP3, AC3, EAC3, MP2, WMA, OGG, OPUS) are delegated to a
user-configured command template, e.g.::

    ffmpeg -y -i {in} -c:a {codec} -b:a {bitrate}k {out}

The template must contain the placeholders {in}, {out}, {codec} and
{bitrate}. It runs once per degradation, so the command itself must encode
{in} with the codec and decode the result to a WAV at {out}. When no
template is configured these kinds are unavailable and their sampling
probability is redistributed over the native kinds.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from ..audio import AudioFrame, CANONICAL_RATE, read_wav, write_wav
from .kinds import UnavailableDegradationError

PLACEHOLDERS = ("{in}", "{out}", "{codec}", "{bitrate}")


def validate_template(template: str) -> None:
    missing = [p for p in PLACEHOLDERS if p not in template]
    if missing:
        raise ValueError("transcoder_cmd is missing placeholders: %s"
                         % ", ".join(missing))


def transcode(frame: AudioFrame, spec, template: str) -> np.ndarray:
    """Round-trip `frame` through the configured external transcoder;
    returns the decoded samples, which may differ in length."""
    validate_template(template)
    aux = spec.aux_params
    with tempfile.TemporaryDirectory(prefix="sesqa_tc_") as tmp:
        src = Path(tmp) / "in.wav"
        dst = Path(tmp) / "out.wav"
        write_wav(frame, src)
        cmd = (template
               .replace("{in}", str(src))
               .replace("{out}", str(dst))
               .replace("{codec}", str(aux["codec"]))
               .replace("{bitrate}", "%g" % aux["bitrate_kbps"]))
        try:
            subprocess.run(shlex.split(cmd), check=True,
                           capture_output=True, timeout=120)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                FileNotFoundError) as e:
            raise UnavailableDegradationError(
                "external transcoder failed for %s: %s" % (spec.kind, e))
        if not dst.exists():
            raise UnavailableDegradationError(
                "transcoder produced no output for %s" % spec.kind)
        out = read_wav(dst)
        if out.sample_rate != CANONICAL_RATE:
            raise UnavailableDegradationError(
                "transcoder output for %s is at %d Hz, not %d Hz"
                % (spec.kind, out.sample_rate, CANONICAL_RATE))
        return out.samples
