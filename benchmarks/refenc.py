"""Plain-numpy float64 re-implementation of the eval-mode encoder and the
score head, written from the architecture rather than from `sesqa.nn`, plus
readers for the two file formats the checks look into.

Architecture (channel counts scale with the checkpoint's arrays):
mu-law companding with mu = softplus(enc.m); four blocks of 4-tap 'same'
conv -> BatchNorm -> ReLU -> binomial blur [1 4 6 4 1]/16 with reflect
padding and stride 4; six gated residual blocks
h <- g*h + (1-g)*f, g = sigmoid(gate), f = BN_pre then three times
(ReLU -> conv (1, 3, 1 taps) -> BN); mean and std over time; BN; a two
layer MLP with BN; score = 1 + 4*sigmoid(z @ w + b). Input is zero-padded
at the end to a multiple of 256 samples.
"""

from __future__ import annotations

import json
import struct

import numpy as np

BLUR = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
BN_EPS = 1e-5
STATS_EPS = 1e-8
PAD_MULTIPLE = 256


def read_checkpoint_arrays(path) -> dict:
    """name -> float64 array, parsed straight from the checkpoint bytes."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"SSQA":
        raise ValueError("not a checkpoint: %s" % path)
    (meta_len,) = struct.unpack_from("<I", data, 8)
    meta = json.loads(data[12:12 + meta_len])
    offset = 12 + meta_len
    out = {}
    for entry in meta["tensors"]:
        dt = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"], dtype=np.int64))
        out[entry["name"]] = np.frombuffer(
            data, dtype=dt, count=count, offset=offset).reshape(
                entry["shape"]).astype(np.float64)
        offset += count * dt.itemsize
    return out


def read_wav_f32(path) -> np.ndarray:
    """Samples of a mono 32-bit float RIFF WAV."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a WAV file: %s" % path)
    pos, chunks = 12, {}
    while pos + 8 <= len(data):
        cid, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        chunks[cid] = (pos + 8, size)
        pos += 8 + size + (size & 1)
    fmt_off, _ = chunks[b"fmt "]
    tag, channels, _, _, _, bits = struct.unpack_from("<HHIIHH", data, fmt_off)
    if (tag, channels, bits) != (3, 1, 32):
        raise ValueError("expected mono float32 WAV: %s" % path)
    off, size = chunks[b"data"]
    return np.frombuffer(data[off:off + size], dtype="<f4")


def _bn(x, st, name):
    shape = (1, -1, 1) if x.ndim == 3 else (1, -1)
    mean = st[name + ".running_mean"].reshape(shape)
    inv = 1.0 / np.sqrt(st[name + ".running_var"].reshape(shape) + BN_EPS)
    return ((x - mean) * inv * st[name + ".gamma"].reshape(shape)
            + st[name + ".beta"].reshape(shape))


def _conv(x, w, b):
    """'same' cross-correlation: (K-1)//2 zeros left, the rest right."""
    n_batch, n_ch, n_t = x.shape
    k = w.shape[2]
    left = (k - 1) // 2
    xp = np.zeros((n_batch, n_ch, n_t + k - 1))
    xp[:, :, left:left + n_t] = x
    taps = np.stack([xp[:, :, i:i + n_t] for i in range(k)], axis=2)
    return np.einsum("fck,bckt->bft", w, taps, optimize=True) + b[None, :, None]


def _blur_down(x):
    """Reflect-pad by 2, blur with BLUR, keep every 4th output."""
    n_t = x.shape[2]
    xp = np.concatenate([x[:, :, 2:0:-1], x, x[:, :, -2:-4:-1]], axis=2)
    n_out = (n_t - 1) // 4 + 1
    idx = 4 * np.arange(n_out)[:, None] + np.arange(5)[None, :]
    return xp[:, :, idx] @ BLUR


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def encode(st: dict, frames) -> np.ndarray:
    """(B,T) audio -> (B,200) latents in float64."""
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    rem = x.shape[1] % PAD_MULTIPLE
    if rem:
        x = np.concatenate([x, np.zeros((x.shape[0], PAD_MULTIPLE - rem))], 1)
    mu = np.log1p(np.exp(st["enc.m"]))
    h = (np.sign(x) * np.log1p(mu * np.abs(x)) / np.log1p(mu))[:, None, :]
    for i in range(4):
        p = "enc.pool%d" % i
        h = _blur_down(_relu(_bn(_conv(h, st[p + ".w"], st[p + ".b"]), st,
                                 p + ".bn")))
    for r in range(6):
        p = "enc.res%d" % r
        f = _bn(h, st, p + ".bn_pre")
        for j in range(3):
            c = "%s.conv%d" % (p, j)
            f = _bn(_conv(_relu(f), st[c + ".w"], st[c + ".b"]), st, c + ".bn")
        g = _sigmoid(st[p + ".gate"])[None, :, None]
        h = g * h + (1.0 - g) * f
    mean = h.mean(axis=2)
    std = np.sqrt(((h - mean[:, :, None]) ** 2).mean(axis=2) + STATS_EPS)
    h = _bn(np.concatenate([mean, std], axis=1), st, "enc.stats_bn")
    h = _relu(_bn(h @ st["enc.mlp0.w"] + st["enc.mlp0.b"], st, "enc.mlp0.bn"))
    return _bn(h @ st["enc.mlp1.w"] + st["enc.mlp1.b"], st, "enc.mlp1.bn")


def score(st: dict, frames, batch=4) -> np.ndarray:
    """Scores in (1,5) for (B,T) audio, encoded `batch` rows at a time."""
    frames = np.atleast_2d(frames)
    out = []
    for b0 in range(0, len(frames), batch):
        z = encode(st, frames[b0:b0 + batch])
        logit = z @ st["head.score.w"][:, 0] + st["head.score.b"][0]
        out.append(1.0 + 4.0 * _sigmoid(logit))
    return np.concatenate(out)
