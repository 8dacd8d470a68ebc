"""Quadruple generation per the programmatic-data recipe.

Each item starts from a 1.1 s clean parent frame. A first-stage chain
produces signal i; extending it with a second-stage chain produces signal
j (so quality(i) >= quality(j) by construction). A random delay of up to
100 ms yields two 1 s cuts per signal: {x_ik, x_il, x_jk, x_jl}.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..audio import (AudioFormatError, AudioFrame, CANONICAL_RATE,
                     extract_slice, is_usable, peak_normalize, read_wav,
                     read_wav_48k, write_wav)
from ..manifest import read_jsonl, str_field
from .chains import DegradationSpec, sample_chain
from .kernels import apply_chain
from .kinds import KIND_NAMES, NATIVE_KINDS

PARENT_SECONDS = 1.1
CUT_SECONDS = 1.0
MAX_DELAY_SECONDS = 0.1
PARENT_RETRIES = 100

# degradation-type target layout: one coordinate per kind plus a final
# "clean" coordinate that is set iff the chain is empty
N_DT_CLASSES = len(KIND_NAMES) + 1
CLEAN_INDEX = len(KIND_NAMES)
_KIND_INDEX = {k: i for i, k in enumerate(KIND_NAMES)}


class PoolExhaustedError(RuntimeError):
    """No usable (non-silent) parent frame found within the retry budget."""


class CleanPool:
    """Clean speech organized as named datasets of AudioFrames or paths.

    Sampling is uniform over datasets first, then uniform over files, so
    small datasets are not drowned out by large ones.
    """

    def __init__(self, datasets: dict):
        if not datasets or not all(len(v) for v in datasets.values()):
            raise ValueError("clean pool needs non-empty datasets")
        self.names = sorted(datasets)
        self.datasets = {k: list(v) for k, v in datasets.items()}

    @classmethod
    def from_directory(cls, root) -> "CleanPool":
        """Each subdirectory of `root` is a dataset of WAV files; WAVs
        directly under `root` form a dataset of their own."""
        root = Path(root)
        datasets = {}
        loose = sorted(root.glob("*.wav"))
        if loose:
            datasets[root.name] = loose
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            wavs = sorted(sub.glob("*.wav"))
            if wavs:
                datasets[sub.name] = wavs
        if not datasets:
            raise ValueError("no WAV files found under %s" % root)
        return cls(datasets)

    def _load(self, item) -> AudioFrame:
        return item if isinstance(item, AudioFrame) else read_wav(item)

    def sample_parent(self, rng: np.random.Generator) -> AudioFrame:
        """A usable 1.1 s peak-normalized parent frame."""
        n_parent = int(PARENT_SECONDS * CANONICAL_RATE)
        for _ in range(PARENT_RETRIES):
            ds = self.names[int(rng.integers(len(self.names)))]
            files = self.datasets[ds]
            frame = self._load(files[int(rng.integers(len(files)))])
            if frame.sample_rate != CANONICAL_RATE:
                continue
            if len(frame) < n_parent:
                continue
            off = int(rng.integers(0, len(frame) - n_parent + 1))
            cut = extract_slice(frame, off, n_parent)
            if not is_usable(cut.samples, cut.sample_rate):
                continue
            return peak_normalize(cut)
        raise PoolExhaustedError(
            "no usable parent frame after %d retries" % PARENT_RETRIES)


def chain_targets(chain) -> tuple:
    """(dt, ds) target vectors for one chain over kinds + clean."""
    dt = np.zeros(N_DT_CLASSES, dtype=np.float32)
    ds = np.zeros(len(KIND_NAMES), dtype=np.float32)
    if not chain:
        dt[CLEAN_INDEX] = 1.0
        return dt, ds
    for spec in chain:
        i = _KIND_INDEX[spec.kind]
        dt[i] = 1.0
        ds[i] = max(ds[i], spec.strength)
    return dt, ds


@dataclass
class Quadruple:
    x_ik: AudioFrame
    x_il: AudioFrame
    x_jk: AudioFrame
    x_jl: AudioFrame
    chain_i: list
    chain_j: list
    delay_ms: float
    parent_id: str = ""
    # dt/ds targets of each chain, computed from the chains
    dt_targets_i: np.ndarray = field(init=False)
    dt_targets_j: np.ndarray = field(init=False)
    ds_targets_i: np.ndarray = field(init=False)
    ds_targets_j: np.ndarray = field(init=False)

    def __post_init__(self):
        self.dt_targets_i, self.ds_targets_i = chain_targets(self.chain_i)
        self.dt_targets_j, self.ds_targets_j = chain_targets(self.chain_j)

    def frames(self) -> tuple:
        return (self.x_ik, self.x_il, self.x_jk, self.x_jl)


def generate_quadruple(pool: CleanPool, rng: np.random.Generator,
                       noise_pool=None, transcoder_cmd=None) -> Quadruple:
    available = (KIND_NAMES if transcoder_cmd is not None else NATIVE_KINDS)
    parent = pool.sample_parent(rng)

    chain_i = sample_chain("first", rng, available=available)
    chain_extra = sample_chain("second", rng, available=available)
    chain_j = chain_i + chain_extra

    x_i = apply_chain(parent, chain_i, noise_pool=noise_pool,
                      transcoder_cmd=transcoder_cmd)
    x_j = apply_chain(x_i, chain_extra, noise_pool=noise_pool,
                      transcoder_cmd=transcoder_cmd)

    n_cut = int(CUT_SECONDS * CANONICAL_RATE)
    max_d = int(MAX_DELAY_SECONDS * CANONICAL_RATE)
    d = int(rng.integers(0, max_d + 1))

    return Quadruple(
        x_ik=extract_slice(x_i, 0, n_cut), x_il=extract_slice(x_i, d, n_cut),
        x_jk=extract_slice(x_j, 0, n_cut), x_jl=extract_slice(x_j, d, n_cut),
        chain_i=chain_i, chain_j=chain_j,
        delay_ms=d * 1000.0 / CANONICAL_RATE, parent_id=parent.source_id)


def iter_quadruples(pool: CleanPool, count: int, master_seed: int,
                    noise_pool=None, transcoder_cmd=None):
    """Yield (index, Quadruple) with per-item derived seeds, so each
    item is identical regardless of iteration order."""
    for i in range(count):
        rng = np.random.default_rng([master_seed, i])
        yield i, generate_quadruple(pool, rng, noise_pool=noise_pool,
                                    transcoder_cmd=transcoder_cmd)


# ------------------------------------------------------------- manifests

def write_quadruple_manifest(quadruples, wav_dir, manifest_path) -> None:
    """Write WAVs and a JSON-lines manifest for (id, Quadruple) pairs. The
    manifest appears only once all are written: a partial one would parse.
    On failure every WAV path this call began to write is removed."""
    wav_dir = Path(wav_dir)
    wav_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path("%s.tmp" % manifest_path)
    written = []
    try:
        with open(tmp, "w") as f:
            for qid, q in quadruples:
                rec = {"id": int(qid), "delay_ms": q.delay_ms,
                       "parent_id": q.parent_id,
                       "chain_i": [s.to_dict() for s in q.chain_i],
                       "chain_j": [s.to_dict() for s in q.chain_j]}
                for tag, frame in zip(("ik", "il", "jk", "jl"), q.frames()):
                    path = wav_dir / ("q%06d_%s.wav" % (qid, tag))
                    written.append(path)
                    write_wav(frame, path)
                    rec["wav_" + tag] = str(path)
                f.write(json.dumps(rec) + "\n")
        os.replace(tmp, manifest_path)
        written.clear()  # the WAVs stay once the manifest lists them
    finally:
        for path in (tmp, *written):
            path.unlink(missing_ok=True)


def _spec(d) -> DegradationSpec:
    if not isinstance(d, dict):
        raise TypeError("chain entry is not a JSON object")
    if d["kind"] not in _KIND_INDEX:
        raise ValueError("unknown degradation kind %r" % (d["kind"],))
    return DegradationSpec.from_dict(d)


def _quadruple_record(rec) -> dict:
    for tag in ("ik", "il", "jk", "jl"):
        str_field(rec, "wav_" + tag)
    rec["delay_ms"] = float(rec["delay_ms"])
    rec["chain_i"] = [_spec(d) for d in rec["chain_i"]]
    rec["chain_j"] = [_spec(d) for d in rec["chain_j"]]
    return rec


def read_quadruple_manifest(manifest_path) -> list:
    """Parse manifest records; chains come back as DegradationSpec lists.
    A malformed record raises ManifestError."""
    return read_jsonl(manifest_path, _quadruple_record)


def load_quadruple(rec) -> Quadruple:
    """Materialize a manifest record of 48 kHz WAVs into a Quadruple. Each
    cut must have the CUT_SECONDS that `generate` writes, or
    AudioFormatError names its WAV: scoring stacks the cuts."""
    n_cut = int(CUT_SECONDS * CANONICAL_RATE)
    frames = {}
    for tag in ("ik", "il", "jk", "jl"):
        path = rec["wav_" + tag]
        frames[tag] = read_wav_48k(path)
        if len(frames[tag]) != n_cut:
            raise AudioFormatError("%s: %d samples, a quadruple cut has %d"
                                   % (path, len(frames[tag]), n_cut))
    return Quadruple(
        x_ik=frames["ik"], x_il=frames["il"],
        x_jk=frames["jk"], x_jl=frames["jl"],
        chain_i=rec["chain_i"], chain_j=rec["chain_j"],
        delay_ms=float(rec["delay_ms"]), parent_id=rec.get("parent_id", ""))
