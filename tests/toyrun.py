"""Shared toy-scale experiment for the end-to-end tests.

Synthesizes a small pool of harmonic, amplitude-modulated "utterances"
(speech-like enough for the spectral measures to behave), generates
degraded quadruples, derives pseudo-MOS / JND side data from the known
chain severities, and trains the small-multiplier model.

The default scale is tuned for a single weak CPU core; set
SESQA_TOY_QUADS / SESQA_TOY_EPOCHS to run larger.
"""

from __future__ import annotations

import os

import numpy as np

from sesqa.audio import AudioFrame
from sesqa.degrade import CleanPool, generate_quadruple
from sesqa.measures import MEASURE_NAMES, compute_measure_vector
from sesqa.model import Model, ModelConfig
from sesqa.training import TrainConfig, train

RATE = 48000

N_TRAIN = int(os.environ.get("SESQA_TOY_QUADS", 320))
N_HELDOUT = max(64, N_TRAIN // 4)
EPOCHS = int(os.environ.get("SESQA_TOY_EPOCHS", 3))
BATCH = 8
MULT = 0.25


def make_utterance(seed: int, duration=3.3) -> AudioFrame:
    """Harmonic tone with vibrato and a syllable-rate energy envelope."""
    r = np.random.default_rng(seed)
    t = np.arange(int(duration * RATE)) / RATE
    f0 = r.uniform(90, 250)
    vib = 1.0 + 0.02 * np.sin(2 * np.pi * r.uniform(2, 5) * t)
    x = np.zeros_like(t)
    for h in range(1, 9):
        x += r.uniform(0.2, 1.0) / h * np.sin(2 * np.pi * h * f0 * vib * t)
    env = np.clip(np.sin(2 * np.pi * r.uniform(1.5, 4.0) * t
                         + r.uniform(0, 2 * np.pi)), 0, None) ** 0.5
    x = x * env + 0.01 * r.normal(size=len(t))
    x = x / np.max(np.abs(x))
    return AudioFrame(x.astype(np.float32), RATE)


def make_pool(n=12, seed=100) -> CleanPool:
    return CleanPool({"synth": [make_utterance(seed + i) for i in range(n)]})


def severity(chain) -> float:
    return float(sum(s.strength for s in chain))


def pseudo_mos(chain) -> float:
    """Monotone map from total chain strength to a [1, 5] label."""
    return 1.0 + 4.0 * max(0.0, 1.0 - min(1.0, severity(chain)))


def build_dataset(n_train=N_TRAIN, n_heldout=N_HELDOUT, seed=2024,
                  with_measures=True):
    """Returns (train_quads, heldout_quads, mos_items, jnd_items, lookup)."""
    pool = make_pool()
    quads = [generate_quadruple(pool, np.random.default_rng([seed, i]))
             for i in range(n_train + n_heldout)]
    train_q, held_q = quads[:n_train], quads[n_train:]

    mos_items, jnd_items = [], []
    for q in train_q[::2]:
        mos_items.append((q.x_ik.samples, pseudo_mos(q.chain_i)))
        mos_items.append((q.x_jk.samples, pseudo_mos(q.chain_j)))
    for q in train_q:
        jnd_items.append((q.x_ik.samples, q.x_il.samples, 0.0))
        if severity(q.chain_j) - severity(q.chain_i) > 0.05:
            jnd_items.append((q.x_ik.samples, q.x_jk.samples, 1.0))

    lookup = None
    if with_measures:
        lookup = {i: compute_measure_vector(q.x_ik.samples, q.x_jk.samples)
                  for i, q in enumerate(train_q)}
    return train_q, held_q, mos_items, jnd_items, lookup


def train_toy(data, loss_mask=None, seed=7):
    train_q, _, mos_items, jnd_items, lookup = data
    model = Model(ModelConfig(channel_mult=MULT, measure_names=MEASURE_NAMES,
                              seed=seed))
    kwargs = {}
    if loss_mask is not None:
        kwargs["loss_mask"] = tuple(loss_mask)
    cfg = TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=seed, **kwargs)
    log = train(model, cfg, train_q, mos_items=mos_items,
                jnd_items=jnd_items, measure_lookup=lookup)
    return model, log


def heldout_rank(model, held_q) -> float:
    """R_RANK on (x_ik, x_jk) held-out pairs; quality(i) >= quality(j)."""
    _, s_i = model.infer([q.x_ik.samples for q in held_q])
    _, s_j = model.infer([q.x_jk.samples for q in held_q])
    return float(np.mean(s_i <= s_j))
