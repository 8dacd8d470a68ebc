"""Training: batch assembly over the three data sources, augmentation,
the quasi-hyperbolic optimizer with lookahead, the step-anchored LR
schedule, stochastic weight averaging, and the epoch loop.

An epoch is one full pass over the programmatically generated quadruples;
MOS and JND data are resampled (reused) freely within an epoch.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ad, objectives
from .audio import read_wav_48k
from .manifest import finite, read_jsonl, str_field
from .measures import fit_normalizer
from .model import Model, save_checkpoint

FRAME_SAMPLES = 48000

QH_NU1 = 0.7
QH_NU2 = 1.0
QH_BETA1 = 0.995
QH_BETA2 = 0.999
QH_EPS = 1e-8
LOOKAHEAD_K = 6
LOOKAHEAD_ALPHA = 0.5
DECAY_POINTS = (0.7, 0.9)       # fractions of all steps where the LR drops
DECAY_FACTOR = 0.2
BATCH_RATIOS = (0.5, 0.25, 0.25)  # quadruple/MOS/JND item shares
GAIN_RANGE_DB = (-6.0, 0.0)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    base_lr: float = 1e-3
    batch_size: int = 32          # quadruples per step
    loss_mask: tuple = objectives.LOSS_NAMES
    seed: int = 0

    def __post_init__(self):
        """Refuse the settings no run can use, before any data is read."""
        object.__setattr__(self, "loss_mask",
                           objectives.check_loss_mask(self.loss_mask))
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1, got %d" % self.epochs)
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1, got %d"
                             % self.batch_size)
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError("learning rate must be finite and positive, "
                             "got %r" % self.base_lr)


# ---------------------------------------------------------- data loading

def _mos_record(rec) -> dict:
    return {"path": str_field(rec, "path"), "mos": finite(rec["mos"], "mos"),
            "listener_scores": [finite(v, "listener_scores") for v in
                                rec.get("listener_scores", [])]}


def _jnd_record(rec) -> dict:
    return {"path_a": str_field(rec, "path_a"),
            "path_b": str_field(rec, "path_b"),
            "jnd": finite(rec["jnd"], "jnd")}


def read_mos_manifest(path) -> list:
    """JSON-lines: {path, mos, listener_scores?} per recording. A
    malformed record raises ManifestError."""
    return read_jsonl(path, _mos_record)


def read_jnd_manifest(path) -> list:
    """JSON-lines: {path_a, path_b, jnd} per pair (jnd=1: noticeable). A
    malformed record raises ManifestError."""
    return read_jsonl(path, _jnd_record)


def _read_clip(path):
    """The samples of the WAV at `path`, or None, with a warning naming
    it, when it is shorter than 1 s."""
    frame = read_wav_48k(path)
    if len(frame) < FRAME_SAMPLES:
        warnings.warn("skipping %s: shorter than 1 s" % path)
        return None
    return frame.samples


def load_mos_items(manifest) -> list:
    """(samples, mos) tuples; recordings shorter than 1 s are skipped."""
    clips = [(_read_clip(rec["path"]), rec["mos"]) for rec in manifest]
    return [(a, mos) for a, mos in clips if a is not None]


def load_jnd_items(manifest) -> list:
    """(samples_a, samples_b, jnd) tuples; a pair with a clip shorter
    than 1 s is skipped."""
    clips = [(_read_clip(rec["path_a"]), _read_clip(rec["path_b"]),
              rec["jnd"]) for rec in manifest]
    return [(a, b, j) for a, b, j in clips if a is not None and b is not None]


# ---------------------------------------------------------- augmentation

def augment(frames, rng: np.random.Generator):
    """Random gain, sign flip, and 1 s temporal crop, applied identically
    to every member of `frames` (preserves intra-quadruple relations)."""
    frames = [np.asarray(f) for f in frames]
    n = min(len(f) for f in frames)
    if n < FRAME_SAMPLES:
        raise ValueError("frame shorter than the crop length")
    gain = 10.0 ** (rng.uniform(*GAIN_RANGE_DB) / 20.0)
    if rng.random() < 0.5:
        gain = -gain
    off = int(rng.integers(0, n - FRAME_SAMPLES + 1))
    return [gain * f[off:off + FRAME_SAMPLES] for f in frames]


# --------------------------------------------------------------- batches

@dataclass
class Batch:
    """One assembled training batch.

    `frames` is one float32 matrix of 1 s frames, one row per encoder
    input in the encoder's order: the ik, il, jk, jl cuts of each of the
    n_q quadruples, then the n_m MOS items, then the a and b frames of
    each of the n_j JND pairs. The counts are the lengths of
    `dt_targets`, `mos_targets` and `jnd_targets`; an absent source has
    empty targets.
    """

    frames: np.ndarray               # (4 n_q + n_m + 2 n_j, T)
    dt_targets: np.ndarray           # (n_q, 2, n_dt) for chains i and j
    ds_targets: np.ndarray           # (n_q, 2, len(KIND_NAMES))
    mos_targets: np.ndarray          # (n_m,)
    jnd_targets: np.ndarray          # (n_j,) 1 = noticeable
    mr_targets: np.ndarray = None    # (n_q, M) normalized, with mask
    mr_mask: np.ndarray = None


def _measure_targets(measure_lookup, names, normalizer, n_quads):
    """(n_quads, len(names)) float32 measure-regression targets, one row
    per quadruple index, and their 0/1 mask. An entry is a target, its
    value normalized, exactly when the quadruple's vector holds the
    measure and `normalizer` was fitted for it; every other entry is 0
    with mask 0."""
    targets = np.zeros((n_quads, len(names)), dtype=np.float32)
    mask = np.zeros_like(targets)
    for row, vec in measure_lookup.items():
        for col, name in enumerate(names):
            if name in vec.values and name in normalizer.means:
                targets[row, col] = normalizer.apply_value(name,
                                                           vec.values[name])
                mask[row, col] = 1.0
    return targets, mask


def assemble_batch(quads, indices, rng: np.random.Generator,
                   mos_items=None, jnd_items=None, measure_targets=None):
    """Build a Batch from quadruples `indices` plus MOS/JND side data.

    Item shares follow BATCH_RATIOS (quadruples/MOS/JND); missing sources
    degrade gracefully to a quadruple-only batch. Each item is augmented
    straight into its rows of `frames`. The RNG order is: the quadruples'
    augments, then the MOS picks and their augments, then the JND picks
    and theirs. `measure_targets` is the (targets, mask) pair of
    _measure_targets; the batch takes the rows of `indices`.
    """
    if len(indices) == 0:
        raise ValueError("empty quadruple selection")
    n_q = len(indices)
    r_q, r_m, r_j = BATCH_RATIOS
    n_m = int(round(n_q * r_m / r_q)) if mos_items else 0
    n_j = int(round(n_q * r_j / r_q)) if jnd_items else 0
    picked = [quads[idx] for idx in indices]
    labels = []

    def signals():
        """Each item's signals in row order; a side source's picks are
        drawn only once every row above it is augmented."""
        for q in picked:
            yield [f.samples for f in q.frames()]
        for items, n in ((mos_items, n_m), (jnd_items, n_j)):
            for pick in rng.integers(0, len(items), size=n) if n else ():
                *item, label = items[pick]
                labels.append(label)
                yield item

    frames = np.empty((4 * n_q + n_m + 2 * n_j, FRAME_SAMPLES),
                      dtype=np.float32)
    row = 0
    for item in signals():
        frames[row:row + len(item)] = augment(item, rng)
        row += len(item)
    side = np.array(labels, dtype=np.float32)    # MOS, then JND labels
    batch = Batch(
        frames=frames,
        dt_targets=np.array([(q.dt_targets_i, q.dt_targets_j) for q in picked],
                            dtype=np.float32),
        ds_targets=np.array([(q.ds_targets_i, q.ds_targets_j) for q in picked],
                            dtype=np.float32),
        mos_targets=side[:n_m], jnd_targets=side[n_m:])
    if measure_targets is not None:
        targets, mask = measure_targets
        if mask[indices].any():
            batch.mr_targets, batch.mr_mask = targets[indices], mask[indices]
    return batch


# -------------------------------------------------------------- optimizer

class QHState:
    """Quasi-hyperbolic adaptive momentum with lookahead slow weights:
    the step count, both moments and the slow weights. The
    hyperparameters are the QH_* and LOOKAHEAD_* constants."""

    def __init__(self, params: dict):
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.slow = {n: p.data.copy() for n, p in params.items()}


def qh_step(params: dict, state: QHState, lr: float) -> None:
    """One optimizer step over all parameters (missing grads = zero)."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    state.t += 1
    bc1 = 1.0 - QH_BETA1 ** state.t
    bc2 = 1.0 - QH_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient for %s" % name)
        m = state.m[name]
        v = state.v[name]
        m *= QH_BETA1
        m += (1.0 - QH_BETA1) * g
        v *= QH_BETA2
        v += (1.0 - QH_BETA2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        num = (1.0 - QH_NU1) * g + QH_NU1 * m_hat
        den = np.sqrt((1.0 - QH_NU2) * g * g + QH_NU2 * v_hat)
        p.data -= (lr * num / (den + QH_EPS)).astype(p.data.dtype)
    if state.t % LOOKAHEAD_K == 0:
        for name, p in params.items():
            slow = state.slow[name]
            slow += LOOKAHEAD_ALPHA * (p.data - slow)
            p.data = slow.copy()


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Piecewise-constant schedule anchored to the total step count."""
    if not 0 <= step < total_steps:
        raise ValueError("step out of range")
    frac = step / total_steps
    lr = config.base_lr
    for point in DECAY_POINTS:
        if frac >= point:
            lr *= DECAY_FACTOR
    return lr


# ------------------------------------------------------------------- SWA

class SwaState:
    def __init__(self):
        self.sums = None
        self.count = 0

    def absorb(self, params: dict) -> None:
        if self.sums is None:
            self.sums = {n: np.zeros(p.data.shape, dtype=np.float64)
                         for n, p in params.items()}
        for n, p in params.items():
            self.sums[n] += p.data
        self.count += 1

    def average(self) -> dict:
        if not self.count:
            raise ValueError("no snapshots absorbed")
        return {n: s / self.count for n, s in self.sums.items()}


def swa_finalize(state: SwaState, model: Model, sample_frames) -> None:
    """Install the parameter average and recalibrate BN running stats
    with one pass over `sample_frames` (batch of 1 s frames)."""
    for name, avg in state.average().items():
        p = model.params[name]
        p.data = avg.astype(p.data.dtype)
    recalibrate_bn(model, sample_frames)


def recalibrate_bn(model: Model, sample_frames) -> None:
    """Set every encoder BN's running stats to the batch stats of one
    sample; the heads' BNs run only in train mode and are left as they are.

    A train-mode encode stores each BN's batch statistics as its running
    stats; no gradient is needed, so the pass builds no autodiff graph."""
    with ad.no_grad():
        model.encode(np.asarray(sample_frames), train=True)


# ------------------------------------------------------------- main loop

def _rows(x, start, stop, step=1):
    """Rows start, start + step, ... (below stop) of x, on the graph."""
    return ad.index_select(x, np.arange(start, stop, step), axis=0)


def _batch_losses(model: Model, batch: Batch, loss_mask: tuple) -> dict:
    """Forward everything once and compute all available loss Tensors.

    BatchNorm needs two rows for batch statistics, so a forward that would
    give one a single row is left out and its loss has no data this step:
    jnd with one JND pair, mr with one quadruple, and every loss when the
    encoder would see one frame.
    """
    comp = {}
    n_q, n_m, n_j = map(len, (batch.dt_targets, batch.mos_targets,
                              batch.jnd_targets))
    frames = batch.frames
    # quadruple frames only matter when a quadruple-fed loss is enabled
    if not {"rank", "cons", "sd", "dt", "ds", "mr"} & set(loss_mask):
        frames, n_q = frames[4 * n_q:], 0
    if len(frames) < 2:
        return comp
    z = model.encode(frames, train=True)

    if n_q:
        z_quad = _rows(z, 0, 4 * n_q)
        # scores on all quadruple cuts, in ik, il, jk, jl order
        s = model.score(z_quad)
        s_ik, s_il, s_jk, s_jl = (_rows(s, c, 4 * n_q, 4) for c in range(4))
        if "rank" in loss_mask:
            comp["rank"] = ad.mul_const(
                objectives.loss_rank(s_ik, s_jk)
                + objectives.loss_rank(s_il, s_jl), 0.5)
        if "sd" in loss_mask:
            # same-condition pairs (label 1) and cross pairs (label 0)
            ik = np.arange(0, 4 * n_q, 4)
            p_sd = model.head_forward(
                "sd", ad.index_select(z_quad, np.concatenate(
                    [ik, ik + 2, ik]), axis=0),
                ad.index_select(z_quad, np.concatenate(
                    [ik + 1, ik + 3, ik + 2]), axis=0))
            labels = np.concatenate([np.ones(2 * n_q), np.zeros(n_q)])
            comp["sd"] = objectives.loss_sd(ad.reshape(p_sd, (-1,)), labels)
        # cut order ik,il,jk,jl -> chain order i,i,j,j
        if "dt" in loss_mask:
            p_dt = model.head_forward("dt", z_quad)
            tgt = batch.dt_targets[:, (0, 0, 1, 1), :].reshape(4 * n_q, -1)
            comp["dt"] = objectives.loss_dt(p_dt, tgt)
        if "ds" in loss_mask:
            p_ds = model.head_forward("ds", z_quad)
            tgt = batch.ds_targets[:, (0, 0, 1, 1), :].reshape(4 * n_q, -1)
            comp["ds"] = objectives.loss_ds(p_ds, tgt)
        if "mr" in loss_mask and batch.mr_targets is not None and n_q >= 2:
            p_mr = model.head_forward("mr", _rows(z_quad, 0, 4 * n_q, 4),
                                      _rows(z_quad, 2, 4 * n_q, 4))
            comp["mr"] = objectives.loss_mr(p_mr, batch.mr_targets,
                                            mask=batch.mr_mask)

    if n_m:
        s_mos = model.score(_rows(z, 4 * n_q, 4 * n_q + n_m))
        if "mos" in loss_mask:
            comp["mos"] = objectives.loss_mos(s_mos, batch.mos_targets)
        if "rank" in loss_mask and n_m >= 2:
            # pair up MOS items for annotated ranking, larger label first
            t = batch.mos_targets.astype(np.float64)
            a = np.arange(0, n_m - 1, 2)
            swap = t[a + 1] > t[a]
            hi, lo = np.where(swap, a + 1, a), np.where(swap, a, a + 1)
            r_ann = objectives.loss_rank(
                ad.index_select(s_mos, hi), ad.index_select(s_mos, lo),
                margin=np.minimum(objectives.ALPHA, t[hi] - t[lo]))
            comp["rank"] = ad.mul_const(comp["rank"] + r_ann, 0.5) \
                if "rank" in comp else r_ann

    extra_pairs = None
    if n_j:
        z_jnd = _rows(z, 4 * n_q + n_m, 4 * n_q + n_m + 2 * n_j)
        z_a = _rows(z_jnd, 0, 2 * n_j, 2)
        z_b = _rows(z_jnd, 1, 2 * n_j, 2)
        if "jnd" in loss_mask and n_j >= 2:
            p_jnd = model.head_forward("jnd", z_a, z_b)
            comp["jnd"] = objectives.loss_jnd(ad.reshape(p_jnd, (-1,)),
                                              batch.jnd_targets)
        # noticeable pairs are distinguishable: feed the consistency margin
        noticeable = np.flatnonzero(batch.jnd_targets > 0.5)
        if len(noticeable) and "cons" in loss_mask:
            extra_pairs = (
                model.score(ad.index_select(z_a, noticeable, axis=0)),
                model.score(ad.index_select(z_b, noticeable, axis=0)))

    if "cons" in loss_mask:  # a quadruple loss: the n_q block ran
        comp["cons"] = objectives.loss_cons(s_ik, s_il, s_jk, s_jl,
                                            extra_pairs=extra_pairs)
    return comp


def train(model: Model, config: TrainConfig, quads,
          mos_items=None, jnd_items=None, measure_lookup=None,
          log_path=None, checkpoint_path=None,
          progress=None) -> list:
    """Run the full training recipe; returns the per-step log records.

    `quads` is any indexable collection of Quadruple. `measure_lookup`
    maps quadruple index -> MeasureVector of raw values. The normalizer
    is fitted on them here; each measure of `model.config.measure_names`
    that it leaves out is no mr target, and one warning names them all.
    The final model parameters are the SWA average with recalibrated BN
    stats; `model` is updated in place.
    """
    n_q = len(quads)
    if n_q == 0:
        raise ValueError("no quadruples to train on")
    measure_names = tuple(model.config.measure_names)
    measure_targets = None
    if measure_lookup and measure_names:
        model.normalizer = fit_normalizer(measure_lookup.values())
        left_out = [n for n in measure_names
                    if n not in model.normalizer.means]
        if left_out:
            warnings.warn("measures left out of the mr targets (fewer than "
                          "2 values, or zero variance): %s"
                          % ", ".join(left_out))
        measure_targets = _measure_targets(
            measure_lookup, measure_names, model.normalizer, n_q)

    rng = np.random.default_rng(config.seed)
    steps_per_epoch = math.ceil(n_q / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    swa = SwaState()
    opt = QHState(model.params)
    log = []
    log_file = open(log_path, "w") if log_path else None
    step = 0
    try:
        for epoch in range(config.epochs):
            perm = rng.permutation(n_q)
            fired = set()
            for b0 in range(0, n_q, config.batch_size):
                indices = perm[b0:b0 + config.batch_size]
                batch = assemble_batch(
                    quads, indices, rng, mos_items=mos_items,
                    jnd_items=jnd_items, measure_targets=measure_targets)
                comp = _batch_losses(model, batch, config.loss_mask)
                total, losses = objectives.total_loss(comp, config.loss_mask)
                if not np.isfinite(losses["total"]):
                    raise FloatingPointError(
                        "non-finite total loss at step %d" % step)
                for p in model.params.values():
                    p.grad = None
                total.backward()
                lr = lr_at(step, total_steps, config)
                qh_step(model.params, opt, lr)
                if epoch == config.epochs - 1:
                    swa.absorb(model.params)
                fired.update(comp)
                rec = {"step": step, "epoch": epoch, "lr": lr, **losses}
                log.append(rec)
                if log_file:
                    log_file.write(json.dumps(rec) + "\n")
                if progress:
                    progress(rec)
                step += 1
            silent = [n for n in config.loss_mask if n not in fired]
            if silent:
                warnings.warn("enabled losses with no data in epoch %d: %s"
                              % (epoch, ", ".join(silent)))
    finally:
        if log_file:
            log_file.close()

    # epochs >= 1, so the last epoch absorbed a snapshot and set `batch`
    swa_finalize(swa, model, batch.frames[:4 * len(batch.dt_targets)])
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return log
