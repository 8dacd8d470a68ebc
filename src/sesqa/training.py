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
from .manifest import read_jsonl, str_field
from .measures import fit_normalizer
from .model import Model, save_checkpoint
from .objectives import LossConfig

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


# ---------------------------------------------------------- data loading

def _mos_record(rec) -> dict:
    return {"path": str_field(rec, "path"), "mos": float(rec["mos"]),
            "listener_scores": [float(v) for v in
                                rec.get("listener_scores", [])]}


def _jnd_record(rec) -> dict:
    return {"path_a": str_field(rec, "path_a"),
            "path_b": str_field(rec, "path_b"), "jnd": float(rec["jnd"])}


def read_mos_manifest(path) -> list:
    """JSON-lines: {path, mos, listener_scores?} per recording. A
    malformed record raises ManifestError."""
    return read_jsonl(path, _mos_record)


def read_jnd_manifest(path) -> list:
    """JSON-lines: {path_a, path_b, jnd} per pair (jnd=1: noticeable). A
    malformed record raises ManifestError."""
    return read_jsonl(path, _jnd_record)


def load_mos_items(manifest) -> list:
    """(samples, mos) tuples; recordings shorter than 1 s are skipped."""
    out = []
    for rec in manifest:
        frame = read_wav_48k(rec["path"])
        if len(frame) < FRAME_SAMPLES:
            warnings.warn("skipping %s: shorter than 1 s" % rec["path"])
            continue
        out.append((frame.samples, rec["mos"]))
    return out


def load_jnd_items(manifest) -> list:
    out = []
    for rec in manifest:
        a = read_wav_48k(rec["path_a"])
        b = read_wav_48k(rec["path_b"])
        if len(a) < FRAME_SAMPLES or len(b) < FRAME_SAMPLES:
            warnings.warn("skipping JND pair %s: shorter than 1 s"
                          % rec["path_a"])
            continue
        out.append((a.samples, b.samples, rec["jnd"]))
    return out


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
    """One assembled training batch (all frames 1 s, float32)."""

    quad_frames: np.ndarray          # (B_q, 4, T) in ik, il, jk, jl order
    quad_ids: list
    dt_targets: np.ndarray           # (B_q, 2, n_dt) for chains i and j
    ds_targets: np.ndarray           # (B_q, 2, n_kinds)
    mr_targets: np.ndarray = None    # (B_q, M) normalized, with mask
    mr_mask: np.ndarray = None
    mos_frames: np.ndarray = None    # (B_m, T)
    mos_targets: np.ndarray = None
    jnd_frames: np.ndarray = None    # (B_j, 2, T)
    jnd_targets: np.ndarray = None


def assemble_batch(quads, indices, rng: np.random.Generator,
                   mos_items=None, jnd_items=None, measure_lookup=None,
                   measure_names=(), normalizer=None):
    """Build a Batch from quadruples `indices` plus MOS/JND side data.

    Item shares follow BATCH_RATIOS (quadruples/MOS/JND); missing sources
    degrade gracefully to a quadruple-only batch.
    """
    if len(indices) == 0:
        raise ValueError("empty quadruple selection")
    n_q = len(indices)
    r_q, r_m, r_j = BATCH_RATIOS
    n_m = int(round(n_q * r_m / r_q)) if mos_items else 0
    n_j = int(round(n_q * r_j / r_q)) if jnd_items else 0

    qf = np.empty((n_q, 4, FRAME_SAMPLES), dtype=np.float32)
    dt = np.empty((n_q, 2, 0), dtype=np.float32)
    ds = np.empty((n_q, 2, 0), dtype=np.float32)
    first = True
    ids = []
    for row, idx in enumerate(indices):
        q = quads[idx]
        ids.append(idx)
        frames = augment([f.samples for f in q.frames()], rng)
        for col, f in enumerate(frames):
            qf[row, col] = f
        if first:
            dt = np.empty((n_q, 2, len(q.dt_targets_i)), dtype=np.float32)
            ds = np.empty((n_q, 2, len(q.ds_targets_i)), dtype=np.float32)
            first = False
        dt[row, 0], dt[row, 1] = q.dt_targets_i, q.dt_targets_j
        ds[row, 0], ds[row, 1] = q.ds_targets_i, q.ds_targets_j
    batch = Batch(quad_frames=qf, quad_ids=ids, dt_targets=dt,
                  ds_targets=ds)

    if measure_lookup is not None and measure_names:
        mr_t = np.zeros((n_q, len(measure_names)), dtype=np.float32)
        mr_m = np.zeros((n_q, len(measure_names)), dtype=np.float32)
        for row, idx in enumerate(ids):
            vec = measure_lookup.get(idx)
            if vec is None:
                continue
            for col, name in enumerate(measure_names):
                if name in vec.values:
                    v = vec.values[name]
                    if normalizer is not None and name in normalizer.means:
                        v = normalizer.apply_value(name, v)
                    mr_t[row, col] = v
                    mr_m[row, col] = 1.0
        if mr_m.any():
            batch.mr_targets, batch.mr_mask = mr_t, mr_m

    if n_m:
        picks = rng.integers(0, len(mos_items), size=n_m)
        mf = np.empty((n_m, FRAME_SAMPLES), dtype=np.float32)
        mt = np.empty(n_m, dtype=np.float32)
        for row, pick in enumerate(picks):
            samples, mos = mos_items[pick]
            mf[row] = augment([samples], rng)[0]
            mt[row] = mos
        batch.mos_frames, batch.mos_targets = mf, mt

    if n_j:
        picks = rng.integers(0, len(jnd_items), size=n_j)
        jf = np.empty((n_j, 2, FRAME_SAMPLES), dtype=np.float32)
        jt = np.empty(n_j, dtype=np.float32)
        for row, pick in enumerate(picks):
            a, b, label = jnd_items[pick]
            fa, fb = augment([a, b], rng)
            jf[row, 0], jf[row, 1] = fa, fb
            jt[row] = label
        batch.jnd_frames, batch.jnd_targets = jf, jt
    return batch


# -------------------------------------------------------------- optimizer

class QHState:
    """Quasi-hyperbolic adaptive momentum with lookahead slow weights."""

    def __init__(self, params: dict, nu1=QH_NU1, nu2=QH_NU2,
                 beta1=QH_BETA1, beta2=QH_BETA2, eps=QH_EPS,
                 lookahead_k=LOOKAHEAD_K, lookahead_alpha=LOOKAHEAD_ALPHA):
        self.nu1, self.nu2 = nu1, nu2
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.k = lookahead_k
        self.alpha = lookahead_alpha
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.slow = {n: p.data.copy() for n, p in params.items()}


def qh_step(params: dict, state: QHState, lr: float) -> None:
    """One optimizer step over all parameters (missing grads = zero)."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient for %s" % name)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        num = (1.0 - state.nu1) * g + state.nu1 * m_hat
        den = np.sqrt((1.0 - state.nu2) * g * g + state.nu2 * v_hat)
        p.data -= (lr * num / (den + state.eps)).astype(p.data.dtype)
    if state.t % state.k == 0:
        for name, p in params.items():
            slow = state.slow[name]
            slow += state.alpha * (p.data - slow)
            p.data = slow.astype(p.data.dtype).copy()


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
    """Set every BN's running stats to the batch stats of one sample.

    Train mode supplies the batch statistics; no gradient is needed, so
    the pass builds no autodiff graph."""
    old = {name: bn.momentum for name, bn in model.bns.items()}
    for bn in model.bns.values():
        bn.momentum = 1.0
    try:
        with ad.no_grad():
            z = model.encode(np.asarray(sample_frames), train=True).data
            half = z.shape[0] // 2
            if half >= 1:
                for head in ("sd", "jnd", "mr"):
                    model.head_forward(head, z[:half], z[half:2 * half],
                                       train=True)
                for head in ("dt", "ds"):
                    model.head_forward(head, z, train=True)
    finally:
        for name, bn in model.bns.items():
            bn.momentum = old[name]


# ------------------------------------------------------------- main loop

def _batch_losses(model: Model, batch: Batch, lcfg: LossConfig) -> dict:
    """Forward everything once and compute all available loss Tensors."""
    comp = {}
    n_q = batch.quad_frames.shape[0]
    # quadruple frames only matter when a quadruple-fed loss is enabled
    quad_losses = ("rank", "cons", "sd", "dt", "ds", "mr")
    use_quads = any(lcfg.enabled(x) for x in quad_losses)
    n_q_enc = n_q if use_quads else 0
    stacks = []
    if n_q_enc:
        stacks.append(batch.quad_frames.reshape(-1, FRAME_SAMPLES))
    n_m = 0 if batch.mos_frames is None else batch.mos_frames.shape[0]
    n_j = 0 if batch.jnd_frames is None else batch.jnd_frames.shape[0]
    if n_m:
        stacks.append(batch.mos_frames)
    if n_j:
        stacks.append(batch.jnd_frames.reshape(-1, FRAME_SAMPLES))
    if not stacks:
        return comp
    z = model.encode(np.concatenate(stacks, axis=0), train=True)

    # slice the latent block back apart
    idx = 4 * n_q_enc
    z_quad = ad.index_select(z, np.arange(idx), axis=0) if n_q_enc else None
    z_mos = (ad.index_select(z, np.arange(idx, idx + n_m), axis=0)
             if n_m else None)
    z_jnd = (ad.index_select(z, np.arange(idx + n_m, idx + n_m + 2 * n_j),
                             axis=0) if n_j else None)

    # scores on all quadruple cuts
    if n_q_enc:
        s = model.score(z_quad)
        s_ik = ad.index_select(s, np.arange(0, 4 * n_q, 4))
        s_il = ad.index_select(s, np.arange(1, 4 * n_q, 4))
        s_jk = ad.index_select(s, np.arange(2, 4 * n_q, 4))
        s_jl = ad.index_select(s, np.arange(3, 4 * n_q, 4))

    if n_q_enc and lcfg.enabled("rank"):
        comp["rank"] = ad.mul_const(
            objectives.loss_rank(s_ik, s_jk)
            + objectives.loss_rank(s_il, s_jl), 0.5)
    # same-condition pairs (label 1) and cross pairs (label 0)
    if n_q_enc and lcfg.enabled("sd"):
        rows_a = np.concatenate([np.arange(0, 4 * n_q, 4),
                                 np.arange(2, 4 * n_q, 4),
                                 np.arange(0, 4 * n_q, 4)])
        rows_b = np.concatenate([np.arange(1, 4 * n_q, 4),
                                 np.arange(3, 4 * n_q, 4),
                                 np.arange(2, 4 * n_q, 4)])
        labels = np.concatenate([np.ones(2 * n_q), np.zeros(n_q)])
        p_sd = model.head_forward("sd",
                                  ad.index_select(z_quad, rows_a, axis=0),
                                  ad.index_select(z_quad, rows_b, axis=0),
                                  train=True)
        comp["sd"] = objectives.loss_sd(ad.reshape(p_sd, (-1,)), labels)

    if n_q_enc and lcfg.enabled("dt"):
        p_dt = model.head_forward("dt", z_quad, train=True)
        # cut order ik,il,jk,jl -> chain order i,i,j,j
        tgt = batch.dt_targets[:, (0, 0, 1, 1), :].reshape(4 * n_q, -1)
        comp["dt"] = objectives.loss_dt(p_dt, tgt)
    if n_q_enc and lcfg.enabled("ds"):
        p_ds = model.head_forward("ds", z_quad, train=True)
        tgt = batch.ds_targets[:, (0, 0, 1, 1), :].reshape(4 * n_q, -1)
        comp["ds"] = objectives.loss_ds(p_ds, tgt)

    if n_q_enc and lcfg.enabled("mr") and batch.mr_targets is not None:
        z_i = ad.index_select(z_quad, np.arange(0, 4 * n_q, 4), axis=0)
        z_j = ad.index_select(z_quad, np.arange(2, 4 * n_q, 4), axis=0)
        p_mr = model.head_forward("mr", z_i, z_j, train=True)
        comp["mr"] = objectives.loss_mr(p_mr, batch.mr_targets,
                                        mask=batch.mr_mask)

    if n_m:
        s_mos = model.score(z_mos)
        if lcfg.enabled("mos"):
            comp["mos"] = objectives.loss_mos(s_mos, batch.mos_targets)
        if lcfg.enabled("rank") and n_m >= 2:
            # pair up MOS items for annotated ranking, larger label first
            order = np.arange(n_m - (n_m % 2))
            a, b = order[0::2], order[1::2]
            ta = batch.mos_targets[a]
            tb = batch.mos_targets[b]
            swap = tb > ta
            hi = np.where(swap, b, a)
            lo = np.where(swap, a, b)
            r_ann = objectives.loss_rank(
                ad.index_select(s_mos, hi), ad.index_select(s_mos, lo),
                targets_i=batch.mos_targets[hi],
                targets_j=batch.mos_targets[lo], annotated=True)
            comp["rank"] = ad.mul_const(comp["rank"] + r_ann, 0.5) \
                if "rank" in comp else r_ann

    extra_pairs = None
    if n_j:
        z_a = ad.index_select(z_jnd, np.arange(0, 2 * n_j, 2), axis=0)
        z_b = ad.index_select(z_jnd, np.arange(1, 2 * n_j, 2), axis=0)
        if lcfg.enabled("jnd"):
            p_jnd = model.head_forward("jnd", z_a, z_b, train=True)
            comp["jnd"] = objectives.loss_jnd(ad.reshape(p_jnd, (-1,)),
                                              batch.jnd_targets)
        # noticeable pairs are distinguishable: feed the consistency margin
        noticeable = np.flatnonzero(batch.jnd_targets > 0.5)
        if len(noticeable) and lcfg.enabled("cons"):
            extra_pairs = (
                model.score(ad.index_select(z_a, noticeable, axis=0)),
                model.score(ad.index_select(z_b, noticeable, axis=0)))

    if n_q_enc and lcfg.enabled("cons"):
        comp["cons"] = objectives.loss_cons(s_ik, s_il, s_jk, s_jl,
                                            extra_pairs=extra_pairs)
    return comp


def train(model: Model, config: TrainConfig, quads,
          mos_items=None, jnd_items=None, measure_lookup=None,
          log_path=None, checkpoint_path=None,
          progress=None) -> list:
    """Run the full training recipe; returns the per-step log records.

    `quads` is any indexable collection of Quadruple. `measure_lookup`
    maps quadruple index -> MeasureVector (raw values; a normalizer is
    fitted here). The final model parameters are the SWA average with
    recalibrated BN stats; `model` is updated in place.
    """
    n_q = len(quads)
    if n_q == 0:
        raise ValueError("no quadruples to train on")
    lcfg = LossConfig(loss_mask=tuple(config.loss_mask))
    measure_names = tuple(model.config.measure_names)

    normalizer = None
    if measure_lookup and measure_names:
        try:
            normalizer = fit_normalizer(measure_lookup.values())
        except ValueError as e:
            warnings.warn("measure normalization disabled: %s" % e)
            measure_lookup = None
        model.normalizer = normalizer

    rng = np.random.default_rng(config.seed)
    steps_per_epoch = math.ceil(n_q / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    swa = SwaState()
    opt = QHState(model.params)
    log = []
    log_file = open(log_path, "w") if log_path else None
    last_batch = None
    step = 0
    try:
        for epoch in range(config.epochs):
            perm = rng.permutation(n_q)
            fired = set()
            for b0 in range(0, n_q, config.batch_size):
                indices = perm[b0:b0 + config.batch_size]
                batch = assemble_batch(
                    quads, indices, rng, mos_items=mos_items,
                    jnd_items=jnd_items, measure_lookup=measure_lookup,
                    measure_names=measure_names, normalizer=normalizer)
                comp = _batch_losses(model, batch, lcfg)
                total, report = objectives.total_loss(comp, lcfg)
                if not np.isfinite(report.total):
                    raise FloatingPointError(
                        "non-finite total loss at step %d" % step)
                for p in model.params.values():
                    p.grad = None
                total.backward()
                lr = lr_at(step, total_steps, config)
                qh_step(model.params, opt, lr)
                if epoch == config.epochs - 1:
                    swa.absorb(model.params)
                fired.update(report.values)
                rec = {"step": step, "epoch": epoch, "lr": lr}
                rec.update(report.to_dict())
                log.append(rec)
                if log_file:
                    log_file.write(json.dumps(rec) + "\n")
                if progress:
                    progress(rec)
                last_batch = batch
                step += 1
            silent = [n for n in lcfg.loss_mask if n not in fired]
            if silent:
                warnings.warn("enabled losses with no data in epoch %d: %s"
                              % (epoch, ", ".join(silent)))
    finally:
        if log_file:
            log_file.close()

    if swa.count:
        sample = last_batch.quad_frames.reshape(-1, FRAME_SAMPLES)
        swa_finalize(swa, model, sample)
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return log
