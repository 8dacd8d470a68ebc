"""Evaluation metrics and analysis utilities.

The headline metric is E_TOTAL = 0.5 * L_MOS + R_RANK + L_CONS, combining
absolute MOS error, the ratio of incorrectly ranked pairs, and the mean
consistency value over quadruples (and optionally distinguishable pairs).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from . import ad
from .ad import Tensor
from .degrade.chains import sample_spec
from .degrade.kernels import apply_degradation
from .objectives import consistency_terms, loss_cons

SWEEP_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)   # DS1..DS5
SWEEP_SEEDS = 5                          # degraded clips per strength


class UndefinedCorrelationError(ValueError):
    """Correlation undefined (constant input array)."""


def eval_mos(predictions, labels) -> float:
    """Mean absolute error."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError("prediction/label length mismatch")
    if p.size == 0:
        raise ValueError("empty evaluation set")
    return float(np.mean(np.abs(p - t)))


def eval_rank(s_i, s_j) -> float:
    """Ratio of incorrectly classified rankings.

    Pairs must be ordered with ground truth quality(i) >= quality(j);
    ties (s_i == s_j) count as incorrect.
    """
    s_i = np.asarray(s_i, dtype=np.float64)
    s_j = np.asarray(s_j, dtype=np.float64)
    if s_i.size == 0 or s_i.shape != s_j.shape:
        raise ValueError("rank evaluation needs non-empty aligned pairs")
    return float(np.mean(s_i <= s_j))


def _f64(scores) -> Tensor:
    return Tensor(np.asarray(scores, dtype=np.float64))


def consistency_values(s_ik, s_il, s_jk, s_jl):
    """Per-quadruple consistency: the training loss's per-quadruple terms
    (objectives.consistency_terms) in float64."""
    with ad.no_grad():
        return consistency_terms(_f64(s_ik), _f64(s_il), _f64(s_jk),
                                 _f64(s_jl)).data


def eval_cons(quad_scores, pair_scores=None) -> float:
    """Mean consistency over quadruples plus optional distinguishable
    pairs (each contributing only the separation term): the consistency
    loss (objectives.loss_cons) in float64.

    `quad_scores` is a 4-tuple/array of aligned score arrays in
    (ik, il, jk, jl) order; `pair_scores` an optional (a, b) tuple.
    """
    quads = [_f64(s) for s in quad_scores]
    pairs = None if pair_scores is None else [_f64(s) for s in pair_scores]
    if not quads[0].data.size and (pairs is None or not pairs[0].data.size):
        raise ValueError("empty evaluation set")
    with ad.no_grad():
        return float(loss_cons(*quads, extra_pairs=pairs).data)


def e_total(l_mos: float, r_rank: float, l_cons: float) -> float:
    """0.5 * L_MOS + R_RANK + L_CONS (the 0.5 compensates range)."""
    return 0.5 * l_mos + r_rank + l_cons


def correlations(predictions, labels) -> tuple:
    """(Pearson, Spearman) correlation coefficients."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(labels, dtype=np.float64)
    if p.size < 2 or p.shape != t.shape:
        raise ValueError("correlations need >= 2 aligned values")
    if np.ptp(p) == 0 or np.ptp(t) == 0:
        raise UndefinedCorrelationError("correlation of a constant array "
                                        "is undefined")
    rho_p = float(stats.pearsonr(p, t).statistic)
    rho_s = float(stats.spearmanr(p, t).statistic)
    return rho_p, rho_s


def human_baseline(listener_scores) -> float:
    """Mean over utterances of the across-listener sample std (n-1)."""
    stds = []
    for scores in listener_scores:
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size < 2:
            raise ValueError("human baseline needs >= 2 listeners per "
                             "utterance")
        stds.append(np.std(scores, ddof=1))
    if not stds:
        raise ValueError("empty listener table")
    return float(np.mean(stds))


def kfold_split(n_items: int, k: int, seed: int = 0) -> tuple:
    """Disjoint, exhaustive folds (index arrays) with sizes differing by
    at most 1."""
    if n_items < k:
        raise ValueError("cannot split %d items into %d folds"
                         % (n_items, k))
    perm = np.random.default_rng(seed).permutation(n_items)
    return tuple(np.sort(f) for f in np.array_split(perm, k))


# -------------------------------------------------------- model analyses

def latent_distance_stats(model, quads, return_raw=False) -> dict:
    """Euclidean latent distance statistics over three pair categories:

    * same_condition: cuts of the same signal, (ik, il) and (jk, jl)
    * different_degradation: same utterance across chains, (ik, jk), (il, jl)
    * different_utterance: k-cuts of signal i from different quadruples
    """
    n = len(quads)
    if n == 0:
        raise ValueError("no quadruples given")
    z, _ = model.infer([f.samples for q in quads for f in q.frames()])
    z = z.reshape(n, 4, -1)

    def dist(a, b):
        return np.linalg.norm(a - b, axis=-1)

    same = np.concatenate([dist(z[:, 0], z[:, 1]), dist(z[:, 2], z[:, 3])])
    cross = np.concatenate([dist(z[:, 0], z[:, 2]), dist(z[:, 1], z[:, 3])])
    other = dist(z[:, 0], np.roll(z[:, 0], 1, axis=0)) if n > 1 else \
        np.zeros(0)
    out = {}
    for name, d in (("same_condition", same),
                    ("different_degradation", cross),
                    ("different_utterance", other)):
        out[name] = {"mean": float(np.mean(d)) if d.size else float("nan"),
                     "std": float(np.std(d)) if d.size else float("nan"),
                     "count": int(d.size)}
        if return_raw:
            out[name]["raw"] = d
    return out


def strength_sweep(model, clean_frame, kind, seed=0) -> dict:
    """Mean predicted score of a native kind at each degradation strength
    (DS1..DS5), plus the undegraded reference score."""
    clips = [clean_frame.samples]
    for strength in SWEEP_GRID:
        for rep in range(SWEEP_SEEDS):
            rng = np.random.default_rng([seed, rep])
            spec = sample_spec(kind, rng, strength=strength)
            clips.append(apply_degradation(clean_frame, spec).samples)
    _, s = model.infer(clips)
    means = s[1:].astype(np.float64).reshape(len(SWEEP_GRID), -1).mean(1)
    return {"strengths": list(SWEEP_GRID),
            "mean_scores": [float(m) for m in means],
            "clean_score": float(s[0])}


def export_latents(model, frames_with_meta, path) -> None:
    """JSON-lines {id, latent[...], meta} for external projection."""
    import json
    items = list(frames_with_meta)
    z, _ = model.infer([samples for _, samples, _ in items])
    with open(path, "w") as f:
        for (item_id, _, meta), vec in zip(items, z):
            f.write(json.dumps({"id": item_id,
                                "latent": [round(float(v), 6) for v in vec],
                                "meta": meta}) + "\n")
