"""Evaluation metrics and analysis utilities.

The headline metric is E_TOTAL = 0.5 * L_MOS + R_RANK + L_CONS, combining
absolute MOS error, the ratio of incorrectly ranked pairs, and the mean
consistency value over quadruples (and optionally distinguishable pairs).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .degrade.chains import sample_spec
from .degrade.kernels import apply_degradation
from .objectives import DEFAULT_BETA

SWEEP_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)   # DS1..DS5


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


def consistency_values(s_ik, s_il, s_jk, s_jl, beta=DEFAULT_BETA):
    """Per-quadruple consistency (normalized separation term)."""
    s_ik, s_il, s_jk, s_jl = (np.asarray(a, dtype=np.float64)
                              for a in (s_ik, s_il, s_jk, s_jl))
    same = np.abs(s_ik - s_il)
    agree = np.abs(np.abs(s_ik - s_jk) - np.abs(s_il - s_jl))
    sep = (beta - np.minimum(np.abs(s_ik - s_jk), beta)) / (2.0 * beta)
    return 0.25 * (same + agree) + sep


def eval_cons(quad_scores, pair_scores=None, beta=DEFAULT_BETA) -> float:
    """Mean consistency over quadruples plus optional distinguishable
    pairs (each contributing only the separation term).

    `quad_scores` is a 4-tuple/array of aligned score arrays in
    (ik, il, jk, jl) order; `pair_scores` an optional (a, b) tuple.
    """
    s_ik, s_il, s_jk, s_jl = quad_scores
    vals = list(consistency_values(s_ik, s_il, s_jk, s_jl, beta=beta))
    if pair_scores is not None:
        a = np.asarray(pair_scores[0], dtype=np.float64)
        b = np.asarray(pair_scores[1], dtype=np.float64)
        sep = (beta - np.minimum(np.abs(a - b), beta)) / (2.0 * beta)
        vals.extend(sep)
    if not vals:
        raise ValueError("empty evaluation set")
    return float(np.mean(vals))


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


def strength_sweep(model, clean_frame, kind, grid=SWEEP_GRID, n_seeds=5,
                   seed=0, noise_pool=None, transcoder_cmd=None) -> dict:
    """Mean predicted score at each degradation strength (DS1..DS5),
    plus the undegraded reference score."""
    clips = [clean_frame.samples]
    for strength in grid:
        for rep in range(n_seeds):
            rng = np.random.default_rng([seed, rep])
            spec = sample_spec(kind, rng, strength=strength)
            clips.append(apply_degradation(clean_frame, spec,
                                           noise_pool=noise_pool,
                                           transcoder_cmd=transcoder_cmd
                                           ).samples)
    _, s = model.infer(clips)
    means = s[1:].astype(np.float64).reshape(len(grid), n_seeds).mean(axis=1)
    return {"strengths": list(grid), "mean_scores": [float(m) for m in means],
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
