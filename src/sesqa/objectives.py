"""The eight training criteria and their unweighted aggregation.

All losses operate on autodiff Tensors and return scalar Tensors, so the
same code serves training and (via .data) evaluation. No loss weighting is
applied anywhere; ablations work by masking losses out entirely.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import ad
from .ad import Tensor, as_tensor

LOSS_NAMES = ("mos", "rank", "cons", "sd", "jnd", "dt", "ds", "mr")

ALPHA = 0.3   # ranking margin
BETA = 0.1    # consistency separation margin, in training and evaluation


def check_loss_mask(mask) -> tuple:
    """`mask` as a tuple of loss names; ValueError when it is empty or
    names a loss outside LOSS_NAMES."""
    mask = tuple(mask)
    unknown = set(mask) - set(LOSS_NAMES)
    if unknown:
        raise ValueError("unknown losses: %s (known: %s)"
                         % (", ".join(sorted(unknown)), ", ".join(LOSS_NAMES)))
    if not mask:
        raise ValueError("empty loss mask: all losses are disabled")
    return mask


def loss_mos(s: Tensor, targets) -> Tensor:
    """Mean absolute error between predicted and ground-truth MOS."""
    return ad.l1_loss(s, np.asarray(targets))


def loss_rank(s_i: Tensor, s_j: Tensor, margin=ALPHA) -> Tensor:
    """Pairwise hinge: mean of max(0, s_j - s_i + margin), where s_i should
    score higher. `margin` is one value or one per pair: programmatic
    pairs use ALPHA; annotated pairs, ordered so that their labels have
    t_i >= t_j, use min(ALPHA, t_i - t_j), computed by the caller.
    """
    return ad.mean(ad.relu(s_j - s_i + as_tensor(
        np.broadcast_to(np.asarray(margin, dtype=s_i.data.dtype),
                        s_i.data.shape).copy())))


def _separation_term(a: Tensor, b: Tensor) -> Tensor:
    """Margin term pushing distinguishable pairs at least BETA apart."""
    gap = ad.clip(ad.absolute(a - b), -np.inf, BETA)
    return ad.mul_const(ad.add_const(ad.mul_const(gap, -1.0), BETA),
                        1.0 / (2.0 * BETA))


def consistency_terms(s_ik: Tensor, s_il: Tensor, s_jk: Tensor,
                      s_jl: Tensor) -> Tensor:
    """Per quadruple: 1/4 (|s_ik - s_il| + ||s_ik - s_jk| - |s_il - s_jl||)
    plus the separation term on (s_ik, s_jk)."""
    same = ad.absolute(s_ik - s_il)
    diff_k = ad.absolute(s_ik - s_jk)
    diff_l = ad.absolute(s_il - s_jl)
    agree = ad.absolute(diff_k - diff_l)
    return (ad.mul_const(same + agree, 0.25)
            + _separation_term(s_ik, s_jk))


def loss_cons(s_ik: Tensor, s_il: Tensor, s_jk: Tensor, s_jl: Tensor,
              extra_pairs=None) -> Tensor:
    """Mean consistency over quadruple scores (consistency_terms), plus
    optional extra distinguishable pairs (e.g. noticeable JND pairs) that
    contribute the separation term only."""
    pieces = [ad.reshape(consistency_terms(s_ik, s_il, s_jk, s_jl), (-1,))]
    if extra_pairs is not None:
        pieces.append(ad.reshape(_separation_term(*extra_pairs), (-1,)))
    return ad.mean(ad.concat(pieces))


def loss_sd(p: Tensor, targets) -> Tensor:
    """Same-condition classification, binary cross-entropy."""
    return ad.bce_loss(p, np.asarray(targets))


def loss_jnd(p: Tensor, targets) -> Tensor:
    """Just-noticeable-difference classification, binary cross-entropy."""
    return ad.bce_loss(p, np.asarray(targets))


def _row_loss(what: str, p: Tensor, targets, per_item, mask=None) -> Tensor:
    """`per_item(targets)`, times `mask` when given, summed over each row
    of `p` and averaged over the rows; a 1-D `p` is one row."""
    targets = np.asarray(targets)
    if p.data.shape != targets.shape:
        raise ValueError("%s shape mismatch: %r vs %r"
                         % (what, p.data.shape, targets.shape))
    per = per_item(targets)
    if mask is not None:
        per = per * as_tensor(np.asarray(mask, dtype=p.data.dtype))
    if p.data.ndim == 1:
        return ad.tensor_sum(per)
    return ad.mean(ad.tensor_sum(per, axis=1))


def loss_dt(p: Tensor, targets) -> Tensor:
    """Multi-label degradation-type BCE, summed over classes."""
    return _row_loss("degradation-type", p, targets,
                     lambda t: ad.bce_loss(p, t, reduce="none"))


def loss_ds(p: Tensor, targets) -> Tensor:
    """Degradation-strength L1 summed over kinds (inactive kinds target 0)."""
    return _row_loss("degradation-strength", p, targets,
                     lambda t: ad.absolute(p - as_tensor(t)))


def loss_mr(p: Tensor, targets, mask=None) -> Tensor:
    """Measure-regression L1 over available (masked-in) measures.

    Targets must already be normalized; `mask` is 1 for usable entries.
    """
    return _row_loss("measure-regression", p, targets,
                     lambda t: ad.absolute(p - as_tensor(t)), mask)


def total_loss(components: dict, loss_mask: tuple) -> tuple:
    """Unweighted sum of the enabled, available loss components.

    `components` maps loss name -> scalar Tensor (or None when the batch
    carried no data for it; such losses contribute 0 for the step), and
    `loss_mask` names the enabled losses. Returns (total Tensor,
    {name: value, ..., "total": value}) over the losses that contributed.
    """
    unknown = set(components) - set(LOSS_NAMES)
    if unknown:
        raise ValueError("unknown loss components: %s" % sorted(unknown))
    values = {}
    total = None
    for name in LOSS_NAMES:
        comp = components.get(name)
        if name not in loss_mask or comp is None:
            continue
        values[name] = float(comp.data)
        total = comp if total is None else total + comp
    if total is None:
        warnings.warn("no enabled loss had data this step; total is 0")
        total = Tensor(np.zeros(()))
    values["total"] = float(total.data)
    return total, values
