"""The eight training criteria and their unweighted aggregation.

All losses operate on autodiff Tensors and return scalar Tensors, so the
same code serves training and (via .data) evaluation. No loss weighting is
applied anywhere; ablations work by masking losses out entirely.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ad
from .ad import Tensor, as_tensor

LOSS_NAMES = ("mos", "rank", "cons", "sd", "jnd", "dt", "ds", "mr")

DEFAULT_ALPHA = 0.3   # ranking margin
DEFAULT_BETA = 0.1    # consistency separation margin


@dataclass(frozen=True)
class LossConfig:
    loss_mask: tuple = LOSS_NAMES

    def __post_init__(self):
        unknown = set(self.loss_mask) - set(LOSS_NAMES)
        if unknown:
            raise ValueError("unknown losses in mask: %s" % sorted(unknown))

    def enabled(self, name: str) -> bool:
        return name in self.loss_mask


@dataclass
class LossReport:
    values: dict = field(default_factory=dict)
    total: float = 0.0

    def to_dict(self) -> dict:
        d = {k: float(v) for k, v in self.values.items()}
        d["total"] = float(self.total)
        return d


def loss_mos(s: Tensor, targets) -> Tensor:
    """Mean absolute error between predicted and ground-truth MOS."""
    return ad.l1_loss(s, np.asarray(targets))


def loss_rank(s_i: Tensor, s_j: Tensor, alpha=DEFAULT_ALPHA,
              targets_i=None, targets_j=None, annotated=False) -> Tensor:
    """Pairwise hinge: mean of max(0, s_j - s_i + margin).

    Programmatic pairs use the fixed margin alpha. Annotated pairs (with
    ground-truth scores, ordered so targets_i >= targets_j) use the
    tighter margin min(alpha, s*_i - s*_j).
    """
    if annotated:
        if targets_i is None or targets_j is None:
            raise ValueError("annotated ranking pairs need both target "
                             "score arrays")
        margin = np.minimum(alpha, np.asarray(targets_i, dtype=np.float64)
                            - np.asarray(targets_j, dtype=np.float64))
    else:
        margin = alpha
    return ad.mean(ad.relu(s_j - s_i + as_tensor(
        np.broadcast_to(np.asarray(margin, dtype=s_i.data.dtype),
                        s_i.data.shape).copy())))


def _separation_term(a: Tensor, b: Tensor, beta: float) -> Tensor:
    """Margin term pushing distinguishable pairs at least beta apart."""
    gap = ad.clamp_max(ad.absolute(a - b), beta)
    return ad.mul_const(ad.add_const(ad.mul_const(gap, -1.0), beta),
                        1.0 / (2.0 * beta))


def loss_cons(s_ik: Tensor, s_il: Tensor, s_jk: Tensor, s_jl: Tensor,
              beta=DEFAULT_BETA, extra_pairs=None) -> Tensor:
    """Consistency over quadruple scores (plus optional extra
    distinguishable pairs, e.g. noticeable JND pairs).

    Per quadruple: 1/4 (|s_ik - s_il| + ||s_ik - s_jk| - |s_il - s_jl||)
    plus the separation term on (s_ik, s_jk). Extra pairs contribute the
    separation term only.
    """
    same = ad.absolute(s_ik - s_il)
    diff_k = ad.absolute(s_ik - s_jk)
    diff_l = ad.absolute(s_il - s_jl)
    agree = ad.absolute(diff_k - diff_l)
    per_quad = (ad.mul_const(same + agree, 0.25)
                + _separation_term(s_ik, s_jk, beta))
    pieces = [ad.reshape(per_quad, (-1,))]
    if extra_pairs is not None:
        a, b = extra_pairs
        pieces.append(ad.reshape(_separation_term(a, b, beta), (-1,)))
    return ad.mean(ad.concat(pieces)) if len(pieces) > 1 else ad.mean(pieces[0])


def loss_sd(p: Tensor, targets) -> Tensor:
    """Same-condition classification, binary cross-entropy."""
    return ad.bce_loss(p, np.asarray(targets))


def loss_jnd(p: Tensor, targets) -> Tensor:
    """Just-noticeable-difference classification, binary cross-entropy."""
    return ad.bce_loss(p, np.asarray(targets))


def loss_dt(p: Tensor, targets) -> Tensor:
    """Multi-label degradation-type BCE, summed over classes."""
    targets = np.asarray(targets)
    if p.data.shape != targets.shape:
        raise ValueError("degradation-type shape mismatch: %r vs %r"
                         % (p.data.shape, targets.shape))
    per = ad.bce_loss(p, targets, reduce="none")
    if p.data.ndim == 1:
        return ad.tensor_sum(per)
    return ad.mean(ad.tensor_sum(per, axis=1))


def loss_ds(p: Tensor, targets) -> Tensor:
    """Degradation-strength L1 summed over kinds (inactive kinds target 0)."""
    targets = np.asarray(targets)
    if p.data.shape != targets.shape:
        raise ValueError("degradation-strength shape mismatch: %r vs %r"
                         % (p.data.shape, targets.shape))
    per = ad.absolute(p - as_tensor(targets))
    if p.data.ndim == 1:
        return ad.tensor_sum(per)
    return ad.mean(ad.tensor_sum(per, axis=1))


def loss_mr(p: Tensor, targets, mask=None) -> Tensor:
    """Measure-regression L1 over available (masked-in) measures.

    Targets must already be normalized; `mask` is 1 for usable entries.
    """
    targets = np.asarray(targets)
    if p.data.shape != targets.shape:
        raise ValueError("measure-regression shape mismatch: %r vs %r"
                         % (p.data.shape, targets.shape))
    per = ad.absolute(p - as_tensor(targets))
    if mask is not None:
        per = per * as_tensor(np.asarray(mask, dtype=p.data.dtype))
    if p.data.ndim == 1:
        return ad.tensor_sum(per)
    return ad.mean(ad.tensor_sum(per, axis=1))


def total_loss(components: dict, config: LossConfig) -> tuple:
    """Unweighted sum of the enabled, available loss components.

    `components` maps loss name -> scalar Tensor (or None when the batch
    carried no data for it; such losses contribute 0 for the step).
    Returns (total Tensor, LossReport).
    """
    if not config.loss_mask:
        raise ValueError("all losses are disabled")
    unknown = set(components) - set(LOSS_NAMES)
    if unknown:
        raise ValueError("unknown loss components: %s" % sorted(unknown))
    report = LossReport()
    total = None
    for name in LOSS_NAMES:
        if not config.enabled(name):
            continue
        comp = components.get(name)
        if comp is None:
            continue
        report.values[name] = float(comp.data)
        total = comp if total is None else total + comp
    if total is None:
        warnings.warn("no enabled loss had data this step; total is 0")
        total = Tensor(np.zeros(()))
    report.total = float(total.data)
    return total, report
