"""Degradation specs and chain sampling.

A chain is an ordered list of DegradationSpec applied sequentially. First
and second stage chain lengths follow fixed categorical distributions;
kinds are drawn from the (renormalized) kind probabilities without
replacement within a chain; strengths are uniform in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinds import KINDS, kind_probabilities, strength_to_params


@dataclass(frozen=True)
class DegradationSpec:
    kind: str
    strength: float
    aux_params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        # resolve the physical parameters once; also validates the kind
        params = dict(strength_to_params(self.kind, self.strength))
        params.update(self.aux_params)
        object.__setattr__(self, "aux_params", params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "strength": self.strength,
                "aux": {k: v for k, v in self.aux_params.items()},
                "seed": self.seed}

    @classmethod
    def from_dict(cls, d) -> "DegradationSpec":
        return cls(kind=d["kind"], strength=float(d["strength"]),
                   aux_params=dict(d.get("aux", {})),
                   seed=int(d.get("seed", 0)))


@dataclass(frozen=True)
class ChainDistribution:
    counts: tuple
    count_probs: tuple

    def __post_init__(self):
        if abs(sum(self.count_probs) - 1.0) > 1e-9:
            raise ValueError("count probabilities must sum to 1")


FIRST_STAGE = ChainDistribution((0, 1, 2), (0.84, 0.12, 0.04))
SECOND_STAGE = ChainDistribution((1, 2, 3, 4), (0.75, 0.2, 0.04, 0.01))
_STAGES = {"first": FIRST_STAGE, "second": SECOND_STAGE}


def sample_spec(kind: str, rng: np.random.Generator,
                strength=None) -> DegradationSpec:
    """Draw strength (unless given), aux params, and a kernel seed."""
    s = float(rng.uniform()) if strength is None else float(strength)
    aux = KINDS[kind].aux(rng)
    seed = int(rng.integers(0, 2 ** 31 - 1))
    return DegradationSpec(kind=kind, strength=s, aux_params=aux, seed=seed)


def sample_chain(stage: str, rng: np.random.Generator,
                 available=None) -> list:
    """Sample a degradation chain for one stage.

    Chain length follows the stage's count distribution; kinds are drawn
    without replacement with probabilities renormalized over `available`.
    """
    if stage not in _STAGES:
        raise ValueError("stage must be 'first' or 'second'")
    dist = _STAGES[stage]
    n = int(rng.choice(dist.counts, p=dist.count_probs))
    names, probs = kind_probabilities(available)
    if n > len(names):
        n = len(names)
    picks = rng.choice(len(names), size=n, replace=False, p=probs)
    return [sample_spec(names[i], rng) for i in picks]
