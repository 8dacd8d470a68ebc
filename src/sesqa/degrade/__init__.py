"""Programmatic degradation engine: kind registry, native kernels,
chain sampling, and quadruple generation."""

from .kinds import (KIND_NAMES, KINDS, TRANSCODE_KINDS,
                    UnavailableDegradationError, strength_to_params)
from .chains import (ChainDistribution, DegradationSpec, sample_chain,
                     sample_spec, FIRST_STAGE, SECOND_STAGE)
from .kernels import apply_chain, apply_degradation
from .quadruples import (CleanPool, PoolExhaustedError, Quadruple,
                         generate_quadruple, read_quadruple_manifest,
                         write_quadruple_manifest)

__all__ = [
    "KIND_NAMES", "KINDS", "TRANSCODE_KINDS",
    "UnavailableDegradationError", "strength_to_params",
    "ChainDistribution", "DegradationSpec", "sample_chain", "sample_spec",
    "FIRST_STAGE", "SECOND_STAGE", "apply_chain", "apply_degradation",
    "CleanPool", "PoolExhaustedError", "Quadruple", "generate_quadruple",
    "read_quadruple_manifest", "write_quadruple_manifest",
]
