"""Finite Markov chain analysis toolkit.

Structural ergodicity verification plus stationary distributions and
convergence rates computed by several mutually cross-validating routes:
column-envelope contraction, spanning-tree weights, return times, an
independent coupling, and a minorization split.
"""

from .chain import (
    Distribution,
    StateSpace,
    StochasticMatrix,
    load_chain,
    power,
    validate_stochastic,
)
from .structure import ErgodicityReport, analyze, primitivity_exponent
from .envelope import (
    EnvelopeTrace,
    MixingEstimate,
    envelope_iterate,
    mixing_estimate,
    stationary_by_envelope,
)
from .stationary import (
    StationaryResult,
    monte_carlo_return,
    stationary_by_power,
    stationary_by_return_time,
    stationary_by_trees,
    stationary_linear,
)
from .coupling import (
    CouplingTrace,
    simulate_coupling,
    verify_coupling_lemma,
)
from .doeblin import (
    DoeblinSplit,
    SpectralCheck,
    doeblin_split,
    spectral_check,
    verify_doeblin,
)
from . import generators

__all__ = [
    "CouplingTrace",
    "Distribution",
    "DoeblinSplit",
    "EnvelopeTrace",
    "ErgodicityReport",
    "MixingEstimate",
    "SpectralCheck",
    "StateSpace",
    "StationaryResult",
    "StochasticMatrix",
    "analyze",
    "doeblin_split",
    "envelope_iterate",
    "generators",
    "load_chain",
    "mixing_estimate",
    "monte_carlo_return",
    "power",
    "primitivity_exponent",
    "simulate_coupling",
    "spectral_check",
    "stationary_by_envelope",
    "stationary_by_power",
    "stationary_by_return_time",
    "stationary_by_trees",
    "stationary_linear",
    "validate_stochastic",
    "verify_coupling_lemma",
    "verify_doeblin",
]
