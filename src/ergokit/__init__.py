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
    tv_distance,
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
    Arborescence,
    StationaryResult,
    enumerate_arborescences,
    monte_carlo_return,
    stationary_by_power,
    stationary_by_return_time,
    stationary_by_trees,
    stationary_linear,
)
from .coupling import (
    CouplingTrace,
    ProductChain,
    build_product_chain,
    product_ergodicity,
    simulate_coupling,
    verify_coupling_lemma,
)
from .doeblin import (
    DoeblinSplit,
    SpectralCheck,
    doeblin_split,
    spectral_check,
    tv_bound_doeblin,
    verify_error_recursion,
)
from . import generators

__all__ = [
    "Arborescence",
    "CouplingTrace",
    "Distribution",
    "DoeblinSplit",
    "EnvelopeTrace",
    "ErgodicityReport",
    "MixingEstimate",
    "ProductChain",
    "SpectralCheck",
    "StateSpace",
    "StationaryResult",
    "StochasticMatrix",
    "analyze",
    "build_product_chain",
    "doeblin_split",
    "enumerate_arborescences",
    "envelope_iterate",
    "generators",
    "load_chain",
    "mixing_estimate",
    "monte_carlo_return",
    "power",
    "primitivity_exponent",
    "product_ergodicity",
    "simulate_coupling",
    "spectral_check",
    "stationary_by_envelope",
    "stationary_by_power",
    "stationary_by_return_time",
    "stationary_by_trees",
    "stationary_linear",
    "tv_bound_doeblin",
    "tv_distance",
    "validate_stochastic",
    "verify_coupling_lemma",
    "verify_error_recursion",
]
