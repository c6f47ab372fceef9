"""The public API, pinned: adding or removing a name is a deliberate change
to this file."""

import importlib

import pytest

import ergokit as ek

PUBLIC = [
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
    "convergence_by_coupling",
    "doeblin_split",
    "enumerate_arborescences",
    "envelope_iterate",
    "evolve",
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
    "stick",
    "tv_bound_doeblin",
    "tv_distance",
    "validate_stochastic",
    "verify_contraction",
    "verify_coupling_lemma",
    "verify_error_recursion",
]

MODULES = [
    "chain", "cli", "coupling", "doeblin", "envelope", "errors", "generators",
    "stationary", "structure",
]

#: Names that were public and are gone: ``analyze(P)`` replaces the
#: structural ones, ``chain.tv_curve`` the d(t) of
#: ``distance_from_stationary``, and the evidence of
#: ``stationary_by_return_time`` the per-anchor return-time table.
REMOVED = [
    "TransitionGraph",
    "build_graph",
    "is_irreducible",
    "period_of",
    "NoClosedWalkError",
    "distance_from_stationary",
    "return_time_table",
    "ReturnTimeTable",
]

REMOVED_METHODS = [
    ("chain", "StochasticMatrix", "__matmul__"),
    ("chain", "StateSpace", "index"),
    ("doeblin", "TVBoundCurve", "to_csv"),
]


def test_all_is_pinned():
    assert sorted(ek.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_listed_name_resolves(name):
    assert getattr(ek, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(ek, name)
    for mod in MODULES:
        assert not hasattr(importlib.import_module(f"ergokit.{mod}"), name), mod


@pytest.mark.parametrize("mod, cls, attr", REMOVED_METHODS)
def test_removed_method_is_gone(mod, cls, attr):
    assert not hasattr(getattr(importlib.import_module(f"ergokit.{mod}"), cls), attr)
