"""The public API, pinned: adding or removing a name is a deliberate change
to this file."""

import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.errors import ArgumentRangeError

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

MODULES = [
    "chain", "cli", "coupling", "doeblin", "envelope", "errors", "generators",
    "stationary", "structure",
]

#: Names that were public and are gone: ``analyze(P)`` replaces the
#: structural ones, ``chain.tv_curve`` the d(t) of
#: ``distance_from_stationary``, and the evidence of
#: ``stationary_by_return_time`` the per-anchor return-time table.
#: ``chain.tv_curve`` and ``chain.orbit`` replace ``evolve``,
#: ``envelope._column_gap`` over ``orbit`` (as ``mix --csv`` reads it)
#: replaces ``delta_curve`` and ``convergence_by_coupling``, and the
#: inequalities of ``verify_contraction`` are checked on
#: ``envelope_iterate`` traces by acceptance criteria 1-2. ``stick`` had no
#: caller.
REMOVED = [
    "TransitionGraph",
    "build_graph",
    "is_irreducible",
    "period_of",
    "NoClosedWalkError",
    "distance_from_stationary",
    "return_time_table",
    "ReturnTimeTable",
    "stick",
    "ConvergenceCurve",
    "convergence_by_coupling",
    "ContractionVerdict",
    "verify_contraction",
    "delta_curve",
    "evolve",
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


#: A public argument out of its range, for each routine that takes one, and
#: the argument's name. Each must raise ArgumentRangeError, naming the
#: argument, before any matrix power, solve or orbit.
BAD_ARGUMENTS = {
    "column_negative": (lambda c: ek.envelope_iterate(c.P, column=-1), "column"),
    "column_past_n": (lambda c: ek.envelope_iterate(c.P, column=5), "column"),
    "column_float": (lambda c: ek.envelope_iterate(c.P, column=1.5), "column"),
    "root_past_n": (lambda c: ek.enumerate_arborescences(c.cube, root=99), "root"),
    "root_negative": (lambda c: ek.enumerate_arborescences(c.cube, root=-1), "root"),
    "max_n_zero": (lambda c: ek.verify_error_recursion(c.split, c.P, max_n=0), "max_n"),
    "max_n_float": (lambda c: ek.verify_error_recursion(c.split, c.P, max_n=2.5), "max_n"),
    "power_max_iter": (lambda c: ek.stationary_by_power(c.P, max_iter=2.5), "max_iter"),
    "spectral_max_iter": (lambda c: ek.spectral_check(c.P, max_iter=2.5), "max_iter"),
    "exponent_negative": (lambda c: ek.power(c.P, -1), "exponent"),
    "exponent_float": (lambda c: ek.power(c.P, 2.5), "exponent"),
    "chain_format": (lambda c: ek.load_chain(c.path, fmt="xml"), "fmt"),
    "tree_mode": (lambda c: ek.stationary_by_trees(c.P, mode="nope"), "mode"),
    "probs_sum": (lambda c: ek.Distribution(c.P.space, [0.5, 0.6]), "probs"),
    "tol_nan": (lambda c: ek.stationary_by_envelope(c.P, tol=math.nan), "tol"),
    "tol_negative": (lambda c: ek.stationary_by_envelope(c.P, tol=-1.0), "tol"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_rejected_before_any_work(case, tmp_path, monkeypatch):
    call, name = BAD_ARGUMENTS[case]
    P = gen.two_state(0.2, 0.3)
    pi = ek.stationary_linear(P).pi
    path = tmp_path / "chain.json"
    path.write_text(P.to_json())
    ctx = SimpleNamespace(
        P=P, cube=gen.lazy_hypercube(2), split=ek.doeblin_split(P, pi), path=str(path)
    )

    def no_work(*args, **kwargs):
        raise AssertionError("a matrix power, solve or orbit started")

    for fn in ("matrix_power", "solve", "inv"):
        monkeypatch.setattr(np.linalg, fn, no_work)
    for mod in (ek.chain, ek.stationary, ek.envelope, ek.doeblin, ek.coupling):
        monkeypatch.setattr(mod, "orbit", no_work)
    with pytest.raises(ArgumentRangeError, match=rf"^{name}\b"):
        call(ctx)
