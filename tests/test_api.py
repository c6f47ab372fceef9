"""The public API, pinned: adding or removing a name is a deliberate change
to this file."""

import dataclasses
import importlib
import inspect
import math
import re
import tokenize
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.errors import ArgumentRangeError

PUBLIC = [
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

MODULES = [
    "chain", "cli", "coupling", "doeblin", "envelope", "errors", "generators",
    "stationary", "structure",
]

#: Names that were public and are gone: ``analyze(P)`` replaces the
#: structural ones, ``chain._tv_rows`` over ``chain.orbit`` the d(t) of
#: ``distance_from_stationary`` and of ``tv_curve``, and the evidence of
#: ``stationary_by_return_time`` the per-anchor return-time table.
#: ``chain.orbit`` replaces ``evolve``,
#: ``envelope._column_gap`` over ``orbit`` (as ``mix --csv`` reads it)
#: replaces ``delta_curve`` and ``convergence_by_coupling``, and the
#: inequalities of ``verify_contraction`` are checked on
#: ``envelope_iterate`` traces by acceptance criteria 1-2. ``stick`` had no
#: caller. ``verify_doeblin`` replaces ``tv_bound_doeblin`` and
#: ``verify_error_recursion`` with their result types, reading d(n) and the
#: error recursion off one orbit of P and one of Q, and
#: ``stationary_by_power`` absorbs ``_power_iterate``, its one caller left
#: once ``spectral_check`` took pi from the linear solve. The n^2 x n^2
#: Kronecker pair chain (``build_product_chain``, ``product_ergodicity``,
#: their result type and error) had no caller: ``require_ergodic`` gates
#: every coupling routine and ``exact_meeting_tail`` follows the pair chain
#: as the n x n unmet mass; tests build the Kronecker square themselves.
#: ``enumerate_arborescences`` listed, as ``Arborescence`` records, the table
#: the ``tree_enumeration`` route reads directly (``stationary._tree_table``),
#: and nothing else called it. ``NeverMetError`` was raised only by
#: ``CouplingTrace.tail``; callers read ``(trace.tau_samples > i).mean()``.
#: ``tv_distance`` had no caller left: every TV in ergokit is
#: ``chain._tv_rows``, the coupling lemma's exact column included.
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
    "tv_bound_doeblin",
    "TVBoundCurve",
    "verify_error_recursion",
    "RecursionVerdict",
    "_power_iterate",
    "ProductChain",
    "build_product_chain",
    "product_ergodicity",
    "MarginalMismatchError",
    "tv_curve",
    "enumerate_arborescences",
    "Arborescence",
    "NeverMetError",
    "tv_distance",
]

REMOVED_METHODS = [
    ("chain", "StochasticMatrix", "__matmul__"),
    ("chain", "StateSpace", "index"),
    ("doeblin", "TVBoundCurve", "to_csv"),
    ("chain", "Distribution", "point_mass"),
    ("chain", "Distribution", "uniform"),
    ("coupling", "CouplingTrace", "tail"),
]

#: Result fields that are gone: every trace of ``envelope_iterate`` repeated
#: the matrix's least entry and 1 minus it, and nothing read either; a
#: caller takes ``P.min_entry()``. ``spectral_check``'s dominant pair
#: checked nothing: its value, (mu P)1 / mu 1, is 1 for any stochastic P
#: and any mu, and its vector was the memoized linear-solve pi itself.
#: ``DoeblinSplit.Pi_matrix`` was an n x n copy of that same pi; callers
#: read ``stationary_linear(P).pi``. The coupling results do not echo their
#: caller's arguments: a trace's trial count is ``tau_samples.size +
#: truncated``, and the seed is the one the caller passed.
REMOVED_FIELDS = [
    ("envelope", "EnvelopeTrace", "p_min"),
    ("envelope", "EnvelopeTrace", "contraction_factor"),
    ("doeblin", "SpectralCheck", "dominant_value"),
    ("doeblin", "SpectralCheck", "dominant_vector"),
    ("doeblin", "DoeblinSplit", "Pi_matrix"),
    ("coupling", "CouplingTrace", "trials"),
    ("coupling", "CouplingTrace", "seed"),
    ("coupling", "CouplingLemmaReport", "seed"),
]

#: Parameters that are gone: spectral_check's tol steered the Gelfand
#: iteration that the computed spectrum replaced, and its max_iter the power
#: iteration that the memoized linear solve replaced; exact_meeting_tail
#: zeroes the diagonal, the one meeting rule. Values only tests set are
#: module constants: the power iteration's ``POWER_TOL`` and
#: ``POWER_MAX_ITER``, the squeeze's cap ``_default_max_iter``,
#: ``RETURN_MAX_STEPS``, ``STATIONARY_RESIDUAL_TOL`` and ``BALANCE_RTOL``.
#: ``envelope_iterate`` returns every column's trace, off one orbit.
#: ``pagerank`` takes its nodes from the edges, as ``generate`` always did.
#: The Doeblin pass reads pi from the memoized linear solve, the one pi its
#: callers ever passed. ``analyze`` has one behaviour; the gates read the
#: base report, without the primitivity exponent, from
#: ``structure._base_report``. The walker loop returns its hitting times.
REMOVED_PARAMETERS = [
    ("spectral_check", "tol"),
    ("spectral_check", "max_iter"),
    ("coupling.exact_meeting_tail", "mode"),
    ("stationary_by_power", "tol"),
    ("stationary_by_power", "max_iter"),
    ("stationary_by_envelope", "max_iter"),
    ("monte_carlo_return", "max_steps"),
    ("chain.check_stationary", "tol"),
    ("envelope_iterate", "column"),
    ("stationary.check_balance", "rtol"),
    ("generators.pagerank", "nodes"),
    ("doeblin_split", "pi"),
    ("verify_doeblin", "pi"),
    ("analyze", "with_primitivity"),
    ("chain._walk_until", "tau"),
    ("chain._Sampler", "offsets"),
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
    # a class that is gone takes its methods with it
    owner = getattr(importlib.import_module(f"ergokit.{mod}"), cls, None)
    assert not hasattr(owner, attr)


@pytest.mark.parametrize("mod, cls, field", REMOVED_FIELDS)
def test_removed_field_is_gone(mod, cls, field):
    owner = getattr(importlib.import_module(f"ergokit.{mod}"), cls)
    assert field not in {f.name for f in dataclasses.fields(owner)}


@pytest.mark.parametrize("path, param", REMOVED_PARAMETERS)
def test_removed_parameter_is_gone(path, param):
    *mod, name = path.split(".")
    owner = importlib.import_module(f"ergokit.{mod[0]}") if mod else ek
    assert param not in inspect.signature(getattr(owner, name)).parameters


def test_matrix_power_is_called_only_in_power():
    """Every fixed power of a stochastic matrix goes through ``chain.power``."""
    for mod in MODULES:
        source = inspect.getsource(importlib.import_module(f"ergokit.{mod}"))
        inside = inspect.getsource(ek.chain.power) if mod == "chain" else ""
        assert source.count("np.linalg.matrix_power") == inside.count("np.linalg.matrix_power"), mod


def test_memo_is_touched_only_in_chain():
    """Every per-matrix fact goes through the ``chain._memoized`` decorator,
    so no other module reads or writes a matrix's memo itself."""
    for mod in MODULES:
        source = inspect.getsource(importlib.import_module(f"ergokit.{mod}"))
        assert bool(re.search(r"\b_memo\b", source)) == (mod == "chain"), mod


def _code_names(path: Path) -> list[str]:
    """The names a Python file uses as code (not in strings or comments),
    leaving out the name a ``def`` or ``class`` statement defines."""
    names, defining = [], False
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NAME and not defining:
                names.append(tok.string)
            defining = tok.type == tokenize.NAME and tok.string in ("def", "class")
    return names


#: Public names no code calls yet, each with the change that will call it.
UNCALLED_PUBLIC = {
    "spectral_check": "ROADMAP item 4 reads the mixing rate off it in `report`",
}


def test_every_public_name_has_a_caller():
    """Each name of ``ergokit.__all__`` is used by code in another part of
    the package (its re-export in ``__init__`` does not count) or by the
    benchmark, so a public name that only tests read shows up here."""
    root = Path(ek.__file__).resolve().parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    used = set()
    for path in [*root.glob("*.py"), *bench.glob("*.py")]:
        if path != root / "__init__.py":
            used.update(_code_names(path))
    assert sorted(set(ek.__all__) - used) == sorted(UNCALLED_PUBLIC)


#: A public argument out of its range, for each routine that takes one, and
#: the argument's name. Each must raise ArgumentRangeError, naming the
#: argument, before any matrix power, solve or orbit.
BAD_ARGUMENTS = {
    "max_n_zero": (lambda c: ek.verify_doeblin(c.P, max_n=0), "max_n"),
    "max_n_float": (lambda c: ek.verify_doeblin(c.P, max_n=2.5), "max_n"),
    "exponent_negative": (lambda c: ek.power(c.P, -1), "exponent"),
    "exponent_float": (lambda c: ek.power(c.P, 2.5), "exponent"),
    "chain_format": (lambda c: ek.load_chain(c.path, fmt="xml"), "fmt"),
    "tree_mode": (lambda c: ek.stationary_by_trees(c.P, mode="nope"), "mode"),
    "probs_sum": (lambda c: ek.Distribution(c.P.space, [0.5, 0.6]), "probs"),
    "tol_nan": (lambda c: ek.stationary_by_envelope(c.P, tol=math.nan), "tol"),
    "tol_negative": (lambda c: ek.stationary_by_envelope(c.P, tol=-1.0), "tol"),
    "trace_tol_nan": (lambda c: ek.envelope_iterate(c.P, tol=math.nan), "tol"),
    "trace_tol_negative": (lambda c: ek.envelope_iterate(c.P, tol=-1.0), "tol"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_rejected_before_any_work(case, tmp_path, monkeypatch):
    call, name = BAD_ARGUMENTS[case]
    P = gen.two_state(0.2, 0.3)
    pi = ek.stationary_linear(P).pi
    path = tmp_path / "chain.json"
    path.write_text(P.to_json())
    ctx = SimpleNamespace(P=P, pi=pi, path=str(path))

    def no_work(*args, **kwargs):
        raise AssertionError("a matrix power, solve or orbit started")

    for fn in ("matrix_power", "solve", "inv"):
        monkeypatch.setattr(np.linalg, fn, no_work)
    for mod in (ek.chain, ek.stationary, ek.envelope, ek.doeblin, ek.coupling):
        monkeypatch.setattr(mod, "orbit", no_work)
    with pytest.raises(ArgumentRangeError, match=rf"^{name}\b"):
        call(ctx)


def test_readme_library_example_runs():
    """README's ``## Library`` block runs as written, so a stale example fails."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
