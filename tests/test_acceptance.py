"""End-to-end acceptance checks for the whole toolkit.

Each test covers one numbered criterion, prints a single PASS line with the
measured worst-case figure, and pins the tolerance in the assertion. Corpora
are generated once per session from fixed seeds so reruns are bit-identical.
"""

import io
import json
import time
from contextlib import redirect_stdout
from itertools import islice

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.chain import _tv_rows, orbit
from ergokit.cli import main as cli_main
from ergokit.errors import NotIrreducibleError
from ergokit.stationary import check_balance

from conftest import pair_chain, random_irreducible, random_positive, return_time_table


def _positive_corpus(include_n2=False):
    rng = np.random.default_rng(20240811)
    lo = 2 if include_n2 else 3
    chains = []
    for k in range(200):
        n = lo + k % (9 - lo)
        chains.append(random_positive(rng, n, floor=0.02))
    return chains


def _irreducible_corpus():
    rng = np.random.default_rng(20240812)
    return [random_irreducible(rng, 2 + k % 6) for k in range(100)]


@pytest.fixture(scope="module")
def positive_corpus():
    return _positive_corpus()


@pytest.fixture(scope="module")
def positive_corpus_with_n2():
    return _positive_corpus(include_n2=True)


@pytest.fixture(scope="module")
def irreducible_corpus():
    return _irreducible_corpus()


@pytest.fixture(scope="module")
def ergodic_subset(irreducible_corpus):
    return [P for P in irreducible_corpus if ek.analyze(P).ergodic]


def _report(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_envelope_contraction(positive_corpus):
    """Delta^(i) <= (1 - 2 p_min)^(i-1) on 200 positive chains, all columns."""
    t0 = time.perf_counter()
    worst = -np.inf
    for P in positive_corpus:
        p = P.min_entry()
        base = 1.0 - 2.0 * p
        for trace in ek.envelope_iterate(P, max_iter=50, tol=0.0):
            for rec in trace.iterations:
                worst = max(worst, rec.delta - base ** (rec.i - 1))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    _report(1, f"worst slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_dahiya_bound(positive_corpus_with_n2):
    """Delta^(i+1) <= (1 - p_min) Delta^(i) per step, corpus including n=2."""
    worst = -np.inf
    for P in positive_corpus_with_n2:
        factor = 1.0 - P.min_entry()
        for trace in ek.envelope_iterate(P, max_iter=50, tol=0.0):
            ds = [r.delta for r in trace.iterations]
            for a, b in zip(ds, ds[1:]):
                worst = max(worst, b - factor * a)
    assert worst <= 1e-12
    _report(2, f"worst slack {worst:.2e}")


def test_criterion_03_four_method_agreement(irreducible_corpus, ergodic_subset):
    """Pairwise pi agreement across methods, 100 irreducible chains."""
    t0 = time.perf_counter()
    worst = 0.0
    for P in irreducible_corpus:
        pis = [
            ek.stationary_linear(P).pi.probs,
            ek.stationary_by_trees(P, "enumeration").pi.probs,
            ek.stationary_by_trees(P, "determinant").pi.probs,
            ek.stationary_by_return_time(P).pi.probs,
        ]
        for i, a in enumerate(pis):
            for b in pis[i + 1 :]:
                worst = max(worst, float(np.abs(a - b).max()))
    for P in ergodic_subset:
        ref = ek.stationary_linear(P).pi.probs
        for extra in (
            ek.stationary_by_envelope(P).pi.probs,
            ek.stationary_by_power(P).pi.probs,
        ):
            worst = max(worst, float(np.abs(extra - ref).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 60.0
    _report(
        3,
        f"worst discrepancy {worst:.2e} ({len(ergodic_subset)} ergodic), {elapsed:.1f}s",
    )


def test_criterion_04_matrix_tree_oracle(irreducible_corpus):
    """Determinant-mode gamma equals enumeration-mode gamma, 1e-10 relative."""
    worst = 0.0
    for P in irreducible_corpus:
        ga = np.array(ek.stationary_by_trees(P, "enumeration").evidence["gamma"])
        gb = np.array(ek.stationary_by_trees(P, "determinant").evidence["gamma"])
        worst = max(worst, float(np.abs(ga - gb).max() / np.abs(ga).max()))
    assert worst <= 1e-10
    _report(4, f"worst relative gamma gap {worst:.2e}")


def test_criterion_05_balance_condition(irreducible_corpus):
    """Raw gamma satisfies flow balance at every state, 1e-9 relative."""
    worst = 0.0
    for P in irreducible_corpus:
        gamma = np.array(ek.stationary_by_trees(P, "determinant").evidence["gamma"])
        worst = max(worst, check_balance(P, gamma))
    assert worst <= 1e-9
    _report(5, f"worst relative imbalance {worst:.2e}")


def test_criterion_06_return_time_identity(irreducible_corpus, ergodic_subset):
    """pi_x * E_x tau_x+ = 1 everywhere; Monte Carlo within 3 s.e. on 10 chains."""
    worst = 0.0
    for P in irreducible_corpus:
        pi = ek.stationary_linear(P).pi.probs
        for x in range(P.n):
            table = return_time_table(P, x)
            worst = max(worst, abs(pi[x] * table.expected_return - 1.0))
    assert worst <= 1e-8

    mc_checked = 0
    for P in ergodic_subset[:10]:
        exact = return_time_table(P, 0).expected_return
        mean, se = ek.monte_carlo_return(P, z=0, trials=100_000, seed=20240813)
        assert abs(mean - exact) <= 3.0 * max(se, 1e-12), (mean, exact, se)
        mc_checked += 1
    assert mc_checked == 10
    _report(6, f"worst identity error {worst:.2e}, 10/10 MC within 3 s.e.")


def test_criterion_07_coupling_lemma(ergodic_subset):
    """Exact TV <= empirical tail + 3 s.e. at every step <= 30, 20 chains."""
    t0 = time.perf_counter()
    chains = ergodic_subset[:20]
    assert len(chains) == 20
    for idx, P in enumerate(chains):
        pi = ek.stationary_linear(P).pi
        rep = ek.verify_coupling_lemma(
            P, pi, start_y=0, horizon=30, trials=100_000, seed=1000 + idx
        )
        assert rep.passed, f"chain {idx} failed the coupling-lemma band"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, f"20/20 chains within band, {elapsed:.1f}s")


def test_criterion_08_doeblin_bound(positive_corpus):
    """d(n) <= theta^n + 1e-12 and error recursion entrywise 1e-10, n <= 50."""
    worst_rec = 0.0
    for P in positive_corpus:
        pi = ek.stationary_linear(P).pi
        verdict = ek.verify_doeblin(P, pi, max_n=50)
        assert len(verdict.rows) == 50
        assert all(d <= bound + 1e-12 for _, d, bound, _ in verdict.rows)
        assert verdict.tv_bound_passed and verdict.recursion_passed
        worst_rec = max(worst_rec, *(error for _, _, _, error in verdict.rows))
    assert worst_rec <= 1e-10
    _report(8, f"200/200 bounds hold, worst recursion error {worst_rec:.2e}")


def test_criterion_09_structural_counterexamples():
    """Flip chain stalls at d(t)=0.5; identity is reducible; flip product too."""
    flip = gen.flip()
    pi = ek.stationary_linear(flip).pi
    assert np.allclose(pi.probs, [0.5, 0.5])
    for S in islice(orbit(np.eye(2), flip.entries), 31):
        assert _tv_rows(S, pi.probs) == pytest.approx(0.5)

    identity = ek.validate_stochastic(np.eye(3), ["a", "b", "c"])
    with pytest.raises(NotIrreducibleError):
        ek.stationary_linear(identity)

    assert not ek.analyze(pair_chain(flip)).irreducible
    _report(9, "flip d(t)=0.5 for t<=30, identity and flip-product reducible")


def test_criterion_10_hypercube_narrative():
    """Primitivity exponent = d for d=3..6; bound/empirical ratio grows."""
    ratios = {}
    for d in range(3, 7):
        P = gen.lazy_hypercube(d)
        est = ek.mixing_estimate(P, epsilon=0.25)
        assert est.primitivity_m == d
        ratios[d] = est.bound_tmix / est.empirical_tmix
    assert ratios[6] > ratios[3]
    _report(
        10,
        "m=d for d=3..6, bound/empirical ratio "
        f"{ratios[3]:.1f} (d=3) -> {ratios[6]:.1f} (d=6)",
    )


def test_criterion_11_cli_report():
    """Full CLI report on two_state(0.2,0.3): < 5 s, all verdicts, pi exact."""
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(
            ["report", "--gen", "two_state", "--params", "p=0.2,q=0.3"]
        )
    elapsed = time.perf_counter() - t0
    assert code == 0
    obj = json.loads(buf.getvalue())
    assert all(obj["verdicts"].values())
    for method, r in obj["stationary"].items():
        assert "pi" in r, method
        assert np.abs(np.array(r["pi"]) - [0.6, 0.4]).max() <= 1e-8
    assert elapsed < 5.0
    _report(11, f"all verdicts pass, 6/6 methods at [0.6, 0.4], {elapsed:.1f}s")
