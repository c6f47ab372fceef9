"""The doubling search behind every "least power where ..." question, pinned
against linear-stepping oracles: one matrix product per step, as a direct
reading of each definition would take them."""

import math

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit import envelope
from ergokit.chain import _first_power
from ergokit.errors import ArgumentRangeError, MaxIterExceededError
from ergokit.structure import wielandt_bound

from conftest import from_array, random_ergodic, random_positive


def wielandt(n):
    """The chain whose primitivity exponent is exactly the Wielandt bound:
    i -> i + 1 for i < n - 1, and n - 1 -> 0 or 1 with probability 1/2."""
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
    a[n - 1, 0] = a[n - 1, 1] = 0.5
    return from_array(a)


def oracle_primitivity(P):
    A = (P.entries > 0.0).astype(np.float64)
    S, k = A, 1
    while not S.all():
        S, k = ((S @ A) > 0.0).astype(np.float64), k + 1
    return k


def oracle_tmix(P, epsilon):
    pi = ek.stationary_linear(P).pi.probs
    S, t = np.eye(P.n), 0
    while 0.5 * np.abs(S - pi[None, :]).sum(axis=1).max() > epsilon:
        S, t = S @ P.entries, t + 1
    return t


def oracle_envelope(P, tol):
    """(iterations, pi) of the envelope squeeze on B = P^m, one product of B
    per iteration."""
    B = np.linalg.matrix_power(P.entries, oracle_primitivity(P))
    S, k = B, 1
    while (S.max(axis=0) - S.min(axis=0)).max() > tol:
        S, k = S @ B, k + 1
    mid = (S.min(axis=0) + S.max(axis=0)) / 2.0
    return k, mid / mid.sum()


def corpus():
    chains = []
    for seed in range(6):
        rng = np.random.default_rng(1300 + seed)
        chains.append((f"random_ergodic[{seed}]", random_ergodic(rng, int(rng.integers(3, 11)))))
    for seed in range(4):
        rng = np.random.default_rng(1400 + seed)
        chains.append((f"random_positive[{seed}]", random_positive(rng, int(rng.integers(2, 9)))))
    chains += [
        ("lazy_hypercube(3)", gen.lazy_hypercube(3)),
        ("lazy_hypercube(5)", gen.lazy_hypercube(5)),
        ("top_to_random(4)", gen.top_to_random(4)),
        ("two_state(0.2,0.3)", gen.two_state(0.2, 0.3)),
        ("two_state(0.01,0.02)", gen.two_state(0.01, 0.02)),
        ("wielandt(5)", wielandt(5)),
        ("wielandt(8)", wielandt(8)),
    ]
    return chains


def bottleneck():
    """Two uniform 20-cliques joined by one edge of weight 1e-4."""
    a = np.zeros((40, 40))
    a[:20, :20] = a[20:, 20:] = 1.0 / 20
    a[19, 20] = a[20, 19] = 1e-4
    a[19, 19] -= 1e-4
    a[20, 20] -= 1e-4
    return from_array(a)


CORPUS = corpus()
IDS = [name for name, _ in CORPUS]
CHAINS = [P for _, P in CORPUS]


class TestFirstPower:
    @pytest.mark.parametrize("k0", [1, 2, 3, 7, 8, 9, 100])
    def test_least_power_and_its_matrix(self, k0):
        M = np.array([[0.5]])
        k, S = _first_power(M, lambda S: S[0, 0] <= 0.5**k0, cap=k0)
        assert k == k0
        assert S[0, 0] == 0.5**k0  # powers of 1/2 are exact

    @pytest.mark.parametrize("k0", [2, 3, 8, 9, 100])
    def test_none_past_the_cap(self, k0):
        assert _first_power(np.array([[0.5]]), lambda S: S[0, 0] <= 0.5**k0, cap=k0 - 1) is None

    def test_never_holds(self):
        assert _first_power(np.array([[1.0]]), lambda S: False, cap=1000) is None


class TestParity:
    @pytest.mark.parametrize("n, exponent", [(3, 5), (5, 17), (8, 50), (12, 122)])
    def test_wielandt_exponent_equals_the_cap(self, n, exponent):
        P = wielandt(n)
        assert exponent == wielandt_bound(n) == oracle_primitivity(P)
        assert ek.primitivity_exponent(P) == exponent

    @pytest.mark.parametrize("P", CHAINS, ids=IDS)
    def test_primitivity_exponent(self, P):
        assert ek.primitivity_exponent(P) == oracle_primitivity(P)

    @pytest.mark.parametrize("epsilon", [0.25, 0.1, 0.01])
    @pytest.mark.parametrize("P", CHAINS, ids=IDS)
    def test_mixing_time(self, P, epsilon):
        est = ek.mixing_estimate(P, epsilon=epsilon)
        assert est.empirical_tmix == oracle_tmix(P, epsilon)

    @pytest.mark.parametrize("P", CHAINS, ids=IDS)
    def test_envelope_iterations(self, P):
        iterations, pi = oracle_envelope(P, 1e-10)
        res = ek.stationary_by_envelope(P, tol=1e-10)
        assert res.evidence["iterations"] == iterations
        assert np.abs(res.pi.probs - pi).max() <= 1e-12
        assert res.evidence["max_half_width"] <= 0.5e-10


class TestCaps:
    def test_envelope_past_max_iter(self):
        # the column gap of P^k is 0.5^k for two_state(0.2, 0.3)
        with pytest.raises(MaxIterExceededError, match="Delta = 0.25 after 2 iterations"):
            ek.stationary_by_envelope(gen.two_state(0.2, 0.3), max_iter=2)
        res = ek.stationary_by_envelope(gen.two_state(0.2, 0.3), max_iter=34)
        assert res.evidence["iterations"] == 34  # the least k is the cap itself

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_envelope_max_iter_range(self, max_iter):
        with pytest.raises(ArgumentRangeError, match="max_iter"):
            ek.stationary_by_envelope(gen.two_state(0.2, 0.3), max_iter=max_iter)

    @pytest.mark.parametrize("p_min", [1e-300, 5e-324, 0.0])
    def test_envelope_cap_on_tiny_entries(self, p_min):
        # log(1 - p_min) is 0.0 below about 1.1e-16; the cap stays finite
        # and never passes the mixing search's limit
        assert envelope._default_max_iter(p_min, 1e-10) == envelope._TMIX_LIMIT

    @pytest.mark.parametrize("p_min, tol", [(0.2, 1e-10), (0.05, 1e-12), (1e-6, 1e-10)])
    def test_envelope_cap_is_ten_times_the_geometric_need(self, p_min, tol):
        need = math.log(tol) / math.log1p(-p_min)
        assert envelope._default_max_iter(p_min, tol) == 10 * math.ceil(need)

    def test_envelope_on_tiny_entries_stops_at_the_limit(self):
        with pytest.raises(MaxIterExceededError, match="after 1099511627776 iterations"):
            ek.stationary_by_envelope(gen.two_state(1e-300, 1e-300))

    def test_mixing_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(envelope, "_TMIX_LIMIT", 64)
        # d(t) = (2/3) (1 - p - q)^t: t_mix 16 here, 163 below
        assert ek.mixing_estimate(gen.two_state(0.02, 0.04)).empirical_tmix == 16
        with pytest.raises(MaxIterExceededError, match="at t = 64"):
            ek.mixing_estimate(gen.two_state(0.002, 0.004))


class TestStiffChains:
    def test_stiff_two_state_mixing_time(self):
        # d(t) = (2/3) (1 - 3e-6)^t
        est = ek.mixing_estimate(gen.two_state(1e-6, 2e-6))
        assert est.empirical_tmix == math.ceil(math.log(0.375) / math.log(1 - 3e-6)) == 326943
        assert est.empirical_tmix <= est.bound_tmix

    def test_bottleneck_mixing_time(self):
        P = bottleneck()
        assert ek.mixing_estimate(P).empirical_tmix == 69329
        res = ek.stationary_by_envelope(P)
        assert np.abs(res.pi.probs - 1.0 / 40).max() < 1e-12

    @pytest.mark.parametrize(
        "P, iterations, pi",
        [
            (gen.two_state(1e-6, 2e-6), 7_712_374, [2 / 3, 1 / 3]),
            (bottleneck(), 667_821, [1 / 40] * 40),
        ],
        ids=["two_state(1e-6,2e-6)", "bottleneck(40)"],
    )
    def test_envelope_iterations_drift_on_stiff_chains(self, P, iterations, pi):
        # Once the column gap nears tol only after some 10^5 products, float64
        # rounding decides the last iterations, and squaring rounds otherwise
        # than stepping one product at a time. The linear oracle, too slow to
        # run here, stops at 7,707,201 and 667,817; this pins the drift of
        # 5,173 and 4 iterations. pi is unaffected.
        res = ek.stationary_by_envelope(P)
        assert res.evidence["iterations"] == iterations
        assert res.pi.probs == pytest.approx(pi, abs=1e-10)
