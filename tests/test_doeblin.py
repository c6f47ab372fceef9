import numpy as np
import pytest

import ergokit as ek
from ergokit import doeblin
from ergokit import generators as gen
from ergokit.errors import (
    ArgumentRangeError,
    ErgokitError,
    NotErgodicError,
    NotPositiveError,
    NotStationaryError,
    RankDeficientError,
)

from conftest import from_array, random_positive


def split_of(P):
    pi = ek.stationary_linear(P).pi
    return ek.doeblin_split(P, pi), pi


class TestDoeblinSplit:
    def test_two_state_delta(self, two_state_chain):
        split, _ = split_of(two_state_chain)
        # ratios P(x,y)/pi(y): 0.8/0.6, 0.2/0.4, 0.3/0.6, 0.7/0.4 -> min is 0.5
        assert split.delta == pytest.approx(0.5)
        assert split.theta == pytest.approx(0.5)

    def test_uniform_is_rank_one(self):
        split, _ = split_of(gen.uniform(3))
        assert split.delta == 1.0 and split.theta == 0.0
        assert np.allclose(split.Q_matrix.entries, split.Pi_matrix.entries)

    def test_rejects_zero_entries(self, flip_chain):
        pi = ek.stationary_linear(flip_chain).pi
        with pytest.raises(NotPositiveError):
            ek.doeblin_split(flip_chain, pi)

    def test_rejects_non_stationary_pi(self, two_state_chain):
        bogus = ek.Distribution(two_state_chain.space, np.full(2, 1 / 2))
        with pytest.raises(NotStationaryError):
            ek.doeblin_split(two_state_chain, bogus)

    @pytest.mark.parametrize("seed", range(10))
    def test_split_reconstructs_p(self, seed):
        rng = np.random.default_rng(1500 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        split, _ = split_of(P)
        back = (
            split.delta * split.Pi_matrix.entries
            + split.theta * split.Q_matrix.entries
        )
        assert np.abs(back - P.entries).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_minorization_and_q_stochastic(self, seed):
        rng = np.random.default_rng(1600 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        split, pi = split_of(P)
        assert 0.0 < split.delta <= 1.0
        # P(x, y) >= delta pi(y) entrywise, with equality somewhere (maximality)
        floor = split.delta * pi.probs[None, :]
        assert (P.entries - floor).min() >= -1e-14
        assert np.isclose((P.entries / pi.probs[None, :]).min(), split.delta) or (
            split.delta == 1.0
        )
        Q = split.Q_matrix.entries
        assert Q.min() >= 0.0
        assert np.abs(Q.sum(axis=1) - 1.0).max() < 1e-12


def recursion_errors(verdict):
    return [error for _, _, _, error in verdict.rows]


class TestErrorRecursion:
    def test_two_state(self, two_state_chain):
        _, pi = split_of(two_state_chain)
        verdict = ek.verify_doeblin(two_state_chain, pi, max_n=20)
        assert verdict.recursion_passed
        assert max(recursion_errors(verdict)) <= 1e-10
        assert verdict.fact_a_error <= 1e-12
        assert verdict.fact_b_error <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_random_positive(self, seed):
        rng = np.random.default_rng(1700 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        _, pi = split_of(P)
        verdict = ek.verify_doeblin(P, pi, max_n=20)
        assert verdict.recursion_passed
        assert max(recursion_errors(verdict)) <= 1e-10

    def test_rank_one_case(self):
        P = gen.uniform(4)
        _, pi = split_of(P)
        verdict = ek.verify_doeblin(P, pi)
        assert verdict.recursion_passed
        assert max(recursion_errors(verdict)) == 0.0

    def test_tolerances(self):
        assert doeblin.TV_SLACK == 1e-12
        assert doeblin.RECURSION_TOL == 1e-10

    def test_a_recursion_error_past_the_tolerance_fails(self, two_state_chain, monkeypatch):
        _, pi = split_of(two_state_chain)
        worst = max(recursion_errors(ek.verify_doeblin(two_state_chain, pi)))
        monkeypatch.setattr(doeblin, "RECURSION_TOL", worst / 2)
        verdict = ek.verify_doeblin(two_state_chain, pi)
        assert not verdict.recursion_passed and verdict.tv_bound_passed


class TestTVBound:
    def test_two_state_exact_values(self, two_state_chain):
        _, pi = split_of(two_state_chain)
        verdict = ek.verify_doeblin(two_state_chain, pi, max_n=10)
        assert verdict.tv_bound_passed
        assert [n for n, _, _, _ in verdict.rows] == list(range(1, 11))
        for n, d, bound, _ in verdict.rows:
            assert d == pytest.approx(0.6 * 0.5**n, rel=1e-9)
            assert bound == pytest.approx(0.5**n)
            assert d <= bound

    @pytest.mark.parametrize("seed", range(10))
    def test_domination_holds(self, seed):
        rng = np.random.default_rng(1800 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        _, pi = split_of(P)
        verdict = ek.verify_doeblin(P, pi, max_n=50)
        assert verdict.tv_bound_passed
        ds = [d for _, d, _, _ in verdict.rows]
        assert ds[-1] < ds[0] or ds[0] == 0.0

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_max_n_below_one_rejected(self, two_state_chain, max_n):
        _, pi = split_of(two_state_chain)
        with pytest.raises(ArgumentRangeError, match="max_n"):
            ek.verify_doeblin(two_state_chain, pi, max_n=max_n)

    def test_rejects_zero_entries(self, flip_chain):
        pi = ek.stationary_linear(flip_chain).pi
        with pytest.raises(NotPositiveError):
            ek.verify_doeblin(flip_chain, pi)


class TestSpectralCheck:
    def test_two_state_oracle(self, two_state_chain):
        # eigenvalues of [[0.8,0.2],[0.3,0.7]] are 1 and 0.5
        check = ek.spectral_check(two_state_chain)
        assert check.dominant_value == pytest.approx(1.0, abs=1e-12)
        assert check.subdominant_modulus_estimate == pytest.approx(0.5, abs=1e-6)
        assert np.abs(check.dominant_vector.probs - [0.6, 0.4]).max() < 1e-10
        assert check.rank1_gap < 1e-9

    def test_uniform_subdominant_zero(self):
        check = ek.spectral_check(gen.uniform(3))
        assert check.subdominant_modulus_estimate < 1e-8
        assert check.rank1_gap < 1e-12

    def test_flip_rejected(self, flip_chain):
        with pytest.raises(NotErgodicError):
            ek.spectral_check(flip_chain)

    def test_complex_subdominant_pair(self):
        # strong cyclic drift: subdominant eigenvalues form a conjugate pair
        eps = 0.1
        a = np.full((3, 3), eps / 2)
        for i in range(3):
            a[i, (i + 1) % 3] = 1.0 - eps
            a[i, i] = eps / 2
        P = from_array(a)
        check = ek.spectral_check(P)
        lam = np.abs(np.linalg.eigvals(P.entries))
        lam.sort()
        assert check.subdominant_modulus_estimate == pytest.approx(lam[-2], abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_dominant_vector_matches_linear(self, seed):
        rng = np.random.default_rng(1900 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        check = ek.spectral_check(P)
        ref = ek.stationary_linear(P).pi.probs
        assert np.abs(check.dominant_vector.probs - ref).max() <= 1e-8
        assert check.subdominant_modulus_estimate < 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_subdominant_matches_eig(self, seed):
        rng = np.random.default_rng(2000 + seed)
        P = random_positive(rng, int(rng.integers(2, 6)))
        check = ek.spectral_check(P)
        lam = np.abs(np.linalg.eigvals(P.entries))
        lam.sort()
        assert check.subdominant_modulus_estimate == pytest.approx(lam[-2], abs=1e-12)

    @pytest.mark.parametrize(
        "P", [gen.lazy_hypercube(7), gen.top_to_random(5)], ids=["lazy_hypercube7", "top_to_random5"]
    )
    def test_subdominant_matches_eig_with_zero_entries(self, P):
        check = ek.spectral_check(P)
        lam = np.abs(np.linalg.eigvals(P.entries))
        lam.sort()
        assert check.subdominant_modulus_estimate == pytest.approx(lam[-2], abs=1e-12)

    def test_dominant_pair_is_the_memoized_solve(self, two_state_chain):
        check = ek.spectral_check(two_state_chain)
        assert check.dominant_vector is ek.stationary_linear(two_state_chain).pi

    def test_stiff_chain(self):
        # t_mix = 326,943: the rank-1 probe needs k of about 7.7e6, which
        # power reaches in O(log k) products
        P = gen.two_state(1e-6, 2e-6)
        check = ek.spectral_check(P)
        lam = np.sort(np.abs(np.linalg.eigvals(P.entries)))
        assert abs(check.subdominant_modulus_estimate - lam[-2]) <= 1e-12
        assert check.rank1_gap <= 1e-9
        assert doeblin._default_probe(check.subdominant_modulus_estimate) > 7_000_000

    def test_rounded_to_identity_is_a_typed_error(self):
        # 1 - 1e-17 rounds to 1, so P - I has rank 0: the solve refuses the
        # chain before the rank-1 probe could divide by log(1) = 0
        with pytest.raises(ErgokitError) as exc:
            ek.spectral_check(gen.two_state(1e-17, 1e-17))
        assert type(exc.value) is RankDeficientError
