import numpy as np
import pytest

import ergokit as ek
from ergokit import doeblin
from ergokit import generators as gen
from ergokit.coupling import MAX_HORIZON
from ergokit.errors import (
    ArgumentRangeError,
    ErgokitError,
    NotErgodicError,
    NotPositiveError,
    RankDeficientError,
    TooLargeError,
)

from conftest import from_array, random_positive


def split_of(P):
    return ek.doeblin_split(P), ek.stationary_linear(P).pi


class TestDoeblinSplit:
    def test_two_state_delta(self, two_state_chain):
        split, _ = split_of(two_state_chain)
        # ratios P(x,y)/pi(y): 0.8/0.6, 0.2/0.4, 0.3/0.6, 0.7/0.4 -> min is 0.5
        assert split.delta == pytest.approx(0.5)
        assert split.theta == pytest.approx(0.5)

    def test_uniform_is_rank_one(self):
        split, pi = split_of(gen.uniform(3))
        assert split.delta == 1.0 and split.theta == 0.0
        assert np.array_equal(split.Q_matrix.entries, np.tile(pi.probs, (3, 1)))

    def test_rejects_zero_entries(self, flip_chain):
        with pytest.raises(NotPositiveError):
            ek.doeblin_split(flip_chain)

    def test_pi_is_the_memoized_solve(self, monkeypatch):
        # the split, the verdict and the caller all read one linear solve
        P = random_positive(np.random.default_rng(1550), 6)
        solves = []
        solve = np.linalg.solve

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        split = ek.doeblin_split(P)
        ek.verify_doeblin(P, max_n=3)
        pi = ek.stationary_linear(P).pi.probs
        assert split.delta == min(1.0, float((P.entries / pi).min()))
        assert ek.stationary_linear.__wrapped__ in P._memo and len(solves) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_split_reconstructs_p(self, seed):
        rng = np.random.default_rng(1500 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        split, pi = split_of(P)
        back = split.delta * pi.probs + split.theta * split.Q_matrix.entries
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
        verdict = ek.verify_doeblin(two_state_chain, max_n=20)
        assert verdict.recursion_passed
        assert max(recursion_errors(verdict)) <= 1e-10
        assert verdict.fact_a_error <= 1e-12
        assert verdict.fact_b_error <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_random_positive(self, seed):
        rng = np.random.default_rng(1700 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        verdict = ek.verify_doeblin(P, max_n=20)
        assert verdict.recursion_passed
        assert max(recursion_errors(verdict)) <= 1e-10

    def test_rank_one_case(self):
        P = gen.uniform(4)
        verdict = ek.verify_doeblin(P)
        assert verdict.recursion_passed
        assert max(recursion_errors(verdict)) == 0.0

    def test_tolerances(self):
        assert doeblin.TV_SLACK == 1e-12
        assert doeblin.RECURSION_TOL == 1e-10

    def test_a_recursion_error_past_the_tolerance_fails(self, two_state_chain, monkeypatch):
        worst = max(recursion_errors(ek.verify_doeblin(two_state_chain)))
        monkeypatch.setattr(doeblin, "RECURSION_TOL", worst / 2)
        verdict = ek.verify_doeblin(two_state_chain)
        assert not verdict.recursion_passed and verdict.tv_bound_passed


class TestTVBound:
    def test_two_state_exact_values(self, two_state_chain):
        verdict = ek.verify_doeblin(two_state_chain, max_n=10)
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
        verdict = ek.verify_doeblin(P, max_n=50)
        assert verdict.tv_bound_passed
        ds = [d for _, d, _, _ in verdict.rows]
        assert ds[-1] < ds[0] or ds[0] == 0.0

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_max_n_below_one_rejected(self, two_state_chain, max_n):
        with pytest.raises(ArgumentRangeError, match="max_n"):
            ek.verify_doeblin(two_state_chain, max_n=max_n)

    def test_max_n_past_the_cap_rejected(self, two_state_chain):
        # the verdict keeps one row per step, so max_n shares the lemma's cap
        with pytest.raises(TooLargeError, match="max_n"):
            ek.verify_doeblin(two_state_chain, max_n=MAX_HORIZON + 1)
        assert len(ek.verify_doeblin(two_state_chain, max_n=MAX_HORIZON).rows) == MAX_HORIZON

    def test_rejects_zero_entries(self, flip_chain):
        with pytest.raises(NotPositiveError):
            ek.verify_doeblin(flip_chain)


class TestSpectralCheck:
    def test_two_state_oracle(self, two_state_chain):
        # eigenvalues of [[0.8,0.2],[0.3,0.7]] are 1 and 0.5
        check = ek.spectral_check(two_state_chain)
        assert check.subdominant_modulus_estimate == pytest.approx(0.5, abs=1e-6)
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
        # the check deflates by the linear-solve pi: it must be the left
        # eigenvector of the eigenvalue 1 that an eigensolver finds
        rng = np.random.default_rng(1900 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        check = ek.spectral_check(P)
        lam, vecs = np.linalg.eig(P.entries.T)
        v = np.real(vecs[:, np.argmax(np.real(lam))])
        assert np.abs(v / v.sum() - ek.stationary_linear(P).pi.probs).max() <= 1e-8
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
