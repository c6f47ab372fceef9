from itertools import islice

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.chain import tv_curve
from ergokit.envelope import _lift, delta_curve
from ergokit.errors import ArgumentRangeError, NotErgodicError, NotPositiveError

from conftest import random_positive


class TestEnvelopeIterate:
    def test_hand_computed_two_state(self, two_state_chain):
        trace = ek.envelope_iterate(two_state_chain, column=0, max_iter=2)
        first, second = trace.iterations
        assert (first.m, first.M, first.delta) == (0.3, 0.8, 0.5)
        assert second.m == pytest.approx(0.45)
        assert second.M == pytest.approx(0.70)
        assert second.delta == pytest.approx(0.25)

    def test_uniform_converges_immediately(self):
        trace = ek.envelope_iterate(gen.uniform(2), column=1)
        assert len(trace.iterations) == 1
        assert trace.iterations[0].delta == 0.0

    def test_random_positive_decays(self):
        rng = np.random.default_rng(1)
        P = random_positive(rng, 5)
        trace = ek.envelope_iterate(P, column=2, max_iter=200)
        deltas = [r.delta for r in trace.iterations]
        assert deltas[-1] < 1e-12
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))

    def test_rejects_zero_entries(self, flip_chain):
        with pytest.raises(NotPositiveError):
            ek.envelope_iterate(flip_chain, column=0)

    def test_rejects_fewer_than_one_iteration(self, two_state_chain):
        with pytest.raises(ArgumentRangeError, match="max_iter must be >= 1, got 0"):
            ek.envelope_iterate(two_state_chain, column=0, max_iter=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_envelopes(self, seed):
        rng = np.random.default_rng(400 + seed)
        P = random_positive(rng, int(rng.integers(2, 7)))
        trace = ek.envelope_iterate(P, column=0, max_iter=60)
        ms = [r.m for r in trace.iterations]
        Ms = [r.M for r in trace.iterations]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        assert all(b <= a for a, b in zip(Ms, Ms[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_envelope_sandwiches_matrix_powers(self, seed):
        rng = np.random.default_rng(500 + seed)
        P = random_positive(rng, 4)
        col = int(rng.integers(0, 4))
        trace = ek.envelope_iterate(P, column=col, max_iter=30)
        for rec in trace.iterations:
            column = ek.power(P, rec.i).entries[:, col]
            assert rec.m <= column.min() + 1e-15
            assert rec.M >= column.max() - 1e-15


class TestVerifyContraction:
    def test_two_state_second_step(self, two_state_chain):
        trace = ek.envelope_iterate(two_state_chain, column=0, max_iter=2)
        verdict = ek.verify_contraction(trace)
        # Delta2 = 0.25 <= (1 - 2 * 0.2) * 0.5 = 0.30
        assert verdict.two_pmin_ok
        assert verdict.all_ok

    def test_uniform_trace(self):
        trace = ek.envelope_iterate(gen.uniform(3), column=0)
        assert ek.verify_contraction(trace).all_ok

    def test_two_pmin_skipped_when_factor_nonpositive(self):
        trace = ek.envelope_iterate(gen.uniform(2), column=0)
        verdict = ek.verify_contraction(trace)
        assert verdict.two_pmin_ok is None  # 1 - 2 * 0.5 = 0
        assert verdict.dahiya_ok

    @pytest.mark.parametrize("seed", range(10))
    def test_all_inequalities_on_random_positive(self, seed):
        rng = np.random.default_rng(600 + seed)
        P = random_positive(rng, 4)
        trace = ek.envelope_iterate(P, column=int(rng.integers(0, 4)), max_iter=50)
        assert ek.verify_contraction(trace).all_ok

    @pytest.mark.parametrize("seed", range(10))
    def test_geometric_decay_bounds(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 7))
        P = random_positive(rng, n)
        p = P.min_entry()
        trace = ek.envelope_iterate(P, column=0, max_iter=50)
        for rec in trace.iterations:
            assert rec.delta <= (1 - p) ** (rec.i - 1) + 1e-12
            if 1 - 2 * p > 0:
                assert rec.delta <= (1 - 2 * p) ** (rec.i - 1) + 1e-12


class TestStationaryByEnvelope:
    def test_two_state_closed_form(self, two_state_chain):
        res = ek.stationary_by_envelope(two_state_chain)
        assert np.abs(res.pi.probs - [0.6, 0.4]).max() < 1e-10
        assert res.method == "envelope"

    def test_flip_not_ergodic(self, flip_chain):
        with pytest.raises(NotErgodicError):
            ek.stationary_by_envelope(flip_chain)

    def test_uniform_single_iteration(self):
        res = ek.stationary_by_envelope(gen.uniform(5))
        assert res.evidence["iterations"] == 1
        assert np.allclose(res.pi.probs, 0.2)

    def test_lifts_non_positive_ergodic_chain(self):
        P = gen.lazy_hypercube(3)
        res = ek.stationary_by_envelope(P)
        assert res.evidence["lift_exponent"] == 3
        assert np.abs(res.pi.probs - 1.0 / 8).max() < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_linear_solver(self, seed):
        rng = np.random.default_rng(800 + seed)
        P = random_positive(rng, int(rng.integers(2, 8)))
        tol = 1e-10
        a = ek.stationary_by_envelope(P, tol=tol).pi.probs
        b = ek.stationary_linear(P).pi.probs
        assert np.abs(a - b).max() <= 2 * tol


class TestLift:
    def test_one_lift_per_matrix(self, monkeypatch):
        P = gen.lazy_hypercube(3)
        powers = []
        matrix_power = np.linalg.matrix_power

        def counted(a, k):
            powers.append(k)
            return matrix_power(a, k)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        res = ek.stationary_by_envelope(P)
        est = ek.mixing_estimate(P)
        assert powers == [3]
        m, lifted = _lift(P)
        assert m == res.evidence["lift_exponent"] == est.primitivity_m == 3
        assert est.pmin_of_Pm == lifted.min_entry()
        assert _lift(P)[1] is lifted
        assert not lifted.entries.flags.writeable

    def test_positive_chain_lifts_to_itself(self, two_state_chain):
        m, lifted = _lift(two_state_chain)
        assert m == 1
        assert np.array_equal(lifted.entries, two_state_chain.entries)


class TestMixingEstimate:
    def test_uniform_two_state(self):
        est = ek.mixing_estimate(gen.uniform(2), epsilon=0.25)
        # d(0) = 0.5 > 0.25, d(1) = 0
        assert est.empirical_tmix == 1

    def test_uniform_four(self):
        assert ek.mixing_estimate(gen.uniform(4), epsilon=0.25).empirical_tmix == 1

    def test_two_state_boundary(self, two_state_chain):
        # d(t) = 0.6 * 0.5^t exactly: d(1) = 0.3 > 1/4, d(2) = 0.15 <= 1/4
        est = ek.mixing_estimate(two_state_chain, epsilon=0.25)
        assert est.empirical_tmix == 2

    def test_flip_not_ergodic(self, flip_chain):
        with pytest.raises(NotErgodicError):
            ek.mixing_estimate(flip_chain)

    def test_hypercube_bound_is_loose(self):
        est = ek.mixing_estimate(gen.lazy_hypercube(3), epsilon=0.25)
        assert est.primitivity_m == 3
        assert est.empirical_tmix < est.bound_tmix / 10

    @pytest.mark.parametrize("seed", range(5))
    def test_empirical_below_bound(self, seed):
        rng = np.random.default_rng(900 + seed)
        P = random_positive(rng, int(rng.integers(2, 7)))
        est = ek.mixing_estimate(P)
        assert est.empirical_tmix <= est.bound_tmix


class TestDeltaRelations:
    @pytest.mark.parametrize("seed", range(6))
    def test_d_bounded_by_n_delta(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        P = random_positive(rng, n)
        pi = ek.stationary_linear(P).pi
        deltas = delta_curve(P, 15)
        for t, d in enumerate(islice(tv_curve(P, pi), 1, 16), start=1):
            assert d <= n * deltas[t - 1] + 1e-12
