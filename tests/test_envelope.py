from itertools import islice

import numpy as np
import pytest

import ergokit as ek
from ergokit import envelope
from ergokit import generators as gen
from ergokit.chain import _tv_rows, orbit
from ergokit.envelope import MAX_TRACE_ROWS, _column_gap, _lift
from ergokit.errors import (
    ArgumentRangeError,
    MonotonicityViolationError,
    NotErgodicError,
    NotPositiveError,
    TooLargeError,
)

from conftest import near_periodic_cycle, random_positive


class TestEnvelopeIterate:
    def test_hand_computed_two_state(self, two_state_chain):
        trace = ek.envelope_iterate(two_state_chain, max_iter=2)[0]
        first, second = trace.iterations
        assert (first.m, first.M, first.delta) == (0.3, 0.8, 0.5)
        assert second.m == pytest.approx(0.45)
        assert second.M == pytest.approx(0.70)
        assert second.delta == pytest.approx(0.25)

    def test_uniform_converges_immediately(self):
        trace = ek.envelope_iterate(gen.uniform(2))[1]
        assert len(trace.iterations) == 1
        assert trace.iterations[0].delta == 0.0

    def test_random_positive_decays(self):
        rng = np.random.default_rng(1)
        P = random_positive(rng, 5)
        trace = ek.envelope_iterate(P, max_iter=200)[2]
        deltas = [r.delta for r in trace.iterations]
        assert deltas[-1] < 1e-12
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_each_trace_is_its_own_column_of_the_powers(self, seed):
        # each column stops at its own first Delta <= tol, so the traces
        # differ in length; every record is that of a one-column walk
        rng = np.random.default_rng(450 + seed)
        P = random_positive(rng, int(rng.integers(2, 7)))
        traces = ek.envelope_iterate(P, max_iter=40, tol=1e-9)
        assert len(traces) == P.n
        for col, trace in enumerate(traces):
            want, S = [], P.entries
            for i in range(1, 41):
                lo, hi = float(S[:, col].min()), float(S[:, col].max())
                want.append((i, lo, hi, hi - lo))
                if hi - lo <= 1e-9:
                    break
                S = S @ P.entries
            assert [(r.i, r.m, r.M, r.delta) for r in trace.iterations] == want

    def test_lost_monotonicity_names_the_column(self):
        # not stochastic (the raw constructor trusts its input): column 0 is
        # constant, so its trace closes at i = 1, and column 1's top grows
        A = ek.StochasticMatrix(ek.StateSpace(("a", "b")), np.array([[0.5, 0.5], [0.5, 0.9]]))
        with pytest.raises(
            MonotonicityViolationError, match=r"^envelope of column 1 lost monotonicity at i=2: "
        ):
            ek.envelope_iterate(A)

    def test_rejects_zero_entries(self, flip_chain):
        with pytest.raises(NotPositiveError):
            ek.envelope_iterate(flip_chain)

    def test_rejects_fewer_than_one_iteration(self, two_state_chain):
        with pytest.raises(ArgumentRangeError, match="max_iter must be >= 1, got 0"):
            ek.envelope_iterate(two_state_chain, max_iter=0)

    def test_trace_length_is_capped(self, two_state_chain, monkeypatch):
        # with tol = 0 the gap stalls near 5.6e-16 and never reaches tol, so
        # every trace runs to max_iter: the cap is what bounds its memory
        traces = ek.envelope_iterate(two_state_chain, max_iter=MAX_TRACE_ROWS, tol=0.0)
        assert [len(t.iterations) for t in traces] == [MAX_TRACE_ROWS] * 2

        def no_orbit(*args):
            raise AssertionError("an orbit started before max_iter was checked")

        monkeypatch.setattr(envelope, "orbit", no_orbit)
        with pytest.raises(TooLargeError, match=f"^max_iter {MAX_TRACE_ROWS + 1} exceeds"):
            ek.envelope_iterate(two_state_chain, max_iter=MAX_TRACE_ROWS + 1, tol=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_envelopes(self, seed):
        rng = np.random.default_rng(400 + seed)
        P = random_positive(rng, int(rng.integers(2, 7)))
        trace = ek.envelope_iterate(P, max_iter=60)[0]
        ms = [r.m for r in trace.iterations]
        Ms = [r.M for r in trace.iterations]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        assert all(b <= a for a, b in zip(Ms, Ms[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_envelope_sandwiches_matrix_powers(self, seed):
        rng = np.random.default_rng(500 + seed)
        P = random_positive(rng, 4)
        col = int(rng.integers(0, 4))
        trace = ek.envelope_iterate(P, max_iter=30)[col]
        for rec in trace.iterations:
            column = ek.power(P, rec.i).entries[:, col]
            assert rec.m <= column.min() + 1e-15
            assert rec.M >= column.max() - 1e-15


def assert_contraction(trace, p, tol=1e-12):
    """The four contraction inequalities on every consecutive pair of a
    trace of a matrix whose least entry is p: m rises and M falls by at
    least p Delta, Delta' <= (1 - p) Delta, and Delta' <= (1 - 2p) Delta
    where 1 - 2p > 0."""
    for a, b in zip(trace.iterations, trace.iterations[1:]):
        assert b.m >= a.m + p * a.delta - tol
        assert b.M <= a.M - p * a.delta + tol
        assert b.delta <= (1.0 - p) * a.delta + tol
        if 1.0 - 2.0 * p > 0.0:
            assert b.delta <= (1.0 - 2.0 * p) * a.delta + tol


class TestVerifyContraction:
    def test_two_state_second_step(self, two_state_chain):
        trace = ek.envelope_iterate(two_state_chain, max_iter=2)[0]
        # Delta2 = 0.25 <= (1 - 2 * 0.2) * 0.5 = 0.30
        assert len(trace.iterations) == 2
        assert_contraction(trace, two_state_chain.min_entry())

    @pytest.mark.parametrize("seed", range(10))
    def test_all_inequalities_on_random_positive(self, seed):
        rng = np.random.default_rng(600 + seed)
        P = random_positive(rng, 4)
        trace = ek.envelope_iterate(P, max_iter=50)[int(rng.integers(0, 4))]
        assert len(trace.iterations) > 1
        assert_contraction(trace, P.min_entry())

    @pytest.mark.parametrize("seed", range(10))
    def test_geometric_decay_bounds(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 7))
        P = random_positive(rng, n)
        p = P.min_entry()
        trace = ek.envelope_iterate(P, max_iter=50)[0]
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

    def test_infinite_tol_takes_one_power(self, two_state_chain):
        # no column gap exceeds 1, so any tol >= 1 holds at B^1
        res = ek.stationary_by_envelope(two_state_chain, tol=np.inf)
        assert res.evidence["iterations"] == 1
        assert res.evidence["max_half_width"] == 0.25

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

    @pytest.mark.parametrize(
        "n, loop, m, entry",
        [(5, 1e-200, 8, "0"), (28, 1.3e-12, 54, "1.19e-321")],
        ids=["entry_rounds_to_zero", "bound_past_the_largest_float"],
    )
    def test_bound_past_floats_is_refused(self, n, loop, m, entry):
        # the contraction bound divides by P^m's least float entry: 0 here,
        # or small enough that the quotient is inf
        P = near_periodic_cycle(n, loop)
        assert _lift(P)[0] == m
        with pytest.raises(
            TooLargeError,
            match=rf"^mixing bound is not finite: the least float entry of P\^{m} is {entry}$",
        ):
            ek.mixing_estimate(P)

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


def delta_curve(P, horizon):
    """Delta(t) = max over columns of max - min of P^t, t = 1..horizon, read
    as ``mix --csv`` reads it: the column gap over the orbit of P."""
    return [_column_gap(S) for S in islice(orbit(P.entries, P.entries), horizon)]


class TestDeltaRelations:
    @pytest.mark.parametrize("seed", range(6))
    def test_d_bounded_by_n_delta(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 7))
        P = random_positive(rng, n)
        pi = ek.stationary_linear(P).pi
        deltas = delta_curve(P, 15)
        ds = (_tv_rows(S, pi.probs) for S in orbit(np.eye(n), P.entries))
        for t, d in enumerate(islice(ds, 1, 16), start=1):
            assert d <= n * deltas[t - 1] + 1e-12

    def test_two_state_geometric(self, two_state_chain):
        # Delta(n) is exactly 0.5^n for this chain (eigenvalue 0.5)
        deltas = delta_curve(two_state_chain, 20)
        for n, d in enumerate(deltas, start=1):
            assert d == pytest.approx(0.5**n, rel=1e-9)

    def test_dominated_by_simulated_tail(self, two_state_chain):
        deltas = delta_curve(two_state_chain, 10)
        trials = 50_000
        trace = ek.simulate_coupling(
            two_state_chain, start=(0, 1), trials=trials, max_steps=400, seed=11
        )
        for n in range(1, 11):
            tail = (trace.tau_samples > n).mean()
            se = np.sqrt((tail * (1 - tail) + 1e-9) / trials)
            assert deltas[n - 1] <= tail + 4 * se
