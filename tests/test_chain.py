import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergokit as ek
from ergokit import generators as gen
from ergokit.chain import _tv_rows, check_stationary, orbit
from ergokit.errors import (
    ErgokitError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonSquareError,
    NotStationaryError,
    RowSumError,
    SpaceMismatchError,
    StateLabelError,
)

from conftest import from_array, labels, random_positive


def _dist(P, probs):
    return ek.Distribution(P.space, np.asarray(probs, dtype=float))


@st.composite
def stochastic_arrays(draw, min_n=2, max_n=5, positive=False):
    n = draw(st.integers(min_n, max_n))
    lo = 1 if positive else 0
    rows = []
    for _ in range(n):
        r = draw(
            st.lists(st.integers(lo, 100), min_size=n, max_size=n).filter(
                lambda r: sum(r) > 0
            )
        )
        rows.append(np.array(r, dtype=float) / sum(r))
    return np.array(rows)


@st.composite
def distribution_pairs(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    out = []
    for _ in range(2):
        w = draw(
            st.lists(st.integers(0, 100), min_size=n, max_size=n).filter(
                lambda r: sum(r) > 0
            )
        )
        out.append(np.array(w, dtype=float) / sum(w))
    return out[0], out[1]


class TestValidation:
    def test_exact_stochastic_accepted(self):
        P = ek.validate_stochastic([[0.5, 0.5], [0.5, 0.5]], ["a", "b"])
        assert P.n == 2

    def test_bad_row_sum_rejected(self):
        with pytest.raises(RowSumError, match="row 0"):
            ek.validate_stochastic([[1.0, 0.1], [0.0, 1.0]], ["a", "b"])

    def test_identity_accepted(self):
        P = ek.validate_stochastic(np.eye(3), labels(3))
        assert np.array_equal(P.entries, np.eye(3))

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            ek.validate_stochastic([[0.5, 0.5]], ["a"])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            ek.validate_stochastic([[1.5, -0.5], [0.5, 0.5]], ["a", "b"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(NonFiniteEntryError, match="row 1, column 0"):
            ek.validate_stochastic([[0.5, 0.5], [bad, 0.5]], ["a", "b"])

    def test_non_finite_probability(self):
        space = ek.StateSpace(("a", "b"))
        with pytest.raises(NonFiniteEntryError, match="state 0"):
            ek.Distribution(space, np.array([np.nan, 1.0]))

    def test_renormalizes_tiny_drift(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]]) * (1 + 1e-14)
        P = ek.validate_stochastic(a, ["a", "b"])
        assert P.entries.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ek.validate_stochastic(np.eye(2), ["a", "a"])

    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda: ek.StateSpace(()), StateLabelError, "at least one state"),
            (lambda: ek.StateSpace(("a", 1)), StateLabelError,
             "^state label 1 at position 1 is not a string$"),
            (lambda: ek.Distribution(ek.StateSpace(("a", "b")), [0.2, 0.3, 0.5]),
             SpaceMismatchError, r"length \(3,\) on a 2-state space"),
            (lambda: ek.Distribution(ek.StateSpace(("a", "b")), [1.5, -0.5]),
             NegativeEntryError, "negative probability"),
            (lambda: ek.validate_stochastic(np.eye(2), ["a", "b", "c"]),
             NonSquareError, "2x2 matrix with 3 labels"),
        ],
        ids=["empty_space", "non_string_label", "probs_length", "negative_probability",
             "label_count"],
    )
    def test_malformed_value_rejected(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    def test_string_labels_rejected(self):
        # "ab" would otherwise be read as the two labels "a" and "b"
        with pytest.raises(StateLabelError, match="'ab'"):
            ek.validate_stochastic(np.eye(2), "ab")

    @given(
        st.lists(
            st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_float_rows_give_matrix_or_typed_error(self, rows):
        # ragged, empty, non-finite or extreme: never an untyped exception
        try:
            P = ek.validate_stochastic(rows, labels(len(rows)))
        except ErgokitError:
            return
        assert isinstance(P, ek.StochasticMatrix)


class TestPower:
    def test_flip_squared_is_identity(self, flip_chain):
        assert np.allclose(ek.power(flip_chain, 2).entries, np.eye(2))

    def test_power_one_is_p(self, two_state_chain):
        assert np.array_equal(
            ek.power(two_state_chain, 1).entries, two_state_chain.entries
        )

    def test_power_zero_is_identity(self, two_state_chain):
        assert np.array_equal(ek.power(two_state_chain, 0).entries, np.eye(2))

    def test_hand_multiplied_square(self, two_state_chain):
        # [[0.8,0.2],[0.3,0.7]]^2 worked out by hand
        expect = [[0.70, 0.30], [0.45, 0.55]]
        assert np.allclose(ek.power(two_state_chain, 2).entries, expect, atol=1e-15)

    @given(stochastic_arrays())
    @settings(max_examples=40, deadline=None)
    def test_closure_rows_sum_to_one(self, a):
        P = from_array(a)
        for k in (0, 1, 2, 5, 20):
            sums = ek.power(P, k).entries.sum(axis=1)
            assert np.abs(sums - 1.0).max() < 1e-9


def tv(mu: np.ndarray, nu: np.ndarray) -> float:
    """TV(mu, nu) as every TV in ergokit is formed: _tv_rows on one row."""
    return _tv_rows(mu[None, :], nu)


class TestTVDistance:
    def test_equal_distributions(self):
        mu = np.array([0.3, 0.7])
        assert tv(mu, mu) == 0.0

    def test_disjoint_supports(self):
        assert tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_direct_formula(self):
        assert tv(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(0.5)

    @given(distribution_pairs())
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, pair):
        mu, nu = pair
        d = tv(mu, nu)
        assert 0.0 <= d <= 1.0
        assert d == tv(nu, mu)
        if d < 1e-12:
            assert np.abs(mu - nu).max() < 1e-11
        # triangle inequality through a third point
        rho = np.full(len(mu), 1 / len(mu))
        assert d <= tv(mu, rho) + tv(rho, nu) + 1e-12

    @given(distribution_pairs(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_max_event_formulation(self, pair):
        # brute force over all events: TV = max_A |mu(A) - nu(A)|
        mu_p, nu_p = pair
        n = len(mu_p)
        best = 0.0
        for r in range(n + 1):
            for ev in itertools.combinations(range(n), r):
                ev = list(ev)
                best = max(best, abs(mu_p[ev].sum() - nu_p[ev].sum()))
        assert tv(mu_p, nu_p) == pytest.approx(best, abs=1e-12)


def d_curve(P, pi):
    """d(0), d(1), ... with d(t) = max_x TV(P^t(x, .), pi), read off the
    orbit of the identity as every d(t) in ergokit is."""
    return (_tv_rows(S, pi.probs) for S in orbit(np.eye(P.n), P.entries))


class TestDistanceFromStationary:
    """d(t) = max_x TV(P^t(x, .), pi), read off :func:`orbit`."""

    def test_flip_d0(self, flip_chain):
        pi = _dist(flip_chain, [0.5, 0.5])
        assert next(d_curve(flip_chain, pi)) == pytest.approx(0.5)

    def test_flip_never_converges(self, flip_chain):
        pi = _dist(flip_chain, [0.5, 0.5])
        for d in itertools.islice(d_curve(flip_chain, pi), 12):
            assert d == pytest.approx(0.5)

    def test_monotone_bounded_decay(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        ds = list(itertools.islice(d_curve(two_state_chain, pi), 20))
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 1e-4

    def test_tv_curve_matches_direct_powers(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        curve = d_curve(two_state_chain, pi)
        for t in range(15):
            Pt = np.linalg.matrix_power(two_state_chain.entries, t)
            direct = 0.5 * np.abs(Pt - pi.probs).sum(axis=1).max()
            assert next(curve) == pytest.approx(direct, abs=1e-14)

    def test_not_stationary_guard(self, two_state_chain):
        # the guard of every route that takes a caller's pi
        bogus = _dist(two_state_chain, [0.5, 0.5])
        with pytest.raises(NotStationaryError):
            check_stationary(two_state_chain, bogus)


class TestMinEntry:
    def test_two_state(self, two_state_chain):
        assert two_state_chain.min_entry() == pytest.approx(0.2)

    def test_identity(self, identity3):
        assert identity3.min_entry() == 0.0

    def test_uniform(self):
        assert gen.uniform(4).min_entry() == pytest.approx(0.25)


class TestFileRoundTrip:
    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        P = random_positive(rng, 4)
        back = ek.chain.load_chain_json(P.to_json())
        assert back.space == P.space
        assert np.array_equal(back.entries, P.entries)

    def test_csv_round_trip(self):
        rng = np.random.default_rng(6)
        P = random_positive(rng, 3)
        back = ek.chain.load_chain_csv(P.to_csv())
        assert back.space == P.space
        assert np.array_equal(back.entries, P.entries)

    def test_parse_error(self):
        with pytest.raises(ek.errors.ChainParseError):
            ek.chain.load_chain_json("{not json")
        with pytest.raises(ek.errors.ChainParseError):
            ek.chain.load_chain_csv("a,b\n0.5,0.5\n")
