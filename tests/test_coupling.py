import hashlib
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ergokit as ek
from ergokit import generators as gen
from ergokit.chain import (
    _CHUNK, _GUIDE_BUDGET, _Sampler, _compact, _guide, _walk_until, orbit,
)
from ergokit.coupling import exact_meeting_tail
from ergokit.errors import (
    ArgumentRangeError,
    NotErgodicError,
    SpaceMismatchError,
    TooLargeError,
)

from conftest import from_array, pair_chain, random_ergodic, random_irreducible, random_positive


class TestProductChain:
    """The pair-chain oracle: the tests that need the n^2 x n^2 chain of two
    independent copies build it as the Kronecker square of P."""

    def test_uniform_product_is_uniform(self):
        assert np.allclose(pair_chain(gen.uniform(2)).entries, 0.25)

    def test_spot_entry(self, two_state_chain):
        # Q((0,1),(0,0)) = P(0,0) * P(1,0) = 0.8 * 0.3
        assert pair_chain(two_state_chain).entries[0 * 2 + 1, 0] == pytest.approx(0.24)

    def test_flip_product_reducible(self, flip_chain):
        rep = ek.analyze(pair_chain(flip_chain))
        assert not rep.irreducible
        assert len(rep.scc_decomposition) == 2  # diagonal pairs never meet off-diagonal ones

    @pytest.mark.parametrize("seed", range(6))
    def test_faithfulness_marginals(self, seed):
        rng = np.random.default_rng(seed)
        P = random_positive(rng, int(rng.integers(2, 5)))
        n = P.n
        Q = pair_chain(P).entries.reshape(n * n, n, n)
        for i in range(n):
            for k in range(n):
                s = i * n + k
                assert np.abs(Q[s].sum(axis=1) - P.entries[i]).max() < 1e-12
                assert np.abs(Q[s].sum(axis=0) - P.entries[k]).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_product_stationary_is_outer_product(self, seed):
        rng = np.random.default_rng(10 + seed)
        P = random_positive(rng, 3)
        pi = ek.stationary_linear(P).pi.probs
        pp = np.outer(pi, pi).ravel()
        Q = pair_chain(P).entries
        assert np.abs(pp @ Q - pp).max() < 1e-12


class TestProductErgodicity:
    """Two independent copies of P form an ergodic pair chain exactly when P
    is ergodic: the lemma behind ``require_ergodic`` gating every coupling
    routine on P's own verdict."""

    def test_ergodic_base(self, two_state_chain):
        assert ek.analyze(pair_chain(two_state_chain)).ergodic is True

    def test_flip(self, flip_chain):
        assert ek.analyze(pair_chain(flip_chain)).ergodic is False

    def test_identity(self, identity3):
        assert ek.analyze(pair_chain(identity3)).ergodic is False

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_base_ergodicity(self, seed):
        rng = np.random.default_rng(900 + seed)
        reducible = np.eye(4)
        reducible[0] = rng.random(4) + 0.1
        chains = [
            random_positive(rng, int(rng.integers(2, 6))),
            random_ergodic(rng, int(rng.integers(3, 9))),
            random_irreducible(rng, int(rng.integers(3, 9))),
            gen.flip(),
            gen.cycle(int(rng.integers(3, 7))),
            from_array(reducible / reducible.sum(axis=1, keepdims=True)),
        ]
        for P in chains:
            assert ek.analyze(pair_chain(P)).ergodic == ek.analyze(P).ergodic
        assert [ek.analyze(P).ergodic for P in chains][3:] == [False] * 3


class TestSimulateCoupling:
    def test_already_coupled(self, two_state_chain):
        trace = ek.simulate_coupling(
            two_state_chain, start=(1, 1), trials=50, seed=0
        )
        assert (trace.tau_samples == 0).all()

    def test_walk_of_met_pairs_draws_nothing(self, two_state_chain):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        tau = _walk_until(two_state_chain, np.ones((2, 50), dtype=np.intp), 10, rng)
        assert tau.tolist() == [0] * 50
        assert rng.bit_generator.state == before

    def test_uniform_two_state_geometric(self):
        trace = ek.simulate_coupling(
            gen.uniform(2), start=(0, 1), trials=100_000, max_steps=200, seed=4
        )
        # per-step meeting probability 1/2 => mean 2
        mean = trace.tau_samples.mean()
        se = trace.tau_samples.std(ddof=1) / np.sqrt(trace.tau_samples.size)
        assert abs(mean - 2.0) <= 3 * se

    def test_flip_not_ergodic(self, flip_chain):
        with pytest.raises(NotErgodicError):
            ek.simulate_coupling(flip_chain, start=(0, 1))

    def test_tail_non_increasing(self, two_state_chain):
        trace = ek.simulate_coupling(
            two_state_chain, start=(0, 1), trials=20_000, seed=6
        )
        tails = [(trace.tau_samples > i).mean() for i in range(15)]
        assert tails[0] == 1.0  # the copies start apart, so none meets at step 0
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_tail_of_all_truncated_runs(self):
        # antipodal on the 3-cube: no pair meets in one step
        trace = ek.simulate_coupling(gen.lazy_hypercube(3), (0, 7), trials=5, max_steps=1)
        assert trace.truncated == 5
        assert trace.tau_samples.size == 0

    def test_matches_exact_absorbing_tail(self, two_state_chain):
        trials = 100_000
        trace = ek.simulate_coupling(
            two_state_chain, start=(0, 1), trials=trials, seed=7
        )
        exact = exact_meeting_tail(two_state_chain, (0, 1), horizon=10)
        for i in range(11):
            t = (trace.tau_samples > i).mean()
            se = np.sqrt(max(t * (1 - t), 1e-9) / trials)
            assert abs(t - exact[i]) <= 4 * se


class TestCouplingLemma:
    def test_step_zero_equality_structure(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        rep = ek.verify_coupling_lemma(
            two_state_chain, pi, start_y=1, horizon=0, trials=50_000, seed=8
        )
        row = rep.rows[0]
        # TV(pi, e_y) = 1 - pi(y) and Pr(tau > 0) = Pr(X0 != y): equal in law
        assert row.exact_tv == pytest.approx(1 - pi.probs[1])
        assert abs(row.tail - row.exact_tv) <= 4 * row.tail_se

    def test_uniform_two_state(self):
        P = gen.uniform(2)
        pi = ek.stationary_linear(P).pi
        rep = ek.verify_coupling_lemma(P, pi, start_y=0, horizon=5, trials=5000, seed=9)
        assert rep.passed
        assert all(r.exact_tv == 0.0 for r in rep.rows[1:])

    def test_two_state_horizon_30(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        rep = ek.verify_coupling_lemma(
            two_state_chain, pi, start_y=1, horizon=30, trials=100_000, seed=10
        )
        assert rep.passed

    def test_flip_not_ergodic(self, flip_chain):
        pi = ek.stationary_linear(flip_chain).pi
        with pytest.raises(NotErgodicError):
            ek.verify_coupling_lemma(flip_chain, pi, start_y=0)

    def test_pi_on_another_space_rejected(self, two_state_chain):
        other = ek.Distribution(ek.StateSpace(("a", "b")), [0.6, 0.4])
        with pytest.raises(SpaceMismatchError, match="different spaces"):
            ek.verify_coupling_lemma(two_state_chain, other, start_y=0, trials=10)

    def test_worst_slack_is_the_closest_step(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        rep = ek.verify_coupling_lemma(
            two_state_chain, pi, start_y=1, horizon=10, trials=5000, seed=12
        )
        slacks = [r.tail + 3.0 * r.tail_se - r.exact_tv for r in rep.rows]
        assert rep.worst_slack == min(slacks)
        assert rep.passed == (rep.worst_slack >= 0.0)


#: A non-integer count for each routine that takes one, and the count's name.
NON_INTEGER_COUNTS = {
    "float_trials": (lambda P, pi: ek.simulate_coupling(P, (0, 1), trials=2.5), "trials"),
    "float_max_steps": (
        lambda P, pi: ek.simulate_coupling(P, (0, 1), max_steps=2.5), "max_steps"
    ),
    "float_return_trials": (
        lambda P, pi: ek.monte_carlo_return(P, 0, trials=10.5, seed=0), "trials"
    ),
    "float_lemma_horizon": (
        lambda P, pi: ek.verify_coupling_lemma(P, pi, start_y=0, horizon=2.5), "horizon"
    ),
    "float_exact_horizon": (lambda P, pi: exact_meeting_tail(P, (0, 1), 2.5), "horizon"),
    "float_max_iter": (lambda P, pi: ek.envelope_iterate(P, max_iter=2.5), "max_iter"),
    "float_max_n": (lambda P, pi: ek.verify_doeblin(P, max_n=2.5), "max_n"),
}

#: A seed out of range for each routine that draws, on the periodic flip
#: chain: the seed is checked before the structure gate.
BAD_SEEDS = {
    "simulate_negative_seed": lambda P, pi: ek.simulate_coupling(P, (0, 1), seed=-1),
    "simulate_float_seed": lambda P, pi: ek.simulate_coupling(P, (0, 1), seed=1.5),
    "return_negative_seed": lambda P, pi: ek.monte_carlo_return(P, 0, trials=10, seed=-1),
    "return_float_seed": lambda P, pi: ek.monte_carlo_return(P, 0, trials=10, seed=1.5),
    "lemma_negative_seed": lambda P, pi: ek.verify_coupling_lemma(P, pi, 0, seed=-1),
    "lemma_float_seed": lambda P, pi: ek.verify_coupling_lemma(P, pi, 0, seed=1.5),
}


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "call",
        [
            lambda P, pi: ek.simulate_coupling(P, (0, 2)),
            lambda P, pi: ek.simulate_coupling(P, (0, 1), mode=("meet_at_state", -1)),
            lambda P, pi: ek.simulate_coupling(P, (0, 1), trials=0),
            lambda P, pi: ek.verify_coupling_lemma(P, pi, start_y=-1),
            lambda P, pi: ek.monte_carlo_return(P, z=-1, trials=10, seed=0),
            lambda P, pi: ek.monte_carlo_return(P, z=0, trials=0, seed=0),
            lambda P, pi: ek.verify_coupling_lemma(P, pi, start_y=0, horizon=-3),
            lambda P, pi: ek.simulate_coupling(P, (0, 1), max_steps=0),
            lambda P, pi: exact_meeting_tail(P, (0, 5), 3),
            lambda P, pi: exact_meeting_tail(P, (-1, 0), 3),
            lambda P, pi: exact_meeting_tail(P, (0, 1), -2),
            lambda P, pi: exact_meeting_tail(P, (0, 9), 3),
            lambda P, pi: ek.simulate_coupling(P, (0.5, 1)),
            lambda P, pi: ek.monte_carlo_return(P, 1.5, trials=10, seed=0),
            lambda P, pi: ek.verify_coupling_lemma(P, pi, start_y=1.5),
            lambda P, pi: exact_meeting_tail(P, (0.5, 1), 3),
            lambda P, pi: ek.simulate_coupling(P, (0, 1), mode="nope"),
            lambda P, pi: ek.simulate_coupling(P, (0, 1), mode=("meet_at_state", 0)),
            lambda P, pi: ek.simulate_coupling(P, (0, 1, 1)),
            *(call for call, _ in NON_INTEGER_COUNTS.values()),
            *BAD_SEEDS.values(),
        ],
        ids=[
            "start", "target", "trials", "lemma_start", "anchor", "return_trials",
            "lemma_horizon", "max_steps", "exact_start",
            "exact_negative_start", "exact_horizon", "exact_far_start",
            "float_start", "float_anchor", "float_lemma_start", "exact_float_start",
            "unknown_mode", "meet_at_state_mode", "triple_start", *NON_INTEGER_COUNTS,
            *BAD_SEEDS,
        ],
    )
    def test_rejected_before_any_step(self, two_state_chain, call, monkeypatch):
        pi = ek.stationary_linear(two_state_chain).pi

        def no_walk(*args):
            raise AssertionError("a walk started")

        monkeypatch.setattr(ek.coupling, "_walk_until", no_walk)
        monkeypatch.setattr(ek.stationary, "_walk_until", no_walk)
        with pytest.raises(ArgumentRangeError):
            call(two_state_chain, pi)

    @pytest.mark.parametrize("case", BAD_SEEDS)
    def test_seed_checked_before_the_structure_gate(self, case):
        flip = gen.flip()
        pi = ek.stationary_linear(flip).pi
        with pytest.raises(ArgumentRangeError, match=r"^seed (must be >= 0, got -1|1\.5 is not)"):
            BAD_SEEDS[case](flip, pi)

    @pytest.mark.parametrize("case", NON_INTEGER_COUNTS)
    def test_non_integer_count_named(self, two_state_chain, case):
        call, name = NON_INTEGER_COUNTS[case]
        pi = ek.stationary_linear(two_state_chain).pi
        with pytest.raises(ArgumentRangeError, match=f"^{name} [0-9.]+ is not an integer$"):
            call(two_state_chain, pi)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda P, pi: ek.simulate_coupling(P, (0, 1), trials=10**15), "trials"),
            (lambda P, pi: ek.monte_carlo_return(P, 0, trials=10**15, seed=0), "trials"),
            (lambda P, pi: ek.verify_coupling_lemma(P, pi, 0, trials=10**15), "trials"),
            (lambda P, pi: ek.verify_coupling_lemma(P, pi, 0, horizon=10**9), "horizon"),
            (lambda P, pi: exact_meeting_tail(P, (0, 1), 10**9), "horizon"),
        ],
        ids=["simulate_trials", "return_trials", "lemma_trials", "lemma_horizon",
             "exact_horizon"],
    )
    def test_oversized_count_refused_before_any_allocation(
        self, two_state_chain, call, message, monkeypatch
    ):
        # 10^15 walkers or 10^9 rows do not fit: a buffer allocated before
        # the check would raise MemoryError instead
        pi = ek.stationary_linear(two_state_chain).pi

        def no_walk(*args, **kwargs):
            raise AssertionError("a walk or orbit started")

        for name in ("_walk_until", "orbit"):
            monkeypatch.setattr(ek.coupling, name, no_walk)
        monkeypatch.setattr(ek.stationary, "_walk_until", no_walk)
        with pytest.raises(TooLargeError, match=rf"^{message} \d+ exceeds the cap of \d+$"):
            call(two_state_chain, pi)

    def test_caps_are_inclusive(self, two_state_chain, monkeypatch):
        pi = ek.stationary_linear(two_state_chain).pi
        monkeypatch.setattr(ek.chain, "MAX_TRIALS", 50)
        monkeypatch.setattr(ek.coupling, "MAX_HORIZON", 5)
        assert ek.verify_coupling_lemma(two_state_chain, pi, 0, horizon=5, trials=50).trials == 50
        assert exact_meeting_tail(two_state_chain, (0, 1), 5).shape == (6,)
        with pytest.raises(TooLargeError, match="^trials 51 exceeds the cap of 50$"):
            ek.simulate_coupling(two_state_chain, (0, 1), trials=51)
        with pytest.raises(TooLargeError, match="^horizon 6 exceeds the cap of 5$"):
            exact_meeting_tail(two_state_chain, (0, 1), 6)

    def test_numpy_integer_counts_accepted(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        six = np.int64(6)
        trace = ek.simulate_coupling(two_state_chain, (0, 1), trials=six, max_steps=six)
        assert trace.tau_samples.size + trace.truncated == 6
        assert ek.monte_carlo_return(two_state_chain, 0, trials=six, seed=0)[0] > 0
        assert ek.verify_coupling_lemma(
            two_state_chain, pi, start_y=0, horizon=six, trials=50
        ).trials == 50
        assert exact_meeting_tail(two_state_chain, (0, 1), six).shape == (7,)
        assert all(
            len(trace.iterations) <= 6
            for trace in ek.envelope_iterate(two_state_chain, max_iter=six)
        )
        assert len(ek.verify_doeblin(two_state_chain, max_n=six).rows) == 6

    def test_numpy_integer_states_accepted(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        one = np.int64(1)
        trace = ek.simulate_coupling(two_state_chain, (np.int64(0), one), trials=50)
        assert trace.tau_samples.size + trace.truncated == 50
        assert ek.monte_carlo_return(two_state_chain, one, trials=50, seed=0)[0] > 0
        assert ek.verify_coupling_lemma(two_state_chain, pi, start_y=one, trials=50).trials == 50
        assert exact_meeting_tail(two_state_chain, (np.int64(0), one), 3)[0] == 1.0

    @pytest.mark.parametrize(
        "P", [gen.uniform(7), gen.lazy_hypercube(7)], ids=["uniform7", "lazy_hypercube7"]
    )
    def test_exact_tail_at_any_n(self, P):
        tail = exact_meeting_tail(P, (0, P.n - 1), horizon=30)
        assert tail.shape == (31,) and tail[0] == 1.0
        # non-increasing up to the rounding of one P^T M P step
        assert (np.diff(tail) <= 4 * np.finfo(float).eps).all()


class TestExactCouplingLemma:
    """With X_0 ~ pi and Y_0 = y, the exact meeting tail averaged over X_0
    dominates TV(pi, P^t(y, .)) at every t, with equality at t = 0: both are
    Pr(X_0 != y) = 1 - pi(y). So the simulated verdict's band at step 0
    compares a binomial estimate with its own mean."""

    @pytest.mark.parametrize(
        "P",
        [gen.two_state(0.3, 0.4), gen.lazy_hypercube(3), gen.lazy_hypercube(7), gen.top_to_random(5)],
        ids=["two_state", "lazy_hypercube3", "lazy_hypercube7", "top_to_random5"],
    )
    def test_averaged_tail_dominates_tv(self, P):
        pi = ek.stationary_linear(P).pi.probs
        y = P.n - 1
        tail = pi @ np.array([exact_meeting_tail(P, (x, y), 30) for x in range(P.n)])
        point = np.zeros(P.n)
        point[y] = 1.0
        tv = np.array([0.5 * np.abs(pi - law).sum() for law in islice(orbit(point, P.entries), 31)])
        assert (tail >= tv - 1e-12).all()
        assert abs(tail[0] - (1.0 - pi[y])) <= 1e-15


class TestStickingPreservesLaw:
    def test_chi_square_path_law(self):
        # Z-path law must match the Y-path law; chi-square on all paths of
        # length k+1 over a well-conditioned 3-state chain
        rng = np.random.default_rng(12)
        a = rng.random((3, 3)) + 0.7
        P = from_array(a / a.sum(axis=1, keepdims=True))
        k = 3
        trials = 60_000
        max_steps = 60
        sampler = _Sampler(P.entries)
        x0, y0 = 2, 0
        # the sampler moves row offsets, s * stride
        x = np.full(trials, x0 * sampler.stride)
        y = np.full(trials, y0 * sampler.stride)
        xs = [x // sampler.stride]
        ys = [y // sampler.stride]
        for _ in range(max_steps):
            sampler.step(x, rng)
            sampler.step(y, rng)
            xs.append(x // sampler.stride)
            ys.append(y // sampler.stride)
        X = np.array(xs).T
        Y = np.array(ys).T
        met = X == Y
        assert met.any(axis=1).all(), "some pair never met within max_steps"
        tau = met.argmax(axis=1)
        Z = np.where(np.arange(max_steps + 1)[None, :] <= tau[:, None], Y, X)

        # exact Y-path probabilities: point mass at y0 pushed through P
        codes = np.zeros(trials, dtype=np.int64)
        for t in range(k + 1):
            codes = codes * 3 + Z[:, t]
        counts = np.bincount(codes, minlength=3 ** (k + 1))
        probs = np.zeros(3 ** (k + 1))
        for code in range(3 ** (k + 1)):
            digits = []
            c = code
            for _ in range(k + 1):
                digits.append(c % 3)
                c //= 3
            digits.reverse()
            if digits[0] != y0:
                continue
            p = 1.0
            for a_, b_ in zip(digits, digits[1:]):
                p *= P.entries[a_, b_]
            probs[code] = p
        keep = probs > 0
        assert counts[~keep].sum() == 0
        _, pvalue = stats.chisquare(counts[keep], trials * probs[keep] / probs[keep].sum())
        assert pvalue > 1e-3


# ---------------------------------------------------------------------------
# The full-row sampler that the support table replaced, kept as the oracle:
# on every uniform but the edge ones it draws the same states bit for bit.

def _cumrows(rows: np.ndarray) -> np.ndarray:
    """Each row's cumulative sums over all n columns, the last column set to
    1.0, padded with 1.0 to the power-of-two width w >= n."""
    n = rows.shape[1]
    cum = np.ones((rows.shape[0], 1 << (n - 1).bit_length()))
    np.cumsum(rows, axis=1, out=cum[:, :n])
    cum[:, n - 1] = 1.0
    return cum


def _advance(states: np.ndarray, cum: np.ndarray, rng) -> np.ndarray:
    """The count of columns j with cum[s, j] < u, one uniform per walker, by
    a branchless binary search over the flattened :func:`_cumrows` table."""
    u = rng.random(states.size)
    w = cum.shape[1]
    flat = cum.reshape(-1)
    base = states * w
    pos = base - 1
    step = w >> 1
    while step:
        pos += (flat.take(pos + step) < u) * step
        step >>= 1
    return pos + 1 - base


def _oracle_walk(P, walkers, hit, tau, max_steps: int, rng) -> None:
    """The lockstep walk on :func:`_advance`, over whole arrays: open
    walkers are re-found from tau every step."""
    cum = _cumrows(P.entries)
    for t in range(1, max_steps + 1):
        idx = np.flatnonzero(tau < 0)
        if idx.size == 0:
            break
        for w in walkers:
            w[idx] = _advance(w[idx], cum, rng)
        tau[idx[hit(*(w[idx] for w in walkers))]] = t


class _Uniforms:
    """A stand-in generator that hands out the given uniforms in order."""

    def __init__(self, u):
        self.u = u
        self.taken = 0

    def random(self, size=None, out=None):
        k = size if out is None else out.size
        u = self.u[self.taken : self.taken + k]
        self.taken += k
        if out is None:
            return u.copy()
        out[...] = u
        return out


def _support_draw(a: np.ndarray, states, u) -> list[int]:
    """Per walker, the support columns of its row, their cumulative sums
    with the last set to 1.0, and the column at the count of those below u."""
    out = []
    for s, x in zip(states, u):
        nz = np.flatnonzero(a[s] > 0)
        cum = np.cumsum(a[s])[nz]
        cum[-1] = 1.0
        out.append(int(nz[(cum < x).sum()]))
    return out


def _draw(a: np.ndarray, states, u) -> np.ndarray:
    """The states drawn from ``states`` on uniforms u: the sampler moves row
    offsets, s * stride, so the states convert on the way in and out."""
    sampler = _Sampler(a)
    got = np.array(states, dtype=np.intp) * sampler.stride
    sampler.step(got, _Uniforms(np.asarray(u, dtype=float)))
    return got // sampler.stride


@st.composite
def sampler_cases(draw):
    """A row-stochastic table with zero entries (trailing ones included),
    walker states and a seed; n = 1, a power of two or one past it."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17]))
    weight = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.0, 1.0))
    rows = []
    for _ in range(n):
        row = draw(st.lists(weight, min_size=n, max_size=n))
        if sum(row) == 0.0:
            row[draw(st.integers(0, n - 1))] = 1.0
        rows.append(row)
    a = np.array(rows)
    a /= a.sum(axis=1, keepdims=True)
    walkers = draw(st.integers(1, 40))
    states = np.array(draw(st.lists(st.integers(0, n - 1), min_size=walkers, max_size=walkers)))
    return a, states, draw(st.integers(0, 2**32 - 1))


@st.composite
def dyadic_cases(draw):
    """A table whose entries are multiples of 2^-k, k <= 6, so that every
    cumulative sum is exact and sits on a guide bucket edge (where 2^k is at
    most the bucket count), walker states and a seed."""
    n = draw(st.integers(1, 9))
    units = 1 << draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, units), min_size=n - 1, max_size=n - 1)))
        rows.append(np.diff([0, *cuts, units]) / units)
    states = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    return np.array(rows), np.array(states), draw(st.integers(0, 2**32 - 1))


def _edge_uniforms(m: int) -> np.ndarray:
    """Every guide bucket edge b / m and the float just below each."""
    edges = np.arange(m) / m
    return np.concatenate([edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)]])


def _dense(seed: int, n: int) -> np.ndarray:
    """A dense random n x n stochastic table: U(0, 1) + 0.05 entries, rows
    normalized."""
    a = np.random.default_rng(seed).random((n, n)) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def _tiny_row_table() -> np.ndarray:
    """24 x 24: row 0 holds 23 equal entries of 2.5e-3 and one large one,
    six or seven to a bucket of the 2w = 64 bucket guide; the other rows
    are dense."""
    a = _dense(5, 24)
    a[0] = 2.5e-3
    a[0, 23] = 1.0 - 23 * 2.5e-3
    return a


def _check_draws(a: np.ndarray, states: np.ndarray, seed: int) -> None:
    """Draws from ``states`` match the support count (and, inside each row's
    sum, the full-row count) on random uniforms, ties with the rows' own
    cumulative sums, 0 and the largest uniform below 1 (past a row sum that
    rounds below 1), and, from every state, on every guide bucket edge of
    the sampler's own m and the float just below it."""
    cum = _cumrows(a)
    u = np.random.default_rng(seed).random(states.size)
    tie = cum[states, np.arange(states.size) % a.shape[0]]
    u[1::4] = np.where(tie < 1.0, tie, 0.0)[1::4]
    u[2::4] = 0.0
    u[3::4] = np.nextafter(1.0, 0.0)
    got = _draw(a, states, u)
    assert got.tolist() == _support_draw(a, states, u)
    assert (a[states, got] > 0).all()
    # interior uniforms: above 0 and at most the full-row sum at the row's
    # last support column, where the old sampler stopped on the same column
    last = a.shape[1] - 1 - np.argmax(a[:, ::-1] > 0, axis=1)
    interior = (u > 0) & (u <= cum[states, last[states]])
    old = _advance(states, cum, _Uniforms(u))
    assert got[interior].tolist() == old[interior].tolist()
    u = _edge_uniforms(_Sampler(a).m)
    grid = np.repeat(states, u.size)
    u = np.tile(u, states.size)
    got = _draw(a, grid, u)
    assert got.tolist() == _support_draw(a, grid, u)
    assert (a[grid, got] > 0).all()


class TestSampler:
    def test_crowded_bucket_searches_the_whole_row(self):
        # 15 tiny entries share bucket 0 of row 0, so H = w = 16: the guide
        # cannot narrow the search and the halvings cover the whole row
        row = np.full(16, 1e-12)
        row[-1] = 1.0 - 15e-12
        a = np.vstack([row, np.roll(np.eye(16)[0], 1)])
        sampler = _Sampler(a)
        assert sampler.cum.shape[1] == 16 and len(sampler._halvings) == 4
        # every guide entry sits at its row's first slot, i * w
        assert (sampler.guide == 16 * np.arange(2)[:, None]).all()
        u = np.concatenate(
            [np.cumsum(row)[:15], np.nextafter(np.cumsum(row)[:15], 0.0), [0.0, 0.5]]
        )
        states = np.zeros(u.size, dtype=np.intp)
        got = _draw(a, states, u)
        assert got.tolist() == _support_draw(a, states, u)
        assert sorted(set(got.tolist())) == list(range(16))

    def test_single_support_rows_need_no_halving(self):
        P = gen.cycle(5)
        sampler = _Sampler(P.entries)
        assert sampler.cum.shape == (5, 1) and sampler._halvings == []
        states = np.arange(5).repeat(3)
        got = _draw(P.entries, states, [0.0, 0.5, np.nextafter(1.0, 0.0)] * 5)
        assert got.tolist() == ((states + 1) % 5).tolist()
        assert ek.monte_carlo_return(P, z=2, trials=100, seed=0) == (5.0, 0.0)

    @pytest.mark.parametrize(
        "P, halvings",
        [
            (gen.lazy_hypercube(7), 1), (gen.top_to_random(5), 1), (gen.uniform(64), 1),
            (gen.two_state(0.2, 0.3), 1),
        ],
        ids=["lazy_hypercube7", "top_to_random5", "uniform64", "two_state"],
    )
    def test_halvings_after_the_guide(self, P, halvings):
        # a search of the whole row takes log2(w) = 3, 3, 6 and 1 halvings
        sampler = _Sampler(P.entries)
        assert len(sampler._halvings) == halvings
        if sampler.w == 2:
            # H = w: the guide cannot narrow the search, so every entry
            # sits at its row's first slot, i * w
            assert (sampler.guide == 2 * np.arange(P.n)[:, None]).all()

    @given(st.one_of(sampler_cases(), dyadic_cases()))
    @settings(max_examples=200, deadline=None)
    def test_matches_support_count(self, case):
        _check_draws(*case)

    @pytest.mark.parametrize(
        "a, m", [(_dense(1, 48), 512), (_tiny_row_table(), 512)], ids=["random48", "tiny_row"]
    )
    def test_refined_guide_matches_support_count(self, a, m):
        # from every state, so every row's refined guide entries are read
        sampler = _Sampler(a)
        assert sampler.m == m > 2 * sampler.w and len(sampler._halvings) == 1
        _check_draws(a, np.arange(a.shape[0]), seed=11)

    def test_refinement_takes_dense_48_to_one_halving(self):
        a = _dense(1, 48)
        sampler = _Sampler(a)
        d = (a > 0).sum(axis=1)
        # the 2w = 128 bucket guide leaves H = 4, two halvings
        assert _guide(sampler.cum, d, 2 * sampler.w)[1] == 4
        assert (sampler.w, sampler.m, len(sampler._halvings)) == (64, 512, 1)
        assert sampler.guide.shape == (48, 513) and sampler.stride == 513

    @pytest.mark.parametrize(
        "a",
        [_dense(n, n) for n in (3, 9, 24, 40, 48, 64, 80, 128)]
        + [gen.lazy_hypercube(7).entries, _tiny_row_table()],
        ids=[f"random{n}" for n in (3, 9, 24, 40, 48, 64, 80, 128)]
        + ["lazy_hypercube7", "tiny_row"],
    )
    def test_refined_guide_stays_in_its_budget(self, a):
        # doubling stops at H = 2, at 16w buckets, or before the doubled
        # guide would pass the budget; only an unrefined 2w guide may pass it
        sampler = _Sampler(a)
        rows, w, m = a.shape[0], sampler.w, sampler.m
        assert m == 2 * w or rows * (m + 1) <= _GUIDE_BUDGET
        assert 2 * w <= m <= 16 * w
        if m < 16 * w and rows * (2 * m + 1) <= _GUIDE_BUDGET:
            assert len(sampler._halvings) <= 1


    def test_zero_uniform_skips_a_leading_zero_column(self):
        a = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        assert _draw(a, [0], [0.0]).tolist() == [1]
        # the full-row count stepped to state 0, of probability 0
        assert _advance(np.array([0]), _cumrows(a), _Uniforms(np.zeros(1))).tolist() == [0]

    def test_top_uniform_stays_on_the_support(self):
        # row i moves to any other state with probability 1/7; on row 7 the
        # seven sevenths add up to 1 - 2^-52, below the largest uniform
        a = (1.0 - np.eye(8)) / 7.0
        states = np.arange(8)
        u = np.full(8, np.nextafter(1.0, 0.0))
        got = _draw(a, states, u)
        assert (a[states, got] > 0).all()
        # the full-row count ran on past the row sum to the last column:
        # from state 7 to state 7, of probability 0
        old = _advance(states, _cumrows(a), _Uniforms(u))
        assert old.tolist() == [7, 7, 7, 7, 7, 7, 7, 7]
        assert a[7, 7] == 0.0

    def test_table_width_is_the_largest_support(self):
        sampler = _Sampler(gen.lazy_hypercube(7).entries)
        assert sampler.cum.shape == sampler.cols.shape == (128, 8)

    def test_start_draw_table_is_one_row(self):
        pi = ek.Distribution(ek.StateSpace(("a", "b", "c")), [0.2, 0.0, 0.8])
        sampler = _Sampler(pi.probs[None, :])
        assert sampler.cum.tolist() == [[0.2, 1.0]]
        assert (sampler.cols // sampler.stride).tolist() == [[0, 2]]


def _hits_in_every_chunk(tau: np.ndarray, steps: int) -> bool:
    """Whether, at some step t = 0..steps, the open set spans more than two
    chunks and each of its chunks, in walker order, has a walker that hits
    at t: a compaction then moves kept walkers of every chunk, in every
    copy, across chunk edges."""
    for t in range(steps + 1):
        open_tau = tau[(tau < 0) | (tau >= t)]
        if open_tau.size <= 2 * _CHUNK:
            return False
        hits = open_tau == t
        if all(hits[lo : lo + _CHUNK].any() for lo in range(0, hits.size, _CHUNK)):
            return True
    return False


@pytest.mark.parametrize(
    "trials", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 3 * _CHUNK - 5]
)
class TestChunkBoundaries:
    """Walks whose open set spans one chunk, exactly one, one past it, two
    and a bit and nearly three draw what the whole-array oracle walk draws;
    on nearly three chunks, the two-copy walks compact with hits in every
    chunk."""

    P = gen.lazy_hypercube(3)

    def test_simulate_coupling(self, trials):
        x = np.full(trials, 0)
        y = np.full(trials, 7)
        tau = np.full(trials, -1)
        _oracle_walk(self.P, (x, y), np.equal, tau, 40, np.random.default_rng(3))
        trace = ek.simulate_coupling(self.P, (0, 7), trials=trials, max_steps=40, seed=3)
        assert trace.tau_samples.tolist() == tau[tau >= 0].tolist()
        assert trace.truncated == int((tau < 0).sum())
        if trials > 2 * _CHUNK + 3:
            assert _hits_in_every_chunk(tau, 40)

    def test_verify_coupling_lemma(self, trials):
        pi = ek.stationary_linear(self.P).pi
        rng = np.random.default_rng(4)
        x = _advance(np.zeros(trials, dtype=np.intp), _cumrows(pi.probs[None, :]), rng)
        y = np.full(trials, 7)
        tau = np.where(x == y, 0, -1)
        _oracle_walk(self.P, (x, y), np.equal, tau, 12, rng)
        if trials > 2 * _CHUNK + 3:
            assert _hits_in_every_chunk(tau, 12)
        tau[tau < 0] = 13
        rep = ek.verify_coupling_lemma(self.P, pi, start_y=7, horizon=12, trials=trials, seed=4)
        assert [r.tail for r in rep.rows] == [(tau > i).sum() / trials for i in range(13)]

    def test_monte_carlo_return(self, trials):
        times = np.full(trials, -1)
        _oracle_walk(
            self.P, (np.full(trials, 2),), lambda s: s == 2, times, 10_000,
            np.random.default_rng(5),
        )
        mean = float(times.mean())
        se = float(times.std(ddof=1) / np.sqrt(trials))
        assert ek.monte_carlo_return(self.P, z=2, trials=trials, seed=5) == (mean, se)


class TestCompact:
    """_compact against whole-array gathers, in place over one to three
    copies, with hits in every chunk (one in 50 of them or three in 10) or
    in one chunk only."""

    @pytest.mark.parametrize("copies", [1, 2, 3])
    @pytest.mark.parametrize("k", [5, _CHUNK, 2 * _CHUNK + 1000])
    @pytest.mark.parametrize(
        "where, rate",
        [("every_chunk", 0.02), ("every_chunk", 0.3), ("first_chunk", 0.3), ("last_chunk", 0.3)],
    )
    def test_matches_whole_array_gathers(self, copies, k, where, rate):
        rng = np.random.default_rng([copies, k])
        walkers = k + 10  # closed walkers sit among the open ones
        idx = np.sort(rng.choice(walkers, size=k, replace=False)).astype(np.int32)
        flat = rng.integers(0, 1 << 40, size=copies * k)
        met = np.zeros(k, dtype=bool)
        last = (k - 1) // _CHUNK * _CHUNK
        span = {"every_chunk": slice(None), "first_chunk": slice(0, _CHUNK),
                "last_chunk": slice(last, None)}[where]
        met[span] = rng.random(met[span].size) < rate
        met[span][[0, -1]] = True
        keep = ~met
        blocks = flat.reshape(copies, k)[:, keep].reshape(-1)
        tau = np.full(walkers, -1)
        want_tau = tau.copy()
        want_tau[idx[met]] = 7
        kept = _compact(flat, copies, met.copy(), idx.copy(), tau, 7)
        assert kept.tolist() == idx[keep].tolist()
        assert flat[: copies * kept.size].tolist() == blocks.tolist()
        assert tau.tolist() == want_tau.tolist()


class TestOneStepCall:
    def test_one_sampler_call_per_step(self, monkeypatch):
        # antipodal on the 7-cube: each copy flips at most one bit a step, so
        # the seven differing bits cannot all clear in under 4 steps
        calls = []
        step = _Sampler.step

        def spy(self, states, rng):
            calls.append(states.size)
            step(self, states, rng)

        monkeypatch.setattr(_Sampler, "step", spy)
        trace = ek.simulate_coupling(
            gen.lazy_hypercube(7), (0, 127), trials=50, max_steps=3
        )
        assert trace.truncated == 50
        assert calls == [100] * 3


class TestScratchSize:
    P = gen.lazy_hypercube(7)

    def test_build_peak_is_one_guide_sized_temporary(self):
        a = np.random.default_rng(0).random((80, 80)) + 0.05
        a /= a.sum(axis=1, keepdims=True)
        _Sampler(a)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sampler = _Sampler(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = sum(x.nbytes for x in vars(sampler).values() if isinstance(x, np.ndarray))
        n, m = 80, sampler.m
        assert m == 256
        assert peak - before <= own + n * m * np.dtype(np.intp).itemsize

    def test_refined_build_peak_is_one_guide_sized_temporary(self):
        # a refinement drops each coarser guide before it builds the next
        a = _dense(1, 48)
        _Sampler(a)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sampler = _Sampler(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = sum(x.nbytes for x in vars(sampler).values() if isinstance(x, np.ndarray))
        n, m = 48, sampler.m
        assert m == 512
        assert peak - before <= own + n * (m + 1) * np.dtype(np.intp).itemsize

    def test_step_allocates_nothing_per_walker(self):
        sampler = _Sampler(self.P.entries)
        states = np.full(200_000, 5 * sampler.stride)  # state 5's row offset
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            sampler.step(states, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 array of the walkers alone would take 1.6 MB
        assert peak - before < 1 << 14

    def test_walk_peak_is_tau_indices_and_hit_mask(self):
        # above its states, a two-copy walk holds tau (int64), the open
        # walkers' indices (int32) and the hit mask, 13 bytes a walker; and
        # beside them the sampler's table and chunk scratch, two chunks of
        # compaction temporaries (a chunk's kept positions and one copy's
        # kept entries in it) and 8 KiB for Python objects
        walkers = 200_000
        states = np.empty((2, walkers), dtype=np.intp)
        states[0], states[1] = 0, 127  # antipodal: the first hits come at t = 4
        _walk_until(self.P, states.copy(), 2, np.random.default_rng(0))
        sampler = _Sampler(self.P.entries)
        fixed = sum(a.nbytes for a in vars(sampler).values() if isinstance(a, np.ndarray))
        chunk = _CHUNK * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tau = _walk_until(self.P, states, 30, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _hits_in_every_chunk(tau, 30)  # compactions ran over every chunk
        assert peak - before <= walkers * (8 + 4 + 1) + fixed + 2 * chunk + (1 << 13)

    def test_lemma_peak_is_the_walks_own_arrays(self):
        pi = ek.stationary_linear(self.P).pi
        ek.verify_coupling_lemma(self.P, pi, start_y=0, horizon=2, trials=10, seed=0)
        trials = 200_000
        state = np.dtype(np.intp).itemsize
        # per walker: the two start arrays, tau, the open indices (int32)
        # and the hit mask
        per_walker = 2 * state + 8 + 4 + 1
        # beside them: the sampler's table and chunk scratch, two chunks of
        # compaction temporaries and 64 KiB for the report's Python objects
        sampler = _Sampler(self.P.entries)
        fixed = sum(a.nbytes for a in vars(sampler).values() if isinstance(a, np.ndarray))
        fixed += 2 * _CHUNK * state
        tracemalloc.start()
        try:
            ek.verify_coupling_lemma(self.P, pi, start_y=0, horizon=30, trials=trials, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= trials * per_walker + fixed + (1 << 16)

    def test_lemma_keeps_no_law_per_step(self):
        # each step's law is dropped once its TV is taken, so the peak grows
        # with the horizon by a report row per step, not by n floats
        pi = ek.stationary_linear(self.P).pi
        tracemalloc.start()
        try:
            ek.verify_coupling_lemma(
                self.P, pi, start_y=0, horizon=ek.coupling.MAX_HORIZON, trials=1000, seed=0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # 10,001 laws of 128 floats alone would be 9.8 MiB


#: Outputs recorded before the O(log n) sampler replaced the full-row count:
#: meeting times (sha256 of the int64 samples, and their sum), coupling-lemma
#: tail counts and return-time (mean, s.e.). The draws must not move a bit.
PINNED = {
    "top_to_random_3": (
        gen.top_to_random(3),
        "1fb406a349db8225ee3667daddaaee26173c1b82776011939e49c7f3a35e5c72", 25071,
        [2555, 2197, 1917, 1655, 1436, 1241, 1076, 942, 816, 701, 607, 518, 452],
        (6.097, 0.12793048095824658),
    ),
    "lazy_hypercube_3": (
        gen.lazy_hypercube(3),
        "4eca96d1c83246599f08e6fc3cde23ec84cdff0af19498b4519c87095658baa7", 37518,
        [2668, 2403, 2187, 1946, 1774, 1627, 1470, 1334, 1222, 1125, 1026, 948, 847],
        (7.411, 0.22369034875032348),
    ),
}


class TestSeededParity:
    @pytest.mark.parametrize("name", list(PINNED))
    def test_outputs_unchanged(self, name):
        P, tau_sha, tau_sum, tails, mc = PINNED[name]
        trials = 3000
        trace = ek.simulate_coupling(P, (0, P.n - 1), trials=trials, seed=7)
        taus = np.ascontiguousarray(trace.tau_samples, dtype=np.int64)
        assert trace.truncated == 0
        assert int(taus.sum()) == tau_sum
        assert hashlib.sha256(taus.tobytes()).hexdigest() == tau_sha
        pi = ek.stationary_linear(P).pi
        lemma = ek.verify_coupling_lemma(P, pi, start_y=P.n - 1, horizon=12, trials=trials, seed=8)
        assert [round(r.tail * trials) for r in lemma.rows] == tails
        assert ek.monte_carlo_return(P, z=1, trials=trials, seed=9) == mc
