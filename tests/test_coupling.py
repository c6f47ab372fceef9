import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ergokit as ek
from ergokit import generators as gen
from ergokit.chain import _cumrows, _advance
from ergokit.coupling import exact_meeting_tail
from ergokit.errors import (
    ArgumentRangeError,
    MarginalMismatchError,
    NeverMetError,
    NotErgodicError,
)

from conftest import from_array, random_ergodic, random_irreducible, random_positive


class TestProductChain:
    def test_uniform_product_is_uniform(self):
        pc = ek.build_product_chain(gen.uniform(2))
        assert np.allclose(pc.product_matrix.entries, 0.25)

    def test_spot_entry(self, two_state_chain):
        pc = ek.build_product_chain(two_state_chain)
        # Q((0,1),(0,0)) = P(0,0) * P(1,0) = 0.8 * 0.3
        assert pc.product_matrix.entries[pc.flat(0, 1), pc.flat(0, 0)] == pytest.approx(
            0.24
        )

    def test_flip_product_reducible(self, flip_chain):
        pc = ek.build_product_chain(flip_chain)
        ok, sccs = ek.structure.is_irreducible(ek.build_graph(pc.product_matrix))
        assert not ok
        assert len(sccs) == 2  # diagonal pairs never meet off-diagonal ones

    @pytest.mark.parametrize("seed", range(6))
    def test_faithfulness_marginals(self, seed):
        rng = np.random.default_rng(seed)
        P = random_positive(rng, int(rng.integers(2, 5)))
        pc = ek.build_product_chain(P)
        n = P.n
        Q = pc.product_matrix.entries.reshape(n * n, n, n)
        for i in range(n):
            for k in range(n):
                s = i * n + k
                assert np.abs(Q[s].sum(axis=1) - P.entries[i]).max() < 1e-12
                assert np.abs(Q[s].sum(axis=0) - P.entries[k]).max() < 1e-12

    def test_unfaithful_marginals_typed_error(self):
        # the raw constructor trusts its input: row 0 sums to 1.1
        P = ek.StochasticMatrix(ek.StateSpace(("a", "b")), np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(MarginalMismatchError):
            ek.build_product_chain(P)

    @pytest.mark.parametrize("seed", range(4))
    def test_product_stationary_is_outer_product(self, seed):
        rng = np.random.default_rng(10 + seed)
        P = random_positive(rng, 3)
        pi = ek.stationary_linear(P).pi.probs
        pp = np.outer(pi, pi).ravel()
        Q = ek.build_product_chain(P).product_matrix.entries
        assert np.abs(pp @ Q - pp).max() < 1e-12


class TestProductErgodicity:
    def test_ergodic_base(self, two_state_chain):
        assert ek.product_ergodicity(two_state_chain) is True

    def test_flip(self, flip_chain):
        assert ek.product_ergodicity(flip_chain) is False

    def test_identity(self, identity3):
        assert ek.product_ergodicity(identity3) is False

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_base_ergodicity(self, seed):
        # the coupling routines gate on P's own verdict; this keeps the
        # product-chain lemma they rely on checked
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
            assert ek.product_ergodicity(P) == ek.analyze(P).ergodic
        assert [ek.analyze(P).ergodic for P in chains][3:] == [False] * 3


class TestSimulateCoupling:
    def test_already_coupled(self, two_state_chain):
        trace = ek.simulate_coupling(
            two_state_chain, start=(1, 1), trials=50, seed=0
        )
        assert (trace.tau_samples == 0).all()

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

    def test_meet_at_state_mode(self, two_state_chain):
        trace = ek.simulate_coupling(
            two_state_chain,
            start=(0, 1),
            mode=("meet_at_state", 0),
            trials=2000,
            seed=5,
        )
        assert trace.truncated == 0
        assert (trace.tau_samples >= 1).all()

    def test_tail_non_increasing(self, two_state_chain):
        trace = ek.simulate_coupling(
            two_state_chain, start=(0, 1), trials=20_000, seed=6
        )
        tails = [trace.tail(i) for i in range(15)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_matches_exact_absorbing_tail(self, two_state_chain):
        trials = 100_000
        trace = ek.simulate_coupling(
            two_state_chain, start=(0, 1), trials=trials, seed=7
        )
        exact = exact_meeting_tail(two_state_chain, (0, 1), horizon=10)
        for i in range(11):
            t = trace.tail(i)
            se = np.sqrt(max(t * (1 - t), 1e-9) / trials)
            assert abs(t - exact[i]) <= 4 * se


class TestStick:
    def test_equal_paths(self):
        z = ek.stick([0, 1, 0], [0, 1, 0])
        assert z == [0, 1, 0]

    def test_definitional_splice(self):
        assert ek.stick([0, 1, 1, 0], [1, 1, 0, 1]) == [1, 1, 1, 0]

    def test_never_met(self):
        with pytest.raises(NeverMetError):
            ek.stick([0, 0], [1, 1])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_now_equals_forever(self, data):
        length = data.draw(st.integers(2, 12))
        x = data.draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
        y = data.draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
        met = [i for i in range(length) if x[i] == y[i]]
        if not met:
            with pytest.raises(NeverMetError):
                ek.stick(x, y)
            return
        tau = met[0]
        z = ek.stick(x, y)
        assert z[: tau + 1] == y[: tau + 1]
        assert z[tau:] == x[tau:]


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

    def test_worst_slack_is_the_closest_step(self, two_state_chain):
        pi = ek.stationary_linear(two_state_chain).pi
        rep = ek.verify_coupling_lemma(
            two_state_chain, pi, start_y=1, horizon=10, trials=5000, seed=12
        )
        slacks = [r.tail + 3.0 * r.tail_se - r.exact_tv for r in rep.rows]
        assert rep.worst_slack == min(slacks)
        assert rep.passed == (rep.worst_slack >= 0.0)


class TestConvergenceByCoupling:
    def test_uniform_immediate(self):
        curve = ek.convergence_by_coupling(gen.uniform(3), horizon=3)
        assert curve.discrepancies[0] == 0.0

    def test_two_state_geometric(self, two_state_chain):
        curve = ek.convergence_by_coupling(two_state_chain, horizon=20)
        # discrepancy at n is exactly 0.5^n for this chain (eigenvalue 0.5)
        for n, d in enumerate(curve.discrepancies, start=1):
            assert d == pytest.approx(0.5**n, rel=1e-9)
        assert curve.monotone and curve.vanishing

    def test_flip_not_ergodic(self, flip_chain):
        with pytest.raises(NotErgodicError):
            ek.convergence_by_coupling(flip_chain)

    def test_dominated_by_simulated_tail(self, two_state_chain):
        curve = ek.convergence_by_coupling(two_state_chain, horizon=10)
        trials = 50_000
        worst = (0, 1)
        trace = ek.simulate_coupling(
            two_state_chain, start=worst, trials=trials, max_steps=400, seed=11
        )
        for n in range(1, 11):
            tail = trace.tail(n)
            se = np.sqrt((tail * (1 - tail) + 1e-9) / trials)
            assert curve.discrepancies[n - 1] <= tail + 4 * se


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
            lambda P, pi: ek.monte_carlo_return(P, z=0, trials=10, seed=0, max_steps=0),
        ],
        ids=[
            "start", "target", "trials", "lemma_start", "anchor", "return_trials",
            "lemma_horizon", "max_steps", "return_max_steps",
        ],
    )
    def test_rejected_before_any_step(self, two_state_chain, call):
        pi = ek.stationary_linear(two_state_chain).pi
        with pytest.raises(ArgumentRangeError):
            call(two_state_chain, pi)


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
        cum = _cumrows(P)
        x0, y0 = 2, 0
        x = np.full(trials, x0)
        y = np.full(trials, y0)
        xs = [x.copy()]
        ys = [y.copy()]
        for _ in range(max_steps):
            x = _advance(x, cum, rng)
            y = _advance(y, cum, rng)
            xs.append(x.copy())
            ys.append(y.copy())
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


class _Uniforms:
    """A stand-in generator that hands out the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return self.u[:size]


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


class TestSampler:
    @given(sampler_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_row_count(self, case):
        a, states, seed = case
        P = ek.StochasticMatrix(ek.StateSpace(tuple(map(str, range(a.shape[0])))), a)
        cum = np.cumsum(a, axis=1)
        cum[:, -1] = 1.0
        # random uniforms, then the edges: ties with a row's own cumulative
        # sums, 0, and the largest uniform below 1 (past a row sum that
        # rounds below 1), where the search must stop where the count does
        u = np.random.default_rng(seed).random(states.size)
        tie = cum[states, np.arange(states.size) % a.shape[0]]
        u[1::4] = np.where(tie < 1.0, tie, 0.0)[1::4]
        u[2::4] = 0.0
        u[3::4] = np.nextafter(1.0, 0.0)
        got = _advance(states, _cumrows(P), _Uniforms(u))
        assert got.tolist() == (cum[states] < u[:, None]).sum(axis=1).tolist()

    def test_start_draw_table_is_one_row(self):
        pi = ek.Distribution(ek.StateSpace(("a", "b", "c")), [0.2, 0.0, 0.8])
        cum = _cumrows(pi)
        assert cum.shape == (1, 4)
        assert cum.tolist() == [[0.2, 0.2, 1.0, 1.0]]


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
