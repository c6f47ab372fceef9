import itertools

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit import stationary as st
from ergokit.errors import (
    BalanceViolationError,
    MaxIterExceededError,
    NoConvergenceError,
    NotIrreducibleError,
    SingularSystemError,
    TooLargeError,
)
from ergokit.stationary import check_balance

from conftest import from_array, random_irreducible, return_time_table


def tree_rows(P, root):
    """The trees rooted at `root` as ``stationary._tree_table`` lists them:
    (parent function as a tuple, f[root] = root; weight) per tree."""
    F, weights = st._tree_table(P, root)
    return [(tuple(f), w) for f, w in zip(F.tolist(), weights.tolist())]


def walk_arborescences(P, root):
    """The trees rooted at `root` by walking every candidate parent function
    in itertools.product order, in the form of :func:`tree_rows`: the oracle
    for the array enumeration."""
    others = [y for y in range(P.n) if y != root]
    choices = [
        [int(j) for j in np.flatnonzero(P.entries[y] > 0.0) if j != y]
        for y in others
    ]
    out = []
    for combo in itertools.product(*choices):
        f = dict(zip(others, combo))
        ok = True
        for y in others:
            seen = set()
            v = y
            while v != root:
                if v in seen:
                    ok = False
                    break
                seen.add(v)
                v = f[v]
            if not ok:
                break
        if ok:
            w = float(np.prod([P.entries[y, f[y]] for y in others])) if others else 1.0
            out.append((tuple(f.get(y, root) for y in range(P.n)), w))
    return out


def seeded_tree_chain(n, density):
    """A seeded chain on n states: random edges at the given density plus
    the cycle 0 -> 1 -> ... -> 0, which keeps it irreducible."""
    rng = np.random.default_rng([n, int(density * 10)])
    a = rng.random((n, n)) * (rng.random((n, n)) < density)
    a[np.arange(n), (np.arange(n) + 1) % n] += 0.1
    return from_array(a / a.sum(axis=1, keepdims=True))


def determinant_minors(P):
    """One det per root of I - P with that row and column deleted: the
    oracle for the rank-2 updates of one inverse."""
    L = np.eye(P.n) - P.entries
    keep = np.arange(P.n)
    return np.array(
        [np.linalg.det(L[np.ix_(keep[keep != x], keep[keep != x])]) for x in range(P.n)]
    )


def return_time_loop(P):
    """One taboo solve per anchor: the oracle for the Woodbury return times."""
    return np.array([return_time_table(P, x).expected_return for x in range(P.n)])


def seeded_irreducible(seed):
    rng = np.random.default_rng(seed)
    return random_irreducible(rng, int(rng.integers(2, 8)))


#: The seeds of TestTreeStationary and TestReturnTimes, a stiff chain and a
#: 32-state one: (name, chain builder).
ROUTE_CORPUS = {
    **{
        f"seed{s}": (lambda s=s: seeded_irreducible(s))
        for s in (*range(1100, 1112), *range(1300, 1308))
    },
    "two_state_stiff": lambda: gen.two_state(1e-6, 2e-6),
    "lazy_hypercube5": lambda: gen.lazy_hypercube(5),
}

#: numpy.linalg routines that factorise (or otherwise take O(n^3) on) a matrix.
FACTORISATIONS = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd",
)


def count_factorisations(monkeypatch):
    calls = []
    for name in FACTORISATIONS:
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def corrupt_inverse(monkeypatch, P, without):
    """Perturb np.linalg.inv's answer for (I - P) without state `without`
    only, leaving every other inverse exact."""
    keep = np.arange(P.n) != without
    target = (np.eye(P.n) - P.entries)[np.ix_(keep, keep)]
    inv = np.linalg.inv

    def corrupted(a):
        G = inv(a)
        if a.shape == target.shape and np.array_equal(a, target):
            G[1] *= 1.01
        return G

    monkeypatch.setattr(np.linalg, "inv", corrupted)


TREE_CORPUS = {
    **{
        f"n{n}_{kind}": (lambda n=n, d=d: seeded_tree_chain(n, d))
        for n in range(1, 9)
        for kind, d in (("sparse", 0.3), ("dense", 0.6))
    },
    "cycle3": lambda: gen.cycle(3),
    "lazy_hypercube2": lambda: gen.lazy_hypercube(2),
    "lazy_hypercube3": lambda: gen.lazy_hypercube(3),
    "two_state": lambda: gen.two_state(0.2, 0.3),
}


class TestLinearSolve:
    def test_flip_periodic_has_stationary(self, flip_chain):
        res = ek.stationary_linear(flip_chain)
        assert np.allclose(res.pi.probs, [0.5, 0.5])

    def test_two_state_closed_form(self, two_state_chain):
        res = ek.stationary_linear(two_state_chain)
        assert np.abs(res.pi.probs - [0.6, 0.4]).max() < 1e-14
        assert res.residual < 1e-14

    def test_identity_not_irreducible(self, identity3):
        with pytest.raises(NotIrreducibleError):
            ek.stationary_linear(identity3)

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_is_n_minus_one(self, seed):
        rng = np.random.default_rng(seed)
        P = random_irreducible(rng, int(rng.integers(2, 8)))
        res = ek.stationary_linear(P)
        assert res.evidence["rank"] == P.n - 1
        assert res.pi.probs.min() > 0.0  # full support

    def test_memoized_per_matrix(self, two_state_chain):
        res = ek.stationary_linear(two_state_chain)
        assert ek.stationary_linear(two_state_chain) is res
        assert ek.stationary_linear(gen.two_state(0.2, 0.3)) is not res

    def test_memoized_result_is_read_only(self, two_state_chain):
        res = ek.stationary_linear(two_state_chain)
        with pytest.raises(TypeError):
            res.evidence["rank"] = 0
        with pytest.raises(ValueError):
            res.pi.probs[0] = 1.0
        assert ek.stationary_linear(two_state_chain).evidence == {"rank": 1}
        assert np.abs(res.pi.probs - [0.6, 0.4]).max() < 1e-14

    def test_source_array_changes_do_not_reach_the_memo(self):
        a = np.array([[0.8, 0.2], [0.3, 0.7]])
        P = ek.StochasticMatrix(ek.StateSpace(("s0", "s1")), a[:])
        res = ek.stationary_linear(P)
        a[:] = [[0.5, 0.5], [0.5, 0.5]]
        assert ek.stationary_linear(P) is res
        fresh = ek.stationary_linear(gen.two_state(0.2, 0.3))
        assert np.array_equal(res.pi.probs, fresh.pi.probs)

    def test_caller_evidence_is_copied(self):
        evidence = {"rank": 1}
        res = st.StationaryResult(
            pi=ek.Distribution(ek.StateSpace(("a", "b")), np.full(2, 1 / 2)), method="linear_solve",
            residual=0.0, evidence=evidence,
        )
        evidence["rank"] = 5
        assert res.evidence == {"rank": 1}


class TestArborescences:
    """Hand-counted rows of the tree table the tree_enumeration route reads."""

    def test_two_state_single_tree(self, two_state_chain):
        assert tree_rows(two_state_chain, 0) == [((0, 0), 0.3)]  # 1 -> 0, weight q

    def test_cycle_single_tree(self):
        assert tree_rows(gen.cycle(3), 0) == [((0, 2, 0), 1.0)]  # 1 -> 2 -> 0

    def test_complete_three_state_count(self):
        assert len(tree_rows(gen.uniform(3), 1)) == 3  # rooted spanning trees of K3

    def test_too_large(self):
        with pytest.raises(TooLargeError, match="n = 9 exceeds enumeration cap 8"):
            ek.stationary_by_trees(gen.uniform(9), mode="enumeration")

    def test_tree_shape_invariants(self):
        rng = np.random.default_rng(42)
        P = random_irreducible(rng, 5)
        for root in range(5):
            for f, w in tree_rows(P, root):
                assert f[root] == root
                assert w > 0.0
                for y in range(5):
                    v, seen = y, set()
                    while v != root:
                        assert v not in seen
                        seen.add(v)
                        v = f[v]


class TestTreeTable:
    @pytest.mark.parametrize("name", TREE_CORPUS)
    def test_matches_the_walk_bit_for_bit(self, name):
        P = TREE_CORPUS[name]()
        walks = [walk_arborescences(P, root) for root in range(P.n)]
        for root, walk in enumerate(walks):
            assert tree_rows(P, root) == walk
        gammas = np.array([sum(w for _, w in walk) for walk in walks])
        res = ek.stationary_by_trees(P, mode="enumeration")
        assert res.evidence["gamma"] == gammas.tolist()
        assert res.evidence["arborescence_counts"] == [len(walk) for walk in walks]
        pi = ek.Distribution(P.space, gammas / gammas.sum())
        assert res.pi.probs.tolist() == pi.probs.tolist()

    def test_complete_seven_state_count(self):
        # Cayley: 7^5 trees toward each root of K7, 7^6 in all
        res = ek.stationary_by_trees(gen.uniform(7), mode="enumeration")
        assert res.evidence["arborescence_counts"] == [7**5] * 7
        assert sum(res.evidence["arborescence_counts"]) == 117_649


class TestZeroTreeWeights:
    def test_determinant_weights_round_to_zero(self):
        # 1 - (1 - 1e-300) rounds to 0, so every minor of I - P is 0
        P = gen.two_state(1e-300, 1e-300)
        with pytest.raises(SingularSystemError, match="tree_determinant"):
            ek.stationary_by_trees(P, mode="determinant")
        assert ek.stationary_by_trees(P, mode="enumeration").pi.probs.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("mode", ["enumeration", "determinant"])
    def test_tree_weights_underflow(self, mode):
        # each tree weight is a product of two entries of 1e-200
        a = np.full((3, 3), 1e-200)
        np.fill_diagonal(a, 1.0 - 2e-200)
        with pytest.raises(SingularSystemError, match=f"tree_{mode}: tree weights sum to 0.0"):
            ek.stationary_by_trees(from_array(a), mode=mode)


class TestOneInversePerRoute:
    @pytest.mark.parametrize("name", ROUTE_CORPUS)
    def test_tree_weights_match_the_determinant_loop(self, name):
        P = ROUTE_CORPUS[name]()
        ref = determinant_minors(P)
        gammas = np.array(ek.stationary_by_trees(P, "determinant").evidence["gamma"])
        assert np.abs(gammas - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ROUTE_CORPUS)
    def test_return_times_match_the_solve_loop(self, name):
        P = ROUTE_CORPUS[name]()
        ref = return_time_loop(P)
        res = ek.stationary_by_return_time(P)
        ert = np.array(res.evidence["expected_returns_per_state"])
        assert np.abs(ert / ref - 1.0).max() <= 1e-10
        table = return_time_table(P, 0)
        visits = np.array(res.evidence["visit_counts"])
        assert np.abs(visits / table.visit_counts - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("without, moved", [(0, "return_time"), (7, "trees")])
    def test_routes_share_no_factorisation(self, monkeypatch, without, moved):
        # a wrong inverse moves its own route off linear_solve, not the other
        P = seeded_tree_chain(8, 0.3)
        ref = ek.stationary_linear(P).pi.probs
        corrupt_inverse(monkeypatch, P, without)
        gammas = st._gamma_determinant(P)
        visits, ert = st._return_times(P)
        off = {
            "trees": np.abs(gammas / gammas.sum() - ref).max(),
            "return_time": max(np.abs(visits / ert[0] - ref).max(), np.abs(1.0 / ert - ref).max()),
        }
        assert off[moved] > 1e-4
        assert all(err < 1e-12 for route, err in off.items() if route != moved)
        exact = {"trees": ek.stationary_by_return_time, "return_time": ek.stationary_by_trees}
        assert np.abs(exact[moved](P).pi.probs - ref).max() < 1e-12
        caught = {"trees": ek.stationary_by_trees, "return_time": ek.stationary_by_return_time}
        with pytest.raises(BalanceViolationError):
            caught[moved](P)

    @pytest.mark.parametrize(
        "route",
        [lambda P: ek.stationary_by_trees(P, "determinant"), ek.stationary_by_return_time],
        ids=["tree_determinant", "return_time"],
    )
    def test_factorisations_do_not_grow_with_n(self, monkeypatch, route):
        calls = count_factorisations(monkeypatch)
        counts = []
        for n in (8, 64):
            calls.clear()
            route(seeded_tree_chain(n, 0.3))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    def test_singular_anchor_minor_is_typed(self):
        # the cycle 0 -> 2 -> 1 -> 0, where 1 - (1 - 1e-300) rounds to 0 for
        # states 0 and 1: I - P without state 2, and without state 0, has a
        # zero row in floating point
        P = from_array(
            [[1.0 - 1e-300, 0.0, 1e-300], [1e-300, 1.0 - 1e-300, 0.0], [0.5, 0.25, 0.25]]
        )
        with pytest.raises(SingularSystemError, match="tree_determinant: I - P without state 2"):
            ek.stationary_by_trees(P, "determinant")
        with pytest.raises(SingularSystemError, match="return_time: I - P without state 0"):
            ek.stationary_by_return_time(P)


class TestNaNFailsTheGates:
    def test_balance_rejects_nan_weights(self):
        P = gen.uniform(4)
        with pytest.raises(BalanceViolationError, match="nan"):
            check_balance(P, np.array([1.0, np.nan, 1.0, 1.0]))

    def test_kac_rejects_nan_return_times(self, monkeypatch):
        inv = np.linalg.inv

        def nan_entry(a):
            G = inv(a)
            G[-1, -1] = np.nan
            return G

        monkeypatch.setattr(np.linalg, "inv", nan_entry)
        with pytest.raises(BalanceViolationError, match="nan"):
            ek.stationary_by_return_time(gen.lazy_hypercube(3))


class TestTreeStationary:
    def test_two_state_gamma(self, two_state_chain):
        res = ek.stationary_by_trees(two_state_chain, mode="enumeration")
        assert res.evidence["gamma"] == pytest.approx([0.3, 0.2])  # (q, p)
        assert np.allclose(res.pi.probs, [0.6, 0.4])

    def test_cycle_uniform(self):
        res = ek.stationary_by_trees(gen.cycle(3), mode="determinant")
        assert np.allclose(res.pi.probs, 1.0 / 3)

    def test_identity_not_irreducible(self, identity3):
        with pytest.raises(NotIrreducibleError):
            ek.stationary_by_trees(identity3)

    @pytest.mark.parametrize("seed", range(12))
    def test_determinant_matches_enumeration(self, seed):
        rng = np.random.default_rng(1100 + seed)
        P = random_irreducible(rng, int(rng.integers(2, 8)))
        a = ek.stationary_by_trees(P, mode="enumeration")
        b = ek.stationary_by_trees(P, mode="determinant")
        ga = np.array(a.evidence["gamma"])
        gb = np.array(b.evidence["gamma"])
        assert np.abs(ga - gb).max() <= 1e-10 * np.abs(ga).max()

    @pytest.mark.parametrize("seed", range(8))
    def test_balance_condition_raw_gamma(self, seed):
        rng = np.random.default_rng(1200 + seed)
        P = random_irreducible(rng, int(rng.integers(2, 8)))
        res = ek.stationary_by_trees(P, mode="determinant")
        worst = check_balance(P, np.array(res.evidence["gamma"]))
        assert worst <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_balance_matches_loop_reference(self, monkeypatch, seed):
        rng = np.random.default_rng(1250 + seed)
        P = random_irreducible(rng, int(rng.integers(2, 9)))
        gammas = rng.random(P.n) + 0.1  # arbitrary weights: not balanced
        E = P.entries
        worst = 0.0
        for y in range(P.n):
            inflow = sum(gammas[x] * E[x, y] for x in range(P.n) if x != y)
            outflow = gammas[y] * sum(E[y, x] for x in range(P.n) if x != y)
            scale = max(abs(inflow), abs(outflow), 1e-300)
            worst = max(worst, abs(inflow - outflow) / scale)
        monkeypatch.setattr(st, "BALANCE_RTOL", np.inf)  # read the discrepancy, do not judge it
        assert check_balance(P, gammas) == pytest.approx(worst, rel=1e-12, abs=1e-15)


class TestReturnTimes:
    """Anchor 0's visit counts and every E_x tau_x+ in the evidence of
    :func:`ergokit.stationary_by_return_time`."""

    def test_two_state_closed_form(self, two_state_chain):
        # from state 0: visits to 1 per excursion p/q, return time (p+q)/q
        ev = ek.stationary_by_return_time(two_state_chain).evidence
        assert ev["visit_counts"][1] == pytest.approx(0.2 / 0.3)
        assert ev["expected_return"] == pytest.approx(0.5 / 0.3)

    def test_cycle_deterministic_tour(self):
        ev = ek.stationary_by_return_time(gen.cycle(3)).evidence
        assert np.allclose(ev["visit_counts"], 1.0)
        assert ev["expected_returns_per_state"][1] == pytest.approx(3.0)

    def test_truncated_sum_oracle(self):
        # the defining sum: pi~_y = sum_t Pr_z(X_t = y, tau+ > t), truncated deep
        rng = np.random.default_rng(77)
        P = random_irreducible(rng, 4)
        z = 0
        visits = ek.stationary_by_return_time(P).evidence["visit_counts"]
        alive = np.zeros(P.n)
        alive[z] = 1.0
        acc = alive.copy()
        for _ in range(10_000):
            alive = alive @ P.entries
            alive[z] = 0.0  # returning kills the excursion
            acc += alive
        assert np.abs(acc - visits).max() < 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_normalized_visits_match_linear(self, seed):
        rng = np.random.default_rng(1300 + seed)
        P = random_irreducible(rng, int(rng.integers(2, 8)))
        ev = ek.stationary_by_return_time(P).evidence
        pi = np.array(ev["visit_counts"]) / ev["expected_return"]
        ref = ek.stationary_linear(P).pi.probs
        assert np.abs(pi - ref).max() < 1e-10


class TestStationaryByReturnTime:
    def test_flip(self, flip_chain):
        res = ek.stationary_by_return_time(flip_chain)
        assert np.allclose(res.pi.probs, [0.5, 0.5])
        assert res.evidence["expected_return"] == pytest.approx(2.0)

    def test_two_state(self, two_state_chain):
        res = ek.stationary_by_return_time(two_state_chain)
        assert np.abs(res.pi.probs - [0.6, 0.4]).max() < 1e-12
        assert res.evidence["expected_returns_per_state"][0] == pytest.approx(1 / 0.6)

    def test_uniform_symmetry(self):
        res = ek.stationary_by_return_time(gen.uniform(5))
        assert np.allclose(res.pi.probs, 0.2)
        assert all(
            e == pytest.approx(5.0) for e in res.evidence["expected_returns_per_state"]
        )


    @pytest.mark.parametrize("seed", range(1300, 1304))
    def test_kac_margin_in_evidence(self, seed):
        ev = ek.stationary_by_return_time(seeded_irreducible(seed)).evidence
        pi = np.array(ev["visit_counts"]) / ev["expected_return"]
        margin = np.abs(pi * np.array(ev["expected_returns_per_state"]) - 1.0).max()
        assert ev["kac_max_error"] == margin <= 1e-8


class TestMonteCarloReturn:
    def test_cycle_zero_variance(self):
        mean, se = ek.monte_carlo_return(gen.cycle(3), z=1, trials=200, seed=1)
        assert mean == 3.0 and se == 0.0

    def test_start_on_the_target_is_no_return(self):
        # every walker starts on z, and each returns at step 1, not 0
        assert ek.monte_carlo_return(gen.uniform(1), 0, trials=5, seed=0) == (1.0, 0.0)

    def test_flip_exact(self, flip_chain):
        mean, se = ek.monte_carlo_return(flip_chain, z=0, trials=100, seed=2)
        assert mean == 2.0 and se == 0.0

    def test_two_state_within_three_se(self, two_state_chain):
        mean, se = ek.monte_carlo_return(two_state_chain, z=0, trials=100_000, seed=3)
        assert abs(mean - 1 / 0.6) <= 3 * se

    def test_deterministic_given_seed(self, two_state_chain):
        a = ek.monte_carlo_return(two_state_chain, z=1, trials=500, seed=9)
        b = ek.monte_carlo_return(two_state_chain, z=1, trials=500, seed=9)
        assert a == b

    def test_step_cap_typed_error(self, flip_chain, monkeypatch):
        # every return to 0 takes exactly two steps
        monkeypatch.setattr(st, "RETURN_MAX_STEPS", 1)
        with pytest.raises(MaxIterExceededError, match="10 trials did not return in 1 steps"):
            ek.monte_carlo_return(flip_chain, z=0, trials=10, seed=1)


class TestPowerIteration:
    def test_no_convergence_typed_error(self, monkeypatch):
        monkeypatch.setattr(st, "POWER_MAX_ITER", 10)
        with pytest.raises(NoConvergenceError, match="did not settle in 10 steps"):
            ek.stationary_by_power(gen.two_state(1e-6, 2e-6))


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_four_way_agreement(self, seed):
        rng = np.random.default_rng(1400 + seed)
        P = random_irreducible(rng, int(rng.integers(2, 8)))
        pis = [
            ek.stationary_linear(P).pi.probs,
            ek.stationary_by_trees(P, "enumeration").pi.probs,
            ek.stationary_by_trees(P, "determinant").pi.probs,
            ek.stationary_by_return_time(P).pi.probs,
        ]
        for a in pis:
            for b in pis:
                assert np.abs(a - b).max() <= 1e-8
