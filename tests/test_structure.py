import math
from types import SimpleNamespace

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.errors import NotErgodicError, NotIrreducibleError
from ergokit.structure import strongly_connected_components, wielandt_bound

from conftest import from_array, random_ergodic, random_irreducible


def block_diag_two_flips():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    return from_array(a)


class TestBuildGraph:
    """The edge pattern analyze reads: an edge (i, j) iff P(i, j) > 0."""

    def test_identity_self_loops(self):
        rep = ek.analyze(from_array(np.eye(2)))
        assert rep.scc_decomposition == (("s0",), ("s1",))
        assert dict(rep.periods) == {"s0": 1, "s1": 1}

    def test_flip_two_cycle(self, flip_chain):
        rep = ek.analyze(flip_chain)
        assert rep.scc_decomposition == (("s0", "s1"),)
        assert dict(rep.periods) == {"s0": 2, "s1": 2}

    def test_positive_matrix_complete(self):
        rep = ek.analyze(gen.uniform(3))
        assert rep.scc_decomposition == (("s0", "s1", "s2"),)
        assert rep.primitivity_exponent == 1

    def test_zero_is_structural(self):
        # no epsilon thresholding: a tiny positive entry is an edge
        a = np.array([[1.0 - 1e-300, 1e-300], [0.5, 0.5]])
        assert ek.analyze(from_array(a)).irreducible


class TestIrreducibility:
    def test_identity_two_sccs(self):
        rep = ek.analyze(from_array(np.eye(2)))
        assert not rep.irreducible
        assert sorted(map(sorted, rep.scc_decomposition)) == [["s0"], ["s1"]]

    def test_flip_irreducible(self, flip_chain):
        assert ek.analyze(flip_chain).irreducible

    def test_two_components(self):
        rep = ek.analyze(block_diag_two_flips())
        assert not rep.irreducible
        assert len(rep.scc_decomposition) == 2

    def test_reverse_topological_order(self):
        # edge 0 -> 1 between two singleton SCCs: sink component first
        a = np.array([[0.0, 1.0], [0.0, 1.0]])
        sccs, depth = strongly_connected_components([[1], [1]])
        assert (sccs, depth) == ([[1], [0]], [0, 1])
        assert ek.analyze(from_array(a)).scc_decomposition == (("s1",), ("s0",))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reachability_matrix_verdict(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = (rng.random((n, n)) < 0.3).astype(float)
        a[np.arange(n), rng.integers(0, n, n)] = 1.0  # no empty rows
        P = from_array(a / a.sum(axis=1, keepdims=True))
        ok = ek.analyze(P).irreducible
        # (I + A)^(n-1) all-positive in boolean arithmetic iff strongly connected
        B = np.eye(n, dtype=bool) | (P.entries > 0)
        R = np.eye(n, dtype=bool)
        for _ in range(n - 1):
            R = (R.astype(int) @ B.astype(int)) > 0
        assert ok == bool(R.all())


class TestSearchDepths:
    """The depth of each state in the forest Tarjan's search grows; the
    periods are read off these depths."""

    def test_cycle(self):
        assert strongly_connected_components([[1], [2], [0]]) == ([[2, 1, 0]], [0, 1, 2])

    def test_back_edge(self):
        # 2 -> 0 closes the cycle, and 2 -> 3 leaves it
        sccs, depth = strongly_connected_components([[1], [2], [0, 3], []])
        assert (sccs, depth) == ([[3], [2, 1, 0]], [0, 1, 2, 3])

    def test_depth_is_not_the_bfs_level(self):
        # 0 -> 1 -> 2 is searched before the shortcut 0 -> 2
        sccs, depth = strongly_connected_components([[1, 2], [2], [0]])
        assert (sccs, depth) == ([[2, 1, 0]], [0, 1, 2])

    def test_forest_with_two_roots(self):
        # 2 is unreached from 0 and starts a second tree; 3 -> 0 crosses over
        sccs, depth = strongly_connected_components([[1], [0], [3], [2, 0]])
        assert (sccs, depth) == ([[1, 0], [3, 2]], [0, 1, 0, 1])

    @pytest.mark.parametrize("seed", range(20))
    def test_inner_edges_span_multiples_of_the_period(self, seed):
        rng = np.random.default_rng(900 + seed)
        a = random_layered_digraph(rng)
        n = len(a)
        P = from_array(a / a.sum(axis=1, keepdims=True))
        adj = [np.flatnonzero(row).tolist() for row in a]
        sccs, depth = strongly_connected_components(adj)
        for comp in sccs:
            inner = [(u, v) for u in comp for v in adj[u] if v in comp]
            if inner:
                p = brute_force_period(P, comp[0], 3 * n)
                assert all((depth[u] + 1 - depth[v]) % p == 0 for u, v in inner)


def random_layered_digraph(rng):
    """0/1 adjacency of a random digraph on 2 to 12 states, most of whose
    edges go from one of k levels to the next mod k (k from 1 to 4), so that
    many of its classes are periodic; at most one chord may break that."""
    n = int(rng.integers(2, 13))
    k = int(rng.integers(1, 5))
    level = rng.integers(0, k, n)
    nxt = level[None, :] == (level[:, None] + 1) % k
    a = (nxt & (rng.random((n, n)) < 0.4)).astype(float)
    if rng.random() < 0.5:
        a[tuple(rng.integers(0, n, 2))] = 1.0
    for u in np.flatnonzero(a.sum(axis=1) == 0):  # no empty rows
        a[u, rng.choice(np.flatnonzero(nxt[u]) if nxt[u].any() else n)] = 1.0
    return a


def brute_force_period(P, s, max_len):
    """gcd of closed-walk lengths through s, walks enumerated via powering."""
    g = 0
    A = np.eye(P.n)
    for length in range(1, max_len + 1):
        A = A @ P.entries
        if A[s, s] > 0:
            g = math.gcd(g, length)
    return g


class TestPeriod:
    def test_cycle_period(self):
        P = gen.cycle(3)
        assert all(p == 3 for p in ek.analyze(P).periods.values())

    def test_flip_bipartite(self, flip_chain):
        assert ek.analyze(flip_chain).periods["s0"] == 2

    def test_self_loop_gives_one(self, two_state_chain):
        assert ek.analyze(two_state_chain).periods["s0"] == 1

    def test_no_closed_walk(self):
        # a state on no closed walk has no period
        a = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert ek.analyze(from_array(a)).periods["s0"] is None

    @pytest.mark.parametrize("seed", range(10))
    def test_bfs_gcd_matches_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        P = random_irreducible(rng, n)
        periods = ek.analyze(P).periods
        for s in range(n):
            assert periods[f"s{s}"] == brute_force_period(P, s, 2 * n)

    def test_sweep_stops_once_the_gcd_is_one(self, monkeypatch):
        # uniform(64) has 4,096 inner edges; the first, a self-loop, settles
        # the class's gcd at 1, so no other edge needs reading
        from ergokit import structure

        calls = []

        def counting_gcd(a, b):
            calls.append((a, b))
            return math.gcd(a, b)

        monkeypatch.setattr(structure, "math", SimpleNamespace(gcd=counting_gcd))
        assert set(ek.analyze(gen.uniform(64)).periods.values()) == {1}
        assert len(calls) <= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_period_constant_on_scc(self, seed):
        rng = np.random.default_rng(200 + seed)
        P = random_irreducible(rng, int(rng.integers(3, 7)))
        periods = set(ek.analyze(P).periods.values())
        assert len(periods) == 1


class TestPrimitivity:
    def test_positive_matrix(self):
        assert ek.primitivity_exponent(gen.uniform(3)) == 1

    def test_flip_not_ergodic(self, flip_chain):
        with pytest.raises(NotErgodicError):
            ek.primitivity_exponent(flip_chain)

    def test_identity_not_ergodic(self, identity3):
        with pytest.raises(NotErgodicError):
            ek.primitivity_exponent(identity3)

    def test_lazy_hypercube_dim3(self):
        assert ek.primitivity_exponent(gen.lazy_hypercube(3)) == 3

    @pytest.mark.parametrize("seed", range(15))
    def test_minimality_by_direct_powering(self, seed):
        rng = np.random.default_rng(300 + seed)
        P = random_ergodic(rng, int(rng.integers(2, 9)))
        m = ek.primitivity_exponent(P)
        assert m <= wielandt_bound(P.n)
        assert (ek.power(P, m).entries > 0).all()
        if m > 1:
            assert not (ek.power(P, m - 1).entries > 0).all()


class TestReport:
    def test_flip_report(self, flip_chain):
        rep = ek.analyze(flip_chain)
        assert rep.irreducible and not rep.aperiodic and not rep.ergodic
        assert rep.primitivity_exponent is None
        assert rep.periods == {"s0": 2, "s1": 2}

    def test_json_shape(self, two_state_chain):
        import json

        obj = json.loads(ek.analyze(two_state_chain).to_json())
        assert set(obj) == {
            "irreducible",
            "aperiodic",
            "periods",
            "primitivity_exponent",
            "sccs",
        }
        assert obj["primitivity_exponent"] == 1


def random_reducible(rng, n_blocks):
    """Chain whose SCCs are the given blocks, with edges only from earlier
    blocks to later ones, states shuffled. The first block is a single state
    without a self-loop (no closed walk), the second a single state with one;
    the others are random irreducible blocks of 2 to 4 states."""
    sizes = [1, 1] + [int(rng.integers(2, 5)) for _ in range(n_blocks - 2)]
    n = sum(sizes)
    order = rng.permutation(n)
    a = np.zeros((n, n))
    blocks = []
    start = 0
    for b, size in enumerate(sizes):
        members = order[start : start + size]
        start += size
        blocks.append(members)
        if b == 1:
            a[members[0], members[0]] = 1.0
        elif size > 1:
            inner = random_irreducible(rng, size).entries
            a[np.ix_(members, members)] = inner
    for b, members in enumerate(blocks[:-1]):
        later = np.concatenate(blocks[b + 1 :])
        for u in members:
            if b == 0 or rng.random() < 0.5:
                a[u, rng.choice(later)] += 0.2 + rng.random()
    return from_array(a / a.sum(axis=1, keepdims=True)), len(sizes)


class TestAnalyzeOnce:
    @pytest.mark.parametrize("seed", range(10))
    def test_periods_match_brute_force_on_reducible_chains(self, seed):
        rng = np.random.default_rng(500 + seed)
        P, n_blocks = random_reducible(rng, int(rng.integers(3, 6)))
        rep = ek.analyze(P)
        assert len(rep.scc_decomposition) == n_blocks
        assert not rep.irreducible and rep.primitivity_exponent is None
        periods = list(rep.periods.values())
        assert None in periods and 1 in periods
        # walks of length < 3n suffice: each simple cycle of s's class lies on
        # a closed walk through s that is that short, as does the same walk
        # with the cycle left out, so their gcd divides every cycle length
        for s, label in enumerate(P.space.labels):
            assert rep.periods[label] == (brute_force_period(P, s, 3 * P.n) or None)

    def test_memoized_per_matrix(self, flip_chain):
        rep = ek.analyze(flip_chain)
        assert ek.analyze(flip_chain) is rep
        assert ek.analyze(flip_chain, with_primitivity=False) is rep  # not ergodic
        # P^2 is a new matrix with its own report: two absorbing classes
        sq = ek.analyze(ek.power(flip_chain, 2))
        assert not sq.irreducible and sq.periods == {"s0": 1, "s1": 1}
        assert ek.analyze(flip_chain).periods == {"s0": 2, "s1": 2}

    def test_base_and_full_reports_kept_apart(self):
        P = gen.lazy_hypercube(3)
        assert ek.analyze(P, with_primitivity=False).primitivity_exponent is None
        assert ek.analyze(P).primitivity_exponent == 3
        assert ek.analyze(P, with_primitivity=False).primitivity_exponent is None

    def test_returned_periods_are_read_only(self, flip_chain):
        rep = ek.analyze(flip_chain)
        with pytest.raises(TypeError):
            rep.periods["s0"] = 7
        assert ek.analyze(flip_chain).periods == {"s0": 2, "s1": 2}

    def test_source_array_changes_do_not_reach_the_memo(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        P = ek.StochasticMatrix(ek.StateSpace(("s0", "s1")), a[:])
        assert ek.analyze(P).periods == {"s0": 2, "s1": 2}
        a[0] = [1.0, 0.0]
        assert np.array_equal(P.entries, [[0.0, 1.0], [1.0, 0.0]])
        assert ek.analyze(P).periods == {"s0": 2, "s1": 2}


class TestRequireErgodic:
    def test_returns_the_memoized_base_report(self, monkeypatch):
        from ergokit import structure

        def never(P):
            raise AssertionError("the gate started a primitivity search")

        monkeypatch.setattr(structure, "primitivity_exponent", never)
        P = gen.lazy_hypercube(3)
        rep = structure.require_ergodic(P, "this check")
        assert rep is ek.analyze(P, with_primitivity=False)
        assert "structure+primitivity" not in P._memo

    @pytest.mark.parametrize(
        "P, kind",
        [(gen.flip(), "periodic"), (gen.cycle(3), "periodic"),
         (block_diag_two_flips(), "reducible"), (from_array(np.eye(3)), "reducible")],
        ids=["flip", "cycle3", "two_flips", "identity"],
    )
    def test_names_the_routine_and_the_fault(self, P, kind):
        from ergokit.structure import require_ergodic

        with pytest.raises(NotErgodicError) as exc:
            require_ergodic(P, "this check")
        assert str(exc.value) == f"this check needs an ergodic chain; this one is {kind}"

    @pytest.mark.parametrize(
        "routine",
        [
            lambda P: ek.stationary_by_power(P),
            lambda P: ek.stationary_by_envelope(P),
            lambda P: ek.mixing_estimate(P),
            lambda P: ek.simulate_coupling(P, (0, 1), trials=10),
            lambda P: ek.verify_coupling_lemma(P, ek.stationary_linear(P).pi, 0, trials=10),
            lambda P: ek.spectral_check(P),
            lambda P: ek.primitivity_exponent(P),
        ],
        ids=[
            "power", "envelope", "mixing", "simulate_coupling", "coupling_lemma",
            "spectral", "primitivity",
        ],
    )
    def test_every_ergodic_precondition_goes_through_the_gate(self, routine):
        with pytest.raises(NotErgodicError, match="needs an ergodic chain; this one is periodic"):
            routine(gen.flip())


class TestRequireIrreducible:
    def test_returns_the_memoized_base_report(self, monkeypatch):
        from ergokit import structure

        def never(P):
            raise AssertionError("the gate started a primitivity search")

        monkeypatch.setattr(structure, "primitivity_exponent", never)
        P = gen.flip()  # periodic chains pass this gate
        rep = structure.require_irreducible(P, "this check")
        assert rep is ek.analyze(P, with_primitivity=False)
        assert "structure+primitivity" not in P._memo

    @pytest.mark.parametrize(
        "P, k",
        [(block_diag_two_flips(), 2), (from_array(np.eye(3)), 3)],
        ids=["two_flips", "identity"],
    )
    def test_names_the_routine_and_the_classes(self, P, k):
        from ergokit.structure import require_irreducible

        with pytest.raises(NotIrreducibleError) as exc:
            require_irreducible(P, "this check")
        assert str(exc.value) == (
            f"this check needs an irreducible chain; this one has {k} strongly connected classes"
        )

    @pytest.mark.parametrize(
        "routine, what",
        [
            (lambda P: ek.stationary_linear(P), "linear solve"),
            (lambda P: ek.stationary_by_trees(P, "enumeration"), "tree_enumeration"),
            (lambda P: ek.stationary_by_trees(P, "determinant"), "tree_determinant"),
            (lambda P: ek.stationary_by_return_time(P), "return-time table"),
            (lambda P: ek.monte_carlo_return(P, 0, trials=10, seed=0), "Monte Carlo return time"),
        ],
        ids=[
            "linear", "tree_enumeration", "tree_determinant",
            "return_time", "monte_carlo_return",
        ],
    )
    def test_every_irreducibility_precondition_goes_through_the_gate(self, routine, what):
        with pytest.raises(
            NotIrreducibleError, match=f"^{what} needs an irreducible chain; this one has 2 "
        ):
            routine(block_diag_two_flips())
