import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.errors import InvalidGeneratorParamsError


class TestSimpleGenerators:
    def test_flip(self):
        P = gen.flip()
        assert np.array_equal(P.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_uniform_rows(self):
        P = gen.uniform(4)
        assert (P.entries == 0.25).all()
        with pytest.raises(InvalidGeneratorParamsError):
            gen.uniform(0)
        with pytest.raises(InvalidGeneratorParamsError):
            gen.uniform(gen.MAX_STATES + 1)

    def test_two_state(self):
        P = gen.two_state(0.2, 0.3)
        assert np.array_equal(P.entries, [[0.8, 0.2], [0.3, 0.7]])
        with pytest.raises(InvalidGeneratorParamsError):
            gen.two_state(0.0, 0.5)

    def test_cycle(self):
        P = gen.cycle(4)
        assert (P.entries.sum(axis=1) == 1.0).all()
        rep = ek.analyze(P)
        assert rep.irreducible and rep.periods["s0"] == 4
        with pytest.raises(InvalidGeneratorParamsError):
            gen.cycle(1)
        with pytest.raises(InvalidGeneratorParamsError):
            gen.cycle(gen.MAX_STATES + 1)


@pytest.mark.parametrize(
    "make, size, name",
    [(gen.uniform, 2.5, "n"), (gen.cycle, 3.5, "length"),
     (gen.lazy_hypercube, 2.5, "dim"), (gen.top_to_random, 3.0, "deck")],
    ids=["uniform", "cycle", "lazy_hypercube", "top_to_random"],
)
def test_non_integer_size_names_the_parameter(make, size, name):
    with pytest.raises(InvalidGeneratorParamsError, match=rf"^{name} {size} is not an integer$"):
        make(size)


@pytest.mark.parametrize(
    "make, name",
    [(lambda v: gen.two_state(v, 0.3), "p"), (lambda v: gen.two_state(0.2, v), "q"),
     (lambda v: gen.generate("pagerank", path="edges.txt", alpha=v), "alpha"),
     (lambda v: gen.pagerank([("a", "b")], v), "alpha")],
    ids=["two_state_p", "two_state_q", "pagerank_alpha", "pagerank_damping"],
)
def test_non_number_names_the_parameter(make, name):
    with pytest.raises(InvalidGeneratorParamsError, match=rf"^{name} 'abc' is not a real number$"):
        make("abc")


class TestLazyHypercube:
    def test_laziness_and_neighbors(self):
        P = gen.lazy_hypercube(3)
        assert P.n == 8
        assert np.abs(np.diag(P.entries) - 0.5).max() < 1e-12
        for x in range(8):
            for y in range(8):
                if x == y:
                    continue
                expected = 0.5 / 3 if bin(x ^ y).count("1") == 1 else 0.0
                assert P.entries[x, y] == pytest.approx(expected)

    def test_labels_are_bit_strings(self):
        P = gen.lazy_hypercube(2)
        assert P.space.labels == ("00", "01", "10", "11")

    def test_uniform_stationary(self):
        P = gen.lazy_hypercube(4)
        pi = ek.stationary_linear(P).pi.probs
        assert np.abs(pi - 1.0 / 16).max() < 1e-12

    def test_dim_bounds(self):
        with pytest.raises(InvalidGeneratorParamsError):
            gen.lazy_hypercube(0)
        with pytest.raises(InvalidGeneratorParamsError):
            gen.lazy_hypercube(13)


class TestTopToRandom:
    def test_row_structure(self):
        P = gen.top_to_random(3)
        assert P.n == 6
        for row in P.entries:
            vals = row[row > 0]
            assert len(vals) == 3
            assert np.allclose(vals, 1.0 / 3)

    def test_ergodic_uniform_stationary(self):
        P = gen.top_to_random(3)
        rep = ek.analyze(P)
        assert rep.ergodic
        pi = ek.stationary_linear(P).pi.probs
        assert np.abs(pi - 1.0 / 6).max() < 1e-12

    def test_deck_bounds(self):
        with pytest.raises(InvalidGeneratorParamsError):
            gen.top_to_random(1)
        with pytest.raises(InvalidGeneratorParamsError):
            gen.top_to_random(6)


class TestPagerank:
    def test_positive_and_stochastic(self):
        P = gen.pagerank([("a", "b"), ("b", "a"), ("b", "c")], damping=0.85)
        assert P.min_entry() > 0.0
        assert np.abs(P.entries.sum(axis=1) - 1.0).max() < 1e-12
        assert ek.primitivity_exponent(P) == 1

    def test_dangling_node_uniform(self):
        P = gen.pagerank([("a", "c"), ("b", "a")], damping=0.85)
        # c has no out-links: its row is pure teleport + uniform link mass
        assert P.space.labels == ("a", "b", "c")
        assert np.allclose(P.entries[2], 1.0 / 3)

    def test_spot_value(self):
        P = gen.pagerank([("a", "b"), ("b", "a")], damping=0.8)
        # a -> b: 0.8 * 1.0 + 0.2 / 2
        assert P.entries[0, 1] == pytest.approx(0.9)

    def test_bad_damping(self):
        with pytest.raises(InvalidGeneratorParamsError):
            gen.pagerank([("a", "b")], damping=1.0)

    def test_empty_edge_list(self):
        with pytest.raises(InvalidGeneratorParamsError, match="at least one node"):
            gen.pagerank([], damping=0.5)


class TestEdgeListLoading:
    def test_parse(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("# comment\na b\nb c  # trailing\n\nc a\n")
        assert gen.load_edge_list(str(f)) == [("a", "b"), ("b", "c"), ("c", "a")]

    def test_bad_line(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("a b c\n")
        with pytest.raises(InvalidGeneratorParamsError):
            gen.load_edge_list(str(f))


class TestDispatcher:
    def test_by_name(self):
        P = gen.generate("two_state", p=0.2, q=0.3)
        assert np.array_equal(P.entries, gen.two_state(0.2, 0.3).entries)

    def test_unknown_name(self):
        with pytest.raises(InvalidGeneratorParamsError):
            gen.generate("nope")

    def test_bad_kwargs(self):
        with pytest.raises(InvalidGeneratorParamsError):
            gen.generate("uniform", frobs=3)

    def test_pagerank_needs_path(self):
        with pytest.raises(InvalidGeneratorParamsError):
            gen.generate("pagerank")

    def test_pagerank_from_file(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("a b\nb a\n")
        P = gen.generate("pagerank", path=str(f), alpha=0.8)
        assert P.entries[0, 1] == pytest.approx(0.9)
