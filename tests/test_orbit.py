"""The one running product, ``chain.orbit``, and parity of every P^t curve
read off it with values pinned before the curves shared it.

Each pin is a sha256 of the float64 bytes (or of a CSV file's text), or an
exact integer, compared with ``==``: the curves must be the same bit for
bit, not merely close."""

import hashlib
from itertools import islice

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.chain import orbit
from ergokit.cli import main
from ergokit.coupling import exact_meeting_tail

from conftest import pair_chain, random_ergodic, random_positive


def digest(values) -> str:
    a = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(a.tobytes()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def positive5():
    return random_positive(np.random.default_rng(41), 5)


def ergodic6():
    return random_ergodic(np.random.default_rng(42), 6)


CHAINS = {
    "two_state": lambda: gen.two_state(0.2, 0.3),
    "lazy_hypercube_3": lambda: gen.lazy_hypercube(3),
    "positive5": positive5,
    "ergodic6": ergodic6,
}


def cli_csv(tmp_path, P, *argv) -> str:
    chain = tmp_path / "chain.json"
    chain.write_text(P.to_json())
    out = tmp_path / "out.csv"
    assert main([*argv, "--chain", str(chain), "--csv", str(out)]) == 0
    return text_digest(out.read_text())


def mix_csv(tmp_path, P):
    return cli_csv(tmp_path, P, "mix", "--horizon", "40")


def stationary_csv(tmp_path, P):
    return cli_csv(tmp_path, P, "stationary")


def meeting_tails(tmp_path, P):
    return digest(exact_meeting_tail(P, (0, P.n - 1), 25))


def recursion_errors(tmp_path, P):
    rows = ek.verify_doeblin(P, max_n=25).rows
    return digest([error for _, _, _, error in rows])


def power_iterations(tmp_path, P):
    return ek.stationary_by_power(P).evidence["iterations"]


def lemma_exact_tv(tmp_path, P):
    pi = ek.stationary_linear(P).pi
    lemma = ek.verify_coupling_lemma(P, pi, start_y=P.n - 1, horizon=20, trials=200, seed=3)
    return digest([r.exact_tv for r in lemma.rows])


OUTPUTS = {
    "mix_csv": mix_csv,
    "stationary_csv": stationary_csv,
    "meeting_tails": meeting_tails,
    "recursion_errors": recursion_errors,
    "power_iterations": power_iterations,
    "lemma_exact_tv": lemma_exact_tv,
}

#: (output, chain) -> value recorded before the curves shared one orbit; the
#: meeting_tails digests were recorded again when the exact tail moved from
#: the absorbing product chain to the pair-mass recursion, which
#: TestPairMassTail checks against the product chain, and again over the
#: meet-anywhere tail alone (computed before the meet-at-state rule went)
#: when that rule was retired.
PINNED = {
    ('mix_csv', 'two_state'): 'eddb5763504859997e6e1f2a1f877e7648beee243c11a0abebd52871e312f943',
    ('mix_csv', 'lazy_hypercube_3'): '650d658672277c36b0223351003e4d7144f092b9d28c5fee7c8a4861738c2809',
    ('mix_csv', 'positive5'): 'a7d93ff3ed6d913eec36c8705a7258240a9c6b5b15cb8f3e84520f3b23a582ad',
    ('mix_csv', 'ergodic6'): '3f693c311ddf5c6fbeb14c1d19f41ffa65e716196bd9d439b5eedb5a08aaebc1',
    ('stationary_csv', 'two_state'): 'd073ffe411addfa28b6e402c4a97d84a748f5ddbc8b8e1676223658cd792f096',
    ('stationary_csv', 'lazy_hypercube_3'): 'e90ae5721ee24ed1b85cd3ef1d9cc1f4e2040a219ac0a5ab8f2a4a828c13c6e8',
    ('stationary_csv', 'positive5'): 'ebe6b2c2f5562bd2b0e67b14e8da697376129c194767e7ea9bb84708a9321cde',
    ('stationary_csv', 'ergodic6'): 'f0773e76a8db2bf4cf3889816fea3e74c0e948076a71bbef4219034a2a12eb6c',
    ('meeting_tails', 'two_state'): '8eb85940bea48e44430ec2334715d9b6bd62a78ecbd66030336701a4a1617722',
    ('meeting_tails', 'positive5'): '93e82e710ea66cb346ad64e61bf651967aea4408b9235bd800b7d09a930a893a',
    ('meeting_tails', 'ergodic6'): '19e067602cd61e68182a0f8565d6bca945837a066a11781bcb1f3cab76222b81',
    ('recursion_errors', 'two_state'): '206bea3bc9eaa0d38ef80fbe18980e6320f1576ac112dbf776a9cd5182245b82',
    ('recursion_errors', 'positive5'): '5c49db06d135230e5a5add347878ef2cc85c79846239432009715134385bcfd2',
    ('power_iterations', 'two_state'): 37,
    ('power_iterations', 'lazy_hypercube_3'): 1,
    ('power_iterations', 'positive5'): 18,
    ('power_iterations', 'ergodic6'): 116,
    ('lemma_exact_tv', 'two_state'): '24dab659af98a58813fdc083f4500ef1c8a33f1e55d80be38b5c8ba36fba8b69',
    ('lemma_exact_tv', 'lazy_hypercube_3'): 'c564436ec65d869a84aff32494c953f7edbb17dacede69cce3458c86330130ba',
    ('lemma_exact_tv', 'positive5'): '3113f5c6bcc5be13ec5295631c336ede26524e3e71f77475ecc8924599f5a01c',
    ('lemma_exact_tv', 'ergodic6'): 'abd1315270e18014c60bb6676c18e757d7bf19c7354f3b58d2cccc0116558b40',
}


class TestOrbit:
    def test_running_products(self):
        P = gen.two_state(0.2, 0.3).entries
        S = np.array([[1.0, 0.0]])
        got = list(islice(orbit(S, P), 4))
        assert got[0] is S
        expected = S
        for k in range(1, 4):
            expected = expected @ P
            assert np.array_equal(got[k], expected)

    def test_forms_only_the_powers_read(self):
        class Counted:
            products = 0

            def __matmul__(self, other):
                Counted.products += 1
                return self

        stream = orbit(Counted(), None)
        next(stream), next(stream)
        assert Counted.products == 1


def absorbing_tail(P, start, horizon):
    """The exact meeting tail as the n^2 x n^2 product chain gives it, with
    every diagonal pair made absorbing and the surviving mass read off: the
    oracle that the pair-mass recursion replaced."""
    n = P.n
    Q = pair_chain(P).entries.copy()
    pairs = np.arange(n * n)
    xs, ys = np.divmod(pairs, n)
    absorbing = xs == ys
    Q[absorbing] = 0.0
    Q[absorbing, pairs[absorbing]] = 1.0
    point = np.zeros(n * n)
    point[start[0] * n + start[1]] = 1.0
    return np.array([v[~absorbing].sum() for v in islice(orbit(point, Q), horizon + 1)])


class TestPairMassTail:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_absorbing_product_chain(self, n):
        # 100 seeded chains in all, 20 per n, dense and sparse in turn
        for seed in range(20):
            rng = np.random.default_rng(1000 * n + seed)
            P = (random_positive if seed % 2 else random_ergodic)(rng, n)
            for start in np.ndindex(n, n):
                got = exact_meeting_tail(P, start, 30)
                want = absorbing_tail(P, start, 30)
                assert np.abs(got - want).max() <= 1e-14


class TestCurveParity:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=["/".join(k) for k in sorted(PINNED)])
    def test_bit_for_bit(self, tmp_path, key):
        output, chain = key
        assert OUTPUTS[output](tmp_path, CHAINS[chain]()) == PINNED[key]
