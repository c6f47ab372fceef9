from dataclasses import dataclass

import numpy as np
import pytest

from ergokit import StochasticMatrix, validate_stochastic
from ergokit import generators as gen
from ergokit.errors import SingularSystemError
from ergokit.structure import require_irreducible


def labels(n):
    return [f"s{i}" for i in range(n)]


def from_array(a) -> StochasticMatrix:
    a = np.asarray(a, dtype=float)
    return validate_stochastic(a, labels(a.shape[0]))


def pair_chain(P: StochasticMatrix) -> StochasticMatrix:
    """Two independent copies of P as one chain on the n^2 pairs, pair
    (x, y) at index x * n + y: the Kronecker square of P, validated as any
    chain is. The oracle for the facts about the pair chain that the
    coupling routines rely on without building it."""
    names = [f"({a},{b})" for a in P.space.labels for b in P.space.labels]
    return validate_stochastic(np.kron(P.entries, P.entries), names)


def random_positive(rng, n, floor=0.05) -> StochasticMatrix:
    a = rng.random((n, n)) + floor
    return from_array(a / a.sum(axis=1, keepdims=True))


def random_irreducible(rng, n, extra_edges=None) -> StochasticMatrix:
    """Sparse irreducible chain: a random permutation cycle guarantees strong
    connectivity, extra random edges vary the period and degree profile.
    Kept sparse so exhaustive tree enumeration stays cheap."""
    perm = rng.permutation(n)
    a = np.zeros((n, n))
    for i in range(n):
        a[perm[i], perm[(i + 1) % n]] = 0.2 + rng.random()
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n + 1))
    for _ in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        a[i, j] = 0.2 + rng.random()
    return from_array(a / a.sum(axis=1, keepdims=True))


def random_ergodic(rng, n) -> StochasticMatrix:
    """Sparse irreducible chain made aperiodic by one self-loop."""
    P = random_irreducible(rng, n)
    a = P.entries.copy()
    i = int(rng.integers(0, n))
    a[i, i] += 0.5
    return from_array(a / a.sum(axis=1, keepdims=True))


# One taboo solve per anchor: the oracle for the Woodbury return times of
# ergokit.stationary_by_return_time.
@dataclass(frozen=True)
class ReturnTimeTable:
    anchor: int
    visit_counts: np.ndarray  # expected visits per state before first return
    expected_return: float


def return_time_table(P: StochasticMatrix, z: int) -> ReturnTimeTable:
    """Expected visits to each state before the first return to z.

    The defining infinite sum collapses exactly: with Q the matrix P
    restricted away from z and b the z-row off z, the visit vector is
    v = b (I - Q)^{-1}, and the anchor itself is visited once.
    """
    require_irreducible(P, "return-time table")
    others = [y for y in range(P.n) if y != z]
    Q = P.entries[np.ix_(others, others)]
    b = P.entries[z, others]
    try:
        v = np.linalg.solve((np.eye(len(others)) - Q).T, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"I - Q singular for anchor {z}: {e}") from e
    visits = np.empty(P.n)
    visits[z] = 1.0
    visits[others] = v
    return ReturnTimeTable(
        anchor=z, visit_counts=visits, expected_return=float(visits.sum())
    )


@pytest.fixture
def two_state_chain():
    return gen.two_state(0.2, 0.3)


@pytest.fixture
def flip_chain():
    return gen.flip()


@pytest.fixture
def identity3():
    return from_array(np.eye(3))
