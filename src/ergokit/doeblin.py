"""Minorization split and spectral sanity checks for convergence rates.

A positive P admits P = (1 - theta) Pi + theta Q with Pi the rank-1 matrix
of stationary rows; the residual error P^n - Pi then equals
theta^n (Q^n - Pi Q^(n-1)), giving the TV bound d(n) <= theta^n. One pass
over the orbits of P and Q checks both. The spectral side verifies the
facts that proof rests on (dominant eigenvalue 1 with stationary left
vector, subdominant modulus below 1, rank-1 limit): the dominant pair from
the memoized linear solve, the subdominant modulus from the computed
eigenvalues of the deflated operator P - Pi (Brauer's theorem: deflation
swaps the eigenvalue 1 for 0 and keeps the rest), and the limit by direct
powering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from .chain import Distribution, StochasticMatrix, check_stationary, orbit, power
from .chain import _check_at_least, _tv_rows
from .errors import NotPositiveError
from .stationary import stationary_linear
from .structure import require_ergodic

#: d(n) may exceed theta^n by this much, the rounding of the exact curve.
TV_SLACK = 1e-12
#: The largest entrywise error the error recursion and the two absorption
#: identities it leans on may show.
RECURSION_TOL = 1e-10


@dataclass(frozen=True)
class DoeblinSplit:
    delta: float  # minorization constant, in (0, 1]
    theta: float  # 1 - delta
    Pi_matrix: StochasticMatrix  # every row is pi
    Q_matrix: StochasticMatrix  # residual kernel


@dataclass(frozen=True)
class DoeblinVerdict:
    split: DoeblinSplit
    # (n, exact d(n), theta^n, worst entrywise error of the recursion at n)
    rows: tuple[tuple[int, float, float, float], ...]
    fact_a_error: float  # M Pi = Pi over probe stochastic matrices
    fact_b_error: float  # Pi M = Pi when pi is stationary for M
    tv_bound_passed: bool  # d(n) <= theta^n + TV_SLACK for every n
    recursion_passed: bool  # every error, and both facts, within RECURSION_TOL


@dataclass(frozen=True)
class SpectralCheck:
    dominant_value: float
    dominant_vector: Distribution
    subdominant_modulus_estimate: float
    rank1_gap: float  # ||P^k - Pi||_inf, k from the subdominant estimate


def _pi_rows(P: StochasticMatrix, pi: np.ndarray) -> np.ndarray:
    """The rank-1 matrix Pi whose every row is the vector pi."""
    return np.tile(pi, (P.n, 1))


def doeblin_split(P: StochasticMatrix, pi: Distribution) -> DoeblinSplit:
    """Largest delta with P(x, y) >= delta pi(y) everywhere, and the
    residual Q with P = (1 - theta) Pi + theta Q.

    delta is ratio-sensitive near small pi entries, so pass the
    high-precision pi from the linear solver."""
    if (P.entries <= 0.0).any():
        raise NotPositiveError("minorization split needs an entrywise positive matrix")
    check_stationary(P, pi)
    Pi = _pi_rows(P, pi.probs)
    delta = min(1.0, float((P.entries / Pi).min()))
    if delta > 1.0 - 1e-12:
        delta = 1.0  # solver rounding in pi, not a genuine residual
    theta = 1.0 - delta
    if theta > 0.0:
        Q = (P.entries - delta * Pi) / theta
        Q = np.clip(Q, 0.0, None)  # clamp -1e-14-scale rounding
    else:
        Q = Pi
    return DoeblinSplit(
        delta=delta,
        theta=theta,
        Pi_matrix=StochasticMatrix(P.space, Pi),
        Q_matrix=StochasticMatrix(P.space, Q),
    )


def _random_stochastic(n: int, rng) -> np.ndarray:
    a = rng.random((n, n)) + 1e-3
    return a / a.sum(axis=1, keepdims=True)


def verify_doeblin(P: StochasticMatrix, pi: Distribution, max_n: int = 50) -> DoeblinVerdict:
    """Split P, then for n = 1..max_n compare the exact d(n) with theta^n and
    check P^n - Pi = theta^n (Q^n - Pi Q^(n-1)) entrywise, both sides formed
    independently, over one orbit of P and one of Q. Also checks the two
    absorption identities the recursion leans on (M Pi = Pi for stochastic
    M; Pi M = Pi when pi M = pi)."""
    _check_at_least("max_n", max_n, 1)
    split = doeblin_split(P, pi)
    Pi = split.Pi_matrix.entries
    Q = split.Q_matrix.entries
    th = split.theta
    rows = []
    eye = np.eye(P.n)
    steps = zip(islice(orbit(eye, P.entries), 1, None), pairwise(orbit(eye, Q)))
    for n, (Pn, (Qprev, Qn)) in zip(range(1, max_n + 1), steps):
        bound = th**n
        error = float(np.abs((Pn - Pi) - bound * (Qn - Pi @ Qprev)).max())
        rows.append((n, _tv_rows(Pn, pi.probs), bound, error))
    rng = np.random.default_rng(7)
    probes = [P.entries, Q, _random_stochastic(P.n, rng)]
    fact_a = max(float(np.abs(M @ Pi - Pi).max()) for M in probes)
    fact_b = max(float(np.abs(Pi @ M - Pi).max()) for M in (P.entries, Pi))
    return DoeblinVerdict(
        split=split,
        rows=tuple(rows),
        fact_a_error=fact_a,
        fact_b_error=fact_b,
        tv_bound_passed=all(d <= bound + TV_SLACK for _, d, bound, _ in rows),
        recursion_passed=all(
            e <= RECURSION_TOL for e in (*(row[3] for row in rows), fact_a, fact_b)
        ),
    )


def spectral_check(P: StochasticMatrix) -> SpectralCheck:
    """Dominant pair from the memoized linear-solve pi, subdominant modulus
    as the spectral radius of the deflated operator A = P - Pi, and the
    rank-1 limit gap ||P^k - Pi||_inf at the k that pushes the subdominant
    part below ~1e-10.

    By Brauer's theorem, A = P - 1 pi^T has the eigenvalues of P with the
    eigenvalue 1 replaced by 1 - sum(pi) = 0, so rho(A) is |lambda_2|
    however far the computed pi is from the true one."""
    require_ergodic(P, "spectral check")
    pi = stationary_linear(P).pi
    mu = pi.probs
    dominant_value = float((mu @ P.entries).sum() / mu.sum())  # = 1 for stochastic P
    Pi = _pi_rows(P, mu)
    est = float(np.abs(np.linalg.eigvals(P.entries - Pi)).max())
    gap = float(np.abs(power(P, _default_probe(est)).entries - Pi).sum(axis=1).max())
    return SpectralCheck(
        dominant_value=dominant_value,
        dominant_vector=pi,
        subdominant_modulus_estimate=est,
        rank1_gap=gap,
    )


def _default_probe(subdominant: float) -> int:
    # enough powering to push the rank-1 gap below ~1e-10; power takes
    # O(log k) products, so k needs no cap
    if subdominant <= 0.0:
        return 1
    return max(1, int(math.ceil(math.log(1e-10) / math.log(subdominant))))
