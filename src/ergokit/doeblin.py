"""Minorization split and spectral sanity checks for convergence rates.

A positive P admits P = (1 - theta) Pi + theta Q with Pi the rank-1 matrix
of stationary rows; the residual error P^n - Pi then shrinks like theta^n,
giving the TV bound d(n) <= theta^n. The spectral side verifies the facts
that proof rests on (dominant eigenvalue 1 with stationary left vector,
subdominant modulus below 1, rank-1 limit): the dominant pair by power
iteration, the subdominant modulus from the computed eigenvalues of the
deflated operator P - Pi (Brauer's theorem: deflation swaps the eigenvalue
1 for 0 and keeps the rest), and the limit by direct powering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from .chain import Distribution, StochasticMatrix, check_stationary, orbit, power, tv_curve
from .chain import _check_at_least, _check_tol
from .errors import NotPositiveError
from .stationary import _power_iterate
from .structure import require_ergodic


@dataclass(frozen=True)
class DoeblinSplit:
    delta: float  # minorization constant, in (0, 1]
    theta: float  # 1 - delta
    Pi_matrix: StochasticMatrix  # every row is pi
    Q_matrix: StochasticMatrix  # residual kernel


@dataclass(frozen=True)
class RecursionVerdict:
    per_n_error: tuple[float, ...]  # worst entrywise error of the identity at each n
    passed: bool
    fact_a_error: float  # M Pi = Pi over probe stochastic matrices
    fact_b_error: float  # Pi M = Pi when pi is stationary for M


@dataclass(frozen=True)
class TVBoundCurve:
    rows: tuple[tuple[int, float, float], ...]  # (n, exact d(n), theta^n)
    passed: bool


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


def verify_error_recursion(
    split: DoeblinSplit, P: StochasticMatrix, max_n: int = 20, tol: float = 1e-10
) -> RecursionVerdict:
    """Check P^n - Pi = theta^n (Q^n - Pi Q^(n-1)) entrywise for each n,
    computing both sides independently, plus the two absorption identities
    it leans on (M Pi = Pi for stochastic M; Pi M = Pi when pi M = pi)."""
    _check_at_least("max_n", max_n, 1)
    _check_tol("tol", tol, zero_ok=True)
    Pi = split.Pi_matrix.entries
    Q = split.Q_matrix.entries
    th = split.theta
    errors = []
    eye = np.eye(P.n)
    steps = zip(islice(orbit(eye, P.entries), 1, None), pairwise(orbit(eye, Q)))
    for n, (Pn, (Qprev, Qn)) in zip(range(1, max_n + 1), steps):
        rhs = th**n * (Qn - Pi @ Qprev)
        errors.append(float(np.abs((Pn - Pi) - rhs).max()))
    rng = np.random.default_rng(7)
    probes = [P.entries, Q, _random_stochastic(P.n, rng)]
    fact_a = max(float(np.abs(M @ Pi - Pi).max()) for M in probes)
    fact_b = max(
        float(np.abs(Pi @ M - Pi).max()) for M in (P.entries, Pi)
    )
    return RecursionVerdict(
        per_n_error=tuple(errors),
        passed=max(errors) <= tol and fact_a <= tol and fact_b <= tol,
        fact_a_error=fact_a,
        fact_b_error=fact_b,
    )


def tv_bound_doeblin(
    split: DoeblinSplit,
    P: StochasticMatrix,
    pi: Distribution,
    max_n: int = 50,
    tol: float = 1e-12,
) -> TVBoundCurve:
    """Exact d(n) against the geometric bound theta^n for n = 1..max_n."""
    _check_at_least("max_n", max_n, 1)
    _check_tol("tol", tol, zero_ok=True)
    rows = []
    passed = True
    for n, d in enumerate(islice(tv_curve(P, pi), 1, max_n + 1), start=1):
        bound = split.theta**n
        if d > bound + tol:
            passed = False
        rows.append((n, d, bound))
    return TVBoundCurve(rows=tuple(rows), passed=passed)


def spectral_check(P: StochasticMatrix, max_iter: int = 100_000) -> SpectralCheck:
    """Dominant pair by power iteration on the transpose (converges to the
    stationary row vector), subdominant modulus as the spectral radius of
    the deflated operator A = P - Pi, and the rank-1 limit gap
    ||P^k - Pi||_inf at the k that pushes the subdominant part below ~1e-10.

    By Brauer's theorem, A = P - 1 pi^T has the eigenvalues of P with the
    eigenvalue 1 replaced by 1 - sum(pi) = 0, so rho(A) is |lambda_2|
    however far the power-iteration pi is from the true one."""
    require_ergodic(P, "spectral check")
    mu, _ = _power_iterate(P, 1e-14, max_iter)
    dominant_value = float((mu @ P.entries).sum() / mu.sum())  # = 1 for stochastic P
    pi = mu / mu.sum()
    Pi = _pi_rows(P, pi)
    est = float(np.abs(np.linalg.eigvals(P.entries - Pi)).max())
    gap = float(np.abs(power(P, _default_probe(est)).entries - Pi).sum(axis=1).max())
    return SpectralCheck(
        dominant_value=dominant_value,
        dominant_vector=Distribution(P.space, pi),
        subdominant_modulus_estimate=est,
        rank1_gap=gap,
    )


def _default_probe(subdominant: float) -> int:
    # enough powering to push the rank-1 gap below ~1e-10
    if subdominant <= 0.0:
        return 1
    return min(100_000, max(1, int(math.ceil(math.log(1e-10) / math.log(subdominant)))))
