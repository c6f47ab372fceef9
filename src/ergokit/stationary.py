"""Non-iterative routes to the stationary distribution, cross-validated.

Three independent constructions: a direct linear solve (with a rank check
backing the uniqueness argument), the upward-spanning-tree weights (by
exhaustive enumeration or by the matrix-tree determinant shortcut), and
the expected-visits-before-return formula. A Monte Carlo return-time
estimator provides a stochastic cross-check. None of these requires
aperiodicity; irreducibility is checked up front.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .chain import Distribution, StochasticMatrix, orbit, stationary_residual
from .chain import _check_at_least, _check_walk, _walk_until
from .errors import (
    BalanceViolationError,
    MaxIterExceededError,
    NoConvergenceError,
    NotIrreducibleError,
    RankDeficientError,
    SingularSystemError,
    TooLargeError,
)
from .structure import analyze, require_ergodic

#: Above n^(n-1) candidate functions the exhaustive tree enumeration is
#: hopeless; the determinant route has no such cap.
ENUMERATION_CAP = 8


@dataclass(frozen=True)
class StationaryResult:
    pi: Distribution
    method: str  # linear_solve | tree_enumeration | tree_determinant |
    #              return_time | envelope | power_iteration
    residual: float  # ||pi P - pi||_inf
    evidence: dict[str, Any] = field(default_factory=dict)

    def evidence_json(self) -> str:
        return json.dumps(self.evidence, default=float)


@dataclass(frozen=True)
class Arborescence:
    """An upward spanning tree: every non-root state keeps one out-edge and
    all edge-paths lead to the root."""

    root: int
    parent_edges: dict[int, int]  # y -> f(y) for every y != root
    weight: float


@dataclass(frozen=True)
class ReturnTimeTable:
    anchor: int
    visit_counts: np.ndarray  # expected visits per state before first return
    expected_return: float


def _require_irreducible(P: StochasticMatrix) -> None:
    report = analyze(P, with_primitivity=False)
    if not report.irreducible:
        raise NotIrreducibleError(
            f"transition graph has {len(report.scc_decomposition)} "
            "strongly connected components"
        )


def stationary_linear(P: StochasticMatrix) -> StationaryResult:
    """Solve pi (P - I) = 0 with sum(pi) = 1 by a dense partial-pivot solve.

    Also asserts rank(P - I) = n - 1: a one-dimensional kernel is exactly
    what irreducibility promises, so a larger nullity signals numerical
    trouble rather than a property of the chain.
    """
    _require_irreducible(P)
    n = P.n
    A = (P.entries - np.eye(n)).T.copy()
    rank = np.linalg.matrix_rank(A, tol=1e-12 * n)
    if rank < n - 1:
        raise RankDeficientError(f"rank(P - I) = {rank}, expected {n - 1}")
    A[-1, :] = 1.0  # replace one equation with the normalization
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(str(e)) from e
    return StationaryResult(
        pi=Distribution(P.space, pi),
        method="linear_solve",
        residual=stationary_residual(P, pi),
        evidence={"rank": int(rank)},
    )


def enumerate_arborescences(
    P: StochasticMatrix, root: int, cap: int = ENUMERATION_CAP
) -> list[Arborescence]:
    """All upward spanning trees rooted at `root`, by exhausting the
    functions y -> f(y) over structural edges and keeping those whose
    functional graph reaches the root from every state."""
    if P.n > cap:
        raise TooLargeError(f"n = {P.n} exceeds enumeration cap {cap}")
    _require_irreducible(P)
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
            out.append(Arborescence(root=root, parent_edges=f, weight=w))
    return out


def _gamma_enumeration(P: StochasticMatrix, cap: int) -> tuple[np.ndarray, list[int]]:
    gammas = np.empty(P.n)
    counts = []
    for x in range(P.n):
        trees = enumerate_arborescences(P, x, cap=cap)
        gammas[x] = sum(t.weight for t in trees)
        counts.append(len(trees))
    return gammas, counts


def _gamma_determinant(P: StochasticMatrix) -> np.ndarray:
    """Matrix-tree shortcut: gamma(x) is the principal minor of I - P with
    row and column x deleted. Cross-validated against enumeration in tests."""
    L = np.eye(P.n) - P.entries
    gammas = np.empty(P.n)
    keep = np.arange(P.n)
    for x in range(P.n):
        idx = keep[keep != x]
        gammas[x] = np.linalg.det(L[np.ix_(idx, idx)])
    return gammas


def check_balance(P: StochasticMatrix, gammas: np.ndarray, rtol: float = 1e-9) -> float:
    """Verify flow balance for the raw tree weights: for every y,
    sum_{x != y} gamma(x) p_xy = sum_{x != y} gamma(y) p_yx.

    Returns the worst relative discrepancy; raises on violation."""
    off = P.entries.copy()
    np.fill_diagonal(off, 0.0)
    inflow = gammas @ off
    outflow = gammas * off.sum(axis=1)
    scale = np.maximum(np.maximum(np.abs(inflow), np.abs(outflow)), 1e-300)
    worst = float((np.abs(inflow - outflow) / scale).max())
    if worst > rtol:
        raise BalanceViolationError(
            f"flow balance violated: relative discrepancy {worst:.3g}"
        )
    return worst


def stationary_by_trees(
    P: StochasticMatrix, mode: str = "determinant", cap: int = ENUMERATION_CAP
) -> StationaryResult:
    """Stationary distribution from upward-spanning-tree weights.

    mode 'enumeration' sums tree weights exhaustively (n-capped); mode
    'determinant' computes the same weights as principal minors of I - P.
    """
    _require_irreducible(P)
    counts = None
    if mode == "enumeration":
        gammas, counts = _gamma_enumeration(P, cap)
    elif mode == "determinant":
        gammas = _gamma_determinant(P)
    else:
        raise ValueError(f"unknown tree mode {mode!r}")
    worst = check_balance(P, gammas)
    pi = gammas / gammas.sum()
    evidence: dict[str, Any] = {
        "gamma": gammas.tolist(),
        "balance_rel_discrepancy": worst,
    }
    if counts is not None:
        evidence["arborescence_counts"] = counts
    return StationaryResult(
        pi=Distribution(P.space, pi),
        method=f"tree_{mode}",
        residual=stationary_residual(P, pi),
        evidence=evidence,
    )


def return_time_table(P: StochasticMatrix, z: int) -> ReturnTimeTable:
    """Expected visits to each state before the first return to z.

    The defining infinite sum collapses exactly: with Q the matrix P
    restricted away from z and b the z-row off z, the visit vector is
    v = b (I - Q)^{-1}, and the anchor itself is visited once.
    """
    _require_irreducible(P)
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


def stationary_by_return_time(P: StochasticMatrix) -> StationaryResult:
    """Normalize the visit counts of anchor 0; verify anchor-independence
    through the identity pi_x * E_x(return time to x) = 1 for every x.
    One solve per anchor: anchor 0's table serves both."""
    table = return_time_table(P, 0)
    pi = table.visit_counts / table.expected_return
    expected_returns = []
    for x in range(P.n):
        ert = (table if x == 0 else return_time_table(P, x)).expected_return
        expected_returns.append(ert)
        if abs(pi[x] * ert - 1.0) > 1e-8:
            raise BalanceViolationError(
                f"pi_x * E_x tau+ = {pi[x] * ert:.12g} != 1 at state {x}"
            )
    return StationaryResult(
        pi=Distribution(P.space, pi),
        method="return_time",
        residual=stationary_residual(P, pi),
        evidence={
            "anchor": 0,
            "visit_counts": table.visit_counts.tolist(),
            "expected_return": table.expected_return,
            "expected_returns_per_state": expected_returns,
        },
    )


def monte_carlo_return(
    P: StochasticMatrix, z: int, trials: int, seed: int, max_steps: int = 1_000_000
) -> tuple[float, float]:
    """Sample mean and standard error of the first return time to z.

    All trials advance in lockstep, so for a fixed seed the result does not
    depend on how the work is scheduled.
    """
    _check_walk(P, (z,), trials)
    _check_at_least("max_steps", max_steps, 1)
    _require_irreducible(P)
    times = np.full(trials, -1, dtype=np.int64)
    _walk_until(
        P, (np.full(trials, z),), lambda s: s == z, times, max_steps,
        np.random.default_rng(seed),
    )
    if (times < 0).any():
        raise MaxIterExceededError(
            f"{(times < 0).sum()} trials did not return in {max_steps} steps"
        )
    mean = float(times.mean())
    se = float(times.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, se


def _power_iterate(P: StochasticMatrix, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Iterate mu <- mu P from the uniform vector until two successive
    iterates differ by less than tol in every entry. Returns the last
    iterate (not renormalized) and the number of products taken."""
    steps = itertools.pairwise(orbit(np.full(P.n, 1.0 / P.n), P.entries))
    for it, (mu, nxt) in zip(range(1, max_iter + 1), steps):
        if np.abs(nxt - mu).max() < tol:
            return nxt, it
    raise NoConvergenceError(f"power iteration did not settle in {max_iter} steps")


def stationary_by_power(
    P: StochasticMatrix, tol: float = 1e-12, max_iter: int = 100_000
) -> StationaryResult:
    """Power iteration mu <- mu P from uniform; requires ergodicity."""
    require_ergodic(P, "power iteration")
    mu, it = _power_iterate(P, tol, max_iter)
    mu = mu / mu.sum()
    return StationaryResult(
        pi=Distribution(P.space, mu),
        method="power_iteration",
        residual=stationary_residual(P, mu),
        evidence={"iterations": it},
    )
