"""Non-iterative routes to the stationary distribution, cross-validated.

Three independent constructions: a direct linear solve (with a rank check
backing the uniqueness argument), the upward-spanning-tree weights (by
exhaustive enumeration or by the matrix-tree determinant shortcut), and
the expected-visits-before-return formula. A Monte Carlo return-time
estimator provides a stochastic cross-check. None of these requires
aperiodicity; irreducibility is checked up front.

The determinant and return-time routes each take one inverse: every
principal minor of I - P of order n - 1 is a rank-2 update of one of them,
so all n tree weights (matrix determinant lemma) and all n expected return
times (Woodbury) cost O(n^3) in all. The trees invert I - P without state
n - 1 and the return times without state 0, so the two routes share no
factorisation and a defect in one cannot agree with itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

import numpy as np

from .chain import Distribution, StochasticMatrix, orbit, stationary_residual
from .chain import _check_at_least, _check_walk, _memoized, _walk_until
from .errors import (
    ArgumentRangeError,
    BalanceViolationError,
    MaxIterExceededError,
    NoConvergenceError,
    RankDeficientError,
    SingularSystemError,
    TooLargeError,
)
from .structure import require_ergodic, require_irreducible

#: A dense chain has (n-1)^(n-1) candidate parent functions per root: about
#: 2 s at n = 8, 1 GB of squarings at n = 9. The determinant route has no cap.
ENUMERATION_CAP = 8

#: Power iteration stops once two successive iterates agree to POWER_TOL in
#: every entry, and gives up after POWER_MAX_ITER steps, one vector-matrix
#: product each: a stiff chain such as two_state(1e-6, 2e-6) fails inline.
POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000

#: A Monte Carlo return that takes longer than this many steps raises: the
#: mean return time 1 / pi(z) is then far too long to estimate by walking.
RETURN_MAX_STEPS = 1_000_000

#: Raw tree weights pass the flow-balance check when no state's inflow and
#: outflow differ by more than this, relative to the larger of the two.
BALANCE_RTOL = 1e-9


@dataclass(frozen=True)
class StationaryResult:
    pi: Distribution
    method: str  # linear_solve | tree_enumeration | tree_determinant |
    #              return_time | envelope | power_iteration
    residual: float  # ||pi P - pi||_inf
    evidence: Mapping[str, Any] = field(default_factory=dict)  # read-only

    def __post_init__(self):
        # the linear-solve result is shared through the per-matrix memo, so
        # callers get a read-only view of a private copy
        object.__setattr__(self, "evidence", MappingProxyType(dict(self.evidence)))


def _result(P: StochasticMatrix, pi: np.ndarray, method: str, **evidence) -> StationaryResult:
    """A route's result: pi as a Distribution, the residual of the raw
    vector the route computed, and the route's evidence."""
    return StationaryResult(Distribution(P.space, pi), method, stationary_residual(P, pi), evidence)


@_memoized
def stationary_linear(P: StochasticMatrix) -> StationaryResult:
    """Solve pi (P - I) = 0 with sum(pi) = 1 by a dense partial-pivot solve.

    Also asserts rank(P - I) = n - 1: a one-dimensional kernel is exactly
    what irreducibility promises, so a larger nullity signals numerical
    trouble rather than a property of the chain. Solved once per matrix:
    the mixing scan, ``mix --csv`` and ``couple`` read the memoized result.
    """
    require_irreducible(P, "linear solve")
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
    return _result(P, pi, "linear_solve", rank=int(rank))


def _tree_table(P: StochasticMatrix, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Every upward spanning tree rooted at `root`, and its weight.

    Each candidate parent function f (f[y] a structural out-neighbour of
    y != root, f[root] = root) is one row of an int array, in
    itertools.product order. A row is a tree iff f^(2^k), 2^k > n - 1,
    sends every state to the root: a state on a cycle never gets there.
    """
    n = P.n
    if n > ENUMERATION_CAP:
        raise TooLargeError(f"n = {n} exceeds enumeration cap {ENUMERATION_CAP}")
    states = np.arange(n, dtype=np.int8)
    choices = [
        states[(P.entries[y] > 0.0) & (states != y)] if y != root else states[[root]]
        for y in range(n)
    ]
    F = np.stack(np.meshgrid(*choices, indexing="ij", copy=False), axis=-1).reshape(-1, n)
    G = F
    for _ in range((n - 1).bit_length()):
        G = np.take_along_axis(G, G, axis=1)
    F = F[(G == root).all(axis=1)]
    others = states[states != root]
    return F, P.entries[others, F[:, others]].prod(axis=1)


def _gamma_enumeration(P: StochasticMatrix) -> tuple[np.ndarray, list[int]]:
    """Per root, the summed tree weights (the builtin sum, in table order)
    and the number of trees; one root's table at a time."""
    gammas, counts = [], []
    for x in range(P.n):
        weights = _tree_table(P, x)[1]
        gammas.append(sum(weights.tolist()))
        counts.append(len(weights))
    return np.array(gammas), counts


class _SlotSwap(NamedTuple):
    """A = (I - P) without state `base`, its inverse G, and for every slot x
    of A the 2x2 capacitance C_x = I_2 + V^T G U of one slot swap.

    Put `base` in slot x of A, in place of x: the result is (I - P) without
    x. It differs from A only in row and column x, so it is A + U V^T with
    U = [e_x, v] and V = [u, e_x]: u is row `base` of I - P minus row x of
    A (slot x takes the corner), v is column `base` minus column x of A,
    zero in slot x. As row x of A times G is e_x^T, every entry of C_x is O(1)
    from G's diagonal, h = p G and k = G q, where p and q are row and column
    `base` of P without their `base` entry. Slots are the states in order,
    `base` left out.
    """

    A: np.ndarray
    G: np.ndarray
    h: np.ndarray  # p G: expected visits per excursion from `base`
    g: np.ndarray  # diag G
    t: np.ndarray  # 1 - p_bb + p_bx = (I - P)_{base,base} - (I - P)_{base,x}
    w: np.ndarray  # 1 - p_xx + p_xb = (I - P)_{x,x} - (I - P)_{x,base}
    c11: np.ndarray  # 1 + u^T G e_x
    c12: np.ndarray  # u^T G v
    c22: np.ndarray  # 1 + e_x^T G v; c21 = e_x^T G e_x is g

    @property
    def det(self) -> np.ndarray:
        """det C_x = det((I - P) without x) / det A, per slot."""
        return self.c11 * self.c22 - self.c12 * self.g


def _slot_swap(P: StochasticMatrix, base: int, what: str) -> _SlotSwap:
    """One inverse of (I - P) without `base` (0 or n - 1), built straight
    from P's entries, and the capacitances of all n - 1 slot swaps."""
    n = P.n
    rest = slice(1, n) if base == 0 else slice(0, n - 1)
    A = np.negative(P.entries[rest, rest])
    A.flat[::n] += 1.0  # the diagonal of an (n-1) x (n-1) array
    try:
        G = np.linalg.inv(A)
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"{what}: I - P without state {base} is singular: {e}") from e
    row, col = P.entries[base, rest], P.entries[rest, base]
    with np.errstate(over="ignore", invalid="ignore"):
        h, k, g = row @ G, G @ col, G.diagonal()
        t = (1.0 - P.entries[base, base]) + row
        w = col + A.diagonal()
        c22 = w * g - k
        c12 = h @ col + row - w * h + t * (c22 - 1.0)
        return _SlotSwap(A, G, h, g, t, w, t * g - h, c12, c22)


def _gamma_determinant(P: StochasticMatrix) -> np.ndarray:
    """Matrix-tree shortcut: gamma(x) is the principal minor of I - P with
    row and column x deleted. The root r = n - 1 has det A, A = (I - P)
    without r; every other minor is a rank-2 swap of A, so by the matrix
    determinant lemma gamma(x) = det A * det C_x: one det and one inverse
    in all, O(n^3). Cross-validated against enumeration in tests."""
    n = P.n
    if n == 2:  # each minor is the other diagonal entry; A may round to 0
        return 1.0 - P.entries.diagonal()[::-1]
    swap = _slot_swap(P, n - 1, "tree_determinant")
    gammas = np.empty(n)
    gammas[-1] = np.linalg.det(swap.A)
    with np.errstate(over="ignore", invalid="ignore"):
        gammas[:-1] = gammas[-1] * swap.det
    return gammas


def check_balance(P: StochasticMatrix, gammas: np.ndarray) -> float:
    """Verify flow balance for the raw tree weights: for every y,
    sum_{x != y} gamma(x) p_xy = sum_{x != y} gamma(y) p_yx.

    Returns the worst relative discrepancy; raises where it exceeds
    BALANCE_RTOL."""
    off = P.entries.copy()
    np.fill_diagonal(off, 0.0)
    inflow = gammas @ off
    outflow = gammas * off.sum(axis=1)
    scale = np.maximum(np.maximum(np.abs(inflow), np.abs(outflow)), 1e-300)
    worst = float((np.abs(inflow - outflow) / scale).max())
    if not (worst <= BALANCE_RTOL):  # a NaN weight fails too
        raise BalanceViolationError(
            f"flow balance violated: relative discrepancy {worst:.3g}"
        )
    return worst


def stationary_by_trees(P: StochasticMatrix, mode: str = "determinant") -> StationaryResult:
    """Stationary distribution from upward-spanning-tree weights.

    mode 'enumeration' sums tree weights exhaustively (n-capped); mode
    'determinant' computes the same weights as principal minors of I - P.
    """
    if mode not in ("enumeration", "determinant"):
        raise ArgumentRangeError(f"mode {mode!r} is not \"enumeration\" or \"determinant\"")
    require_irreducible(P, f"tree_{mode}")
    counts = None
    if mode == "enumeration":
        gammas, counts = _gamma_enumeration(P)
    else:
        gammas = _gamma_determinant(P)
    total = gammas.sum()
    if not (np.isfinite(total) and total > 0.0):
        # 1 - p_xx rounds to 0, or products of tiny entries underflow
        raise SingularSystemError(f"tree_{mode}: tree weights sum to {total}, not > 0")
    worst = check_balance(P, gammas)
    evidence: dict[str, Any] = {"gamma": gammas.tolist(), "balance_rel_discrepancy": worst}
    if counts is not None:
        evidence["arborescence_counts"] = counts
    return _result(P, gammas / total, f"tree_{mode}", **evidence)


def _return_times(P: StochasticMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Anchor 0's visit counts, and E_x tau_x+ for every x, from one inverse.

    With A = (I - P) without 0 and G its inverse, anchor 0 visits the other
    states h = p G times per excursion (p: row 0 of P without p_00). Anchor
    x's system is A with slot x swapped for 0, so E_x tau_x+ =
    1 + b^T (A + U V^T)^{-1} 1, b row x of P in slot order, follows from
    Woodbury in O(1) per x, from G 1 and the swap's capacitance.
    """
    swap = _slot_swap(P, 0, "return_time")
    visits = np.empty(P.n)
    visits[0] = 1.0
    visits[1:] = swap.h
    ert = np.empty(P.n)
    ert[0] = visits.sum()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g1 = swap.G.sum(axis=1)  # expected steps to hit 0
        nu = swap.t * g1 - swap.h.sum() - 1.0  # V^T G 1 = [nu, g1]
        beta1, beta2 = swap.w * swap.g - 1.0, swap.w * (swap.c22 - 1.0)  # b^T G U
        correction = (  # b^T G U C^{-1} V^T G 1, times det C
            beta1 * (swap.c22 * nu - swap.c12 * g1) + beta2 * (swap.c11 * g1 - swap.g * nu)
        )
        ert[1:] = swap.w * g1 - correction / swap.det  # 1 + b^T G 1 = w * (G 1)_x
    return visits, ert


def stationary_by_return_time(P: StochasticMatrix) -> StationaryResult:
    """Normalize the visit counts of anchor 0; verify anchor-independence
    through the identity pi_x * E_x(return time to x) = 1 for every x.
    One inverse for all anchors: the other anchors' systems are rank-2
    swaps of anchor 0's, solved by Woodbury."""
    require_irreducible(P, "return-time table")
    visits, ert = _return_times(P)
    pi = visits / ert[0]
    with np.errstate(invalid="ignore"):
        kac = np.abs(pi * ert - 1.0)
    bad = np.flatnonzero(~(kac <= 1e-8))
    if bad.size:
        x = int(bad[0])
        raise BalanceViolationError(f"pi_x * E_x tau+ = {pi[x] * ert[x]:.12g} != 1 at state {x}")
    return _result(
        P, pi, "return_time",
        anchor=0,
        visit_counts=visits.tolist(),
        expected_return=float(ert[0]),
        expected_returns_per_state=ert.tolist(),
        kac_max_error=float(kac.max()),
    )


def monte_carlo_return(P: StochasticMatrix, z: int, trials: int, seed: int) -> tuple[float, float]:
    """Sample mean and standard error of the first return time to z; a trial
    that has not returned after RETURN_MAX_STEPS steps raises.

    All trials advance in lockstep, so for a fixed seed the result does not
    depend on how the work is scheduled.
    """
    _check_walk(P, (z,), trials)
    _check_at_least("seed", seed, 0)
    require_irreducible(P, "Monte Carlo return time")
    rng = np.random.default_rng(seed)
    times = _walk_until(P, np.full((1, trials), z, dtype=np.intp), RETURN_MAX_STEPS, rng, z)
    if (times < 0).any():
        raise MaxIterExceededError(
            f"{(times < 0).sum()} trials did not return in {RETURN_MAX_STEPS} steps"
        )
    mean = float(times.mean())
    se = float(times.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, se


def stationary_by_power(P: StochasticMatrix) -> StationaryResult:
    """Power iteration mu <- mu P from the uniform vector until two
    successive iterates differ by less than POWER_TOL in every entry, within
    POWER_MAX_ITER steps; requires ergodicity."""
    require_ergodic(P, "power iteration")
    steps = itertools.pairwise(orbit(np.full(P.n, 1.0 / P.n), P.entries))
    for it, (mu, nxt) in zip(range(1, POWER_MAX_ITER + 1), steps):
        if np.abs(nxt - mu).max() < POWER_TOL:
            break
    else:
        raise NoConvergenceError(f"power iteration did not settle in {POWER_MAX_ITER} steps")
    return _result(P, nxt / nxt.sum(), "power_iteration", iterations=it)
