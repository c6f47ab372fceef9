"""Independent coupling of two copies of a chain, and what it proves.

Two independent copies walk in lockstep, and the coupling lemma turns the
tail of their meeting time into a bound on the TV distance between the two
marginal laws. Two copies of an ergodic chain form an ergodic pair chain,
so every routine here asks ``require_ergodic`` of P alone. Simulation and
exact computation stay separate so each can check the other: the exact
tail follows the n x n unmet pair mass, no n^2 x n^2 matrix, at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .chain import Distribution, StochasticMatrix, check_stationary, orbit
from .chain import _Sampler, _check_at_least, _check_count, _check_walk, _tv_rows, _walk_until
from .errors import ArgumentRangeError
from .structure import require_ergodic

#: Steps the coupling lemma and the exact meeting tail look ahead at most.
#: The lemma keeps no law, only one report row per step: it takes each
#: step's exact TV as the orbit yields the law. The exact tail costs two
#: n x n products per step, about 1.6 s for 10,000 steps at n = 128 (one
#: BLAS thread, 2-core x86).
MAX_HORIZON = 10_000


@dataclass(frozen=True)
class CouplingTrace:
    tau_samples: np.ndarray  # meeting times of the non-truncated runs
    truncated: int  # runs that hit max_steps without meeting (excluded)


def _check_coupling(P: StochasticMatrix, start, trials: int) -> None:
    """Reject a start that is not a pair of states of P and fewer than one
    trial."""
    if len(start) != 2:
        raise ArgumentRangeError(f"start {start!r} is not a pair of states")
    _check_walk(P, tuple(start), trials)


def simulate_coupling(
    P: StochasticMatrix,
    start: tuple[int, int],
    mode="meet_anywhere",
    trials: int = 10_000,
    max_steps: int = 10_000,
    seed: int = 0,
) -> CouplingTrace:
    """Run two independent copies from `start` and record the first time
    they occupy the same state.

    Runs that hit max_steps without meeting are excluded from the samples
    and reported in `truncated`. Deterministic for a fixed seed: all trials
    advance in lockstep from a single generator. `mode` accepts only
    "meet_anywhere", the one meeting rule.
    """
    if not (isinstance(mode, str) and mode == "meet_anywhere"):
        raise ArgumentRangeError(f"mode {mode!r} is not \"meet_anywhere\"")
    _check_coupling(P, start, trials)
    _check_at_least("max_steps", max_steps, 1)
    _check_at_least("seed", seed, 0)
    require_ergodic(P, "meeting of two independent copies")
    states = np.empty((2, trials), dtype=np.intp)
    states[0], states[1] = start
    tau = _walk_until(P, states, max_steps, np.random.default_rng(seed))
    return CouplingTrace(tau_samples=tau[tau >= 0], truncated=int((tau < 0).sum()))


def exact_meeting_tail(P: StochasticMatrix, start: tuple[int, int], horizon: int) -> np.ndarray:
    """Exact Pr(tau > i) for i = 0..horizon from the unmet pair mass: M(x, y)
    is the chance that the pair is at (x, y) and has not met, so M_0 is the
    point mass at `start`, each step is M <- P^T M P with the diagonal
    zeroed, and the tail is M's sum. Serves as the oracle for the simulation;
    O(n^2) memory and O(n^3) per step, at any n."""
    _check_coupling(P, start, 1)
    _check_count("horizon", horizon, 0, MAX_HORIZON)
    M = np.zeros((P.n, P.n))
    M[tuple(start)] = 1.0
    tail = np.empty(horizon + 1)
    for i in range(horizon + 1):
        if i:
            M = P.entries.T @ M @ P.entries
        np.fill_diagonal(M, 0.0)
        tail[i] = M.sum()
    return tail


@dataclass(frozen=True)
class CouplingLemmaRow:
    step: int
    exact_tv: float
    tail: float
    tail_se: float


@dataclass(frozen=True)
class CouplingLemmaReport:
    rows: tuple[CouplingLemmaRow, ...]
    trials: int

    @property
    def passed(self) -> bool:  # exact TV <= tail + 3 s.e. at every step
        return self.worst_slack >= 0.0

    @property
    def worst_slack(self) -> float:
        """min over steps of tail + 3 s.e. - exact TV: how far the closest
        step stayed inside the band (negative where the check failed)."""
        return min(r.tail + 3.0 * r.tail_se - r.exact_tv for r in self.rows)

    def to_csv(self) -> str:
        lines = ["step,exact_tv,tail,tail_se"]
        for r in self.rows:
            lines.append(f"{r.step},{r.exact_tv:.17g},{r.tail:.17g},{r.tail_se:.17g}")
        return "\n".join(lines) + "\n"


def verify_coupling_lemma(
    P: StochasticMatrix,
    pi: Distribution,
    start_y: int,
    horizon: int = 30,
    trials: int = 100_000,
    seed: int = 0,
) -> CouplingLemmaReport:
    """Compare the exact TV curve ||pi - P^i(start_y, .)|| against the
    empirical meeting-time tail of a coupling started (X from pi, Y at
    start_y). The lemma says the tail dominates; the verdict allows a
    3-standard-error band on the simulated side."""
    _check_walk(P, (start_y,), trials)
    _check_count("horizon", horizon, 0, MAX_HORIZON)
    _check_at_least("seed", seed, 0)
    require_ergodic(P, "coupling lemma check")
    check_stationary(P, pi)
    rng = np.random.default_rng(seed)
    states = np.zeros((2, trials), dtype=np.intp)  # X from pi, Y at start_y
    # pi as a table of one row: the draws are column offsets, each an exact
    # multiple of the stride; the start sampler goes before the walk's own
    start = _Sampler(pi.probs[None, :])
    start.step(states[0], rng)
    states[0] //= start.stride
    del start
    states[1] = start_y
    tau = _walk_until(P, states, horizon, rng)
    tau[tau < 0] = horizon + 1  # censored beyond horizon

    def exact_tv(law: np.ndarray) -> float:
        # normalized as a Distribution would be; the law is never negative
        return min(1.0, _tv_rows((law / law.sum())[None, :], pi.probs))

    point = np.zeros(P.n)
    point[start_y] = 1.0
    laws = islice(orbit(point, P.entries), horizon + 1)
    exact = np.fromiter(map(exact_tv, laws), float, horizon + 1)
    k = trials - np.cumsum(np.bincount(tau, minlength=horizon + 2))[: horizon + 1]
    tail = k / trials
    # Agresti-Coull-adjusted s.e.: the plain binomial s.e. degenerates
    # to 0 at zero counts, where the true tail is merely below ~1/trials
    p_adj = (k + 2.0) / (trials + 4.0)
    se = np.sqrt(p_adj * (1.0 - p_adj) / trials)
    rows = tuple(
        CouplingLemmaRow(step=i, exact_tv=e, tail=t, tail_se=s)
        for i, (e, t, s) in enumerate(zip(exact.tolist(), tail.tolist(), se.tolist()))
    )
    return CouplingLemmaReport(rows=rows, trials=trials)
