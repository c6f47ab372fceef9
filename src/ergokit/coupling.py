"""Independent coupling of two copies of a chain, and what it proves.

The product chain runs two independent copies side by side, and the
coupling lemma turns the tail of their meeting time into a bound on the TV
distance between the two marginal laws. Everything here keeps simulation
and exact computation separate so each can check the other: the exact tail
follows the n x n unmet pair mass, so it needs no product matrix and holds
at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .chain import Distribution, StochasticMatrix, StateSpace, check_stationary
from .chain import _Sampler, _check_at_least, _check_walk, _walk_until, orbit
from .errors import ArgumentRangeError, MarginalMismatchError, NeverMetError
from .structure import analyze, require_ergodic


@dataclass(frozen=True)
class ProductChain:
    base: StochasticMatrix
    product_matrix: StochasticMatrix  # over flattened pairs (i, k) -> i * n + k

    @property
    def n(self) -> int:
        return self.base.n

    def flat(self, i: int, k: int) -> int:
        return i * self.n + k


@dataclass(frozen=True)
class CouplingTrace:
    tau_samples: np.ndarray  # meeting times of the non-truncated runs
    mode: str | tuple[str, int]  # "meet_anywhere" or ("meet_at_state", t)
    trials: int
    seed: int
    truncated: int  # runs that hit max_steps without meeting (excluded)

    def tail(self, i: int) -> float:
        """Empirical Pr(tau > i) over the completed runs; NeverMetError
        when every run was truncated."""
        if self.tau_samples.size == 0:
            raise NeverMetError(
                f"no completed run: all {self.truncated} runs hit max_steps without meeting"
            )
        return float((self.tau_samples > i).mean())


def build_product_chain(P: StochasticMatrix) -> ProductChain:
    """Transition matrix of two independent copies:
    Q((i,k),(j,l)) = P(i,j) P(k,l), i.e. the Kronecker square of P."""
    n = P.n
    Q = np.kron(P.entries, P.entries)
    # faithfulness: from pair s = i * n + k, each copy's marginal transition
    # law must be exactly P(i, .) and P(k, .)
    marg_x = Q.reshape(n * n, n, n).sum(axis=2)
    marg_y = Q.reshape(n * n, n, n).sum(axis=1)
    gap = max(
        np.abs(marg_x - np.repeat(P.entries, n, axis=0)).max(),
        np.abs(marg_y - np.tile(P.entries, (n, 1))).max(),
    )
    if not gap < 1e-12:
        raise MarginalMismatchError(
            f"product-chain marginals deviate from P by {gap:.3g}"
        )
    labels = tuple(
        f"({P.space.labels[i]},{P.space.labels[k]})"
        for i in range(n)
        for k in range(n)
    )
    return ProductChain(
        base=P, product_matrix=StochasticMatrix(StateSpace(labels), Q)
    )


def product_ergodicity(P: StochasticMatrix) -> bool:
    """Ergodicity of the product chain; equals ergodicity of P itself, and
    the two verdicts are cross-checked here."""
    pc = build_product_chain(P)
    verdict = analyze(pc.product_matrix, with_primitivity=False).ergodic
    base = analyze(P, with_primitivity=False).ergodic
    if verdict != base:
        raise AssertionError(
            f"product ergodicity {verdict} disagrees with base ergodicity {base}"
        )
    return verdict


def _meeting_targets(mode) -> tuple:
    """The states a meeting mode names: none for "meet_anywhere", (t,) for
    ("meet_at_state", t). Any other mode is an ArgumentRangeError."""
    if isinstance(mode, str) and mode == "meet_anywhere":
        return ()
    if isinstance(mode, tuple) and len(mode) == 2 and mode[0] == "meet_at_state":
        return (mode[1],)
    raise ArgumentRangeError(
        f"unknown meeting mode {mode!r}: not \"meet_anywhere\" or (\"meet_at_state\", t)"
    )


def _check_coupling(P: StochasticMatrix, start, mode, trials: int) -> None:
    """Reject a malformed mode, a start that is not a pair of states of P, a
    target that is not a state of P and fewer than one trial."""
    targets = _meeting_targets(mode)
    if len(start) != 2:
        raise ArgumentRangeError(f"start {start!r} is not a pair of states")
    _check_walk(P, tuple(start) + targets, trials)


def _meeting_mask(x: np.ndarray, y: np.ndarray, mode) -> np.ndarray:
    """Where the pair meets, for a mode :func:`_meeting_targets` accepts."""
    if mode == "meet_anywhere":
        return x == y
    t = mode[1]
    return (x == t) & (y == t)


def simulate_coupling(
    P: StochasticMatrix,
    start: tuple[int, int],
    mode="meet_anywhere",
    trials: int = 10_000,
    max_steps: int = 10_000,
    seed: int = 0,
) -> CouplingTrace:
    """Run two independent copies from `start` and record meeting times.

    Runs that hit max_steps without meeting are excluded from the samples
    and reported in `truncated`. Deterministic for a fixed seed: all trials
    advance in lockstep from a single generator.
    """
    _check_coupling(P, start, mode, trials)
    _check_at_least("max_steps", max_steps, 1)
    require_ergodic(P, "meeting of two independent copies")
    states = np.empty((2, trials), dtype=np.intp)
    states[0], states[1] = start
    tau = np.where(_meeting_mask(*states, mode), 0, -1)
    _walk_until(
        P, states, lambda a, b: _meeting_mask(a, b, mode), tau, max_steps,
        np.random.default_rng(seed),
    )
    truncated = int((tau < 0).sum())
    return CouplingTrace(
        tau_samples=tau[tau >= 0],
        mode=mode,
        trials=trials,
        seed=seed,
        truncated=truncated,
    )


def exact_meeting_tail(
    P: StochasticMatrix, start: tuple[int, int], horizon: int, mode="meet_anywhere"
) -> np.ndarray:
    """Exact Pr(tau > i) for i = 0..horizon from the unmet pair mass: M(x, y)
    is the chance that the pair is at (x, y) and has not met, so M_0 is the
    point mass at `start`, each step is M <- P^T M P with the meeting set
    zeroed, and the tail is M's sum. Serves as the oracle for the simulation;
    O(n^2) memory and O(n^3) per step, at any n."""
    _check_coupling(P, start, mode, 1)
    _check_at_least("horizon", horizon, 0)
    met = _meeting_mask(*np.indices((P.n, P.n)), mode)
    M = np.zeros((P.n, P.n))
    M[tuple(start)] = 1.0
    tail = np.empty(horizon + 1)
    for i in range(horizon + 1):
        if i:
            M = P.entries.T @ M @ P.entries
        M[met] = 0.0
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
    passed: bool  # exact TV <= tail + 3 s.e. at every step
    trials: int
    seed: int

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
    _check_at_least("horizon", horizon, 0)
    require_ergodic(P, "coupling lemma check")
    check_stationary(P, pi)
    rng = np.random.default_rng(seed)
    states = np.zeros((2, trials), dtype=np.intp)  # X from pi, Y at start_y
    _Sampler(pi.probs[None, :]).step(states[0], rng)
    states[1] = start_y
    tau = np.where(states[0] == states[1], 0, -1)
    _walk_until(P, states, np.equal, tau, horizon, rng)
    tau[tau < 0] = horizon + 1  # censored beyond horizon

    point = np.zeros(P.n)
    point[start_y] = 1.0
    laws = np.stack(list(islice(orbit(point, P.entries), horizon + 1)))
    # normalized as a Distribution would be, so exact_tv is tv_distance's bit for bit
    laws = np.clip(laws, 0.0, None) / laws.sum(axis=1, keepdims=True)
    exact = np.minimum(1.0, 0.5 * np.abs(pi.probs - laws).sum(axis=1))
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
    passed = not (exact > tail + 3.0 * se).any()
    return CouplingLemmaReport(rows=rows, passed=passed, trials=trials, seed=seed)
