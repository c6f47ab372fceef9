"""Independent coupling of two copies of a chain, and what it proves.

The product chain runs two independent copies side by side; once the pair
meets, the sticking splice makes the second copy shadow the first, and the
coupling lemma turns the meeting-time tail into a bound on the TV distance
between the two marginal laws. Everything here keeps simulation and exact
computation separate so each can check the other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .chain import Distribution, StochasticMatrix, StateSpace, check_stationary, tv_distance
from .chain import _advance, _check_at_least, _check_walk, _cumrows, _walk_until, orbit
from .envelope import delta_curve
from .errors import MarginalMismatchError, NeverMetError
from .structure import analyze, require_ergodic

#: Cap for the exact absorbing-chain tail oracle; the product matrix is
#: n^2 x n^2, so this keeps it at 36 x 36.
EXACT_TAIL_CAP = 6


@dataclass(frozen=True)
class ProductChain:
    base: StochasticMatrix
    product_matrix: StochasticMatrix  # over flattened pairs (i, k) -> i * n + k

    @property
    def n(self) -> int:
        return self.base.n

    def flat(self, i: int, k: int) -> int:
        return i * self.n + k

    def pair(self, s: int) -> tuple[int, int]:
        return divmod(s, self.n)


@dataclass(frozen=True)
class CouplingTrace:
    tau_samples: np.ndarray  # meeting times of the non-truncated runs
    mode: str | tuple[str, int]  # "meet_anywhere" or ("meet_at_state", t)
    trials: int
    seed: int
    truncated: int  # runs that hit max_steps without meeting (excluded)

    def tail(self, i: int) -> float:
        """Empirical Pr(tau > i) over the completed runs."""
        return float((self.tau_samples > i).mean())

    def to_json(self) -> str:
        taus = self.tau_samples
        table = []
        for n in range(int(taus.max()) + 1 if taus.size else 0):
            survivors = int((taus > n).sum())
            table.append([n, survivors, survivors / taus.size])
        return json.dumps(
            {
                "mode": list(self.mode) if isinstance(self.mode, tuple) else self.mode,
                "trials": self.trials,
                "truncated": self.truncated,
                "seed": self.seed,
                "tail": table,
            }
        )


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


def _meeting_mask(x: np.ndarray, y: np.ndarray, mode) -> np.ndarray:
    if mode == "meet_anywhere":
        return x == y
    if isinstance(mode, tuple) and mode[0] == "meet_at_state":
        t = mode[1]
        return (x == t) & (y == t)
    raise ValueError(f"unknown meeting mode {mode!r}")


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
    target = (mode[1],) if isinstance(mode, tuple) else ()
    _check_walk(P, tuple(start) + target, trials)
    _check_at_least("max_steps", max_steps, 1)
    require_ergodic(P, "meeting of two independent copies")
    x = np.full(trials, start[0])
    y = np.full(trials, start[1])
    tau = np.where(_meeting_mask(x, y, mode), 0, -1)
    _walk_until(
        P, (x, y), lambda a, b: _meeting_mask(a, b, mode), tau, max_steps,
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


def stick(
    x_path: Sequence[int], y_path: Sequence[int], mode="meet_anywhere"
) -> list[int]:
    """Splice: follow y through the meeting time tau, then follow x.

    The result satisfies now-equals-forever with respect to x: it equals
    x from tau onward (at tau the two paths agree by definition).
    """
    if len(x_path) != len(y_path):
        raise ValueError("paths must have equal length")
    x = np.asarray(x_path)
    y = np.asarray(y_path)
    met = np.flatnonzero(_meeting_mask(x, y, mode))
    if met.size == 0:
        raise NeverMetError("meeting condition never holds in the given paths")
    tau = int(met[0])
    return list(y[: tau + 1]) + list(x[tau + 1 :])


def exact_meeting_tail(
    P: StochasticMatrix, start: tuple[int, int], horizon: int, mode="meet_anywhere"
) -> np.ndarray:
    """Exact Pr(tau > i) for i = 0..horizon via the absorbing product chain:
    meeting states are made absorbing and the surviving mass is read off.
    Serves as the oracle for the simulation; O(n^4) memory, hence capped."""
    n = P.n
    if n > EXACT_TAIL_CAP:
        raise ValueError(f"exact tail oracle capped at n = {EXACT_TAIL_CAP}")
    pc = build_product_chain(P)
    Q = pc.product_matrix.entries.copy()
    pairs = np.arange(n * n)
    xs, ys = np.divmod(pairs, n)
    absorbing = _meeting_mask(xs, ys, mode)
    Q[absorbing] = 0.0
    Q[absorbing, pairs[absorbing]] = 1.0
    point = np.zeros(n * n)
    point[pc.flat(*start)] = 1.0
    return np.array([v[~absorbing].sum() for v in islice(orbit(point, Q), horizon + 1)])


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
    x = _advance(np.zeros(trials, dtype=np.int64), _cumrows(pi), rng)
    y = np.full(trials, start_y)
    tau = np.where(x == y, 0, -1)
    _walk_until(P, (x, y), np.equal, tau, horizon, rng)
    tau[tau < 0] = horizon + 1  # censored beyond horizon

    rows = []
    passed = True
    point = np.zeros(P.n)
    point[start_y] = 1.0
    for i, row_y in zip(range(horizon + 1), orbit(point, P.entries)):
        exact = tv_distance(pi, Distribution(P.space, row_y))
        k = int((tau > i).sum())
        tail = k / trials
        # Agresti-Coull-adjusted s.e.: the plain binomial s.e. degenerates
        # to 0 at zero counts, where the true tail is merely below ~1/trials
        p_adj = (k + 2.0) / (trials + 4.0)
        se = float(np.sqrt(p_adj * (1.0 - p_adj) / trials))
        if exact > tail + 3.0 * se:
            passed = False
        rows.append(CouplingLemmaRow(step=i, exact_tv=exact, tail=tail, tail_se=se))
    return CouplingLemmaReport(rows=tuple(rows), passed=passed, trials=trials, seed=seed)


@dataclass(frozen=True)
class ConvergenceCurve:
    discrepancies: tuple[float, ...]  # max_{i,j,k} |P^n(i,k) - P^n(j,k)|, n = 1..horizon
    monotone: bool
    vanishing: bool


def convergence_by_coupling(
    P: StochasticMatrix, horizon: int = 50, tol: float = 1e-12
) -> ConvergenceCurve:
    """Exact row-discrepancy diagnostics: the worst pairwise column gap of
    P^n must shrink monotonically toward zero for an ergodic chain."""
    require_ergodic(P, "vanishing row discrepancy")
    disc = delta_curve(P, horizon)
    monotone = all(b <= a + tol for a, b in zip(disc, disc[1:]))
    return ConvergenceCurve(
        discrepancies=tuple(disc),
        monotone=monotone,
        vanishing=disc[-1] < disc[0] or disc[-1] < tol,
    )
