"""Core chain types: state spaces, stochastic matrices, distributions, TV
metrics, and the lockstep walker loop that every simulation runs on.

Every simulated draw, a walker step or a start state drawn from pi, goes
through one inverse-CDF sampler: each row's cumulative sums are padded with
1.0 to a power-of-two width w, and a branchless binary search finds the
first column whose cumulative sum reaches the walker's uniform. A step thus
costs O(log n) per walker, with no (walkers x n) temporary, and it returns
exactly the state that counting the cumulative sums below the uniform
would.

All values are immutable after construction and all operations but the
walker loop (which fills its caller's arrays) are pure, so everything here
is safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import (
    ArgumentRangeError,
    ChainParseError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonSquareError,
    NotStationaryError,
    RowSumError,
    SpaceMismatchError,
    StateLabelError,
)

#: Ingestion tolerance on row sums. File round-tripping produces sub-ulp
#: drift; anything worse than this is a real data problem.
ROW_SUM_TOL = 1e-12

#: Residual threshold for "pi is stationary for P" guards. Above accumulated
#: powering error at desk scale, below any real violation.
STATIONARY_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class StateSpace:
    """An ordered, labeled finite state space."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise StateLabelError("state space must contain at least one state")
        if len(set(self.labels)) != len(self.labels):
            dup = next(x for i, x in enumerate(self.labels) if x in self.labels[:i])
            raise StateLabelError(f"state label {dup!r} appears more than once")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def _freeze(a: np.ndarray) -> np.ndarray:
    # a private copy: a caller's array (or a view of one) stays writable
    # without reaching into the frozen value
    a = np.array(a, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StochasticMatrix:
    """A validated row-stochastic square matrix over a labeled state space.

    Construct via :func:`validate_stochastic`; the raw constructor trusts
    its input and is used internally for derived matrices (powers, products)
    whose stochasticity is guaranteed by closure.
    """

    space: StateSpace
    entries: np.ndarray = field(repr=False)
    #: Facts derived from the entries, filled on first use (the structural
    #: report of :func:`ergokit.structure.analyze`). The entries are
    #: read-only, so nothing here can go stale.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def n(self) -> int:
        return self.space.size

    def row(self, x: int) -> "Distribution":
        """The one-step distribution out of state x."""
        return Distribution(self.space, self.entries[x])

    def min_entry(self) -> float:
        return float(self.entries.min())

    def __matmul__(self, other: "StochasticMatrix") -> "StochasticMatrix":
        if self.space != other.space:
            raise SpaceMismatchError("matrix product across different state spaces")
        return StochasticMatrix(self.space, self.entries @ other.entries)

    def to_json(self) -> str:
        return json.dumps(
            {"states": list(self.space.labels), "matrix": self.entries.tolist()}
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.space.labels)
        for r in self.entries:
            w.writerow([format(v, ".17g") for v in r])
        return buf.getvalue()


@dataclass(frozen=True)
class Distribution:
    """A validated probability row vector on a state space."""

    space: StateSpace
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.space.size,):
            raise SpaceMismatchError(
                f"probability vector of length {p.shape} on a "
                f"{self.space.size}-state space"
            )
        if not np.isfinite(p).all():
            k = int(np.flatnonzero(~np.isfinite(p))[0])
            raise NonFiniteEntryError(f"non-finite probability {p[k]} at state {k}")
        if (p < -ROW_SUM_TOL).any():
            raise NegativeEntryError("negative probability entry")
        s = float(p.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {s}, not 1")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, None) / s))

    @classmethod
    def point_mass(cls, space: StateSpace, x: int) -> "Distribution":
        p = np.zeros(space.size)
        p[x] = 1.0
        return cls(space, p)

    @classmethod
    def uniform(cls, space: StateSpace) -> "Distribution":
        return cls(space, np.full(space.size, 1.0 / space.size))


def validate_stochastic(
    raw_matrix,
    labels,
    tolerance: float = ROW_SUM_TOL,
    renormalize: bool = True,
) -> StochasticMatrix:
    """Validate a raw square matrix as row-stochastic and wrap it.

    Rows are renormalized (when ``renormalize``) only if every row sum is
    within ``tolerance`` of 1; a worse row rejects the whole matrix.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    try:
        a = np.asarray(raw_matrix, dtype=np.float64)
    except (TypeError, ValueError) as e:
        # numpy reads neither ragged rows nor entries that are not numbers
        n = len(raw_matrix)
        for i, row in enumerate(raw_matrix):
            if not hasattr(row, "__len__") or len(row) != n:
                raise NonSquareError(f"row {i} does not have {n} entries") from e
        raise ChainParseError(f"matrix entries are not all numbers: {e}") from e
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"matrix of shape {a.shape} is not square")
    if isinstance(labels, str):  # tuple() would split it into characters
        raise StateLabelError(f"state labels are a str ({labels!r}), not a list of names")
    try:
        space = StateSpace(tuple(labels))
    except TypeError as e:  # labels not iterable, or a label not hashable
        raise StateLabelError(f"state labels are not a list of names: {e}") from e
    if a.shape[0] != space.size:
        raise NonSquareError(
            f"{a.shape[0]}x{a.shape[1]} matrix with {space.size} labels"
        )
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise NonFiniteEntryError(f"non-finite entry {a[i, j]} at row {i}, column {j}")
    if (a < 0).any():
        i, j = np.argwhere(a < 0)[0]
        raise NegativeEntryError(f"negative entry {a[i, j]} at ({i}, {j})")
    sums = a.sum(axis=1)
    dev = np.abs(sums - 1.0)
    worst = int(np.argmax(dev))
    if dev[worst] > tolerance:
        raise RowSumError(
            f"row {worst} sums to {sums[worst]:.17g} "
            f"(deviation {dev[worst]:.3g} > tolerance {tolerance:.3g})"
        )
    if renormalize:
        a = a / sums[:, None]
    return StochasticMatrix(space, a)


def power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """The k-step transition matrix P^k; power(P, 0) is the identity."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return StochasticMatrix(P.space, np.linalg.matrix_power(P.entries, k))


def _first_power(M: np.ndarray, holds, cap: int, mul=np.matmul):
    """The least k in 1..cap with ``holds(M^k)``, as (k, M^k), or None.
    ``holds`` must stay true once true, and ``mul`` builds the powers.

    Squares M until ``holds`` is true, then binary lifting over the stored
    squares: O(log k) products, not k, and O(n^2 log k) memory."""
    squares = [M]  # squares[i] = M^(2^i)
    while not holds(squares[-1]):
        if 1 << (len(squares) - 1) >= cap:
            return None
        squares.append(mul(squares[-1], squares[-1]))
    # the largest failing k, bit by bit; the last power that held is M^(k+1)
    k, R, found = 0, None, squares[-1]
    for i in range(len(squares) - 2, -1, -1):
        C = squares[i] if R is None else mul(R, squares[i])
        if holds(C):
            found = C
        else:
            k, R = k + (1 << i), C
    return (k + 1, found) if k < cap else None


def orbit(S: np.ndarray, M: np.ndarray):
    """Yield S, S M, S M^2, ... without end, each as the running product of
    the one before and M. Every P^t curve in ergokit is read off this
    stream, so each power is formed once and always the same way."""
    while True:
        yield S
        S = S @ M


def evolve(sigma: Distribution, P: StochasticMatrix, steps: int = 1) -> Distribution:
    """Push a distribution through `steps` transitions: sigma P^steps."""
    if sigma.space != P.space:
        raise SpaceMismatchError("distribution and matrix on different spaces")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return Distribution(P.space, next(islice(orbit(sigma.probs, P.entries), steps, None)))


def tv_distance(mu: Distribution, nu: Distribution) -> float:
    """Total variation distance: half the L1 difference. Always in [0, 1]."""
    if mu.space != nu.space:
        raise SpaceMismatchError("distributions on different spaces")
    return min(1.0, 0.5 * float(np.abs(mu.probs - nu.probs).sum()))


def _tv_rows(rows: np.ndarray, pi: np.ndarray) -> float:
    """max over rows of TV(row, pi), on raw arrays."""
    return float(0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max())


def tv_curve(P: StochasticMatrix, pi: Distribution):
    """Yield d(0), d(1), ... without end: d(t) = max_x TV(P^t(x, .), pi), over
    the :func:`orbit` of the identity. The Doeblin bound reads this curve."""
    return (_tv_rows(S, pi.probs) for S in orbit(np.eye(P.n), P.entries))


def distance_from_stationary(P: StochasticMatrix, pi: Distribution, t: int) -> float:
    """Worst-case (over starting states) TV distance of P^t rows from pi."""
    check_stationary(P, pi)
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _tv_rows(power(P, t).entries, pi.probs)


def check_stationary(
    P: StochasticMatrix, pi: Distribution, tol: float = STATIONARY_RESIDUAL_TOL
) -> None:
    if pi.space != P.space:
        raise SpaceMismatchError("distribution and matrix on different spaces")
    residual = float(np.abs(pi.probs @ P.entries - pi.probs).max())
    if residual > tol:
        raise NotStationaryError(
            f"residual ||pi P - pi||_inf = {residual:.3g} exceeds {tol:.3g}"
        )


def stationary_residual(P: StochasticMatrix, pi: np.ndarray) -> float:
    """||pi P - pi||_inf on a raw vector; helper for result reporting."""
    return float(np.abs(pi @ P.entries - pi).max())


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ArgumentRangeError(f"{name} must be >= {least}, got {value}")


def _check_walk(P: StochasticMatrix, states, trials: int) -> None:
    """Reject start or target states outside 0..n-1 and fewer than one trial."""
    for x in states:
        if not 0 <= x < P.n:
            raise ArgumentRangeError(f"state {x} is not in 0..{P.n - 1}")
    _check_at_least("trials", trials, 1)


def _cumrows(P: "StochasticMatrix | Distribution") -> np.ndarray:
    """The sampler's table: each row's cumulative sums, padded with 1.0 to
    the power-of-two width w >= n. A Distribution is a table of one row.

    The last real column is set to exactly 1.0, so a uniform in [0, 1) never
    runs past it. Cumulative sums of nonnegative entries never decrease
    before that column, and from it on every value is 1.0, so along each row
    ``cum < u`` is True up to some column and False after it: the search in
    :func:`_advance` can halve the row."""
    rows = P.entries if isinstance(P, StochasticMatrix) else P.probs[None, :]
    n = rows.shape[1]
    cum = np.ones((rows.shape[0], 1 << (n - 1).bit_length()))
    np.cumsum(rows, axis=1, out=cum[:, :n])
    cum[:, n - 1] = 1.0
    return cum


def _advance(states: np.ndarray, cum: np.ndarray, rng) -> np.ndarray:
    """One draw per walker from row ``states`` of a :func:`_cumrows` table:
    the count of columns j with cum[s, j] < u, for one uniform u each.

    A branchless binary search over the flattened table. ``pos`` is the flat
    index of the last column known to hold a value below u; it starts just
    before the row, at s * w - 1. Each of the log2(w) halvings adds ``step``
    where the column ``step`` further on is still below u. It compares the
    same floats with the same uniform as counting across the whole row
    would, so it returns the same states bit for bit, in O(log n) time per
    walker and O(walkers) memory."""
    u = rng.random(states.size)
    w = cum.shape[1]
    flat = cum.reshape(-1)
    base = states * w
    pos = base - 1
    step = w >> 1
    while step:
        pos += (flat.take(pos + step) < u) * step
        step >>= 1
    pos += 1
    pos -= base
    return pos


def _walk_until(P: StochasticMatrix, walkers, hit, tau, max_steps: int, rng) -> None:
    """The one simulation loop. Walker j is open while tau[j] < 0 and has
    one state per chain copy: entry j of each array in ``walkers``. At step
    t = 1..max_steps each open walker moves every copy, in order, by one
    uniform draw; tau[j] = t where ``hit(*new_states)`` holds. Updates
    ``walkers`` and ``tau`` in place; walkers open after max_steps stay so."""
    cum = _cumrows(P)
    for t in range(1, max_steps + 1):
        idx = np.flatnonzero(tau < 0)
        if idx.size == 0:
            break
        for w in walkers:
            w[idx] = _advance(w[idx], cum, rng)
        tau[idx[hit(*(w[idx] for w in walkers))]] = t


# ---------------------------------------------------------------------------
# File ingestion / emission

def load_chain_json(text: str) -> StochasticMatrix:
    try:
        obj = json.loads(text)
        states = obj["states"]
        matrix = obj["matrix"]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ChainParseError(f"bad chain JSON: {e}") from e
    return validate_stochastic(matrix, states)


def load_chain_csv(text: str) -> StochasticMatrix:
    try:
        rows = list(csv.reader(io.StringIO(text)))
        rows = [r for r in rows if r]
        labels = [c.strip() for c in rows[0]]
        matrix = [[float(c) for c in r] for r in rows[1:]]
    except (IndexError, ValueError) as e:
        raise ChainParseError(f"bad chain CSV: {e}") from e
    if len(matrix) != len(labels):
        raise ChainParseError(
            f"{len(labels)} header names but {len(matrix)} matrix rows"
        )
    return validate_stochastic(matrix, labels)


def load_chain(path: str, fmt: str | None = None) -> StochasticMatrix:
    """Load a chain file; format inferred from the extension unless given."""
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    with open(path) as f:
        text = f.read()
    if fmt == "csv":
        return load_chain_csv(text)
    if fmt == "json":
        return load_chain_json(text)
    raise ValueError(f"unknown chain format {fmt!r}")
