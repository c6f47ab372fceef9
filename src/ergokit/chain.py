"""Core chain types: state spaces, stochastic matrices, distributions, TV
metrics, and the lockstep walker loop that every simulation runs on.

Every simulated draw, a walker step or a start state drawn from pi, goes
through one inverse-CDF sampler (:class:`_Sampler`), built once per walk:
each row's cumulative sums over its support (its nonzero columns) only, a
map from slot to the drawn state's row offset, and a guide table of m
buckets per row, m doubled from 2w while some bucket holds two slots (up
to 16w and 2^15 entries), w the padded row width. Walkers hold row
offsets, not states, so no draw rescales one. The draw is the count of
support slots below the uniform, bit for bit, so it never lands on a
zero-probability state. The search runs ``_CHUNK`` walkers at a time in
scratch arrays the sampler allocates once, and every chain copy of a walk
moves in one sampler call per step. Besides its states, a walk's only
arrays the size of the walker set are its hitting times, an int32 index
and a hit mask, and it drops the walkers that hit in place, a chunk at a
time, so no step allocates an array the size of the walker set.

All values are immutable after construction and all operations but the
walker loop (which takes over its caller's state buffer and owns its
scratch) are pure, so everything here is safe to share across threads; one
walk's sampler serves that walk alone.
"""

from __future__ import annotations

import codecs
import csv
import functools
import io
import json
import operator
from dataclasses import dataclass, field

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
    TooLargeError,
)

#: Ingestion tolerance on row sums. File round-tripping produces sub-ulp
#: drift; anything worse than this is a real data problem.
ROW_SUM_TOL = 1e-12

#: Residual threshold for "pi is stationary for P" guards. Above accumulated
#: powering error at desk scale, below any real violation.
STATIONARY_RESIDUAL_TOL = 1e-9

#: Walkers one simulation moves at most: a pair's two states, its meeting
#: time, its int32 index and its hit flag take 29 bytes, 0.29 GB at the cap
#: (an int32 index holds it: 10^7 < 2^31).
MAX_TRIALS = 10_000_000


@dataclass(frozen=True)
class StateSpace:
    """An ordered, labeled finite state space."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise StateLabelError("state space must contain at least one state")
        for i, x in enumerate(self.labels):
            if not isinstance(x, str):  # 1 and "1" would print as one JSON key
                raise StateLabelError(f"state label {x!r} at position {i} is not a string")
        if len(set(self.labels)) != len(self.labels):
            dup = next(x for i, x in enumerate(self.labels) if x in self.labels[:i])
            raise StateLabelError(f"state label {dup!r} appears more than once")

    @property
    def size(self) -> int:
        return len(self.labels)


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
    #: Facts derived from the entries, keyed by the function that builds
    #: each on first use (:func:`_memoized`): the structural reports, the
    #: linear-solve pi and the lift (m, P^m). The entries and every fact here
    #: are read-only, so nothing can go stale or be changed by a caller.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def n(self) -> int:
        return self.space.size

    def min_entry(self) -> float:
        return float(self.entries.min())

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
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            s = float(p.sum())
        if abs(s - 1.0) > 1e-9:
            raise ArgumentRangeError(f"probs sum to {s}, not 1")
        object.__setattr__(self, "probs", _freeze(np.clip(p, 0.0, None) / s))


def _memoized(build):
    """Make ``build(P)`` a fact of P: built on first use and kept in P's
    memo, keyed by ``build`` itself. A build that raises stores nothing, so
    the next call raises again. The fact keeps ``build``'s name and module."""

    @functools.wraps(build)
    def fact(P: StochasticMatrix):
        memo = P._memo
        if build not in memo:
            memo[build] = build(P)
        return memo[build]

    return fact


def validate_stochastic(raw_matrix, labels) -> StochasticMatrix:
    """Validate a raw square matrix as row-stochastic and wrap it.

    Rows are renormalized only if every row sum is within ``ROW_SUM_TOL``
    of 1; a worse row rejects the whole matrix.
    """
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
    except TypeError as e:  # labels not iterable
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
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        sums = a.sum(axis=1)
    dev = np.abs(sums - 1.0)
    worst = int(np.argmax(dev))
    if dev[worst] > ROW_SUM_TOL:
        raise RowSumError(
            f"row {worst} sums to {sums[worst]:.17g} "
            f"(deviation {dev[worst]:.3g} > tolerance {ROW_SUM_TOL:.3g})"
        )
    return StochasticMatrix(space, a / sums[:, None])


def power(P: StochasticMatrix, k: int) -> StochasticMatrix:
    """The k-step transition matrix P^k; power(P, 0) is the identity."""
    _check_at_least("exponent", k, 0)
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


def _tv_rows(rows: np.ndarray, pi: np.ndarray) -> float:
    """max over rows of TV(row, pi), on raw arrays."""
    return float(0.5 * np.abs(rows - pi[None, :]).sum(axis=1).max())


def check_stationary(P: StochasticMatrix, pi: Distribution) -> None:
    """Reject a caller's pi whose residual exceeds STATIONARY_RESIDUAL_TOL."""
    if pi.space != P.space:
        raise SpaceMismatchError("distribution and matrix on different spaces")
    residual = stationary_residual(P, pi.probs)
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NotStationaryError(
            f"residual ||pi P - pi||_inf = {residual:.3g} exceeds {STATIONARY_RESIDUAL_TOL:.3g}"
        )


def stationary_residual(P: StochasticMatrix, pi: np.ndarray) -> float:
    """||pi P - pi||_inf on a raw vector; helper for result reporting."""
    return float(np.abs(pi @ P.entries - pi).max())


def _check_integer(name: str, value) -> None:
    """Reject a value that is not an integer (numpy integers pass)."""
    try:
        operator.index(value)
    except TypeError:
        raise ArgumentRangeError(f"{name} {value!r} is not an integer") from None


def _check_at_least(name: str, value: int, least: int) -> None:
    _check_integer(name, value)
    if value < least:
        raise ArgumentRangeError(f"{name} must be >= {least}, got {value}")


def _check_count(name: str, value: int, least: int, cap: int) -> None:
    """Reject a count below ``least`` (ArgumentRangeError) and one above
    ``cap``, the most a routine will allocate for (TooLargeError)."""
    _check_at_least(name, value, least)
    if value > cap:
        raise TooLargeError(f"{name} {value} exceeds the cap of {cap}")


def _check_tol(name: str, tol: float, zero_ok: bool = False) -> None:
    """Reject a tolerance that is NaN, negative, or 0 unless ``zero_ok``."""
    if not (tol >= 0.0 if zero_ok else tol > 0.0):  # NaN fails both
        raise ArgumentRangeError(f"{name} must be {'>=' if zero_ok else '>'} 0, got {tol}")


def _check_walk(P: StochasticMatrix, states, trials: int) -> None:
    """Reject start or target states that are not integers in 0..n-1, and a
    trial count outside 1..MAX_TRIALS."""
    for x in states:
        _check_integer("state", x)
        if not 0 <= x < P.n:
            raise ArgumentRangeError(f"state {x} is not in 0..{P.n - 1}")
    _check_count("trials", trials, 1, MAX_TRIALS)


#: Walkers searched at a time: the sampler's scratch holds this many of each
#: search array, so no step allocates an array the size of the open set.
_CHUNK = 8192

#: Entries a refined guide may hold, n (m + 1) for n rows of m buckets:
#: 256 KiB of intp. Refining pays while the guide stays small beside the
#: walkers; a budget of 2^17 raised the peak resident memory of the
#: benchmark's ``report`` corpus by about 0.4 MB (7%), for no measurable
#: speed (BENCH_walker_offsets.json).
_GUIDE_BUDGET = 1 << 15


def _guide(cum: np.ndarray, d: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """Guide entries of m buckets per row of the padded table ``cum`` (row
    supports d), as an n x (m + 1) intp array, and H, the power of two
    above the most candidates a draw has past its guide entry.

    Every slot is counted once, at 1 + its bucket (the last bucket and
    beyond in one: those never lower a guide entry), in rows of m + 1
    counts; each row counts all w of its slots, so the flat running sum of
    the counts is row i's base i * w plus its guide entries. Each entry is
    clamped to w - H, so the halvings never leave the row."""
    n, w = cum.shape
    bucket = cum * m
    np.minimum(bucket, m - 1, out=bucket)
    keys = bucket.astype(np.intp)
    del bucket
    keys += 1 + (m + 1) * np.arange(n)[:, None]
    guide = np.bincount(keys.reshape(-1), minlength=n * (m + 1)).reshape(n, m + 1)
    del keys
    # candidates past the guide entry: a bucket's own count, and in the
    # last bucket the slots up to d_i - 1
    span = guide[:, 1:m].max(axis=1)
    np.cumsum(guide.reshape(-1), out=guide.reshape(-1))
    base = w * np.arange(n)
    np.maximum(span, d - 1 - (guide[:, m - 1] - base), out=span)
    H = 1 << int(span.max()).bit_length()
    np.minimum(guide, (base + w - H)[:, None], out=guide)
    return guide, H


class _Sampler:
    """Inverse-CDF draws from the rows of a stochastic table (a matrix, or a
    distribution as a table of one row), built once per walk.

    Row i keeps only its support, the d_i columns with a positive entry: slot
    k holds the full row's cumulative sum at the k-th such column (the same
    float, since adding 0.0 is exact) and ``cols`` maps the slot back to
    that column. The last support slot is set to exactly 1.0 and the table
    is padded with 1.0 to the power-of-two width w >= d = max_i d_i, so a
    uniform u in [0, 1) is always below it. Slot values never decrease
    before that slot, and from it on each is at least u, so along a row
    ``cum < u`` is True up to some slot and False after it; the draw is the
    column of the first False slot, so it is always a support column and no
    walker takes a zero-probability step.

    A walker is not its state s but its row's offset s * ``stride``, the
    flat index of its row of the guide (``stride`` = m + 1), and ``cols``
    holds each column's offset in turn, so a walk scales its states once
    and no draw rescales them.

    A guide table (Chen and Asau, 1974) finds that slot in one lookup and
    log2(H) halvings. It splits [0, 1) into m buckets; m is a power of two,
    so u * m is exact and ``cum < b / m`` holds exactly where
    ``floor(cum * m) < b``. Guide entry (i, b) is the count of row i's slots
    below b / m, a lower bound on the draw of any u in bucket b that leaves
    at most H - 1 further candidates, H the power of two above the largest
    count of slots in one bucket (in the last bucket, of slots up to
    d_i - 1), stored as a flat slot index of the table. m starts at 2w and
    doubles while some bucket holds two slots (H > 2), up to 16w and
    ``_GUIDE_BUDGET`` entries: one halving on ``lazy_hypercube(7)`` (m = 2w)
    and on most dense random 48-state chains (m = 8w; two at m = 2w),
    where a search of the whole row takes three and six. The draw is the
    same slot as a search of the whole row, bit for bit; where H = w (every
    two-state chain) each entry is its row's first slot, and the halvings
    search the whole row."""

    def __init__(self, rows: np.ndarray):
        n = rows.shape[0]
        support = rows > 0
        d = support.sum(axis=1)
        w = 1 << (int(d.max()) - 1).bit_length()
        # slots 0..d_i - 1 of row i, in row order: a boolean mask assigns
        # the support entries of the whole table in the same row order
        slots = np.arange(w) < d[:, None]
        self.cum = np.ones((n, w))
        self.cum[slots] = np.cumsum(rows, axis=1)[support]
        self.cum[np.arange(n), d - 1] = 1.0
        self.cols = np.zeros(self.cum.shape, dtype=np.intp)
        self.cols[slots] = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)[support]
        # each temporary goes once used, and a refinement drops the coarser
        # guide before it builds the next, so the build's peak stays within
        # the sampler's own arrays plus one guide-sized intp array
        del support, slots
        self.w = w
        m = 2 * w
        guide, H = _guide(self.cum, d, m)
        while H > 2 and m < 16 * w and n * (2 * m + 1) <= _GUIDE_BUDGET:
            del guide
            m *= 2
            guide, H = _guide(self.cum, d, m)
        self.m, self.guide, self.stride = m, guide, m + 1
        self.cols *= self.stride
        # halving h reads flat slot pos + h - 1, as slot pos of a view that
        # starts h - 1 slots in. The factors the step multiplies by are 0-d
        # arrays: a Python number costs a ufunc call a conversion each time
        flat = self.cum.reshape(-1)
        self._halvings = [
            (flat[h - 1 :], np.array(h) if h > 1 else None)
            for h in (H >> i for i in range(1, H.bit_length()))
        ]
        self._buckets = np.array(float(self.m))
        self._u = np.empty(_CHUNK)
        self._values = np.empty(_CHUNK)
        self._mask = np.empty(_CHUNK, dtype=bool)
        self._jump = np.empty(_CHUNK, dtype=np.intp)
        self._pos = np.empty(_CHUNK, dtype=np.intp)

    def step(self, walkers: np.ndarray, rng) -> None:
        """Move each walker one draw from the row at its offset, in place (an
        intp array of row offsets, s * ``stride``), with one uniform each,
        taken in walker order.

        ``_CHUNK`` walkers at a time, writing only into the sampler's
        scratch: bucket b = floor(u * m), ``pos`` the guide entry at the
        walker's offset plus b, the flat index of the first slot not known
        to be below u, and then a branchless binary search: each halving h
        moves ``pos`` h further where the slot h - 1 on is still below u.
        Draws come in walker order whatever the chunking, since
        ``rng.random(a)`` then ``rng.random(b)`` is the stream of
        ``rng.random(a + b)``."""
        cols = self.cols.reshape(-1)
        guide = self.guide.reshape(-1)
        # take() with an out array buffers it unless mode is "clip" or
        # "wrap"; every index here is in range, so clipping changes nothing
        for lo in range(0, walkers.size, _CHUNK):
            s = walkers[lo : lo + _CHUNK]
            k = s.size
            u, values, mask, jump, pos = (
                a[:k] for a in (self._u, self._values, self._mask, self._jump, self._pos)
            )
            rng.random(out=u)
            np.multiply(u, self._buckets, out=values)
            np.copyto(jump, values, casting="unsafe")  # floor: u * m >= 0
            jump += s
            guide.take(jump, out=pos, mode="clip")
            for ahead, h in self._halvings:
                ahead.take(pos, out=values, mode="clip")
                np.less(values, u, out=mask)
                # a cast in the multiply or the add would buffer (64 KiB a call)
                np.copyto(jump, mask)
                if h is not None:
                    jump *= h
                pos += jump
            cols.take(pos, out=s, mode="clip")


def _compact(
    flat: np.ndarray, copies: int, met: np.ndarray, idx: np.ndarray, tau: np.ndarray, t: int
) -> np.ndarray:
    """Close the open walkers that ``met`` marks, if any: set their tau to
    t and drop them from ``flat``, which holds ``copies`` blocks of k
    states, k the size of ``met`` and of ``idx``, the open walkers' int32
    indices. Kept entries move, in order, to the front of their block's new
    place, in place; returns the kept walkers' indices, a view of ``idx``.
    ``met`` is overwritten.

    ``_CHUNK`` walkers at a time, each chunk's kept positions found once
    for every array, so no temporary holds more than a chunk's positions
    and one block's kept entries in that chunk. Block i + 1's kept entries
    could land on entries of block i not yet read, so each block's go to
    the front of its own old place first, and blocks 1.. then slide down,
    one move each."""
    k = idx.size
    if not np.count_nonzero(met):
        return idx
    blocks = [idx] + [flat[i * k : (i + 1) * k] for i in range(copies)]
    kept = 0
    for lo in range(0, k, _CHUNK):
        m = met[lo : lo + _CHUNK]
        ids = idx[lo : lo + _CHUNK].take(m.nonzero()[0])
        new = kept + m.size - ids.size
        # an intp index scatters about twice as fast as an int32 one
        tau[ids.astype(np.intp)] = t
        del ids
        keep = np.logical_not(m, out=m).nonzero()[0]
        for b in blocks:
            b[kept:new] = b[lo : lo + _CHUNK].take(keep)
        kept = new
    for i in range(1, copies):
        flat[i * kept : (i + 1) * kept] = blocks[1 + i][:kept]
    return idx[:kept]


def _walk_until(
    P: StochasticMatrix, states: np.ndarray, max_steps: int, rng, target=None
) -> np.ndarray:
    """The one simulation loop: returns each walker's hitting time tau.
    ``states`` is a C-contiguous (copies, walkers) intp array: walker j
    starts at ``states[:, j]``, one state per chain copy. tau[j] is the
    first t at which copies 0 and 1 meet, 0 for a pair that starts on one
    state, or, given a ``target`` state, the first t >= 1 at which copy 0
    is at it, so a start on the target counts no hit; -1 for a walker open
    after max_steps. At step t = 1..max_steps each open walker moves every
    copy by one draw of a :class:`_Sampler` built once for the walk.

    The walk takes ``states`` over as its buffer (the caller's values are
    overwritten): it scales the buffer once to row offsets, in place, and
    the open walkers' offsets stay in it as one flat array, every copy's in
    turn (copy 0 first), moved by one sampler call per step. Equal offsets
    are equal states, so the hit rules compare offsets. The uniforms come
    in walker order, so the draws are those of one call per copy.

    Besides the buffer, the walk's only arrays the size of the walker set
    are tau (int64), the open walkers' indices (int32) and the hit mask,
    13 bytes a walker: each step closes the walkers that hit with
    :func:`_compact`, in place, and every other array is the sampler's or
    at most a chunk. A draw costs one guide lookup and log2(H) halvings, so
    a step costs O(open walkers x copies x log H)."""
    copies, k = states.shape
    # built first, so its build's temporaries are gone before the walk's
    # own arrays exist
    sampler = _Sampler(P.entries)
    flat = states.reshape(-1)
    flat *= sampler.stride
    if target is not None:
        target = np.array(target * sampler.stride, dtype=np.intp)
    tau = np.full(k, -1)
    idx = np.arange(k, dtype=np.int32)  # k <= MAX_TRIALS < 2^31
    hit = np.empty(k, dtype=bool)
    # a pair is compared from t = 0 on, a return walk from t = 1
    for t in range(0 if target is None else 1, max_steps + 1):
        if t:
            sampler.step(flat[: copies * k], rng)
        met = hit[:k]
        np.equal(flat[:k], flat[k : 2 * k] if target is None else target, out=met)
        idx = _compact(flat, copies, met, idx, tau, t)
        k = idx.size
        if k == 0:
            break
    return tau


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


def _read_text(path: str, error: type[Exception]) -> str:
    """A file's text, read as UTF-8 with any leading byte-order mark
    dropped; a byte that is not UTF-8 raises ``error``, naming its offset."""
    with open(path, "rb") as f:
        data = f.read()
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[bom:].decode("utf-8")
    except UnicodeDecodeError as e:
        at = bom + e.start
        raise error(f"{path} is not UTF-8: byte 0x{data[at]:02x} at offset {at}") from None


def load_chain(path: str, fmt: str | None = None) -> StochasticMatrix:
    """Load a chain file; format inferred from the extension unless given."""
    if fmt is None:
        fmt = "csv" if path.lower().endswith(".csv") else "json"
    loaders = {"csv": load_chain_csv, "json": load_chain_json}
    if fmt not in loaders:
        raise ArgumentRangeError(f"fmt {fmt!r} is not \"csv\" or \"json\"")
    return loaders[fmt](_read_text(path, ChainParseError))
