"""Column min/max envelopes under matrix powering, as executable certificates.

For a positive stochastic matrix the per-column minimum m^(i) rises, the
maximum M^(i) falls, and the gap Delta^(i) contracts by at least
(1 - p_min) per step (and by (1 - 2 p_min) when that factor is positive).
This module tracks those envelopes, squeezes the stationary distribution
out of the collapsing interval, and turns the contraction rate into a
mixing-time bound that can be compared with the empirical mixing time.
Both the mixing time and the squeeze are doubling searches over matrix
powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import StochasticMatrix, orbit, power
from .chain import _check_count, _check_tol, _first_power, _memoized, _tv_rows
from .errors import (
    ArgumentRangeError,
    MaxIterExceededError,
    MonotonicityViolationError,
    NotPositiveError,
    TooLargeError,
)
from .stationary import StationaryResult, _result, stationary_linear
from .structure import analyze, require_ergodic

#: Slack for the "should be impossible" monotonicity assertions; a few ulps
#: of accumulated matmul rounding, nothing more.
_MONOTONE_SLACK = 1e-12

#: Most records an envelope trace keeps: ``envelope_iterate``'s default and
#: cap for ``max_iter``, and the rows per column ``stationary --csv`` writes.
MAX_TRACE_ROWS = 10_000


@dataclass(frozen=True)
class EnvelopeRecord:
    i: int
    m: float
    M: float
    delta: float


@dataclass(frozen=True)
class EnvelopeTrace:
    iterations: tuple[EnvelopeRecord, ...]


@dataclass(frozen=True)
class MixingEstimate:
    epsilon: float
    empirical_tmix: int
    bound_tmix: int
    primitivity_m: int
    pmin_of_Pm: float


def envelope_iterate(
    P: StochasticMatrix, max_iter: int = MAX_TRACE_ROWS, tol: float = 1e-12
) -> tuple[EnvelopeTrace, ...]:
    """Track (m^(i), M^(i), Delta^(i)) of every column of P^i, i = 1, 2, ...,
    one trace per column, all off one orbit of P.

    Column j's trace stops at the first i with Delta^(i) <= tol, or at
    max_iter (<= MAX_TRACE_ROWS); the orbit stops when all have. The matrix
    must be entrywise positive; lift a merely ergodic chain to P^m first.
    """
    if (P.entries <= 0.0).any():
        raise NotPositiveError("envelope iteration needs an entrywise positive matrix")
    _check_count("max_iter", max_iter, 1, MAX_TRACE_ROWS)
    _check_tol("tol", tol, zero_ok=True)
    records = [[] for _ in range(P.n)]
    prev_m, prev_M = [-math.inf] * P.n, [math.inf] * P.n
    cols = range(P.n)  # the columns whose traces go on
    for i, S in zip(range(1, max_iter + 1), orbit(P.entries, P.entries)):
        lo, hi, going = S.min(axis=0).tolist(), S.max(axis=0).tolist(), []
        for j in cols:
            m, M = lo[j], hi[j]
            if m < prev_m[j] - _MONOTONE_SLACK or M > prev_M[j] + _MONOTONE_SLACK:
                raise MonotonicityViolationError(
                    f"envelope of column {j} lost monotonicity at i={i}: "
                    f"m {prev_m[j]!r}->{m!r}, M {prev_M[j]!r}->{M!r}"
                )
            records[j].append(EnvelopeRecord(i=i, m=m, M=M, delta=M - m))
            if M - m > tol:
                going.append(j)
            prev_m[j], prev_M[j] = m, M
        cols = going
        if not cols:
            break
    return tuple(EnvelopeTrace(iterations=tuple(r)) for r in records)


#: The mixing search looks no further than t = 2^40 (about 1.1e12 steps),
#: so it stores at most 41 squares of P; the squeeze's cap too.
_TMIX_LIMIT = 1 << 40


def _default_max_iter(p_min: float, tol: float) -> int:
    # 10x the iteration count implied by the geometric decay guarantee, at
    # most _TMIX_LIMIT; log1p keeps the rate above 0 for p_min below 1e-16.
    # tol > 0; one of 1 or more (inf too) holds at once, as no gap exceeds 1
    if p_min >= 1.0:
        return 10
    need, rate = -math.log(min(tol, 1.0)), -math.log1p(-p_min)
    if need >= rate * _TMIX_LIMIT:  # also where p_min underflowed to 0
        return _TMIX_LIMIT
    return min(_TMIX_LIMIT, max(10, 10 * math.ceil(need / rate)))


def _column_gap(S: np.ndarray) -> float:
    """max over columns of max - min: the widest envelope of S."""
    return float((S.max(axis=0) - S.min(axis=0)).max())


@_memoized
def _lift(P: StochasticMatrix) -> tuple[int, StochasticMatrix]:
    """(m, P^m) for the primitivity exponent m of an ergodic P, formed once
    per matrix: the squeeze and its ``stationary --csv`` traces run on P^m,
    and its least entry sets the mixing bound. m = 1 for a positive P."""
    m = analyze(P).primitivity_exponent
    return m, power(P, m)


def stationary_by_envelope(P: StochasticMatrix, tol: float = 1e-10) -> StationaryResult:
    """Extract pi from the collapsing envelopes of every column at once.

    Non-positive ergodic chains are lifted to B = P^m first. The column
    gaps of B^k never grow, so a doubling search finds the least k with all
    of them at most tol (``evidence["iterations"]``), up to the cap
    ``_default_max_iter`` sets from tol and B's least entry. Each pi_k is
    the midpoint of its final [m, M] interval, of half-width at most tol / 2.
    The interval is computed, not certified to hold pi: a product of
    stochastic matrices drifts off row sum 1 by rounding. On
    two_state(1e-6, 2e-6) the rows of the final power sum to 1 - 2.4e-10
    and its column-0 interval misses the true pi_0 = 2/3 by 1.38e-10.
    Renormalising the rows of every product (ROADMAP item 1) is the fix.
    """
    _check_tol("tol", tol)
    require_ergodic(P, "envelope squeeze")
    m, lifted = _lift(P)
    B = lifted.entries
    max_iter = _default_max_iter(float(B.min()), tol)
    found = _first_power(B, lambda S: _column_gap(S) <= tol, max_iter)
    if found is None:
        worst = _column_gap(power(lifted, max_iter).entries)
        raise MaxIterExceededError(
            f"envelopes at Delta = {worst:.3g} after {max_iter} iterations"
        )
    it, S = found
    lo, hi = S.min(axis=0), S.max(axis=0)
    mid = (lo + hi) / 2.0
    return _result(
        P, mid / mid.sum(), "envelope",
        lift_exponent=m, iterations=it, max_half_width=float((hi - lo).max()) / 2.0,
    )


def mixing_estimate(P: StochasticMatrix, epsilon: float = 0.25) -> MixingEstimate:
    """Empirical mixing time, the least t with d(t) <= epsilon, by a
    doubling search (d(t) never grows), next to the contraction bound
    m * ceil(ln(n / eps) / (2 p_min(P^m)) + 1) in original-chain steps.
    A t above the bound is returned as found; the caller's verdict fails.
    A bound past the largest float raises TooLargeError.
    """
    if not 0.0 < epsilon < 1.0:
        raise ArgumentRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    require_ergodic(P, "mixing time")
    m, lifted = _lift(P)
    pi = stationary_linear(P).pi.probs
    pmin_m = lifted.min_entry()
    n = P.n
    # a positive entry of P^m can round to 0, or to so little that the
    # bound is past the largest float
    reach = math.log(n / epsilon) / (2.0 * pmin_m) if pmin_m > 0.0 else math.inf
    if reach == math.inf:
        raise TooLargeError(
            f"mixing bound is not finite: the least float entry of P^{m} is {pmin_m:.3g}"
        )
    bound = m * math.ceil(reach + 1.0)

    t = 0
    if _tv_rows(np.eye(n), pi) > epsilon:
        found = _first_power(P.entries, lambda S: _tv_rows(S, pi) <= epsilon, _TMIX_LIMIT)
        if found is None:
            raise MaxIterExceededError(f"d(t) still above {epsilon} at t = {_TMIX_LIMIT}")
        t = found[0]
    return MixingEstimate(
        epsilon=epsilon,
        empirical_tmix=t,
        bound_tmix=bound,
        primitivity_m=m,
        pmin_of_Pm=pmin_m,
    )
