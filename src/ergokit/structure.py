"""Structural ergodicity analysis of the transition graph.

Irreducibility via strongly connected components and the period of each
class from one Tarjan search (a level-gcd over the depths it assigns), and
the primitivity exponent (least m with P^m entrywise positive) via boolean
matrix powering. Structure is read off the exact zero pattern of the
matrix: a structural zero means exactly 0.0, and the graph is P's
out-neighbour lists, ``adj[i]`` the columns j with P(i, j) > 0 in
ascending order.

The structural report is computed once per matrix: :func:`analyze` builds
the out-neighbour lists, runs Tarjan's search over them once and reads
every class's period off the depths that search assigns, O(n + E) in all,
and keeps the result in the per-matrix memo of the frozen
:class:`~ergokit.chain.StochasticMatrix` (:func:`~ergokit.chain._memoized`),
next to the linear-solve pi and the lift P^m that other modules keep there.
Every other module asks :func:`analyze` instead of recomputing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .chain import StochasticMatrix, _first_power, _memoized
from .errors import NotErgodicError, NotIrreducibleError


@dataclass(frozen=True)
class ErgodicityReport:
    irreducible: bool
    periods: Mapping[str, int | None]  # read-only; None: state lies on no closed walk
    aperiodic: bool
    primitivity_exponent: int | None
    scc_decomposition: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        # reports are shared through the per-matrix memo, so callers get a
        # read-only view of a private copy
        object.__setattr__(self, "periods", MappingProxyType(dict(self.periods)))

    @property
    def ergodic(self) -> bool:
        return self.irreducible and self.aperiodic

    def to_json(self) -> str:
        return json.dumps(
            {
                "irreducible": self.irreducible,
                "aperiodic": self.aperiodic,
                "periods": dict(self.periods),
                "primitivity_exponent": self.primitivity_exponent,
                "sccs": [list(c) for c in self.scc_decomposition],
            }
        )


def strongly_connected_components(adj: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Tarjan's algorithm, iterative, over out-neighbour lists.

    Returns the components in reverse topological order, and each state's
    depth in the depth-first forest the search grows (0 at each root)."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    depth = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, None)]  # the search path: (state, its unread out-edges)
        while work:
            v, out = work[-1]
            if out is None:  # first visit
                index[v] = lowlink[v] = counter
                counter += 1
                depth[v] = len(work) - 1
                stack.append(v)
                on_stack[v] = True
                out = iter(adj[v])
                work[-1] = (v, out)
            for w in out:
                if index[w] == -1:
                    work.append((w, None))
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    lowlink[u] = min(lowlink[u], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs, depth


def wielandt_bound(n: int) -> int:
    """Sharp classical cap on the primitivity exponent: (n-1)^2 + 1."""
    return (n - 1) ** 2 + 1


def primitivity_exponent(P: StochasticMatrix) -> int:
    """Least m with P^m entrywise positive.

    Requires ergodicity (checked first); for ergodic chains positivity of
    the boolean power is monotone in the exponent, so the minimal m is
    found by the doubling search of :func:`~ergokit.chain._first_power`,
    capped at the Wielandt bound. Positivity is decided on the boolean
    pattern, never on float values, so numeric underflow cannot misreport
    a zero.
    """
    require_ergodic(P, "a positive power of P")
    cap = wielandt_bound(P.n)
    found = _first_power(
        (P.entries > 0.0).astype(np.float64), lambda A: bool(A.all()), cap,
        mul=lambda X, Y: ((X @ Y) > 0.0).astype(np.float64),
    )
    if found is None:
        raise NotErgodicError(f"no positive power up to the Wielandt bound {cap}")
    return found[0]


def _structural_report(P: StochasticMatrix) -> ErgodicityReport:
    adj = [np.flatnonzero(row > 0.0).tolist() for row in P.entries]
    sccs, depth = strongly_connected_components(adj)
    cls = {v: c for c, comp in enumerate(sccs) for v in comp}
    # a class's period is the gcd of depth(u) + 1 - depth(v) over its inner
    # edges (u, v); 0 means the class has no closed walk. A gcd of 1 is
    # final, so the sweep stops reading that class's edges there.
    g = [0] * len(sccs)
    for u, out in enumerate(adj):
        c = cls[u]
        if g[c] == 1:
            continue
        for v in out:
            if cls[v] == c:
                g[c] = math.gcd(g[c], depth[u] + 1 - depth[v])
                if g[c] == 1:
                    break
    period = [g[cls[v]] or None for v in range(P.n)]
    labels = P.space.labels
    return ErgodicityReport(
        irreducible=len(sccs) == 1,
        periods={labels[s]: period[s] for s in range(P.n)},
        aperiodic=all(p == 1 for p in period),
        primitivity_exponent=None,
        scc_decomposition=tuple(
            tuple(labels[v] for v in sorted(c)) for c in sccs
        ),
    )


def analyze(P: StochasticMatrix, with_primitivity: bool = True) -> ErgodicityReport:
    """Structural report for a chain, computed once per matrix.

    One Tarjan pass finds the strongly connected classes and the depth of
    every state in its depth-first forest. A class's first-found state is
    its root, and the tree path from there to any member stays inside the
    class, so these depths are levels whose gcd of depth(u) + 1 - depth(v)
    over inner edges (u, v) is the period all members share: O(n + E) in
    all. The report is memoized on P, whose entries are read-only, so
    later calls cost a lookup. The base report (primitivity exponent None)
    and the full one are kept apart; the full one reuses the base one and
    adds the exponent for ergodic chains.
    """
    base = _memoized(P, "structure", lambda: _structural_report(P))
    if not (with_primitivity and base.ergodic):
        return base
    return _memoized(
        P, "structure+primitivity",
        lambda: replace(base, primitivity_exponent=primitivity_exponent(P)),
    )


def require_ergodic(P: StochasticMatrix, what: str) -> ErgodicityReport:
    """The one ergodicity gate: the memoized base report of P (no
    primitivity search), or a NotErgodicError naming ``what`` and saying
    whether P is reducible or periodic. Ergodicity of P is also that of the
    product chain of two copies, so coupling routines ask this gate too."""
    report = analyze(P, with_primitivity=False)
    if not report.ergodic:
        kind = "periodic" if report.irreducible else "reducible"
        raise NotErgodicError(f"{what} needs an ergodic chain; this one is {kind}")
    return report


def require_irreducible(P: StochasticMatrix, what: str) -> ErgodicityReport:
    """The irreducibility gate of the routes that need no aperiodicity: the
    memoized base report of P, or a NotIrreducibleError naming ``what`` and
    the number of strongly connected classes."""
    report = analyze(P, with_primitivity=False)
    if not report.irreducible:
        k = len(report.scc_decomposition)
        raise NotIrreducibleError(
            f"{what} needs an irreducible chain; this one has {k} strongly connected classes"
        )
    return report
