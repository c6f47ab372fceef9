"""Structural ergodicity analysis of the transition graph.

Irreducibility via strongly connected components, the period of each class
via one BFS level-gcd, and the primitivity exponent (least m with P^m
entrywise positive) via boolean matrix powering. Structure is read off the
exact zero pattern of the matrix: a structural zero means exactly 0.0.

The structural report is computed once per matrix: :func:`analyze` does one
O(n + E) pass over the transition graph (a single Tarjan run, then one BFS
per class) and memoizes the result on the frozen
:class:`~ergokit.chain.StochasticMatrix`, whose entries are read-only. Every
other module asks :func:`analyze` instead of recomputing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .chain import StateSpace, StochasticMatrix, _first_power
from .errors import NoClosedWalkError, NotErgodicError


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph with an edge (i, j) iff P(i, j) > 0."""

    vertices: StateSpace
    edges: tuple[tuple[int, ...], ...]  # out-neighbor indices per vertex

    @property
    def n(self) -> int:
        return self.vertices.size


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


def build_graph(P: StochasticMatrix) -> TransitionGraph:
    adj = tuple(
        tuple(int(j) for j in np.flatnonzero(P.entries[i] > 0.0))
        for i in range(P.n)
    )
    return TransitionGraph(P.space, adj)


def strongly_connected_components(G: TransitionGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    n = G.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(ei, len(G.edges[v])):
                w = G.edges[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
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
    return sccs


def is_irreducible(G: TransitionGraph) -> tuple[bool, list[list[int]]]:
    sccs = strongly_connected_components(G)
    return len(sccs) == 1, sccs


def _class_period(G: TransitionGraph, members: set[int], s: int) -> int:
    """gcd of level(u) + 1 - level(v) over the edges (u, v) inside the
    strongly connected class `members`, with levels from a BFS started at
    its member s.

    This equals the gcd of the closed-walk lengths through any member, so it
    is the period of the whole class. 0 means the class has no closed walk:
    a single state without a self-loop.
    """
    level = {s: 0}
    queue = [s]
    while queue:
        nxt = []
        for u in queue:
            for w in G.edges[u]:
                if w in members and w not in level:
                    level[w] = level[u] + 1
                    nxt.append(w)
        queue = nxt
    g = 0
    for u in level:
        for w in G.edges[u]:
            if w in members:
                g = math.gcd(g, level[u] + 1 - level[w])
    return g


def period_of(G: TransitionGraph, s: int) -> int:
    """gcd of the lengths of all closed walks through s."""
    comp = next(c for c in strongly_connected_components(G) if s in c)
    g = _class_period(G, set(comp), s)
    if g == 0:
        raise NoClosedWalkError(
            f"state {G.vertices.labels[s]!r} lies on no closed walk"
        )
    return g


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
    G = build_graph(P)
    sccs = strongly_connected_components(G)
    period: list[int | None] = [None] * P.n
    for comp in sccs:
        g = _class_period(G, set(comp), comp[0])
        for v in comp:
            period[v] = g or None
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

    One Tarjan pass finds the strongly connected classes and one BFS
    level-gcd per class gives the period all its members share: O(n + E)
    in all. The report is memoized on P, whose entries are read-only, so
    later calls cost a lookup. The base report (primitivity exponent None)
    and the full one are kept apart; the full one reuses the base one and
    adds the exponent for ergodic chains.
    """
    memo = P._memo
    if "structure" not in memo:
        memo["structure"] = _structural_report(P)
    base = memo["structure"]
    if not (with_primitivity and base.ergodic):
        return base
    if "structure+primitivity" not in memo:
        memo["structure+primitivity"] = replace(
            base, primitivity_exponent=primitivity_exponent(P)
        )
    return memo["structure+primitivity"]


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
