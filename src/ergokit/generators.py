"""Built-in chain generators for the CLI and the test corpus."""

from __future__ import annotations

import itertools

import numpy as np

from .chain import StochasticMatrix, validate_stochastic
from .errors import InvalidGeneratorParamsError

#: Most states a sized generator builds: lazy_hypercube's 2^12. Its dense
#: n x n matrix is 128 MiB there, and every route costs O(n^3) or more.
MAX_STATES = 1 << 12


def flip() -> StochasticMatrix:
    """Two states, deterministic swap; periodic with period 2."""
    return validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["s0", "s1"])


def uniform(n: int) -> StochasticMatrix:
    if not 1 <= n <= MAX_STATES:
        raise InvalidGeneratorParamsError(f"uniform chain needs 1 <= n <= {MAX_STATES}")
    return validate_stochastic(
        np.full((n, n), 1.0 / n), [f"s{i}" for i in range(n)]
    )


def two_state(p: float, q: float) -> StochasticMatrix:
    """P(0->1) = p, P(1->0) = q; stationary [q, p] / (p + q)."""
    if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
        raise InvalidGeneratorParamsError("two_state needs 0 < p, q <= 1")
    return validate_stochastic([[1.0 - p, p], [q, 1.0 - q]], ["s0", "s1"])


def cycle(length: int) -> StochasticMatrix:
    """Deterministic successor cycle; period = length."""
    if not 2 <= length <= MAX_STATES:
        raise InvalidGeneratorParamsError(f"cycle needs 2 <= length <= {MAX_STATES}")
    m = np.zeros((length, length))
    for i in range(length):
        m[i, (i + 1) % length] = 1.0
    return validate_stochastic(m, [f"s{i}" for i in range(length)])


def lazy_hypercube(dim: int) -> StochasticMatrix:
    """Lazy random walk on the dim-cube: hold with probability 1/2, flip a
    uniformly random coordinate otherwise. States labeled as bit strings."""
    if not 1 <= dim <= 12:
        raise InvalidGeneratorParamsError("lazy_hypercube needs 1 <= dim <= 12")
    n = 1 << dim
    m = np.zeros((n, n))
    for x in range(n):
        m[x, x] = 0.5
        for b in range(dim):
            m[x, x ^ (1 << b)] += 0.5 / dim
    labels = [format(x, f"0{dim}b") for x in range(n)]
    return validate_stochastic(m, labels)


def top_to_random(deck: int) -> StochasticMatrix:
    """Card shuffle on deck! permutations: pick a card uniformly at random
    and place it on top (picking the current top card holds the deck)."""
    if not 2 <= deck <= 5:
        raise InvalidGeneratorParamsError("top_to_random needs 2 <= deck <= 5")
    perms = list(itertools.permutations(range(deck)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    m = np.zeros((n, n))
    for p in perms:
        for pos in range(deck):
            moved = (p[pos],) + p[:pos] + p[pos + 1 :]
            m[index[p], index[moved]] += 1.0 / deck
    labels = ["".join(str(c) for c in p) for p in perms]
    return validate_stochastic(m, labels)


def pagerank(edges: list[tuple[str, str]], damping: float) -> StochasticMatrix:
    """Damped link-following chain on the edges' endpoints, in sorted order:
    damping * (row-normalized adjacency, dangling rows made uniform) +
    (1 - damping) * uniform teleport. Entrywise positive whenever
    damping < 1."""
    if not 0.0 <= damping < 1.0:
        raise InvalidGeneratorParamsError("pagerank needs 0 <= damping < 1")
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    if not nodes:
        raise InvalidGeneratorParamsError("pagerank needs at least one node")
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[idx[u], idx[v]] = 1.0
    sums = adj.sum(axis=1)
    dangling = sums == 0.0
    adj[dangling] = 1.0
    adj = adj / adj.sum(axis=1, keepdims=True)
    m = damping * adj + (1.0 - damping) / n
    return validate_stochastic(m, nodes)


def load_edge_list(path: str) -> list[tuple[str, str]]:
    """Whitespace-separated 'source target' pairs, one per line; '#' comments."""
    edges = []
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InvalidGeneratorParamsError(f"bad edge line: {line!r}")
            edges.append((parts[0], parts[1]))
    return edges


GENERATORS = {
    "flip": flip,
    "uniform": uniform,
    "two_state": two_state,
    "cycle": cycle,
    "lazy_hypercube": lazy_hypercube,
    "top_to_random": top_to_random,
}


def generate(name: str, **params) -> StochasticMatrix:
    """Dispatch by generator name; pagerank takes path= and alpha=."""
    if name == "pagerank":
        path = params.pop("path", None)
        alpha = params.pop("alpha", 0.85)
        try:
            alpha = float(alpha)
        except (TypeError, ValueError):
            raise InvalidGeneratorParamsError(f"pagerank alpha {alpha!r} is not a number") from None
        if path is None:
            raise InvalidGeneratorParamsError("pagerank needs path=<edge list file>")
        if params:
            raise InvalidGeneratorParamsError(f"unknown params {sorted(params)}")
        return pagerank(load_edge_list(path), alpha)
    if name not in GENERATORS:
        raise InvalidGeneratorParamsError(
            f"unknown generator {name!r}; choose from "
            f"{sorted(GENERATORS) + ['pagerank']}"
        )
    try:
        return GENERATORS[name](**params)
    except TypeError as e:
        raise InvalidGeneratorParamsError(str(e)) from e
