"""Built-in chain generators for the CLI and the test corpus."""

from __future__ import annotations

import itertools
import numbers
import operator

import numpy as np

from .chain import StochasticMatrix, validate_stochastic
from .errors import InvalidGeneratorParamsError

#: Most states a sized generator builds: lazy_hypercube's 2^12. Its dense
#: n x n matrix is 128 MiB there, and every route costs O(n^3) or more.
MAX_STATES = 1 << 12


def _check_size(who: str, name: str, value, least: int, most: int) -> None:
    """Reject a size that is not an integer (numpy integers pass) or lies
    outside least..most, naming it."""
    try:
        operator.index(value)
    except TypeError:
        raise InvalidGeneratorParamsError(f"{name} {value!r} is not an integer") from None
    if not least <= value <= most:
        raise InvalidGeneratorParamsError(f"{who} needs {least} <= {name} <= {most}")


def _check_real(name: str, value) -> None:
    """Reject a parameter that is not a real number (numpy floats pass)."""
    if not isinstance(value, numbers.Real):
        raise InvalidGeneratorParamsError(f"{name} {value!r} is not a real number")


def flip() -> StochasticMatrix:
    """Two states, deterministic swap; periodic with period 2."""
    return validate_stochastic([[0.0, 1.0], [1.0, 0.0]], ["s0", "s1"])


def uniform(n: int) -> StochasticMatrix:
    _check_size("uniform chain", "n", n, 1, MAX_STATES)
    return validate_stochastic(
        np.full((n, n), 1.0 / n), [f"s{i}" for i in range(n)]
    )


def two_state(p: float, q: float) -> StochasticMatrix:
    """P(0->1) = p, P(1->0) = q; stationary [q, p] / (p + q)."""
    _check_real("p", p)
    _check_real("q", q)
    if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
        raise InvalidGeneratorParamsError("two_state needs 0 < p, q <= 1")
    return validate_stochastic([[1.0 - p, p], [q, 1.0 - q]], ["s0", "s1"])


def cycle(length: int) -> StochasticMatrix:
    """Deterministic successor cycle; period = length."""
    _check_size("cycle", "length", length, 2, MAX_STATES)
    m = np.zeros((length, length))
    for i in range(length):
        m[i, (i + 1) % length] = 1.0
    return validate_stochastic(m, [f"s{i}" for i in range(length)])


def lazy_hypercube(dim: int) -> StochasticMatrix:
    """Lazy random walk on the dim-cube: hold with probability 1/2, flip a
    uniformly random coordinate otherwise. States labeled as bit strings."""
    _check_size("lazy_hypercube", "dim", dim, 1, 12)
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
    _check_size("top_to_random", "deck", deck, 2, 5)
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


def _check_alpha(alpha) -> None:
    """pagerank's damping: a real number in [0, 1), under the name the CLI
    gives it."""
    _check_real("alpha", alpha)
    if not 0.0 <= alpha < 1.0:
        raise InvalidGeneratorParamsError(f"pagerank needs 0 <= alpha < 1, got {alpha!r}")


def pagerank(edges: list[tuple[str, str]], damping: float) -> StochasticMatrix:
    """Damped link-following chain on the edges' endpoints, in sorted order:
    damping * (row-normalized adjacency, dangling rows made uniform) +
    (1 - damping) * uniform teleport. Entrywise positive whenever
    damping < 1. The CLI and :func:`generate` call the damping alpha, and
    so does the range message."""
    _check_alpha(damping)
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
        _check_alpha(alpha)  # before the edge file is read
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
