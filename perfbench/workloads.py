"""Seeded workloads for the ergokit benchmark, and the checks on their outputs.

Each workload is a function ``build(seed, workdir) -> list[Op]``: it makes
its inputs from the seed alone (through ergokit's public generators and
ingest where the program has one), writes any input files under
``workdir`` and returns the fixed list of operations one pass runs. Every
check compares the program's output against a value the benchmark works
out itself (closed forms, numpy/scipy linear algebra, direct scans), never
against another output of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

import ergokit
from ergokit import cli, coupling, generators, stationary
from ergokit.errors import TooLargeError

#: Every returned stationary vector must lie this close to the reference.
PI_TOL = 1e-9
#: Monte Carlo return times must lie within this many standard errors of
#: 1 / pi_z (Kac's lemma).
KAC_SIGMAS = 4.0
#: `ergokit report` tree enumeration is capped at this many states.
ENUMERATION_CAP = 8
METHODS = (
    "linear_solve",
    "tree_enumeration",
    "tree_determinant",
    "return_time",
    "envelope",
    "power_iteration",
)


class CheckError(Exception):
    """An operation's output disagrees with the benchmark's own answer."""


def must(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


class Reference:
    """Facts about one chain, computed by the benchmark itself and cached."""

    def __init__(self, A: np.ndarray, pi: np.ndarray | None = None):
        self.A = np.asarray(A, dtype=np.float64)
        if pi is not None:
            self.pi = np.asarray(pi, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def pi(self) -> np.ndarray:
        # null vector of P^T - I: the last right-singular vector
        _, _, vt = np.linalg.svd(self.A.T - np.eye(self.n))
        v = vt[-1]
        return v / v.sum()

    @cached_property
    def graph(self) -> csr_matrix:
        return csr_matrix((self.A > 0.0).astype(np.int8))

    @cached_property
    def sccs(self) -> set[frozenset[int]]:
        _, lab = connected_components(self.graph, directed=True, connection="strong")
        groups: dict[int, set[int]] = {}
        for v, c in enumerate(lab):
            groups.setdefault(int(c), set()).add(v)
        return {frozenset(g) for g in groups.values()}

    @cached_property
    def primitivity(self) -> int:
        """Least m with every entry of the boolean power A^m positive,
        by stepping m = 1, 2, ... up to the Wielandt bound."""
        B = (self.A > 0.0).astype(np.float64)
        M = B
        for m in range(1, (self.n - 1) ** 2 + 2):
            if M.all():
                return m
            M = ((M @ B) > 0.0).astype(np.float64)
        raise CheckError("reference: no positive power up to the Wielandt bound")

    def tv_curve(self, start: int, horizon: int) -> list[float]:
        """||pi - e_start P^i||_TV for i = 0..horizon."""
        row = np.zeros(self.n)
        row[start] = 1.0
        out = []
        for _ in range(horizon + 1):
            out.append(0.5 * float(np.abs(self.pi - row).sum()))
            row = row @ self.A
        return out

    def tmix(self, eps: float) -> int:
        """First t with max_x ||P^t(x, .) - pi||_TV <= eps."""
        S = np.eye(self.n)
        t = 0
        while 0.5 * np.abs(S - self.pi).sum(axis=1).max() > eps:
            S = S @ self.A
            t += 1
        return t

    def undirected_distance(self, a: int, b: int) -> int:
        d = shortest_path(self.graph, directed=False, unweighted=True, indices=[a])
        return int(d[0, b])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`ergokit <argv>` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _labels(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def _write(path: str, text: str) -> str:
    with open(path, "w") as f:
        f.write(text)
    return path


def _sccs_as_labels(sccs, labels) -> set[frozenset[str]]:
    return {frozenset(labels[v] for v in c) for c in sccs}


# ---------------------------------------------------------------------------
# report_corpus: `ergokit report` over ergodic chains


def _edge_list(rng, n: int) -> list[tuple[str, str]]:
    """Seeded directed edges on n nodes, every node with out-degree 1..6."""
    edges = []
    for u in range(n):
        for v in rng.choice(n, size=int(rng.integers(1, 7)), replace=False):
            if v != u:
                edges.append((f"v{u}", f"v{v}"))
        if not edges or edges[-1][0] != f"v{u}":
            edges.append((f"v{u}", f"v{(u + 1) % n}"))
    return edges


def _random_positive(rng, n: int):
    a = rng.random((n, n)) + 0.05
    return ergokit.validate_stochastic(a / a.sum(axis=1, keepdims=True), _labels(n))


def _check_report(out, ref: Reference, labels) -> None:
    rc, text = out
    must(rc == 0, f"report exit code {rc} on an ergodic chain")
    obj = json.loads(text)
    erg = obj["ergodicity"]
    must(erg["irreducible"] and erg["aperiodic"], "ergodic chain reported non-ergodic")
    must(set(erg["periods"].values()) == {1}, "period other than 1 on an ergodic chain")
    must(
        {frozenset(c) for c in erg["sccs"]} == _sccs_as_labels(ref.sccs, labels),
        "SCCs differ from scipy's strong components",
    )
    must(
        erg["primitivity_exponent"] == ref.primitivity,
        f"primitivity exponent {erg['primitivity_exponent']} != {ref.primitivity}",
    )
    must(set(obj["stationary"]) == set(METHODS), "stationary methods missing")
    for m, r in obj["stationary"].items():
        if m == "tree_enumeration" and ref.n > ENUMERATION_CAP:
            must(r == {"error": TooLargeError.__name__}, f"{m} on n={ref.n}: {r}")
            continue
        must("pi" in r, f"{m} failed on n={ref.n}: {r}")
        err = float(np.abs(np.asarray(r["pi"]) - ref.pi).max())
        must(err <= PI_TOL, f"{m}: |pi - reference| = {err:.3g}")
    eps = obj["mixing"]["epsilon"]
    must(
        obj["mixing"]["empirical_tmix"] == ref.tmix(eps),
        f"empirical_tmix {obj['mixing']['empirical_tmix']} != scan {ref.tmix(eps)}",
    )
    must(all(obj["verdicts"].values()), f"verdict failed: {obj['verdicts']}")


def build_report_corpus(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    items = []  # (name, chain args, StochasticMatrix, known pi or None)
    for i in range(3):
        p, q = (float(x) for x in rng.uniform(0.05, 0.95, size=2).round(6))
        items.append(
            (f"two_state{i}", ["--gen", "two_state", "--params", f"p={p!r},q={q!r}"],
             generators.two_state(p, q), np.array([q, p]) / (p + q))
        )
    for d in (3, 5, 7):
        P = generators.lazy_hypercube(d)
        items.append((f"lazy_hypercube{d}", ["--gen", "lazy_hypercube", "--params", f"d={d}"],
                      P, np.full(P.n, 1.0 / P.n)))
    for k in (4, 5):
        P = generators.top_to_random(k)
        items.append((f"top_to_random{k}", ["--gen", "top_to_random", "--params", f"k={k}"],
                      P, np.full(P.n, 1.0 / P.n)))
    for n in (60, 80):
        path = os.path.join(workdir, f"pagerank{n}.txt")
        _write(path, "".join(f"{u} {v}\n" for u, v in _edge_list(rng, n)))
        P = generators.pagerank(generators.load_edge_list(path), 0.85)
        items.append((f"pagerank{n}", ["--gen", "pagerank", "--params", f"path={path},alpha=0.85"],
                      P, None))
    for n in (10, 12, 40):
        P = _random_positive(rng, n)
        path = _write(os.path.join(workdir, f"random{n}.json"), P.to_json())
        items.append((f"random{n}", ["--chain", path], P, None))

    ops = []
    for name, args, P, pi in items:
        op_seed = int(rng.integers(0, 2**31))
        argv = ["report", *args, "--seed", str(op_seed)]
        ref = Reference(P.entries, pi)
        labels = list(P.space.labels)
        ops.append(Op(
            name,
            lambda argv=argv: run_cli(argv),
            lambda out, ref=ref, labels=labels: _check_report(out, ref, labels),
        ))
    return ops


# ---------------------------------------------------------------------------
# coupling_sim: the three walker simulations as library calls

LEMMA_HORIZON = 30


def _check_lemma(out, ref: Reference, start_y: int, trials: int) -> None:
    must(out.passed, "coupling lemma verdict failed")
    must(out.trials == trials and len(out.rows) == LEMMA_HORIZON + 1, "lemma table shape")
    tv = ref.tv_curve(start_y, LEMMA_HORIZON)
    worst = max(abs(r.exact_tv - t) for r, t in zip(out.rows, tv))
    must(worst <= PI_TOL, f"exact_tv column off by {worst:.3g}")
    tails = [r.tail for r in out.rows]
    must(all(b <= a for a, b in zip(tails, tails[1:])), "tail column not monotone")


def _check_simulate(out, ref: Reference, start, trials: int) -> None:
    must(out.truncated == 0, f"{out.truncated} coupling runs truncated")
    must(out.tau_samples.size == trials, "meeting-time sample count")
    floor = math.ceil(ref.undirected_distance(*start) / 2)
    must(int(out.tau_samples.min()) >= floor,
         f"meeting time {int(out.tau_samples.min())} below half the graph distance")


def _check_return(out, ref: Reference, z: int) -> None:
    mean, se = out
    expected = 1.0 / ref.pi[z]
    must(se > 0.0 and abs(mean - expected) <= KAC_SIGMAS * se,
         f"mean return time {mean:.6g} vs 1/pi_z {expected:.6g} (se {se:.3g})")


def build_coupling_sim(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    # (name, chain, known pi, lemma trials, simulate trials, return trials).
    # The chains are vertex-transitive or dense random ones, and hypercube
    # walks start antipodal, so an op's cost hardly depends on the seed.
    chains = [
        ("top_to_random4", generators.top_to_random(4), True, 40_000, 20_000, 20_000),
        ("lazy_hypercube5", generators.lazy_hypercube(5), True, 40_000, 10_000, 20_000),
        ("random48", _random_positive(rng, 48), False, 40_000, 20_000, 20_000),
        ("random64", _random_positive(rng, 64), False, 40_000, 20_000, 20_000),
        ("lazy_hypercube7", generators.lazy_hypercube(7), True, 20_000, 4_000, 10_000),
    ]
    ops = []
    for name, P, uniform, t_lemma, t_sim, t_ret in chains:
        ref = Reference(P.entries, np.full(P.n, 1.0 / P.n) if uniform else None)
        pi = ergokit.stationary_linear(P).pi
        y, a, b, z = (int(v) for v in rng.integers(0, P.n, size=4))
        if name.startswith("lazy_hypercube"):
            b = a ^ (P.n - 1)
        elif a == b:
            b = (a + 1) % P.n
        s1, s2, s3 = (int(v) for v in rng.integers(0, 2**31, size=3))
        ops.append(Op(
            f"{name}.lemma",
            lambda P=P, pi=pi, y=y, t=t_lemma, s=s1: coupling.verify_coupling_lemma(
                P, pi, start_y=y, horizon=LEMMA_HORIZON, trials=t, seed=s),
            lambda out, ref=ref, y=y, t=t_lemma: _check_lemma(out, ref, y, t),
        ))
        ops.append(Op(
            f"{name}.simulate",
            lambda P=P, a=a, b=b, t=t_sim, s=s2: coupling.simulate_coupling(
                P, (a, b), mode="meet_anywhere", trials=t, max_steps=100_000, seed=s),
            lambda out, ref=ref, a=a, b=b, t=t_sim: _check_simulate(out, ref, (a, b), t),
        ))
        ops.append(Op(
            f"{name}.return",
            lambda P=P, z=z, t=t_ret, s=s3: stationary.monte_carlo_return(
                P, z, trials=t, seed=s),
            lambda out, ref=ref, z=z: _check_return(out, ref, z),
        ))
    return ops


WORKLOADS = {
    "report_corpus": build_report_corpus,
    "coupling_sim": build_coupling_sim,
}
