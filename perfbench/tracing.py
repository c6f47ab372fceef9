"""Span tracer that times ergokit's layers from outside the program.

Every public function of the eight layer modules is replaced, in every
module namespace that binds it, by a wrapper that records one span per
call. The rebinding matters: ``stationary``, ``envelope``, ``coupling`` and
``doeblin`` import ``analyze`` by name, so patching ``structure.analyze``
alone would miss most structural calls. Private helpers (``_advance``,
``_pair_chain_ergodic``, ...) are not wrapped; their time lands in the
self time of the public function that called them.

Spans are kept in memory as ``(name, start, end, parent, outermost)`` and
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "chain",
    "structure",
    "stationary",
    "envelope",
    "coupling",
    "doeblin",
    "generators",
    "cli",
)

#: Functions whose return value tells how many walker-steps they simulated.
WALKER_FUNCTIONS = (
    "coupling.verify_coupling_lemma",
    "coupling.simulate_coupling",
    "stationary.monte_carlo_return",
)

ROOT_SPAN = "bench.op"


def walker_steps(name: str, args: tuple, kwargs: dict, out) -> int:
    """Walker-steps of one simulation call, read off its output.

    - coupling lemma: at step t every pair still unmet after t - 1 steps
      advances, and the tail column holds exactly those counts;
    - simulate_coupling: a pair advances once per step before it meets,
      so its steps are its meeting time (no truncated runs are allowed);
    - monte_carlo_return: a walker advances once per step until it
      returns, so the steps are mean return time x trials.
    """
    if name == "coupling.verify_coupling_lemma":
        pairs = sum(round(r.tail * out.trials) for r in out.rows[:-1])
        return 2 * pairs
    if name == "coupling.simulate_coupling":
        return 2 * int(out.tau_samples.sum())
    if name == "stationary.monte_carlo_return":
        trials = kwargs["trials"] if "trials" in kwargs else args[2]
        return round(out[0] * trials)
    raise ValueError(name)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list = []
        self.walker_steps = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter
        count_walkers = name in WALKER_FUNCTIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outermost = depth[name] == 0
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, t0, t1, parent, outermost)
            if count_walkers:
                self.walker_steps += walker_steps(name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        import ergokit

        modules = [importlib.import_module(f"ergokit.{m}") for m in LAYERS]
        wrappers: dict = {}
        for mod in modules + [ergokit]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner not in LAYERS or obj.__module__ != f"ergokit.{owner}":
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{owner}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def op(self, fn):
        """Run ``fn()`` under a root span; returns (output, seconds)."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT_SPAN, t0, t1, -1, True)
        return out, t1 - t0

    def aggregate(self) -> dict:
        """Totals over all recorded spans: per-function call counts,
        inclusive seconds (outermost calls only, so recursion is not
        counted twice) and self seconds (span duration minus the durations
        of its direct children), and per-module self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        fn_self: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, parent, outermost) in enumerate(self.spans):
            calls[name] += 1
            if outermost:
                inclusive[name] += t1 - t0
            fn_self[name] += (t1 - t0) - child[i]
            self_s[name.partition(".")[0]] += (t1 - t0) - child[i]
        return {"calls": calls, "inclusive": inclusive, "fn_self": fn_self, "self": self_s}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [s[:4] for s in self.spans],
                },
                f,
            )
