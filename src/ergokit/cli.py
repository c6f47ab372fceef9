"""Command-line surface: ingestion, generators, analysis, cross-validation.

Commands: analyze, stationary, mix, couple, generate, report.
Exit codes: 0 success / ergodic, 2 analysis-negative (not ergodic, methods
disagree, a bound violated), 1 usage or I/O error. Every error is one
stderr line. All stdout reports are JSON; curve data goes to --csv files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import chain as chain_mod
from . import coupling as coupling_mod
from . import doeblin as doeblin_mod
from . import envelope as envelope_mod
from . import generators
from . import stationary as stationary_mod
from . import structure as structure_mod
from .errors import (
    ArgumentRangeError,
    ErgokitError,
    InvalidGeneratorParamsError,
    MaxIterExceededError,
    TooLargeError,
)

#: Every stationary route, in report order: name -> (P, tol) -> StationaryResult.
#: Each entry looks its function up when called, so a patched module
#: attribute is what runs; only the envelope squeeze reads tol.
METHODS = {
    "linear_solve": lambda P, tol: stationary_mod.stationary_linear(P),
    "tree_enumeration": lambda P, tol: stationary_mod.stationary_by_trees(P, "enumeration"),
    "tree_determinant": lambda P, tol: stationary_mod.stationary_by_trees(P, "determinant"),
    "return_time": lambda P, tol: stationary_mod.stationary_by_return_time(P),
    "envelope": lambda P, tol: envelope_mod.stationary_by_envelope(P, tol=tol),
    "power_iteration": lambda P, tol: stationary_mod.stationary_by_power(P),
}

_PARAM_ALIASES = {
    "lazy_hypercube": {"d": "dim"},
    "cycle": {"L": "length", "l": "length"},
    "top_to_random": {"k": "deck"},
}


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _parse_params(name: str, text: str | None) -> dict:
    params = {}
    if text:
        for item in text.split(","):
            if "=" not in item:
                raise InvalidGeneratorParamsError(f"bad param {item!r}, expected k=v")
            k, v = item.split("=", 1)
            k = k.strip()
            k = _PARAM_ALIASES.get(name, {}).get(k, k)
            if k in params:  # also under another alias of the same name
                raise InvalidGeneratorParamsError(f"param {k!r} is given more than once")
            params[k] = _coerce(v.strip())
    return params


def _resolve_chain(args) -> chain_mod.StochasticMatrix:
    if args.chain and args.gen:
        raise InvalidGeneratorParamsError("give --chain or --gen, not both")
    if args.chain and args.params:
        raise InvalidGeneratorParamsError("--params sets a generator's parameters; --chain takes none")
    if args.gen and args.format:
        raise InvalidGeneratorParamsError("--format sets a --chain file's format; --gen takes none")
    if args.gen:
        return generators.generate(args.gen, **_parse_params(args.gen, args.params))
    if args.chain:
        return chain_mod.load_chain(args.chain, fmt=args.format)
    raise InvalidGeneratorParamsError("provide --chain <path> or --gen <name>")


def _check_tol_flag(tol: float) -> None:
    """Refuse a --tol that is NaN, 0, negative or infinite: the routes
    agree within 10 tol, which an infinite tol makes vacuous."""
    chain_mod._check_tol("--tol", tol)
    if tol == np.inf:
        raise ArgumentRangeError(f"--tol must be finite, got {tol}")


def _write_csv(path: str | None, text: str) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)


def _stationary_table(P, methods, tol):
    """Per-method results (errors surfaced inline, not aborting the rest)."""
    results = {}
    for m in methods:
        try:
            results[m] = METHODS[m](P, tol)
        except ErgokitError as e:
            # no traceback: its frames would keep this table in a reference cycle
            results[m] = e.with_traceback(None)
    return results


def _method_json(r, with_message: bool) -> dict:
    """One method's entry in the JSON output: its pi and residual, or its
    error's name (and message, with ``with_message``)."""
    if not isinstance(r, Exception):
        return {"pi": r.pi.probs.tolist(), "residual": r.residual}
    return {"error": type(r).__name__, **({"message": str(r)} if with_message else {})}


def _discrepancies(results, tol):
    """The pairwise max discrepancy table of the routes that returned a pi,
    and the ``methods_agree`` verdict: the worst entry is at most 10 tol."""
    ok = {m: r for m, r in results.items() if not isinstance(r, Exception)}
    names = sorted(ok)
    table = {}
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            d = float(np.abs(ok[a].pi.probs - ok[b].pi.probs).max())
            table[f"{a}/{b}"] = d
            worst = max(worst, d)
    return table, worst <= 10.0 * tol


def cmd_analyze(args) -> int:
    P = _resolve_chain(args)
    report = structure_mod.analyze(P)
    print(report.to_json())
    return 0 if report.ergodic else 2


def cmd_stationary(args) -> int:
    _check_tol_flag(args.tol)
    P = _resolve_chain(args)
    methods = args.methods.split(",") if args.methods else list(METHODS)
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise InvalidGeneratorParamsError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise InvalidGeneratorParamsError(f"method {m!r} is given more than once")
    if args.csv and "envelope" not in methods:
        raise ArgumentRangeError("--csv writes envelope traces, so --methods must include envelope")
    results = _stationary_table(P, methods, args.tol)
    # built before printing, so a refused trace prints nothing
    trace = _envelope_trace_csv(P, results["envelope"], args.tol) if args.csv else None
    table, agree = _discrepancies(results, args.tol)
    out = {
        "methods": {m: _method_json(r, with_message=True) for m, r in results.items()},
        "pairwise_max_discrepancy": table,
    }
    print(json.dumps(out))
    _write_csv(args.csv, trace)
    if all(isinstance(r, Exception) for r in results.values()) or not agree:
        return 2
    return 0


def _envelope_trace_csv(P, squeeze, tol) -> str:
    """Every column's envelope trace, all off one orbit of the chain the
    squeeze lifted to; the header only if the squeeze refused the chain.
    Refuses traces that would stop short of tol: the squeeze took more than
    envelope.MAX_TRACE_ROWS iterations, or did not reach tol."""
    if isinstance(squeeze, MaxIterExceededError):
        raise TooLargeError(f"--csv: the envelope traces would stop short of --tol ({squeeze})")
    lines = ["column,i,m,M,delta"]
    if isinstance(squeeze, Exception):
        return lines[0] + "\n"
    if squeeze.evidence["iterations"] > envelope_mod.MAX_TRACE_ROWS:
        raise TooLargeError(
            f"--csv would need {squeeze.evidence['iterations']} rows per column to reach "
            f"--tol; it writes envelope traces of at most {envelope_mod.MAX_TRACE_ROWS} rows"
        )
    _, lifted = envelope_mod._lift(P)
    for col, trace in enumerate(envelope_mod.envelope_iterate(lifted, tol=tol)):
        lines += (f"{col},{r.i},{r.m:.17g},{r.M:.17g},{r.delta:.17g}" for r in trace.iterations)
    return "\n".join(lines) + "\n"


#: ``mix --csv`` writes max(--horizon, t_mix + 1) rows, one product per row,
#: so it refuses a curve longer than this before it builds any row.
_MIX_CSV_ROWS = 100_000


def cmd_mix(args) -> int:
    chain_mod._check_at_least("--horizon", args.horizon, 1)
    P = _resolve_chain(args)
    est = envelope_mod.mixing_estimate(P, epsilon=args.epsilon)
    horizon = max(args.horizon, est.empirical_tmix + 1)
    if args.csv and horizon > _MIX_CSV_ROWS:
        raise TooLargeError(
            f"--csv would need {horizon} rows, max(--horizon, t_mix + 1); "
            f"it writes curves of at most {_MIX_CSV_ROWS} rows"
        )
    print(json.dumps(dataclasses.asdict(est)))
    if args.csv:
        pi = stationary_mod.stationary_linear(P).pi
        split = None
        if est.primitivity_m == 1:  # P is entrywise positive
            split = doeblin_mod.doeblin_split(P)
        lines = ["t,d,n_delta,theta_pow"]
        # d(t) and Delta(t) off one stream, so each P^t is formed once
        for t, S in zip(range(1, horizon + 1), chain_mod.orbit(P.entries, P.entries)):
            d = chain_mod._tv_rows(S, pi.probs)
            delta = envelope_mod._column_gap(S)
            theta_pow = "" if split is None else f"{split.theta ** t:.17g}"
            lines.append(f"{t},{d:.17g},{P.n * delta:.17g},{theta_pow}")
        _write_csv(args.csv, "\n".join(lines) + "\n")
    return 0 if est.empirical_tmix <= est.bound_tmix else 2


def cmd_couple(args) -> int:
    P = _resolve_chain(args)
    # flags first: --start needs the chain's size, so it waits for the chain
    chain_mod._check_walk(P, (args.start,), args.trials)
    chain_mod._check_count("horizon", args.horizon, 0, coupling_mod.MAX_HORIZON)
    chain_mod._check_at_least("seed", args.seed, 0)
    pi = stationary_mod.stationary_linear(P).pi
    report = coupling_mod.verify_coupling_lemma(
        P,
        pi,
        start_y=args.start,
        horizon=args.horizon,
        trials=args.trials,
        seed=args.seed,
    )
    _write_csv(args.csv, report.to_csv())
    print(
        json.dumps(
            {
                "passed": report.passed,
                "trials": report.trials,
                "seed": args.seed,
                "horizon": args.horizon,
            }
        )
    )
    return 0 if report.passed else 2


def cmd_generate(args) -> int:
    P = generators.generate(args.name, **_parse_params(args.name, args.params))
    if args.format == "csv":
        sys.stdout.write(P.to_csv())
    else:
        print(P.to_json())
    return 0


def _stage(out: dict, key: str, verdicts: list[str], run) -> None:
    """One certificate stage of ``report``: ``run()`` returns the stage's
    block, put in ``out`` under ``key``, and the values of its ``verdicts``.
    A stage that raises an ErgokitError is reported inline, as the error's
    name and message, and fails its verdicts; the other stages still run."""
    try:
        block, passed = run()
    except ErgokitError as e:
        block, passed = {"error": type(e).__name__, "message": str(e)}, [False] * len(verdicts)
    out[key] = block
    out["verdicts"].update(zip(verdicts, passed))


def cmd_report(args) -> int:
    # flags first, so no route runs before a bad one is named
    _check_tol_flag(args.tol)
    chain_mod._check_count("--horizon", args.horizon, 1, coupling_mod.MAX_HORIZON)
    chain_mod._check_count("--trials", args.trials, 1, chain_mod.MAX_TRIALS)
    chain_mod._check_at_least("--seed", args.seed, 0)
    if not 0.0 < args.epsilon < 1.0:
        raise ArgumentRangeError(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    P = _resolve_chain(args)
    chain_mod._check_walk(P, (args.start,), args.trials)
    erg = structure_mod.analyze(P)
    out = {"ergodicity": json.loads(erg.to_json()), "verdicts": {}}
    results = _stationary_table(P, METHODS, args.tol)
    table, agree = _discrepancies(results, args.tol)
    out["stationary"] = {m: _method_json(r, with_message=False) for m, r in results.items()}
    out["pairwise_max_discrepancy"] = table
    out["verdicts"]["methods_agree"] = agree

    reference = results["linear_solve"]
    if erg.ergodic and isinstance(reference, Exception):
        # the certificates below all check against the linear-solve pi
        out["verdicts"]["linear_solve"] = False
    elif erg.ergodic:
        def mixing():
            est = envelope_mod.mixing_estimate(P, epsilon=args.epsilon)
            block = {
                "epsilon": est.epsilon,
                "empirical_tmix": est.empirical_tmix,
                "bound_tmix": est.bound_tmix,
            }
            return block, [est.empirical_tmix <= est.bound_tmix]

        def lemma():
            report = coupling_mod.verify_coupling_lemma(
                P, reference.pi, start_y=args.start, horizon=args.horizon,
                trials=args.trials, seed=args.seed,
            )
            block = {
                "worst_slack": report.worst_slack,
                "trials": report.trials,
                "horizon": args.horizon,
            }
            return block, [report.passed]

        def doeblin():
            # at least the 20 steps the recursion verdict has always covered
            report = doeblin_mod.verify_doeblin(P, max_n=max(args.horizon, 20))
            block = {"delta": report.split.delta, "theta": report.split.theta}
            return block, [report.tv_bound_passed, report.recursion_passed]

        _stage(out, "mixing", ["mixing_bound_dominates"], mixing)
        _stage(out, "coupling_lemma", ["coupling_lemma"], lemma)
        if erg.primitivity_exponent == 1:  # P is entrywise positive
            _stage(out, "doeblin", ["doeblin_tv_bound", "doeblin_recursion"], doeblin)
    print(json.dumps(out))
    return 0 if (erg.ergodic and all(out["verdicts"].values())) else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1 like any other bad input; 2 is analysis-negative
        self.exit(1, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parser is a web of reference cycles, which
    only the cyclic collector would free after each call."""
    p = _Parser(
        prog="ergokit",
        description="Finite Markov chain analysis and cross-validated "
        "stationary/convergence certificates.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_chain_flags(sp):
        sp.add_argument("--chain", help="chain file (JSON or CSV)")
        sp.add_argument("--gen", help="built-in generator name")
        sp.add_argument("--params", help="generator params k=v,...")
        sp.add_argument("--format", choices=["json", "csv"], default=None)

    sp = sub.add_parser("analyze", help="structural ergodicity report")
    add_chain_flags(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("stationary", help="stationary distribution, cross-validated")
    add_chain_flags(sp)
    sp.add_argument("--methods", help="comma-separated subset of " + ",".join(METHODS))
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--csv", help="write envelope traces here (envelope method)")
    sp.set_defaults(func=cmd_stationary)

    sp = sub.add_parser("mix", help="mixing time: doubling search vs contraction bound")
    add_chain_flags(sp)
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--horizon", type=int, default=50)
    sp.add_argument("--csv", help="write the (t, d, n*Delta, theta^t) curve here")
    sp.set_defaults(func=cmd_mix)

    sp = sub.add_parser("couple", help="coupling-lemma comparison")
    add_chain_flags(sp)
    sp.add_argument("--start", type=int, default=0, help="start state for the Y copy")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--horizon", type=int, default=30)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", help="write the (step, exact_tv, tail, tail_se) table here")
    sp.set_defaults(func=cmd_couple)

    sp = sub.add_parser("generate", help="emit a built-in chain")
    sp.add_argument("name")
    sp.add_argument("--params", help="generator params k=v,...")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("report", help="full cross-validation report")
    add_chain_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--trials", type=int, default=20_000)
    sp.add_argument("--horizon", type=int, default=30)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--start", type=int, default=0)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:  # a missing, unreadable or directory path
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ErgokitError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
