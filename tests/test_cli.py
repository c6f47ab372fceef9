import collections
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

import ergokit as ek
from ergokit import cli
from ergokit.cli import main
from ergokit.envelope import MixingEstimate

from conftest import from_array, near_periodic_cycle, random_irreducible, random_positive


def estimate_above_bound(P, epsilon=0.25):
    """A mixing estimate whose empirical time breaks its bound."""
    return MixingEstimate(
        epsilon=epsilon, empirical_tmix=8, bound_tmix=7, primitivity_m=1, pmin_of_Pm=0.2
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_linalg(monkeypatch):
    """Count the numpy.linalg calls behind the memoized facts: the linear
    solve's rank check and solve, and the lift's matrix power."""
    calls = collections.Counter()
    for name in ("matrix_rank", "solve", "matrix_power"):
        def counted(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def memo_chain_args(tmp_path, name):
    """CLI chain flags for the chains the once-per-fact tests run on."""
    if name == "random_positive":
        f = tmp_path / "chain.json"
        f.write_text(random_positive(np.random.default_rng(301), 10).to_json())
        return ("--chain", str(f))
    return {
        "two_state": ("--gen", "two_state", "--params", "p=0.2,q=0.3"),
        "lazy_hypercube_4": ("--gen", "lazy_hypercube", "--params", "d=4"),
    }[name]


#: (file name, contents, error type, a fragment of the error message)
MALFORMED = [
    ("dup.json", '{"states": ["a", "a"], "matrix": [[0.5, 0.5], [0.5, 0.5]]}',
     "StateLabelError", "'a'"),
    ("labels.json", '{"states": 5, "matrix": [[1.0]]}', "StateLabelError", "int"),
    ("int_label.json", '{"states": [1, "1"], "matrix": [[0.5, 0.5], [0.5, 0.5]]}',
     "StateLabelError", "state label 1 at position 0 is not a string"),
    ("null_label.json", '{"states": [null, "null"], "matrix": [[0.5, 0.5], [0.5, 0.5]]}',
     "StateLabelError", "state label None at position 0 is not a string"),
    ("str_labels.json", '{"states": "ab", "matrix": [[0.5, 0.5], [0.5, 0.5]]}',
     "StateLabelError", "'ab'"),
    ("ragged.json", '{"states": ["a", "b"], "matrix": [[0.5, 0.5], [1.0]]}',
     "NonSquareError", "row 1"),
    ("ragged.csv", "a,b\n0.5,0.5\n1.0\n", "NonSquareError", "row 1"),
    ("empty.json", "", "ChainParseError", "JSON"),
    ("no_states.json", '{"states": [], "matrix": []}', "NonSquareError", "(0,)"),
    ("inf.json", '{"states": ["a", "b"], "matrix": [[0.5, 0.5], [Infinity, 0.5]]}',
     "NonFiniteEntryError", "row 1, column 0"),
    ("wide.json", '{"states": ["a", "b"], "matrix": [[0.5, 0.5]]}',
     "NonSquareError", "(1, 2)"),
    ("text.json", '{"states": ["a", "b"], "matrix": [["x", 0.5], [0.5, 0.5]]}',
     "ChainParseError", "'x'"),
    ("no_matrix.json", '{"states": ["a", "b"]}', "ChainParseError", "'matrix'"),
    ("chain_dir", None, "Is a directory", "chain_dir"),
    ("edges_dir", None, "Is a directory", "edges_dir"),
    ("edges.txt", "a b\nb a\n", "InvalidGeneratorParamsError", "'abc'"),
    ("text.csv", "a,b\nabc,0.5\n0.5,0.5\n", "ChainParseError", "'abc'"),
    ("overflow.json", '{"states": ["a", "b"], "matrix": [[1e308, 1e308], [0.5, 0.5]]}',
     "RowSumError", "row 0 sums to inf"),
    ("utf16.json", b'\xff\xfe{"states": ["a"], "matrix": [[1.0]]}',
     "ChainParseError", "is not UTF-8: byte 0xff at offset 0"),
    ("latin1.csv", b"\xe9,b\n0.5,0.5\n0.5,0.5\n", "ChainParseError",
     "is not UTF-8: byte 0xe9 at offset 0"),
    ("bom_latin1.csv", b"\xef\xbb\xbfa,\xe9\n0.5,0.5\n0.5,0.5\n", "ChainParseError",
     "is not UTF-8: byte 0xe9 at offset 5"),
    ("latin1_edges.txt", b"a b\nb \xff\n", "InvalidGeneratorParamsError",
     "is not UTF-8: byte 0xff at offset 6"),
]

#: The command a malformed input goes to, "{}" standing for its path, where
#: that is not ``analyze --chain``; a text of None above makes a directory.
MALFORMED_ARGV = {
    "edges_dir": ("analyze", "--gen", "pagerank", "--params", "path={}"),
    "edges.txt": ("report", "--gen", "pagerank", "--params", "path={},alpha=abc"),
    "latin1_edges.txt": ("analyze", "--gen", "pagerank", "--params", "path={}"),
}


class TestAnalyze:
    def test_ergodic_chain_exit_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gen", "lazy_hypercube", "--params", "d=3")
        obj = json.loads(out)
        assert code == 0
        assert obj["irreducible"] and obj["aperiodic"]
        assert obj["primitivity_exponent"] == 3

    def test_periodic_chain_exit_two(self, capsys):
        code, out, _ = run(capsys, "analyze", "--gen", "flip")
        obj = json.loads(out)
        assert code == 2
        assert obj["aperiodic"] is False
        assert obj["periods"] == {"s0": 2, "s1": 2}

    def test_chain_from_json_file(self, capsys, tmp_path):
        P = ek.generators.two_state(0.2, 0.3)
        f = tmp_path / "chain.json"
        f.write_text(P.to_json())
        code, out, _ = run(capsys, "analyze", "--chain", str(f))
        assert code == 0
        assert json.loads(out)["irreducible"]

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "analyze", "--chain", "/no/such/file.json")
        assert code == 1
        assert "error" in err

    def test_malformed_csv_exit_one(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n0.5,0.5\n")  # missing second matrix row
        code, _, err = run(capsys, "analyze", "--chain", str(f))
        assert code == 1
        assert "ChainParseError" in err

    def test_no_source_exit_one(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--gen", "uniform", "--params", "n=3"), "give --chain or --gen, not both"),
            (("--gen", "uniform"), "give --chain or --gen, not both"),
            (("--params", "n=3"), "--params sets a generator's parameters; --chain takes none"),
        ],
        ids=["gen_and_params", "gen", "params"],
    )
    def test_chain_with_generator_flags_refused(self, capsys, tmp_path, extra, message):
        # the file is a valid chain: the flags alone are refused, not read past
        f = tmp_path / "ts.json"
        f.write_text(ek.generators.two_state(0.2, 0.3).to_json())
        code, out, err = run(capsys, "analyze", "--chain", str(f), *extra)
        assert code == 1
        assert out == ""
        assert err == f"error: InvalidGeneratorParamsError: {message}\n"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("bom.csv", "\ufeffa,b\n0.2,0.8\n0.3,0.7\n"),
            ("bom.json", '\ufeff{"states": ["a", "b"], "matrix": [[0.2, 0.8], [0.3, 0.7]]}'),
        ],
    )
    def test_byte_order_mark_dropped(self, capsys, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--chain", str(f))
        assert (code, err) == (0, "")
        assert sorted(json.loads(out)["periods"]) == ["a", "b"]

    def test_byte_order_mark_dropped_from_edge_list(self, capsys, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("\ufeffa b\nb a\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--gen", "pagerank", "--params", f"path={f}")
        assert (code, err) == (0, "")
        assert sorted(json.loads(out)["periods"]) == ["a", "b"]

    @pytest.mark.parametrize(
        "name, text",
        [
            ("nan.json", '{"states": ["a", "b"], "matrix": [[NaN, 0.5], [0.5, 0.5]]}'),
            ("nan.csv", "a,b\nnan,0.5\n0.5,0.5\n"),
        ],
    )
    def test_non_finite_entry_exit_one(self, capsys, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run(capsys, "analyze", "--chain", str(f))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "NonFiniteEntryError" in err and "row 0, column 0" in err

    @pytest.mark.parametrize(
        "name, text, error, detail", MALFORMED, ids=[case[0] for case in MALFORMED]
    )
    def test_malformed_chain_exit_one(self, capsys, tmp_path, name, text, error, detail):
        f = tmp_path / name
        if text is None:
            f.mkdir()
        elif isinstance(text, bytes):
            f.write_bytes(text)
        else:
            f.write_text(text)
        argv = MALFORMED_ARGV.get(name, ("analyze", "--chain", "{}"))
        code, out, err = run(capsys, *(a.format(f) for a in argv))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert error in err and detail in err


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv, detail",
        [
            (("couple", "--start", "5"), "state 5"),
            (("couple", "--start", "-1"), "state -1"),
            (("report", "--start", "5"), "state 5"),
            (("couple", "--trials", "0"), "trials"),
            (("mix", "--epsilon", "2"), "epsilon"),
            (("couple", "--horizon", "-3"), "horizon"),
            (("report", "--horizon", "-3"), "horizon"),
        ],
        ids=[
            "couple_start", "couple_negative_start", "report_start", "trials", "epsilon",
            "couple_horizon", "report_horizon",
        ],
    )
    def test_out_of_range_exit_one(self, capsys, argv, detail):
        code, out, err = run(capsys, *argv, "--gen", "two_state", "--params", "p=0.2,q=0.3")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "ArgumentRangeError" in err and detail in err


    @pytest.mark.parametrize(
        "gen_args",
        [
            ("--gen", "two_state", "--params", "p=0.2,q=0.3"),
            ("--gen", "lazy_hypercube", "--params", "d=2"),
            ("--gen", "flip"),
        ],
        ids=["positive", "zero_entries", "periodic"],
    )
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("report", "--horizon", "0"), "--horizon must be >= 1, got 0"),
            (("report", "--trials", "0"), "--trials must be >= 1, got 0"),
            (("report", "--epsilon", "1"), "--epsilon must lie in (0, 1), got 1.0"),
            (("report", "--tol", "0"), "--tol must be > 0, got 0.0"),
            (("report", "--tol", "nan"), "--tol must be > 0, got nan"),
            (("report", "--tol", "inf"), "--tol must be finite, got inf"),
            (("stationary", "--tol", "-1"), "--tol must be > 0, got -1.0"),
            (("stationary", "--tol", "inf"), "--tol must be finite, got inf"),
            (("report", "--seed", "-1"), "--seed must be >= 0, got -1"),
            (("mix", "--horizon", "-5"), "--horizon must be >= 1, got -5"),
        ],
        ids=[
            "report_horizon", "report_trials", "report_epsilon", "report_tol",
            "report_tol_nan", "report_tol_inf", "stationary_tol", "stationary_tol_inf",
            "report_seed", "mix_horizon",
        ],
    )
    def test_flags_checked_before_any_work(self, capsys, monkeypatch, argv, message, gen_args):
        from ergokit import structure

        def never(P):
            raise AssertionError("analysis ran before the flags were checked")

        monkeypatch.setattr(structure, "analyze", never)
        monkeypatch.setattr(structure, "_base_report", never)
        code, out, err = run(capsys, *argv, *gen_args)
        assert code == 1
        assert out == ""
        assert err == f"error: ArgumentRangeError: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("report", "--gen", "lazy_hypercube", "--params", "d=3", "--start", "99"),
             "ArgumentRangeError: state 99 is not in 0..7"),
            (("report", "--gen", "cycle", "--params", "L=3", "--start", "99"),
             "ArgumentRangeError: state 99 is not in 0..2"),
            (("couple", "--gen", "two_state", "--params", "p=0.2,q=0.3", "--start", "99"),
             "ArgumentRangeError: state 99 is not in 0..1"),
            (("couple", "--gen", "two_state", "--params", "p=0.2,q=0.3", "--trials", "0"),
             "ArgumentRangeError: trials must be >= 1, got 0"),
            (("couple", "--gen", "two_state", "--params", "p=0.2,q=0.3", "--horizon", "-3"),
             "ArgumentRangeError: horizon must be >= 0, got -3"),
            (("couple", "--gen", "two_state", "--params", "p=0.2,q=0.3", "--seed", "-1"),
             "ArgumentRangeError: seed must be >= 0, got -1"),
            (("report", "--gen", "two_state", "--params", "p=0.2,q=0.3",
              "--trials", "1000000000000000"),
             "TooLargeError: --trials 1000000000000000 exceeds the cap of 10000000"),
            (("report", "--gen", "two_state", "--params", "p=0.2,q=0.3",
              "--horizon", "1000000000", "--trials", "1000"),
             "TooLargeError: --horizon 1000000000 exceeds the cap of 10000"),
            (("couple", "--gen", "two_state", "--params", "p=0.2,q=0.3",
              "--trials", "1000000000000000"),
             "TooLargeError: trials 1000000000000000 exceeds the cap of 10000000"),
            (("couple", "--gen", "two_state", "--params", "p=0.2,q=0.3",
              "--horizon", "1000000000", "--trials", "1000"),
             "TooLargeError: horizon 1000000000 exceeds the cap of 10000"),
            (("generate", "uniform", "--params", "n=1000000"),
             "InvalidGeneratorParamsError: uniform chain needs 1 <= n <= 4096"),
            (("analyze", "--gen", "cycle", "--params", "L=1000000"),
             "InvalidGeneratorParamsError: cycle needs 2 <= length <= 4096"),
            (("analyze", "--gen", "uniform", "--params", "n=2.5"),
             "InvalidGeneratorParamsError: n 2.5 is not an integer"),
            (("analyze", "--gen", "two_state", "--params", "p=abc,q=0.3"),
             "InvalidGeneratorParamsError: p 'abc' is not a real number"),
            (("analyze", "--gen", "uniform", "--params", "n"),
             "InvalidGeneratorParamsError: bad param 'n', expected k=v"),
            (("analyze", "--gen", "pagerank", "--params", "path=edges.txt,beta=2"),
             "InvalidGeneratorParamsError: unknown params ['beta']"),
            (("analyze", "--gen", "two_state", "--params", "p=0.2,q=0.3,p=0.9"),
             "InvalidGeneratorParamsError: param 'p' is given more than once"),
            (("analyze", "--gen", "lazy_hypercube", "--params", "d=3,dim=2"),
             "InvalidGeneratorParamsError: param 'dim' is given more than once"),
            (("analyze", "--gen", "uniform", "--params", "n=2", "--format", "csv"),
             "InvalidGeneratorParamsError: --format sets a --chain file's format; --gen takes none"),
            (("report", "--gen", "two_state", "--params", "p=0.2,q=0.3", "--format", "json"),
             "InvalidGeneratorParamsError: --format sets a --chain file's format; --gen takes none"),
            (("stationary", "--gen", "two_state", "--params", "p=0.2,q=0.3",
              "--methods", "linear_solve,linear_solve"),
             "InvalidGeneratorParamsError: method 'linear_solve' is given more than once"),
        ],
        ids=["report_start", "report_periodic_start", "couple_start", "couple_trials",
             "couple_horizon", "couple_seed", "report_trials_cap", "report_horizon_cap",
             "couple_trials_cap", "couple_horizon_cap", "generate_uniform_cap",
             "analyze_cycle_cap", "analyze_uniform_size", "analyze_two_state_p",
             "analyze_param_without_value", "analyze_pagerank_unknown_param",
             "analyze_repeated_key", "analyze_repeated_key_by_alias", "analyze_gen_format",
             "report_gen_format", "stationary_repeated_method"],
    )
    def test_walk_flags_checked_before_any_route(self, capsys, monkeypatch, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("a route ran before the flags were checked")

        for mod, name in [
            (cli.structure_mod, "analyze"),
            (cli.structure_mod, "_base_report"),
            (cli.stationary_mod, "stationary_linear"),
            (cli.stationary_mod, "stationary_by_trees"),
            (cli.stationary_mod, "stationary_by_return_time"),
            (cli.stationary_mod, "stationary_by_power"),
            (cli.envelope_mod, "stationary_by_envelope"),
            (cli.envelope_mod, "mixing_estimate"),
            (cli.coupling_mod, "verify_coupling_lemma"),
        ]:
            monkeypatch.setattr(mod, name, never)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_pagerank_range_names_alpha(self, capsys, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("a b\nb a\n")
        code, out, err = run(
            capsys, "analyze", "--gen", "pagerank", "--params", f"path={edges},alpha=1"
        )
        assert (code, out) == (1, "")
        assert err == "error: InvalidGeneratorParamsError: pagerank needs 0 <= alpha < 1, got 1\n"

    def test_pagerank_range_checked_before_the_edge_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "analyze", "--gen", "pagerank", "--params",
            f"path={tmp_path / 'missing.txt'},alpha=1",
        )
        assert (code, out) == (1, "")
        assert err == "error: InvalidGeneratorParamsError: pagerank needs 0 <= alpha < 1, got 1\n"

    @pytest.mark.parametrize("command", ["mix", "report"])
    @pytest.mark.parametrize(
        "n, loop, detail",
        [(5, 1e-200, "P^8 is 0"), (28, 1.3e-12, "P^54 is 1.19e-321")],
        ids=["entry_rounds_to_zero", "bound_past_the_largest_float"],
    )
    def test_mixing_bound_past_floats_exit_one(self, capsys, tmp_path, command, n, loop, detail):
        path = tmp_path / "near_periodic.json"
        path.write_text(near_periodic_cycle(n, loop).to_json())
        code, out, err = run(capsys, command, "--chain", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: TooLargeError: mixing bound is not finite: "
            f"the least float entry of {detail}\n"
        )

    def test_couple_horizon_zero_is_valid(self, capsys):
        code, out, _ = run(
            capsys, "couple", "--gen", "two_state", "--params", "p=0.2,q=0.3",
            "--horizon", "0", "--trials", "100",
        )
        assert code == 0
        assert json.loads(out)["horizon"] == 0

    @pytest.mark.parametrize(
        "argv",
        [("report", "--tol", "abc"), ("bogus",), ("report", "--no-such-flag"), ()],
        ids=["bad_float", "unknown_command", "unknown_flag", "no_command"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("error: ergokit") and err.count("\n") == 1

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--help"])
        assert exc.value.code == 0
        assert "--horizon" in capsys.readouterr().out


class TestStationary:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "stationary", "--gen", "two_state", "--params", "p=0.2,q=0.3"
        )
        obj = json.loads(out)
        assert code == 0
        assert len(obj["methods"]) == 6
        for m, r in obj["methods"].items():
            assert "error" not in r, m
            assert np.abs(np.array(r["pi"]) - [0.6, 0.4]).max() < 1e-8
        assert max(obj["pairwise_max_discrepancy"].values()) < 1e-8

    def test_periodic_chain_partial_methods(self, capsys):
        # flip is periodic: envelope and power methods fail inline, exact ones work
        code, out, _ = run(capsys, "stationary", "--gen", "flip")
        obj = json.loads(out)
        assert code == 0
        assert "error" in obj["methods"]["envelope"]
        assert obj["methods"]["linear_solve"]["pi"] == [0.5, 0.5]

    def test_method_subset(self, capsys):
        code, out, _ = run(
            capsys,
            "stationary",
            "--gen",
            "uniform",
            "--params",
            "n=3",
            "--methods",
            "linear_solve,return_time",
        )
        obj = json.loads(out)
        assert code == 0
        assert set(obj["methods"]) == {"linear_solve", "return_time"}

    def test_power_iteration_no_convergence_inline(self, capsys):
        code, out, err = run(
            capsys, "stationary", "--gen", "two_state",
            "--params", "p=0.000001,q=0.000002",
            "--methods", "power_iteration,linear_solve",
        )
        obj = json.loads(out)
        assert code == 0
        assert err == ""
        assert obj["methods"]["power_iteration"]["error"] == "NoConvergenceError"
        assert obj["methods"]["linear_solve"]["pi"] == pytest.approx([2 / 3, 1 / 3])

    def test_unknown_method_exit_one(self, capsys):
        code, _, err = run(
            capsys, "stationary", "--gen", "flip", "--methods", "ouija_board"
        )
        assert code == 1

    def test_envelope_csv_written(self, capsys, tmp_path):
        out_csv = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys,
            "stationary",
            "--gen",
            "two_state",
            "--params",
            "p=0.2,q=0.3",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "column,i,m,M,delta"
        assert len(lines) > 2

    def test_tiny_entries_fail_the_squeeze_inline(self, capsys):
        # 1 - 1e-300 rounds to 1.0: the envelopes never close, and the
        # default cap is the mixing search's 2^40, not a division by zero
        code, out, err = run(
            capsys, "stationary", "--gen", "two_state", "--params", "p=1e-300,q=1e-300",
            "--methods", "envelope",
        )
        assert code == 2
        assert err == ""
        envelope = json.loads(out)["methods"]["envelope"]
        assert envelope["error"] == "MaxIterExceededError"
        assert "after 1099511627776 iterations" in envelope["message"]

    def test_inline_errors_hold_no_frames(self):
        # a traceback would tie the table and the chain into a reference cycle
        results = cli._stationary_table(ek.generators.uniform(9), ["tree_enumeration"], 1e-10)
        assert type(results["tree_enumeration"]).__name__ == "TooLargeError"
        assert results["tree_enumeration"].__traceback__ is None

    def test_zero_tree_weights_fail_inline(self, capsys):
        # 1 - (1 - 1e-300) rounds to 0: every determinant tree weight is 0
        code, out, err = run(
            capsys, "stationary", "--gen", "two_state", "--params", "p=1e-300,q=1e-300"
        )
        assert code == 0
        assert err == ""
        methods = json.loads(out)["methods"]
        assert methods["tree_determinant"] == {
            "error": "SingularSystemError",
            "message": "tree_determinant: tree weights sum to 0.0, not > 0",
        }
        assert methods["tree_enumeration"]["pi"] == [0.5, 0.5]

    @pytest.mark.parametrize(
        "params, detail",
        [
            ("p=0.000001,q=0.000002", "--csv would need 7712374 rows per column"),
            ("p=1e-300,q=1e-300", "--csv: the envelope traces would stop short of --tol"),
        ],
        ids=["stiff", "never_closes"],
    )
    def test_csv_refuses_traces_that_stop_short(self, capsys, tmp_path, params, detail):
        out_csv = tmp_path / "trace.csv"
        code, out, err = run(
            capsys, "stationary", "--gen", "two_state", "--params", params,
            "--methods", "linear_solve,envelope", "--csv", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: TooLargeError: {detail}")
        assert err.count("\n") == 1
        assert not out_csv.exists()

    def test_csv_without_the_envelope_method_refused(self, capsys, monkeypatch, tmp_path):
        # --csv writes envelope traces; without the squeeze it would write nothing
        def no_route(P):
            raise AssertionError("a route ran")

        monkeypatch.setattr(cli.stationary_mod, "stationary_linear", no_route)
        out_csv = tmp_path / "trace.csv"
        code, out, err = run(
            capsys, "stationary", "--gen", "two_state", "--params", "p=0.2,q=0.3",
            "--methods", "linear_solve", "--csv", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ArgumentRangeError: --csv") and "envelope" in err
        assert err.count("\n") == 1
        assert not out_csv.exists()

    def test_csv_forms_the_lift_once(self, capsys, monkeypatch, tmp_path):
        # the squeeze and its traces both run on P^3
        calls = count_linalg(monkeypatch)
        code, _, _ = run(
            capsys, "stationary", "--gen", "lazy_hypercube", "--params", "d=3",
            "--csv", str(tmp_path / "trace.csv"),
        )
        assert code == 0
        assert calls["matrix_power"] == 1

    def test_csv_traces_every_column_off_one_orbit(self, capsys, monkeypatch, tmp_path):
        from ergokit import chain, envelope, stationary

        streams = []
        orbit = chain.orbit

        def counted(S, M):
            streams.append(S.shape)
            return orbit(S, M)

        for mod in (chain, envelope, stationary):
            monkeypatch.setattr(mod, "orbit", counted)
        code, _, _ = run(
            capsys, "stationary", "--gen", "lazy_hypercube", "--params", "d=3",
            "--methods", "linear_solve,envelope", "--csv", str(tmp_path / "trace.csv"),
        )
        assert code == 0
        assert streams == [(8, 8)]  # all 8 columns of the lift P^3 read one stream


class TestMix:
    def test_two_state(self, capsys):
        code, out, _ = run(capsys, "mix", "--gen", "two_state", "--params", "p=0.2,q=0.3")
        obj = json.loads(out)
        assert code == 0
        assert obj["empirical_tmix"] == 2
        assert obj["empirical_tmix"] <= obj["bound_tmix"]
        assert obj["primitivity_m"] == 1

    def test_csv_curve(self, capsys, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys,
            "mix",
            "--gen",
            "two_state",
            "--params",
            "p=0.2,q=0.3",
            "--horizon",
            "10",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "t,d,n_delta,theta_pow"
        t, d, nd, th = lines[1].split(",")
        assert float(d) == pytest.approx(0.3)  # d(1) = 0.6 * 0.5
        assert float(d) <= float(nd)
        assert float(d) <= float(th)

    def test_periodic_exit_one(self, capsys):
        code, _, err = run(capsys, "mix", "--gen", "flip")
        assert code == 1

    def test_csv_forms_each_power_once(self, capsys, monkeypatch, tmp_path):
        from ergokit import chain, coupling, doeblin, envelope, stationary

        streams = []
        orbit = chain.orbit

        def counted(S, M):
            streams.append(S.shape)
            return orbit(S, M)

        for mod in (chain, envelope, stationary, coupling, doeblin):
            monkeypatch.setattr(mod, "orbit", counted)
        code, _, _ = run(
            capsys, "mix", "--gen", "two_state", "--params", "p=0.2,q=0.3",
            "--csv", str(tmp_path / "curve.csv"),
        )
        assert code == 0
        assert streams == [(2, 2)]  # d(t) and n Delta(t) read one stream

    def test_csv_runs_one_linear_solve(self, capsys, monkeypatch, tmp_path):
        # the mixing scan and the curve's pi share the memoized solve
        calls = count_linalg(monkeypatch)
        code, _, _ = run(
            capsys, "mix", *memo_chain_args(tmp_path, "lazy_hypercube_4"),
            "--csv", str(tmp_path / "curve.csv"),
        )
        assert code == 0
        assert calls == {"matrix_rank": 1, "solve": 1, "matrix_power": 1}

    def test_violated_bound_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.envelope_mod, "mixing_estimate", estimate_above_bound)
        code, out, err = run(capsys, "mix", "--gen", "two_state", "--params", "p=0.2,q=0.3")
        assert code == 2
        assert err == ""
        assert json.loads(out)["empirical_tmix"] == 8

    def test_stiff_chain_without_csv(self, capsys):
        code, out, err = run(
            capsys, "mix", "--gen", "two_state", "--params", "p=0.000001,q=0.000002"
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)["empirical_tmix"] == 326943

    def test_csv_refuses_a_curve_past_the_row_limit(self, capsys, tmp_path):
        # the curve would take one product per row up to t_mix = 326,943
        out_csv = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "mix", "--gen", "two_state", "--params", "p=0.000001,q=0.000002",
            "--csv", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: TooLargeError: --csv would need 326944 rows")
        assert err.count("\n") == 1
        assert not out_csv.exists()

    def test_csv_refuses_a_horizon_past_the_row_limit(self, capsys, tmp_path):
        # t_mix is 2, but --horizon alone would ask for 10^8 rows
        out_csv = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "mix", "--gen", "two_state", "--params", "p=0.2,q=0.3",
            "--horizon", "100000000", "--csv", str(out_csv),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: TooLargeError: --csv would need 100000000 rows")
        assert err.count("\n") == 1
        assert not out_csv.exists()


class TestCouple:
    def test_two_state_passes(self, capsys, tmp_path):
        out_csv = tmp_path / "lemma.csv"
        code, out, _ = run(
            capsys,
            "couple",
            "--gen",
            "two_state",
            "--params",
            "p=0.2,q=0.3",
            "--trials",
            "20000",
            "--horizon",
            "10",
            "--seed",
            "3",
            "--csv",
            str(out_csv),
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "step,exact_tv,tail,tail_se"
        assert len(lines) == 12  # header + steps 0..10

    def test_seed_determinism(self, capsys):
        args = (
            "couple", "--gen", "two_state", "--params", "p=0.2,q=0.3",
            "--trials", "5000", "--horizon", "5", "--seed", "11",
        )
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b


class TestGenerate:
    def test_json_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "lazy_hypercube", "--params", "d=2")
        assert code == 0
        f = tmp_path / "cube.json"
        f.write_text(out)
        code2, out2, _ = run(capsys, "analyze", "--chain", str(f))
        assert code2 == 0
        assert json.loads(out2)["primitivity_exponent"] == 2

    def test_csv_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "generate", "two_state", "--params", "p=0.2,q=0.3",
            "--format", "csv",
        )
        assert code == 0
        f = tmp_path / "chain.csv"
        f.write_text(out)
        back = ek.chain.load_chain(str(f))
        assert np.array_equal(back.entries, [[0.8, 0.2], [0.3, 0.7]])

    def test_param_alias(self, capsys):
        code, out, _ = run(capsys, "generate", "cycle", "--params", "L=4")
        assert code == 0
        assert len(json.loads(out)["states"]) == 4

    def test_bad_generator_exit_one(self, capsys):
        code, _, err = run(capsys, "generate", "perpetual_motion")
        assert code == 1


class TestReport:
    def test_two_state_full_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "report",
            "--gen",
            "two_state",
            "--params",
            "p=0.2,q=0.3",
            "--trials",
            "20000",
        )
        obj = json.loads(out)
        assert code == 0
        assert all(obj["verdicts"].values())
        assert set(obj["verdicts"]) == {
            "methods_agree",
            "mixing_bound_dominates",
            "coupling_lemma",
            "doeblin_tv_bound",
            "doeblin_recursion",
        }
        assert obj["doeblin"]["delta"] == pytest.approx(0.5)
        lemma = obj["coupling_lemma"]
        assert lemma["trials"] == 20000 and lemma["horizon"] == 30
        assert lemma["worst_slack"] >= 0.0
        for r in obj["stationary"].values():
            assert np.abs(np.array(r["pi"]) - [0.6, 0.4]).max() < 1e-8

    def test_periodic_chain_exit_two(self, capsys):
        code, out, _ = run(capsys, "report", "--gen", "flip", "--trials", "100")
        obj = json.loads(out)
        assert code == 2
        assert obj["ergodicity"]["aperiodic"] is False
        assert "mixing" not in obj


    @pytest.mark.parametrize(
        "gen_args",
        [
            ("--gen", "two_state", "--params", "p=0.2,q=0.3"),
            ("--gen", "lazy_hypercube", "--params", "d=4"),
        ],
    )
    def test_structure_computed_once_per_chain(self, capsys, monkeypatch, gen_args):
        from ergokit import structure

        calls = []
        tarjan = structure.strongly_connected_components

        def counted(adj):
            calls.append(len(adj))
            return tarjan(adj)

        monkeypatch.setattr(structure, "strongly_connected_components", counted)
        code, _, _ = run(capsys, "report", *gen_args, "--trials", "2000")
        assert code == 0
        assert len(calls) == 1  # P only: no product chain, no second pass

    @pytest.mark.parametrize("chain", ["two_state", "lazy_hypercube_4", "random_positive"])
    def test_each_fact_computed_once_per_chain(self, capsys, monkeypatch, tmp_path, chain):
        # linear_solve, the mixing scan and the certificates share one linear
        # solve; the squeeze and the mixing bound share one lift P^m
        args = memo_chain_args(tmp_path, chain)
        calls = count_linalg(monkeypatch)
        code, _, _ = run(capsys, "report", *args, "--trials", "2000")
        assert code == 0
        assert calls == {"matrix_rank": 1, "solve": 1, "matrix_power": 1}

    @pytest.mark.parametrize(
        "gen_args",
        [
            ("--gen", "two_state", "--params", "p=0.2,q=0.3"),
            ("--gen", "lazy_hypercube", "--params", "d=5"),
            ("--gen", "top_to_random", "--params", "k=4"),
        ],
    )
    def test_report_leaves_no_cyclic_garbage(self, capsys, gen_args):
        # garbage in reference cycles lives until the collector runs, so the
        # peak memory of a run of reports would follow the collector's timing
        import gc

        argv = ("report", *gen_args, "--trials", "2000")
        run(capsys, *argv)  # first calls fill caches and import lazily
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, *argv)
            freed = gc.collect()
        finally:
            gc.enable()
        assert code == 0
        assert freed == 0

    def test_doeblin_walks_each_orbit_once(self, capsys, monkeypatch, tmp_path):
        # the d(n) curve and the error recursion share one orbit of P from
        # the identity, and the recursion walks one orbit of Q
        from ergokit import chain, coupling, doeblin, envelope, stationary

        args = memo_chain_args(tmp_path, "random_positive")
        P = ek.load_chain(args[1])
        walks = []
        orbit = chain.orbit

        def counted(S, M):
            if np.ndim(S) == 2 and np.array_equal(S, np.eye(len(S))):
                walks.append("P" if np.array_equal(M, P.entries) else "Q")
            return orbit(S, M)

        for mod in (chain, envelope, stationary, coupling, doeblin):
            monkeypatch.setattr(mod, "orbit", counted)
        code, out, _ = run(capsys, "report", *args, "--trials", "2000")
        assert code == 0
        assert "doeblin_recursion" in json.loads(out)["verdicts"]
        assert sorted(walks) == ["P", "Q"]

    def test_violated_bound_is_a_failed_verdict(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.envelope_mod, "mixing_estimate", estimate_above_bound)
        code, out, err = run(
            capsys, "report", "--gen", "two_state", "--params", "p=0.2,q=0.3", "--trials", "2000"
        )
        obj = json.loads(out)
        assert code == 2
        assert err == ""
        assert obj["mixing"] == {"epsilon": 0.25, "empirical_tmix": 8, "bound_tmix": 7}
        assert obj["verdicts"]["mixing_bound_dominates"] is False
        assert all(v for k, v in obj["verdicts"].items() if k != "mixing_bound_dominates")

    def test_stiff_chain_reports(self, capsys):
        # d(t) = (2/3) (1 - 3e-6)^t, so t_mix = ceil(ln 0.375 / ln(1 - 3e-6))
        code, out, err = run(
            capsys, "report", "--gen", "two_state", "--params", "p=0.000001,q=0.000002"
        )
        obj = json.loads(out)
        assert code == 0
        assert err == ""
        assert obj["mixing"]["empirical_tmix"] == 326943
        assert obj["stationary"]["envelope"]["pi"] == pytest.approx([2 / 3, 1 / 3], abs=1e-10)

    def test_failed_linear_solve_reported_inline(self, capsys, monkeypatch):
        from ergokit import cli
        from ergokit.errors import SingularSystemError

        def fail(P):
            raise SingularSystemError("forced")

        monkeypatch.setattr(cli.stationary_mod, "stationary_linear", fail)
        code, out, err = run(capsys, "report", "--gen", "two_state", "--params", "p=0.2,q=0.3")
        obj = json.loads(out)
        assert code == 2
        assert err == ""
        assert obj["stationary"]["linear_solve"] == {"error": "SingularSystemError"}
        assert obj["verdicts"]["linear_solve"] is False
        assert "mixing" not in obj


def birth_death(n, r):
    """Birth-death on 0..n-1: up r / (1 + r), down 1 / (1 + r), and the
    blocked move held at either end, so pi_i is proportional to r^i."""
    a = np.zeros((n, n))
    up, down = r / (1.0 + r), 1.0 / (1.0 + r)
    for i in range(n):
        a[i, min(i + 1, n - 1)] += up
        a[i, max(i - 1, 0)] += down
    return from_array(a)


def tiny_entries(rng, n):
    """A random positive n x n chain with 30% of its entries set to
    10^-U(100, 300) before the rows are normalized."""
    a = rng.random((n, n)) + 0.05
    tiny = rng.random((n, n)) < 0.3
    a[tiny] = 10.0 ** -rng.uniform(100, 300, int(tiny.sum()))
    return from_array(a / a.sum(axis=1, keepdims=True))


def adversarial_corpus():
    """Four seeded chains of each family that has broken ``report``:
    near-periodic cycles, birth-death chains whose pi spans many orders of
    magnitude, tiny entries and sparse rings with chords."""
    rng = np.random.default_rng(7)
    corpus = {}
    for i in range(4):
        loop = 10.0 ** -rng.uniform(1, 12)
        corpus[f"near_periodic{i}"] = near_periodic_cycle(int(rng.integers(3, 40)), loop)
    for i in range(4):
        corpus[f"birth_death{i}"] = birth_death(int(rng.integers(3, 60)), 10.0 ** rng.uniform(-4, 4))
    for i in range(4):
        corpus[f"tiny_entries{i}"] = tiny_entries(rng, int(rng.integers(3, 30)))
    for i in range(4):
        n = int(rng.integers(10, 200))
        corpus[f"sparse{i}"] = random_irreducible(rng, n, extra_edges=3 * n)
    return corpus


ADVERSARIAL = adversarial_corpus()


@pytest.mark.parametrize("name", list(ADVERSARIAL))
def test_adversarial_report_fails_cleanly(capsys, tmp_path, name):
    """``report`` on a chain built to break it either reports (exit 0 or 2,
    with the ergodicity, verdicts and stationary blocks) or exits 1 with
    one error line and nothing on stdout; it never raises."""
    f = tmp_path / "chain.json"
    f.write_text(ADVERSARIAL[name].to_json())
    code, out, err = run(capsys, "report", "--chain", str(f), "--trials", "500", "--seed", "1")
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
    else:
        assert {"ergodicity", "verdicts", "stationary"} <= set(json.loads(out))


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    """README's ``## CLI`` block runs in-process, each command exiting 0, so a
    stale example fails. A ``> file`` redirect is dropped; ``my_chain.json``
    comes from ``generate`` first."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line and line[0] != "#"]
    assert commands and all(argv[0] == "ergokit" for argv in commands)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "generate", "two_state", "--params", "p=0.2,q=0.3")
    assert code == 0
    (tmp_path / "my_chain.json").write_text(out)
    for argv in commands:
        argv = argv[1 : argv.index(">") if ">" in argv else None]
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
