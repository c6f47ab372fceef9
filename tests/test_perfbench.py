"""The benchmark's use of the program, smoke-tested: every operation of both
perfbench workloads runs once, so a retired name, parameter or report key
that the benchmark reads fails here and not only in a benchmark run.
Verdicts are not asserted: the coupling lemma's 3-s.e. band fails by
chance on a few seeds, and that is the benchmark's business."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("workload", ["report_corpus", "coupling_sim"])
def test_every_op_runs(workloads, workload, tmp_path):
    ops = workloads.WORKLOADS[workload](SEED, str(tmp_path))
    assert ops
    for op in ops:
        out = op.call()
        if workload == "report_corpus":
            rc, text = out
            assert rc in (0, 2), op.name  # 1 is an error; 2 a failed verdict
            report = json.loads(text)
            assert set(report["stationary"]) == set(workloads.METHODS), op.name
            assert "empirical_tmix" in report["mixing"], op.name
            assert isinstance(report["verdicts"], dict), op.name
