import importlib.util
from pathlib import Path

import ergokit as ek
from ergokit import generators as gen

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hypercube_mixing_table(capsys):
    code = load_script("hypercube_mixing").main(["--dims", "3", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].split() == ["d", "states", "m", "t_mix", "bound", "ratio"]
    assert len(lines) == 3
    for line, d in zip(lines[1:], (3, 4)):
        est = ek.mixing_estimate(gen.lazy_hypercube(d))
        assert line.split()[:5] == [
            str(v) for v in (d, 2**d, est.primitivity_m, est.empirical_tmix, est.bound_tmix)
        ]
