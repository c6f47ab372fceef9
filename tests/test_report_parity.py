"""Parity of the CLI outputs and library values that share the per-matrix
memo (the structure, the linear-solve pi and the lift P^m), pinned before
they shared it.

Each pin is an exit code with a sha256 of the command's stdout and CSV
file, or a sha256 of float64 bytes, compared with ``==``: the outputs must
be the same bit for bit, not merely close."""

import hashlib

import numpy as np
import pytest

import ergokit as ek
from ergokit import generators as gen
from ergokit.cli import main
from ergokit.errors import ErgokitError


def digest(values) -> str:
    a = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(a.tobytes()).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: name -> (CLI chain flags, the same chain from the library)
CHAINS = {
    "two_state": (("--gen", "two_state", "--params", "p=0.2,q=0.3"), lambda: gen.two_state(0.2, 0.3)),
    "lazy_hypercube_3": (("--gen", "lazy_hypercube", "--params", "d=3"), lambda: gen.lazy_hypercube(3)),
    "lazy_hypercube_4": (("--gen", "lazy_hypercube", "--params", "d=4"), lambda: gen.lazy_hypercube(4)),
    "top_to_random_4": (("--gen", "top_to_random", "--params", "k=4"), lambda: gen.top_to_random(4)),
    "uniform_5": (("--gen", "uniform", "--params", "n=5"), lambda: gen.uniform(5)),
    "cycle_5": (("--gen", "cycle", "--params", "L=5"), lambda: gen.cycle(5)),
    "flip": (("--gen", "flip"), gen.flip),
}


def cli(capsys, tmp_path, *argv) -> tuple[int, str]:
    """Exit code, and one digest of stdout and of the --csv file (if the
    command takes one and wrote it)."""
    out = tmp_path / "out.csv"
    csv = ("--csv", str(out)) if argv[0] != "report" else ()
    code = main([*argv, *csv])
    text = capsys.readouterr().out
    if out.exists():
        text += "\n--csv--\n" + out.read_text()
    return code, text_digest(text)


def report(capsys, tmp_path, flags):
    return cli(capsys, tmp_path, "report", *flags, "--trials", "2000", "--seed", "11")


def stationary(capsys, tmp_path, flags):
    return cli(capsys, tmp_path, "stationary", *flags)


def mix(capsys, tmp_path, flags):
    return cli(capsys, tmp_path, "mix", *flags, "--horizon", "40")


def couple(capsys, tmp_path, flags):
    return cli(capsys, tmp_path, "couple", *flags, "--trials", "3000", "--seed", "5")


def library(P):
    """The routes that read the memoized facts, as digests, or the name of
    the error they raise."""
    values = {}
    for name, route in (
        ("linear_solve", ek.stationary_linear),
        ("envelope", ek.stationary_by_envelope),
    ):
        try:
            res = route(P)
        except ErgokitError as e:
            values[name] = type(e).__name__
            continue
        values[name] = (digest(res.pi.probs), digest([res.residual]), sorted(res.evidence.items()))
    try:
        est = ek.mixing_estimate(P)
        values["mixing"] = (est.empirical_tmix, est.bound_tmix, est.primitivity_m, digest([est.pmin_of_Pm]))
    except ErgokitError as e:
        values["mixing"] = type(e).__name__
    return text_digest(repr(sorted(values.items())))


COMMANDS = {"report": report, "stationary": stationary, "mix": mix, "couple": couple}

#: (output, chain) -> value recorded before the facts shared the memo.
PINNED = {
    ('report', 'two_state'): (0, 'd697cc1aa9bc84216dff34ef11a75be4e0986ffcde670e09dde99e74a0f51531'),
    ('stationary', 'two_state'): (0, 'f01602893472679f05daa6bebd247c6899ae6597df36d69c5e1172fee7e3dcf7'),
    ('mix', 'two_state'): (0, 'ab66896f21c0d151f887a5a2191df9108800c001aebca4ad3adf87fe71d635b1'),
    ('couple', 'two_state'): (0, 'a390b8bdc4ca4861bd5d12e32e03b69cffeb14c6f16c5a48288cd10c0f8fd462'),
    ('library', 'two_state'): '766d0a084eff070e50f487dcae517b3764dd046a850e8cdd80082af81400a614',
    ('report', 'lazy_hypercube_3'): (0, 'a25d5f4f50523b20a4e186f232cb8d033ee2e4e4e03e39965162b93de334b982'),
    ('stationary', 'lazy_hypercube_3'): (0, '8c63dc29d164b406d6d2c20082b264e2c48e2f6e8fbc35f23c64e9102598b930'),
    ('mix', 'lazy_hypercube_3'): (0, '2cbb8ddca86a2ab466f79942db736d7a32bbc8ed0569e2689b95aafd558047e1'),
    ('couple', 'lazy_hypercube_3'): (0, 'ba44af2175114d8ec8fa1a3227bf34f86b4fc327fd26ae2b0b3ebe013485581b'),
    ('library', 'lazy_hypercube_3'): '0275d53e8b3edf5a4aa4dad83440804cf364916a2654433c6064f8f428384b02',
    ('report', 'lazy_hypercube_4'): (0, '3460bc5ead0802d520b259cf3ccae1fa035833980c846366eb1ca7dcaa1cd432'),
    ('stationary', 'lazy_hypercube_4'): (0, 'decfbb8289238b98cf0a1dcefdea1ce0136a53226ec9ed496c76b0619a337bb5'),
    ('mix', 'lazy_hypercube_4'): (0, '893c082671417705589e5a00ffaf09cbd6eac8a237519623e225e03bcb7ac468'),
    ('couple', 'lazy_hypercube_4'): (0, 'c4c8a7a2658d08ee2290f2ba0be5cd3cd8830b5f9ed7120b3193e769066ded80'),
    ('library', 'lazy_hypercube_4'): '0221fd8f4d95176d95bf05e18273e9882a690f361f3b56cd3aa02835cb5b4f4e',
    ('report', 'top_to_random_4'): (0, 'a89cc2a57c3dd8675978ca56806ca07ee9a244deef127c64dbf6d998968c1cc6'),
    ('stationary', 'top_to_random_4'): (0, '95f6a31885904a5121fe7c8cf94a546b8115be32fbb7e4549ed759e6da3fe649'),
    ('mix', 'top_to_random_4'): (0, 'af409426dff20470e18e1c438e932c053dc7f8c41b3e44d58383aadfe51fa0a7'),
    ('couple', 'top_to_random_4'): (0, '2443fd92b635b58ca478dc3bab0d787878b1ccacb539a6ffdd6efcd4b458780f'),
    ('library', 'top_to_random_4'): 'cac39e084ce1fdb66f275abd76437c121b5b363b04b350d25db88b79fb33bed8',
    ('report', 'uniform_5'): (0, 'c4e24d10bc7194dd7b9f4737edd8f405780b2851abb189db7d6e4f8319bbd2b4'),
    ('stationary', 'uniform_5'): (0, '88ed3a17dd971cf958493af1971298f8ef8ef8f89426dfc47332e4de98a3a27d'),
    ('mix', 'uniform_5'): (0, '644f4da630c6e7382ca29fe6af42544c2fe04e903aece65526b760e6989347f2'),
    ('couple', 'uniform_5'): (0, '876e5179e76415248aa746f01ed6e2565deb20ec5c1ed827696d66ef08c76baa'),
    ('library', 'uniform_5'): '6312dee0f2da321c71a3a1d486f7826ab26e660fdf423b378c21ad5fd22547ba',
    ('report', 'cycle_5'): (2, 'b56c741b7d792758c970dd7c096e41000399cd8443eb58fd75a673d378f55c4e'),
    ('stationary', 'cycle_5'): (0, 'e30cd771dc39e7e615e22823db0b5b94a5fa808964cc4888538d9ff965ed7f22'),
    ('mix', 'cycle_5'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('couple', 'cycle_5'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('library', 'cycle_5'): '3d7e20f6379f8b6dbbb2601ee5704b08757149077a5872576dea6311b8321ccd',
    ('report', 'flip'): (2, 'ccda2a8bd6d667ecb1000d186ab1a1487b209fe55ea554e0b08fe90bf1209108'),
    ('stationary', 'flip'): (0, '7e88e4f6007251b3d4079ecd37e27a994dfbf375f90d934c2d327140fb41c929'),
    ('mix', 'flip'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('couple', 'flip'): (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('library', 'flip'): '4869730267d576a5fd36c075822e0d4edd89cc20cf9d554ffa9614cfc7f3be63',
}


class TestMemoParity:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=["/".join(k) for k in sorted(PINNED)])
    def test_bit_for_bit(self, capsys, tmp_path, key):
        output, chain = key
        flags, make = CHAINS[chain]
        if output == "library":
            got = library(make())
        else:
            got = COMMANDS[output](capsys, tmp_path, flags)
        assert got == PINNED[key]
