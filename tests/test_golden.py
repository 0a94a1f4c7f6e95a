"""Pinned output bytes of the command line.

Criterion 7 compares two runs of the same code. These digests were recorded
once, from the code before the executor's view membership test and ball-LP
memo were optimised, so any later change that alters a written file or a
printed line fails here even when it is deterministic. A deliberate change
of output must re-record them and say so. The ``run-local-avg`` file digest
was re-recorded once, when the simplex took Dantzig pricing and periodic
rebuilds: its ball-LP optima moved by at most 1.6e-15, and its stdout did
not change.
"""
import hashlib

import pytest

from cli_child import cli

TORUS = ("gen-torus", "--dim", "2", "--side", "6", "--perturb", "--seed", "0")
SMALL_TREE = ("-d", "1", "-D", "1", "-r", "1", "-R", "2", "--seed", "0")
# degree-4 template of girth 6, so edge pairing order matters
WIDE_TREE = ("-d", "2", "-D", "1", "-r", "1", "-R", "2", "--seed", "0")

# (argv after the input set-up, output file, sha256 of the file, sha256 of stdout)
CASES = {
    "torus6": (
        TORUS, "torus.json",
        "705e2828c5dd0955e9c246bedae86269a569f02d11a79d5b0f55845d024de12b",
        None,
    ),
    "run-local-avg": (
        ("run", "torus.json", "--algorithm", "local-avg", "--radius", "1"), "run.json",
        "674a9d10874987ddfa89dd219394037b9cd0d8262b800deee8a5c0484e8b55ce",
        "1d67b90d65b5bc8e859908d7afbac8a4bc7ad453763e18a0180b782537af9141",
    ),
    "adversary-safe": (
        ("adversary", "--algorithm", "safe", *SMALL_TREE), "adv.json",
        "b6c9a6425099d722ebd38e83742bc034029245bc5d8c52bb69f6b90df037960e",
        "c425a3217c1552305454c5983c3609dab28fa1aaffe6fe3fd2cda45f5e5470fd",
    ),
    "gen-lowerbound": (
        ("gen-lowerbound", *SMALL_TREE), "lb.json",
        "d9e965536bce6b1e87a827a6ac3bb0f773a57a21de821cd9504d2f247ac95c5f",
        "1abed83219013b4117944c27574afb8445324400526a9a695d793331750f6a0b",
    ),
    "adversary-safe-wide": (
        ("adversary", "--algorithm", "safe", *WIDE_TREE), "adv21.json",
        "b03c2eee26d7967249041cad964180fd96d99e8458113f975cc74d83f12b7329",
        "9f02b4905204546a2956bae4a9ca091bfc1dc827313bfb61e6a8e29e0d09df93",
    ),
    "gen-lowerbound-wide": (
        ("gen-lowerbound", *WIDE_TREE), "lb21.json",
        "c353e55d2c216eff1458d0fccfa7789c831e295173dfbf0c56985969215662ec",
        "c283397d703b4a150d018f8a68803953ee70f875a634646a199def1e9ce4cc77",
    ),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_the_recorded_digests(case, tmp_path):
    if case == "run-local-avg":
        made = cli(*TORUS, "-o", "torus.json", cwd=tmp_path)
        assert made.returncode == 0, made.stderr
    argv, output, file_digest, stdout_digest = CASES[case]
    proc = cli(*argv, "-o", output, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sha256((tmp_path / output).read_bytes()) == file_digest
    if stdout_digest is not None:
        assert sha256(proc.stdout.encode()) == stdout_digest
