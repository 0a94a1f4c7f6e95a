"""Pinned output bytes of the command line.

Criterion 7 compares two runs of the same code. These digests were recorded
once, from the code before the executor's view membership test and ball-LP
memo were optimised, so any later change that alters a written file or a
printed line fails here even when it is deterministic. A deliberate change
of output must re-record them and say so. The ``run-local-avg`` file digest
was re-recorded once, when the simplex took Dantzig pricing and periodic
rebuilds: its ball-LP optima moved by at most 1.6e-15, and its stdout did
not change. The ``gen-random``, ``solve``, ``eval`` and ``growth`` digests,
which pin the ``config`` each command embeds, were recorded from the code
before those configs were derived from the parsed arguments.
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
    "gen-random": (
        ("gen-random", "--agents", "30", "--seed", "4"), "rand.json",
        "f27712a358e8b64aa1d6fa72cf5e7ec3f0fe4482d40a6e96434a204cbf73e010",
        "06182e545ef0aea94a3853cb89ae26b1218bb916e671bf2b41c047e3ae3761f4",
    ),
    "solve": (
        ("solve", "torus.json"), "sol.json",
        "636cfb3853a0f48a36cfa7e07c2a7076b192f3c5cb75451c542d73a1ff68d757",
        "dde439bc6b55787b5c5116f34bad1981ed667893c2783ba31ce4196c14bd1746",
    ),
    "eval-csv": (
        ("eval", "torus.json", "run.json", "--radius", "2", "--csv", "runs.csv"),
        "report.json",
        "7605f0b0de2ad188557c035067fbee5ea9b9952988c01ebf04cc0fd5e4d36503",
        "68a9d5e267fc203978d02fd96ee01739bfc7d66220e9077da23c2a2bdff81cc9",
    ),
    "growth": (
        ("growth", "torus.json", "--radius", "1"), "g.json",
        "39fc0ba77a92958e8bec30c417c0c402c878bbee48154785bf79509d971ba1b3",
        "361005bce58b1e60b531f16057e3d894f4fa07f994b50889e8c8702a85c84f55",
    ),
}

# (argv, output) of the files a case reads, made in order before it runs
MAKE_TORUS = (TORUS, "torus.json")
MAKE_RUN = (CASES["run-local-avg"][0], "run.json")
INPUTS = {
    "run-local-avg": (MAKE_TORUS,),
    "solve": (MAKE_TORUS,),
    "eval-csv": (MAKE_TORUS, MAKE_RUN),
    "growth": (MAKE_TORUS,),
}

# files a case writes besides its -o output, with their sha256
EXTRA_FILES = {
    "eval-csv": {"runs.csv": "0e77badc0057c08e92ba1ad8c288dcb9fc3aa8157ee055e7e927e2802fd2772f"},
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_the_recorded_digests(case, tmp_path):
    for argv, output in INPUTS.get(case, ()):
        made = cli(*argv, "-o", output, cwd=tmp_path)
        assert made.returncode == 0, made.stderr
    argv, output, file_digest, stdout_digest = CASES[case]
    proc = cli(*argv, "-o", output, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sha256((tmp_path / output).read_bytes()) == file_digest
    if stdout_digest is not None:
        assert sha256(proc.stdout.encode()) == stdout_digest
    for name, digest in EXTRA_FILES.get(case, {}).items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
