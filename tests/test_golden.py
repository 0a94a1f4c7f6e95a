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
before those configs were derived from the parsed arguments. The
``adversary-zero`` and ``adversary-local-avg`` digests were recorded from
the code before the attack became one pass without a two-phase meta.
The ``gen-lowerbound-bench`` digests were recorded from the code before
instance files were rendered as text instead of through ``json.dumps``.
The ``solve-torus8`` and ``run-local-avg-r2`` digests, on the uniform and
the perturbed 8x8 tori, were recorded from the code before a view held one
row map per kind, each row over its full support with ``None`` for the
agents beyond the horizon, in place of separate coefficient and support
maps; they are the first to reach the ball subproblems at R = 2.
The ``adversary-safe-wide``, ``gen-lowerbound-wide`` and
``gen-lowerbound-bench`` digests were re-recorded when the attack's
template became a restricted D(k, q) graph instead of a seeded random one,
which made their templates narrower; the degree-1 attack goldens, whose
template is the same two-edge matching either way, kept theirs.
"""
import hashlib

import pytest

from cli_child import cli

TORUS = ("gen-torus", "--dim", "2", "--side", "6", "--perturb", "--seed", "0")
SMALL_TREE = ("-d", "1", "-D", "1", "-r", "1", "-R", "2", "--seed", "0")
# degree-4 template of girth 6, so edge pairing order matters
WIDE_TREE = ("-d", "2", "-D", "1", "-r", "1", "-R", "2", "--seed", "0")
# R = 2 averaging runs on these; the uniform one is the degenerate case
TORUS8 = ("gen-torus", "--dim", "2", "--side", "8", "--seed", "0")
TORUS8_PERTURBED = ("gen-torus", "--dim", "2", "--side", "8", "--perturb", "--seed", "0")
# the adversary-safe benchmark's instance: 2,640 agents
BENCH_TREE = ("-d", "2", "-D", "2", "-r", "1", "-R", "2", "--seed", "0")

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
        "d3558cb4006f8aecc1c0993c199e693ff3f7c59cc00c7805e8ffb3214958803f",
        "9f02b4905204546a2956bae4a9ca091bfc1dc827313bfb61e6a8e29e0d09df93",
    ),
    # the algorithm earns nothing, so the ratio is written as "unbounded"
    "adversary-zero": (
        ("adversary", "--algorithm", "zero", *SMALL_TREE), "adv0.json",
        "284fc775d595eb8c55667afbeb9a3e0c9490348558286c8e3dd849e754fad572",
        "8d236ba7d6054c817442583cad28ad905b28fb2785557344a9674847f01e5ead",
    ),
    # the paper's own rule: horizon 2R + 1 = 3 needs r = 3, so d = D = 1
    "adversary-local-avg": (
        ("adversary", "--algorithm", "local-avg", "--radius", "1",
         "-d", "1", "-D", "1", "-r", "3", "-R", "4", "--seed", "0"), "advavg.json",
        "429da6996331d04407470d884d6bae57b190a010f340c658cb46e4b22408dc9e",
        "329fc1aeeac867bb2e445ec33e8a3967d13887ab378da474acb87c14d87e15a4",
    ),
    "gen-lowerbound-wide": (
        ("gen-lowerbound", *WIDE_TREE), "lb21.json",
        "bf3b9559a5eb5c6fbbbe424c4b21528281e7718559bc28d3f67ede98af6bbe5b",
        "fb96b92b290a8d7066720b9e073487b53f1ace93335c8b58b81bd37d84502c51",
    ),
    "gen-lowerbound-bench": (
        ("gen-lowerbound", *BENCH_TREE), "lbbench.json",
        "be6ac60c69545ea1884f2e28c32b9d35c3b4c42349e15c2e052288792e93fb41",
        "9fcd47899b8a4a4c31a2c01d611a2dd898143e5cd45fa4318c3de96cc8a17ede",
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
    "solve-torus8": (
        ("solve", "torus8.json"), "sol8.json",
        "af8cc9f92db5ed86e3f292af9a22bf429ab9b7910c20647cb3d6e398c7033253",
        "312752a195e74bcfa95bec4e8bd713bbd5389497b8bacb9803f3223a0e92e759",
    ),
    "solve-torus8-perturbed": (
        ("solve", "torus8p.json"), "sol8p.json",
        "6ff94dca674343c48a75de977006d679e22f77a518c9b17244156a707ab526cb",
        "c2275336deba5f9aae37e09f629bc8772173d850cee5176c44410ec476cf4e6e",
    ),
    "run-local-avg-r2": (
        ("run", "torus8.json", "--algorithm", "local-avg", "--radius", "2"), "run8.json",
        "22fa5721677d0d2cff669a09b1fc51fe7bc0099249a6ae6f605c5b23397a2157",
        "1b239b683e0cbf93a58fc7bf37554a132da75bbe900788dfcd236816407f7879",
    ),
    "run-local-avg-r2-perturbed": (
        ("run", "torus8p.json", "--algorithm", "local-avg", "--radius", "2"), "run8p.json",
        "1b0f7a88998a90ff1cbc5b83f857f8116f1b97f8c87e71a06a4934cfcd0d5a76",
        "5cad64aa24823fa016c130ed39d3e2f0284a3d335c8f87501ccfa75eb990d737",
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
MAKE_TORUS8 = (TORUS8, "torus8.json")
MAKE_TORUS8_PERTURBED = (TORUS8_PERTURBED, "torus8p.json")
INPUTS = {
    "run-local-avg": (MAKE_TORUS,),
    "solve": (MAKE_TORUS,),
    "solve-torus8": (MAKE_TORUS8,),
    "solve-torus8-perturbed": (MAKE_TORUS8_PERTURBED,),
    "run-local-avg-r2": (MAKE_TORUS8,),
    "run-local-avg-r2-perturbed": (MAKE_TORUS8_PERTURBED,),
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
