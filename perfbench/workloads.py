"""The benchmark's workloads: the inputs each one builds and the operations it times.

Every operation is one ``python -m maxminlp`` command. Set-up commands write
the inputs into a work directory; operations read them from there and write
one output file each, which a check then reads.
"""

import random
from dataclasses import dataclass

TORUS_SIDE = 8
RADIUS = 2
# Perturbed 8x8 tori: seed 11 is acceptance criterion 3's; 0 and 1 are
# further seeds. Local-avg exits 1 with "simplex returned an infeasible
# point" (tableau drift in the LP layer) on seed 2, which stays in every
# round as a known failure; among seeds 0-39 it fails on 16 and 23 too.
# The list is fixed: one torus takes from 1.4 s to 2.7 s depending on its
# seed, so tori drawn from --seed made op_s spread by 10% between runs.
TORUS_SEEDS = (11, 2, 0, 1)
KEPT_TORUS_FAILURE = 2

# `eval --radius 2` inputs within the oracle's 200-agent cap. The exact
# oracle fails on the first two (kept failures); it succeeds on the other
# eleven. Their times differ by up to 4x from one input to the next, so an
# odd count of succeeding inputs keeps the median inside one input's times
# instead of in the gap between two.
ORACLE_CASES = (
    ("torus", 8, 2, True),
    ("torus", 10, 3, True),
    ("torus", 10, 1, False),
    ("torus", 10, 2, False),
    ("torus", 10, 4, False),
    ("torus", 10, 6, False),
    ("torus", 11, 1, False),
    ("torus", 11, 3, False),
    ("torus", 11, 4, False),
    ("torus", 11, 5, False),
    ("random", 200, 0, False),
    ("random", 200, 2, False),
    ("random", 200, 3, False),
)

# The glued-hypertree attack at its default template width (24,000 agents).
ADVERSARY = {"d": 2, "D": 2, "r": 1, "R": 2}
# Template seeds among 0-39 whose 8-regular girth-6 template the greedy in
# lowerbound.build_regular_bipartite finds on its first attempt. On the other
# seeds it restarts, doing up to 11 times the work of one attempt, which makes
# the same command take up to 4 s longer; drawing from this pool keeps the
# work of every run the same.
ADVERSARY_POOL = (0, 2, 8, 10, 12, 17, 20, 22, 26, 32, 35)


@dataclass(frozen=True)
class Operation:
    """One timed command and what its check needs to know.

    ``check`` names the check that applies: ``local-avg``, ``eval`` or
    ``adversary``. ``instance`` and
    ``assignment`` are the input files the check reads, relative to the
    work directory. ``kept_failure`` marks an operation that fails today
    because of a known fault in the program.
    """

    name: str
    argv: tuple
    output: str
    check: str
    instance: str | None = None
    assignment: str | None = None
    kept_failure: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple
    operations: tuple


def _torus_localavg(seed):
    setup = []
    operations = []
    for s in TORUS_SEEDS:
        instance = f"torus{TORUS_SIDE}-s{s}.json"
        output = f"torus{TORUS_SIDE}-s{s}.local-avg.json"
        setup.append(
            ("gen-torus", "--dim", "2", "--side", str(TORUS_SIDE), "--perturb",
             "--seed", str(s), "-o", instance)
        )
        operations.append(Operation(
            name=f"torus{TORUS_SIDE}-s{s}",
            argv=("run", instance, "--algorithm", "local-avg",
                  "--radius", str(RADIUS), "-o", output),
            output=output,
            check="local-avg",
            instance=instance,
            kept_failure=s == KEPT_TORUS_FAILURE,
        ))
    return Workload("torus-localavg", tuple(setup), tuple(operations))


def _oracle_eval(seed):
    setup = []
    operations = []
    for family, size, s, kept in ORACLE_CASES:
        name = f"{family}{size}-s{s}"
        instance = f"{name}.json"
        assignment = f"{name}.safe.json"
        output = f"{name}.eval.json"
        if family == "torus":
            setup.append(
                ("gen-torus", "--dim", "2", "--side", str(size), "--perturb",
                 "--seed", str(s), "-o", instance)
            )
        else:
            setup.append(
                ("gen-random", "--agents", str(size), "--max-support", "3",
                 "--seed", str(s), "-o", instance)
            )
        setup.append(("run", instance, "--algorithm", "safe", "-o", assignment))
        operations.append(Operation(
            name=name,
            argv=("eval", instance, assignment, "--radius", str(RADIUS), "-o", output),
            output=output,
            check="eval",
            instance=instance,
            assignment=assignment,
            kept_failure=kept,
        ))
    return Workload("oracle-eval", tuple(setup), tuple(operations))


def _adversary_safe(seed):
    template_seed = random.Random(f"adversary-safe:{seed}").choice(ADVERSARY_POOL)
    params = []
    for key in ("d", "D", "r", "R"):
        params += [f"-{key}", str(ADVERSARY[key])]
    params += ["--seed", str(template_seed)]
    instance = f"lowerbound-s{template_seed}.json"
    output = f"adversary-s{template_seed}.json"
    setup = (("gen-lowerbound", *params, "-o", instance),)
    operation = Operation(
        name=f"adversary-s{template_seed}",
        argv=("adversary", "--algorithm", "safe", *params, "-o", output),
        output=output,
        check="adversary",
        instance=instance,
    )
    return Workload("adversary-safe", setup, (operation,))


WORKLOADS = {
    "torus-localavg": _torus_localavg,
    "oracle-eval": _oracle_eval,
    "adversary-safe": _adversary_safe,
}


def build(name, seed):
    """The workload ``name`` for ``seed``; only adversary-safe draws its input from it."""
    return WORKLOADS[name](seed)
