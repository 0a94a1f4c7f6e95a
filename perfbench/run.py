"""End-to-end and per-layer benchmark of the maxminlp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` the inputs are built
several times with the program's own commands, then whole rounds of the
workload's operations run, one ``python -m maxminlp`` process at a time,
until their time adds up to S seconds; every output is checked apart from
the package. With ``--trace 1`` the same operations run in-process through
``maxminlp.cli.main``, once untraced and twice traced, and the per-layer
metrics come from spans around each layer's public functions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run,
with every execution, goes to ``perfbench/out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import runner
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"

# Set-up runs at least SETUP_PASSES times and until it has taken
# SETUP_MIN_S in all, so that setup_s, the median pass, never rests on a
# few sub-second commands.
SETUP_PASSES = 3
SETUP_MIN_S = 5.0
IMPORT_REPEATS = 5
TRACED_PASSES = 2

# Per-layer metrics reported by a traced run: counts of calls, and self
# times of single functions, named "<layer>.<function>.<what>".
COUNTED = (
    "model.load_instance",
    "model.validate",
    "hypergraph.extract_view",
    "hypergraph.Hypergraph",
    "algorithms.run_local",
    "algorithms.local_lp_solution",
    "lp.solve_maxmin",
)
SELF_TIMED = (
    "hypergraph.extract_view",
    "hypergraph.growth_factor",
    "lowerbound.build_regular_bipartite",
    "lowerbound.select_hard_subinstance",
)


class SetupError(RuntimeError):
    pass


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def make_verifier(workload, workdir):
    """References for every input, computed apart, then a function that checks one output.

    Returns (verify, numpy version of the reference process).
    """
    oracle_files = sorted({op.instance for op in workload.operations if op.check != "adversary"})
    count_files = sorted({op.instance for op in workload.operations if op.check == "adversary"})
    done = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), "--radius", str(workloads.RADIUS),
         "--tests", str(TESTS), "--oracle", *oracle_files, "--count", *count_files],
        cwd=workdir, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SetupError(f"computing the references failed: {done.stderr.strip()}")
    found = json.loads(done.stdout)
    refs = {
        name: checks.reference_from_dict(workdir / name, payload)
        for name, payload in found["references"].items()
    }

    def verify(op):
        output = checks.read_json(workdir / op.output)
        if op.check == "local-avg":
            checks.check_local_avg(refs[op.instance], output, workloads.RADIUS)
        elif op.check == "eval":
            assignment = checks.read_json(workdir / op.assignment)
            checks.check_eval(refs[op.instance], assignment, output)
        else:
            d, D = workloads.ADVERSARY["d"], workloads.ADVERSARY["D"]
            checks.check_adversary(output, d, D, found["agents"][op.instance])

    return verify, found["numpy"]


def timed_run(workload, workdir, seconds, seed):
    env = runner.child_env(SRC)
    passes = []
    while len(passes) < SETUP_PASSES or sum(passes) < SETUP_MIN_S:
        spent = 0.0
        for argv in workload.setup:
            done = runner.run_process(runner.maxminlp_argv(argv), workdir, env)
            if done.returncode != 0:
                raise SetupError(f"set-up command {' '.join(argv)} failed: {done.stderr}")
            spent += done.wall_s
        passes.append(spent)
    verify, numpy_version = make_verifier(workload, workdir)

    def run(op):
        (workdir / op.output).unlink(missing_ok=True)
        return runner.run_process(runner.maxminlp_argv(op.argv), workdir, env)

    executions = runner.measure(workload.operations, seconds, seed, run, verify)
    metrics = runner.end_to_end(workload.operations, executions, passes)
    record = {
        "numpy": numpy_version,
        "setup_passes_s": passes,
        "executions": [vars(e) for e in executions],
    }
    return executions, metrics, record


def _call_cli(main, argv):
    """``maxminlp.cli.main(argv)`` with its printing captured; (exit code, last error line)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash counts as a failed operation
            code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def _in_process(main, op, workdir, verify, tracer=None):
    """One operation through ``maxminlp.cli.main``, traced when a tracer is given."""
    (workdir / op.output).unlink(missing_ok=True)
    restore = tracer.install() if tracer else None
    try:
        start = time.perf_counter()
        code, message = _call_cli(main, op.argv)
        wall = time.perf_counter() - start
    finally:
        if restore:
            restore()
    status, message = runner.outcome(op, code, message, verify)
    return runner.Execution(op.name, 0, status, wall, 0.0, 0.0, message)


def _counts(tracer):
    """Everything a traced pass counts: calls and raises per span, distinct LPs."""
    counts = {k: (s.calls, s.raised) for k, s in tracer.spans.items()}
    counts["lp.solve_maxmin.distinct"] = (len(tracer.distinct_lp), 0)
    return counts


def _import_seconds(workdir):
    env = runner.child_env(SRC)
    argv = [sys.executable, "-c", "import maxminlp.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        done = runner.run_process(argv, workdir, env)
        if done.returncode != 0:
            raise SetupError(f"importing maxminlp.cli failed: {done.stderr}")
        times.append(done.wall_s)
    return statistics.median(times)


def traced_run(workload, workdir):
    sys.path.insert(0, str(SRC))
    from maxminlp.cli import main

    import_s = _import_seconds(workdir)
    setup_tracer = tracing.Tracer()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        restore = setup_tracer.install()
        try:
            for argv in workload.setup:
                code, message = _call_cli(main, argv)
                if code != 0:
                    raise SetupError(f"set-up command {' '.join(argv)} failed: {message}")
        finally:
            restore()
        verify, numpy_version = make_verifier(workload, workdir)
        # Each operation runs untraced, then once under each tracer, so that
        # the overhead compares executions made moments apart.
        tracers = [tracing.Tracer() for _ in range(TRACED_PASSES)]
        untraced_s = 0.0
        traced_s = [0.0] * TRACED_PASSES
        executions = []
        calls_per_op = {}
        for op in workload.operations:
            untraced_s += _in_process(main, op, workdir, verify).wall_s
            before = _counts(tracers[0])
            for n, tracer in enumerate(tracers):
                done = _in_process(main, op, workdir, verify, tracer)
                traced_s[n] += done.wall_s
                if n == 0:
                    executions.append(done)
            after = _counts(tracers[0])
            calls_per_op[op.name] = {
                k: after[k][0] - before.get(k, (0, 0))[0]
                for k in sorted(after) if after[k][0] != before.get(k, (0, 0))[0]
            }
    finally:
        os.chdir(here)

    tracer = tracers[0]
    deterministic = all(_counts(t) == _counts(tracer) for t in tracers[1:])
    if not deterministic:
        print("traced passes disagree on their call counts", file=sys.stderr)
    metrics = per_layer(setup_tracer, tracer, import_s, traced_s[0] - untraced_s)
    record = {
        "numpy": numpy_version,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "deterministic": deterministic,
        "calls_per_operation": calls_per_op,
        "executions": [vars(e) for e in executions],
    }
    return executions, metrics, record, deterministic


def per_layer(setup_tracer, tracer, import_s, overhead_s):
    """Per-layer metrics from the set-up spans plus one traced pass of the operations."""

    def spans(name):
        return [t.spans[name] for t in (setup_tracer, tracer) if name in t.spans]

    metrics = {"cli.import_s": (import_s, "s")}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            setup_tracer.layer_self_s[layer] + tracer.layer_self_s[layer], "s"
        )
    for name in COUNTED:
        metrics[f"{name}.calls"] = (sum(s.calls for s in spans(name)), "count")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (sum(s.self_s for s in spans(name)), "s")
    calls = metrics["lp.solve_maxmin.calls"][0]
    distinct = len(setup_tracer.distinct_lp | tracer.distinct_lp)
    metrics["lp.solve_maxmin.distinct"] = (distinct, "count")
    metrics["lp.solve_maxmin.distinct_share"] = (distinct / calls if calls else 0.0, "ratio")
    lp_spans = spans("lp.solve_maxmin")
    metrics["lp.solve_maxmin.max_s"] = (max((s.max_s for s in lp_spans), default=0.0), "s")
    metrics["lp.solve_maxmin.raised"] = (sum(s.raised for s in lp_spans), "count")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="draws the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True, help="time to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [p for p in (SRC / "maxminlp" / "cli.py", TESTS / "oracles.py") if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            executions, metrics, record, deterministic = traced_run(workload, workdir)
        else:
            executions, metrics, record = timed_run(workload, workdir, args.seconds, args.seed)
            deterministic = True
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kept = {op.name for op in workload.operations if op.kept_failure}
    for e in executions:
        if e.status != runner.VERIFIED:
            label = "kept failure" if e.operation in kept else e.status
            print(f"{e.operation} (round {e.round}): {label}: {e.message}", file=sys.stderr)
    result = {
        "correct": deterministic and not any(e.status == runner.WRONG for e in executions),
        "attempted": len(executions),
        "failed": sum(e.status == runner.FAILED for e in executions),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        git_revision=git_revision(),
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        result=result,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
