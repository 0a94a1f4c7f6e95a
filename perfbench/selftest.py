"""Self-test of the benchmark's output checks and of its runner.

    python3 perfbench/selftest.py

Builds a perturbed 4x4 torus with the program's own commands and runs one
round of three operations through the runner: local-avg, eval of the safe
assignment, and a command that exits 1. It then shows that

- the real outputs pass their checks;
- an operation whose process exits 1 counts as failed, and the round still
  runs the operations after it;
- a local-avg output with one agent on a tight resource row raised by 1%
  fails its check;
- an eval report with omega_star moved by 1e-6 fails its check;
- the metrics a run reports are the ones BENCHMARK.json names.

Exits 0 when all of this holds and 1 otherwise, naming what did not.
"""

import json
import shutil
import sys

import checks
import run
import runner
import tracing
from workloads import RADIUS, Operation, Workload


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def rejects(check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def main():
    workdir = run.OUT / "work-selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = runner.child_env(run.SRC)
    try:
        setup = (
            ("gen-torus", "--dim", "2", "--side", "4", "--perturb", "--seed", "11", "-o", "t.json"),
            ("run", "t.json", "--algorithm", "safe", "-o", "safe.json"),
        )
        for argv in setup:
            done = runner.run_process(runner.maxminlp_argv(argv), workdir, env)
            expect(done.returncode == 0, f"set-up {argv} exited {done.returncode}: {done.stderr}")
        operations = (
            Operation("broken", ("solve", "missing.json"), "broken.json", "eval",
                      "t.json", "safe.json"),
            Operation("local-avg", ("run", "t.json", "--algorithm", "local-avg", "--radius",
                                    str(RADIUS), "-o", "avg.json"),
                      "avg.json", "local-avg", "t.json"),
            Operation("eval", ("eval", "t.json", "safe.json", "--radius", str(RADIUS),
                               "-o", "eval.json"), "eval.json", "eval", "t.json", "safe.json"),
        )
        verify, _ = run.make_verifier(Workload("selftest", setup, operations), workdir)
        # a seed whose first round starts with the broken operation
        seed = next(
            s for s in range(100) if runner.round_order(operations, s, 0)[0].name == "broken"
        )

        def start(op):
            return runner.run_process(runner.maxminlp_argv(op.argv), workdir, env)

        executions = runner.measure(operations, 0.0, seed, start, verify)
        status = {e.operation: e.status for e in executions}
        expect([e.operation for e in executions][:1] == ["broken"],
               "the broken operation ran first")
        expect(status == {"broken": runner.FAILED, "local-avg": runner.VERIFIED,
                          "eval": runner.VERIFIED},
               f"one round gave {[(e.operation, e.status, e.message) for e in executions]}")
        metrics = runner.end_to_end(operations, executions, [1.0])
        expect(metrics["verified_per_s"][0] > 0, "verified_per_s counts the verified operations")
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        layers = run.per_layer(tracing.Tracer(), tracing.Tracer(), 0.0, 0.0)
        for kind, reported in (("end_to_end", metrics), ("per_layer", layers)):
            named = {m["name"]: m["unit"] for m in declared[kind]}
            expect(named == {k: unit for k, (_, unit) in reported.items()},
                   f"{kind} metrics and units match BENCHMARK.json")

        sys.path.insert(0, str(run.TESTS))
        ref = checks.reference(workdir / "t.json", RADIUS)
        x = {int(v): value for v, value in checks.read_json(workdir / "avg.json")["values"].items()}
        rows = ref.instance.resources
        load = {i: sum(a * x[v] for v, a in row.items()) for i, row in rows.items()}
        tight = max(load, key=load.get)
        scaled = {v: value / load[tight] for v, value in x.items()}
        output = {"values": {str(v): value for v, value in scaled.items()}}
        expect(not rejects(checks.check_local_avg, ref, output, RADIUS),
               "the output scaled to a tight row passes")
        agent = max(rows[tight], key=lambda v: scaled[v])
        output["values"][str(agent)] = scaled[agent] * 1.01
        expect(rejects(checks.check_local_avg, ref, output, RADIUS),
               f"agent {agent} raised by 1% on tight row {tight} is rejected")

        report = checks.read_json(workdir / "eval.json")
        assignment = checks.read_json(workdir / "safe.json")
        expect(not rejects(checks.check_eval, ref, assignment, report), "the eval report passes")
        # the ratio moves with omega_star, so only the comparison with HiGHS can object
        report["omega_star"] += 1e-6
        report["ratio"] = report["omega_star"] / report["omega"]
        expect(rejects(checks.check_eval, ref, assignment, report),
               "omega_star moved by 1e-6 is rejected")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
