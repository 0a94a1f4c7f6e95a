"""Start ``python -m maxminlp`` one process at a time and time it.

Wall time comes from ``time.perf_counter`` around the process's whole life;
CPU time and peak resident set come from ``os.wait4``, which reports them
for exactly that child.
"""

import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

OP_TIMEOUT_S = 150.0

VERIFIED = "verified"
FAILED = "failed"
WRONG = "wrong"


def child_env(src):
    """The environment for a child: the checkout's ``src`` first on PYTHONPATH.

    The path is absolute, so the child imports the same package whatever its
    working directory. An inherited oracle cap is dropped, so the oracle runs
    with its default cap.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + inherited if inherited else "")
    env.pop("MAXMINLP_ORACLE_CAP", None)
    return env


@dataclass(frozen=True)
class Exit:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def run_process(argv, cwd, env, timeout=OP_TIMEOUT_S):
    """Run ``argv`` to its end and return its exit status and resource use.

    A child that outlives ``timeout`` is killed and reported with its signal
    as a negative return code.
    """
    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    os.remove(err_path)
    return Exit(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=stderr,
    )


def maxminlp_argv(args):
    return [sys.executable, "-m", "maxminlp", *args]


@dataclass(frozen=True)
class Execution:
    """One timed operation, its resource use and how its output fared."""

    operation: str
    round: int
    status: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    message: str


def round_order(operations, seed, round_index):
    """The order in which round ``round_index`` of a run with ``seed`` runs the operations."""
    order = list(operations)
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


def outcome(op, returncode, message, verify):
    """(status, message) of an operation that exited with ``returncode``.

    A non-zero exit is a failure, reported with the operation's last error
    line; after a zero exit ``verify(op)`` raises to reject the output.
    """
    if returncode != 0:
        return FAILED, message or f"exit {returncode}"
    try:
        verify(op)
    except Exception as exc:  # any fault in the output rejects it
        return WRONG, f"{type(exc).__name__}: {exc}"
    return VERIFIED, ""


def measure(operations, seconds, seed, run, verify):
    """Run whole rounds of ``operations`` until their time adds up to ``seconds``.

    Each round runs every operation once, in an order drawn from ``seed``.
    ``run(op)`` returns an :class:`Exit`; ``verify(op)`` is called after a
    zero exit, outside the timing, and raises to reject the output. An
    operation that exits non-zero counts as failed and the round goes on.
    """
    executions = []
    elapsed = 0.0
    rounds = 0
    while rounds == 0 or elapsed < seconds:
        for op in round_order(operations, seed, rounds):
            done = run(op)
            elapsed += done.wall_s
            lines = done.stderr.splitlines()
            status, message = outcome(op, done.returncode, lines[-1] if lines else "", verify)
            executions.append(Execution(
                op.name, rounds, status, done.wall_s, done.cpu_s, done.peak_rss_mb, message
            ))
        rounds += 1
    return executions


def end_to_end(operations, executions, setup_passes):
    """The end-to-end metrics of one run, from its executions and set-up passes."""
    verified_walls = [e.wall_s for e in executions if e.status == VERIFIED]
    if not verified_walls:
        raise ValueError("no operation was verified, so op_s is undefined")
    by_op = {op.name: [e for e in executions if e.operation == op.name] for op in operations}
    list_s = sum(statistics.median(e.wall_s for e in runs) for runs in by_op.values())
    verified_ops = sum(
        1 for runs in by_op.values() if all(e.status == VERIFIED for e in runs)
    )
    return {
        "setup_s": (statistics.median(setup_passes), "s"),
        "op_s": (statistics.median(verified_walls), "s"),
        "verified_per_s": (verified_ops / list_s, "1/s"),
        "peak_rss_mb": (max(e.peak_rss_mb for e in executions), "MB"),
    }
