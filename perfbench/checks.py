"""Output checks made apart from the package.

The checks read instance and output files as plain JSON and never import
``maxminlp``, so a fault in the package cannot vouch for itself. The exact
optimum and the growth factors come from the references in
``tests/oracles.py`` (scipy HiGHS and set-expansion balls). They are
computed once per input, before the timed operations, in a process of their
own:

    python3 perfbench/checks.py --radius R --tests DIR [--oracle FILE...] [--count FILE...]

prints them as JSON. The process that times the operations imports neither
numpy nor scipy, because a child's peak resident set as ``os.wait4`` reports
it includes the parent's peak at the moment the child was started.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

LOAD_TOL = 1e-9
GUARANTEE_TOL = 1e-9
ORACLE_TOL = 1e-9
EXACT_TOL = 1e-12


class CheckFailed(Exception):
    """An output disagrees with what was computed apart from the package."""


def read_json(path):
    return json.loads(Path(path).read_text())


def read_instance(path):
    """The instance file as agents plus sparse row maps, read without the package."""
    payload = read_json(path)

    def rows(entries):
        return {
            int(entry["id"]): {int(v): float(c) for v, c in entry["coeffs"].items()}
            for entry in entries
        }

    return SimpleNamespace(
        agents=[int(v) for v in payload["agents"]],
        resources=rows(payload["resources"]),
        beneficiaries=rows(payload["beneficiaries"]),
    )


@dataclass(frozen=True)
class Reference:
    """What the checks compare an output against, for one instance file."""

    instance: SimpleNamespace
    omega_star: float
    certificate: Fraction
    delta_vi: int


def reference(path, radius):
    """HiGHS optimum, growth certificate gamma(R-1)*gamma(R) and largest resource support."""
    import oracles

    instance = read_instance(path)
    certificate = oracles.growth(instance, radius - 1) * oracles.growth(instance, radius)
    return Reference(
        instance=instance,
        omega_star=oracles.linprog_maxmin(instance),
        certificate=certificate,
        delta_vi=max(len(row) for row in instance.resources.values()),
    )


def reference_to_dict(ref):
    return {
        "omega_star": ref.omega_star,
        "certificate": [ref.certificate.numerator, ref.certificate.denominator],
        "delta_vi": ref.delta_vi,
    }


def reference_from_dict(path, payload):
    return Reference(
        instance=read_instance(path),
        omega_star=payload["omega_star"],
        certificate=Fraction(*payload["certificate"]),
        delta_vi=payload["delta_vi"],
    )


def _values(payload, instance):
    values = {int(v): float(x) for v, x in payload["values"].items()}
    if set(values) != set(instance.agents):
        raise CheckFailed("the values do not cover exactly the instance's agents")
    return values


def _max_load(instance, x):
    return max(sum(a * x[v] for v, a in row.items()) for row in instance.resources.values())


def _omega(instance, x):
    return min(sum(c * x[v] for v, c in row.items()) for row in instance.beneficiaries.values())


def check_local_avg(ref, output, radius):
    """Feasible, nonnegative, and within the averaging guarantee of the optimum."""
    instance = ref.instance
    x = _values(output, instance)
    if min(x.values()) < 0.0:
        raise CheckFailed(f"negative activity {min(x.values())!r}")
    load = _max_load(instance, x)
    if load > 1.0 + LOAD_TOL:
        raise CheckFailed(f"a resource row is loaded to {load!r}")
    omega = _omega(instance, x)
    floor = ref.omega_star / float(ref.certificate) - GUARANTEE_TOL
    if omega < floor:
        raise CheckFailed(
            f"omega {omega!r} is below omega*/(gamma({radius - 1}) gamma({radius})) = {floor!r}"
        )


def check_eval(ref, assignment, output):
    """The report's optimum matches HiGHS; its other fields match the rows."""
    instance = ref.instance
    x = _values(assignment, instance)
    if abs(output["omega_star"] - ref.omega_star) > ORACLE_TOL:
        raise CheckFailed(
            f"omega_star {output['omega_star']!r} differs from HiGHS {ref.omega_star!r}"
        )
    load = _max_load(instance, x)
    feasible = load - 1.0 <= LOAD_TOL and min(x.values()) >= -LOAD_TOL
    if output["feasible"] is not feasible:
        raise CheckFailed(f"feasible is {output['feasible']!r}, the rows say {feasible!r}")
    omega = _omega(instance, x)
    if abs(output["omega"] - omega) > EXACT_TOL:
        raise CheckFailed(f"omega {output['omega']!r} differs from the rows' {omega!r}")
    ratio = output["omega_star"] / omega
    if abs(output["ratio"] - ratio) > EXACT_TOL * ratio:
        raise CheckFailed(f"ratio {output['ratio']!r} differs from omega*/omega = {ratio!r}")
    if output["certificate"] != float(ref.certificate):
        raise CheckFailed(
            f"certificate {output['certificate']!r} differs from {float(ref.certificate)!r}"
        )
    floor = ref.omega_star / ref.delta_vi - GUARANTEE_TOL
    if omega < floor:
        raise CheckFailed(f"safe omega {omega!r} is below omega*/delta_VI = {floor!r}")


def check_adversary(output, d, D, setup_agents):
    """Every resource row has d+1 unit coefficients, so safe plays 1/(d+1) everywhere."""
    omega = (D + 1) / (D * (d + 1))
    for key in ("omega_alg_full", "omega_alg_sub"):
        if abs(output[key] - omega) > EXACT_TOL:
            raise CheckFailed(f"{key} {output[key]!r} differs from (D+1)/(D(d+1)) = {omega!r}")
    ratio = D * (d + 1) / (D + 1)
    if abs(output["certified_ratio"] - ratio) > EXACT_TOL:
        raise CheckFailed(f"certified_ratio {output['certified_ratio']!r} is not {ratio!r}")
    floor = (d + 1) / 2 + 1 / 2 - 1 / (2 * D)
    if output["certified_ratio"] < floor:
        raise CheckFailed(f"certified_ratio {output['certified_ratio']!r} is below {floor!r}")
    flags = {
        "identical_choices": output["identical_choices"],
        "parity.feasible": output["parity"]["feasible"],
        "parity.rows_exact": output["parity"]["rows_exact"],
        "level_inequalities_ok": output["level_inequalities_ok"],
    }
    for key, flag in flags.items():
        if flag is not True:
            raise CheckFailed(f"{key} is {flag!r}")
    if abs(output["delta"]["sum"]) > GUARANTEE_TOL:
        raise CheckFailed(f"delta.sum {output['delta']['sum']!r} does not cancel")
    params = output["params"]
    agents = 2 * params["n_per_side"] * (1 + d + d * D + d * d * D)
    if params["agents"] != agents:
        raise CheckFailed(
            f"params.agents {params['agents']} is not 2 n (1 + d + dD + d^2 D) = {agents}"
        )
    if params["agents"] != setup_agents:
        raise CheckFailed(
            f"params.agents {params['agents']} differs from the set-up file's {setup_agents}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description="References for the output checks, as JSON.")
    parser.add_argument("--radius", type=int, required=True)
    parser.add_argument("--tests", required=True, help="directory holding oracles.py")
    parser.add_argument("--oracle", nargs="*", default=[], help="files to compute references for")
    parser.add_argument("--count", nargs="*", default=[], help="files to count the agents of")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.tests)
    import numpy

    print(json.dumps({
        "numpy": numpy.__version__,
        "references": {p: reference_to_dict(reference(p, args.radius)) for p in args.oracle},
        "agents": {p: len(read_json(p)["agents"]) for p in args.count},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
