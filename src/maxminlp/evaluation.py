"""Judging assignments: feasibility, objectives, ratios, the growth certificate."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .hypergraph import growth_factor

DEFAULT_ORACLE_CAP = 200


def _check_domain(instance, assignment):
    if set(assignment.values) != set(instance.agents):
        raise ValueError("assignment domain does not match the instance's agents")


def feasibility(instance, assignment, tol=1e-9):
    """(feasible, max violation): the worst resource-row overshoot.

    The violation of a row is (load - 1); the reported maximum is negative
    when every row has slack.  Negative activities below -tol also fail.
    """
    _check_domain(instance, assignment)
    x = assignment.values
    worst = -math.inf
    for row in instance.resources.values():
        load = sum(a * x[v] for v, a in row.items())
        worst = max(worst, load - 1.0)
    lowest = min(x.values(), default=0.0)
    feasible = worst <= tol and lowest >= -tol
    return feasible, worst


def benefits(instance, assignment):
    """Benefit collected by each beneficiary row."""
    _check_domain(instance, assignment)
    x = assignment.values
    return {
        k: sum(c * x[v] for v, c in row.items())
        for k, row in instance.beneficiaries.items()
    }


def objective(instance, assignment):
    """Smallest beneficiary benefit."""
    got = benefits(instance, assignment)
    if not got:
        raise ValueError("empty K: the objective needs at least one beneficiary")
    return min(got.values())


@dataclass
class EvaluationReport:
    feasible: bool
    max_violation: float
    omega: float | None
    omega_star: float | None
    ratio: float | None
    certificate: float | None
    benefits: dict
    notes: tuple = ()

    def to_dict(self):
        ratio = self.ratio
        if ratio is not None and math.isinf(ratio):
            ratio = "unbounded"
        return {
            "feasible": self.feasible,
            "max_violation": self.max_violation,
            "omega": self.omega,
            "omega_star": self.omega_star,
            "ratio": ratio,
            "certificate": self.certificate,
            "benefits": {str(k): v for k, v in sorted(self.benefits.items())},
            "notes": list(self.notes),
        }


def evaluate(instance, assignment, tol=1e-9, R=None, oracle_cap=DEFAULT_ORACLE_CAP):
    """One-stop report for an (instance, assignment) pair.

    Passing the averaging radius R adds the growth certificate
    gamma(R-1) * gamma(R) that the averaged-local-solutions guarantee quotes.
    """
    if R is not None and R < 1:
        raise ValueError("the certificate needs R >= 1")
    if oracle_cap < 0:
        raise ValueError(f"the oracle cap must be at least 0, got {oracle_cap}")
    feasible, worst = feasibility(instance, assignment, tol)
    got = benefits(instance, assignment)
    notes = []
    omega = min(got.values()) if got else None
    if omega is None:
        notes.append("no beneficiaries: objective undefined")

    omega_star = None
    ratio = None
    if len(instance.agents) > oracle_cap:
        notes.append(
            f"oracle unavailable: {len(instance.agents)} agents exceed the cap of {oracle_cap}"
        )
    elif got:
        from .lp import solve_maxmin

        _, omega_star = solve_maxmin(instance)
        if omega > 0.0:
            ratio = omega_star / omega
        elif omega_star > 0.0:
            ratio = math.inf
            sign = "zero" if omega == 0.0 else "negative"
            notes.append(f"achieved objective is {sign}: ratio unbounded")
        else:
            ratio = 1.0

    certificate = None
    if R is not None:
        certificate = float(growth_factor(instance, R - 1) * growth_factor(instance, R))

    return EvaluationReport(
        feasible=feasible,
        max_violation=worst,
        omega=omega,
        omega_star=omega_star,
        ratio=ratio,
        certificate=certificate,
        benefits=got,
        notes=tuple(notes),
    )


CSV_FIELDS = (
    "instance",
    "algorithm",
    "feasible",
    "max_violation",
    "omega",
    "omega_star",
    "ratio",
    "certificate",
)


def write_reports_csv(path, entries):
    """One CSV row per (instance label, algorithm name, report).

    Deterministic: fixed header, rows in the order given, canonical float
    formatting via str().
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for label, algorithm, report in entries:
            flat = {"instance": label, "algorithm": algorithm, **report.to_dict()}
            writer.writerow({field: flat[field] for field in CSV_FIELDS})
