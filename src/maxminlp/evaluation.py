"""Judging assignments: feasibility, objectives, ratios, the growth certificate."""

import math
from typing import NamedTuple

DEFAULT_ORACLE_CAP = 200
FEASIBILITY_TOL = 1e-9


def _check_domain(instance, assignment):
    # key views compare as sets, and the instance's incidence map is keyed
    # by its agents and cached, so no agent-keyed set is built per check
    if assignment.values.keys() != instance.agent_rows().keys():
        raise ValueError("assignment domain does not match the instance's agents")


def _sums(rows, x):
    """Each row's float sum at ``x``, in the order of ``rows``, one at a time."""
    return (sum(c * x[v] for v, c in row.items()) for row in rows)


def feasibility(instance, assignment):
    """(feasible, max violation): the worst resource-row overshoot.

    The violation of a row is (load - 1); the reported maximum is negative
    when every row has slack.  Both it and negative activities are held to
    FEASIBILITY_TOL, but the maximum covers rows only, so it stays negative
    when a negative activity is the sole defect; :func:`evaluate` names that
    agent in a note.
    """
    _check_domain(instance, assignment)
    x = assignment.values
    worst = max(_sums(instance.resources.values(), x), default=-math.inf) - 1.0
    lowest = min(x.values(), default=0.0)
    feasible = worst <= FEASIBILITY_TOL and lowest >= -FEASIBILITY_TOL
    return feasible, worst


def benefits(instance, assignment):
    """Benefit collected by each beneficiary row."""
    _check_domain(instance, assignment)
    return dict(
        zip(instance.beneficiaries, _sums(instance.beneficiaries.values(), assignment.values))
    )


def objective(instance, assignment):
    """Smallest beneficiary benefit, taken without keeping every benefit."""
    _check_domain(instance, assignment)
    if not instance.beneficiaries:
        raise ValueError("empty K: the objective needs at least one beneficiary")
    return min(_sums(instance.beneficiaries.values(), assignment.values))


def exact_sums(rows, x):
    """Each row's sum at ``x`` as a ``Fraction``, in the order of ``rows``:
    the one exact row evaluator, exact over the floats the rows and ``x`` hold."""
    from fractions import Fraction

    return [sum(Fraction(c) * Fraction(x[v]) for v, c in row.items()) for row in rows.values()]


class EvaluationReport(NamedTuple):
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


def evaluate(instance, assignment, R=None, oracle_cap=DEFAULT_ORACLE_CAP):
    """One-stop report for an (instance, assignment) pair.

    Passing the averaging radius R adds the growth certificate
    gamma(R-1) * gamma(R) that the averaged-local-solutions guarantee quotes.
    """
    if R is not None and R < 1:
        raise ValueError("the certificate needs R >= 1")
    if oracle_cap < 0:
        raise ValueError(f"the oracle cap must be at least 0, got {oracle_cap}")
    feasible, worst = feasibility(instance, assignment)
    got = benefits(instance, assignment)
    notes = []
    value, agent = min(((x, v) for v, x in assignment.values.items()), default=(0.0, None))
    if value < -FEASIBILITY_TOL:
        notes.append(f"negative activity: agent {agent} has {value:.12g}")
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
        from .hypergraph import growth_factors

        # one walk per agent gives both factors
        below, at = growth_factors(instance, R - 1, R)
        certificate = float(below * at)

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
    import csv
    from pathlib import Path

    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for label, algorithm, report in entries:
            flat = {"instance": label, "algorithm": algorithm, **report.to_dict()}
            writer.writerow({field: flat[field] for field in CSV_FIELDS})
