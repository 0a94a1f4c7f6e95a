"""Judging assignments: feasibility, objectives, ratios, the growth certificate.

An assignment is a plain dict from agent id to activity.
"""

import math

DEFAULT_ORACLE_CAP = 200
FEASIBILITY_TOL = 1e-9


def _check_domain(instance, assignment):
    # key views compare as sets, and the instance's incidence map is keyed
    # by its agents and kept, so no agent-keyed set is built per check
    if assignment.keys() != instance.rows_of.keys():
        raise ValueError("assignment domain does not match the instance's agents")


def _sums(rows, x):
    """Each row's float sum at ``x``, in the order of ``rows``, one at a time."""
    return (sum(c * x[v] for v, c in row.items()) for row in rows)


def feasibility(instance, assignment):
    """(feasible, max violation) of an assignment, a dict from agent id to
    activity: the worst resource-row overshoot.

    The violation of a row is (load - 1); the reported maximum is negative
    when every row has slack.  Both it and negative activities are held to
    FEASIBILITY_TOL, but the maximum covers rows only, so it stays negative
    when a negative activity is the sole defect; :func:`evaluate` names that
    agent in a note.
    """
    _check_domain(instance, assignment)
    worst = max(_sums(instance.resources.values(), assignment), default=-math.inf) - 1.0
    lowest = min(assignment.values(), default=0.0)
    feasible = worst <= FEASIBILITY_TOL and lowest >= -FEASIBILITY_TOL
    return feasible, worst


def benefits(instance, assignment):
    """Benefit collected by each beneficiary row at an assignment, a dict
    from agent id to activity."""
    _check_domain(instance, assignment)
    return dict(zip(instance.beneficiaries, _sums(instance.beneficiaries.values(), assignment)))


def objective(instance, assignment):
    """Smallest beneficiary benefit at an assignment, a dict from agent id to
    activity, taken without keeping every benefit."""
    _check_domain(instance, assignment)
    if not instance.beneficiaries:
        raise ValueError("empty K: the objective needs at least one beneficiary")
    return min(_sums(instance.beneficiaries.values(), assignment))


def exact_sums(rows, x):
    """Each row's sum at ``x`` as a ``Fraction``, in the order of ``rows``:
    the one exact row evaluator, exact over the floats the rows and ``x`` hold."""
    from fractions import Fraction

    return [sum(Fraction(c) * Fraction(x[v]) for v, c in row.items()) for row in rows.values()]


def evaluate(instance, assignment, R=None, oracle_cap=DEFAULT_ORACLE_CAP):
    """The report that ``eval`` writes, minus its ``config``, as a JSON-ready
    dict, for an instance and an assignment, a dict from agent id to
    activity over exactly the instance's agents.

    Its keys are ``feasible``, ``max_violation``, ``omega``, ``omega_star``,
    ``ratio`` (``"unbounded"`` when omega* is positive and the achieved
    objective is not), ``certificate``, ``benefits`` (keyed by ``str(id)``)
    and ``notes`` (a list).  Passing the averaging radius R adds the growth
    certificate gamma(R-1) * gamma(R) that the averaged-local-solutions
    guarantee quotes.
    """
    if R is not None and R < 1:
        raise ValueError("the certificate needs R >= 1")
    if oracle_cap < 0:
        raise ValueError(f"the oracle cap must be at least 0, got {oracle_cap}")
    feasible, worst = feasibility(instance, assignment)
    got = benefits(instance, assignment)
    notes = []
    value, agent = min(((x, v) for v, x in assignment.items()), default=(0.0, None))
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
            ratio = "unbounded"
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

    return {
        "feasible": feasible,
        "max_violation": worst,
        "omega": omega,
        "omega_star": omega_star,
        "ratio": ratio,
        "certificate": certificate,
        "benefits": {str(k): b for k, b in got.items()},
        "notes": notes,
    }


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


def write_report_csv(path, label, algorithm, report):
    """A header and one row: the instance label, the algorithm name and the
    CSV_FIELDS of ``report``, a dict as :func:`evaluate` returns it.

    Deterministic: fixed header, canonical float formatting via str(), and
    an empty cell for None.  A field the report lacks raises ``KeyError``.
    """
    import csv
    from pathlib import Path

    flat = {"instance": label, "algorithm": algorithm, **report}
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerow([flat[field] for field in CSV_FIELDS])
