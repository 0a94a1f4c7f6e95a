"""Reference local algorithms and the executor that enforces locality.

A local algorithm runs in rounds.  Each round is a pure function of one
agent's view and, after the first, of the previous round's outputs of that
view's members.  The executor extracts the radius-``horizon`` view per agent
and round and hands over nothing else, so an implementation cannot
accidentally read global structure.  ``zero`` and ``safe`` decide in one
round; ``local-avg`` runs two rounds at horizon R, and its registered
horizon is 2R + 1.  Horizons are fixed per configuration; they never depend
on the instance.
"""

import math
from types import MappingProxyType

from .hypergraph import extract_view
from .model import Instance, InvalidInstanceError, validate


class LocalAlgorithm:
    """One round at ``horizon``: each agent's value is ``decide(view)``."""

    name = "abstract"
    horizon = 0

    @property
    def rounds(self):
        return ((self.horizon, self.decide),)

    def decide(self, view):
        raise NotImplementedError


class ZeroAlgorithm(LocalAlgorithm):
    """Never activates anything.  Feasible everywhere, benefit zero."""

    name = "zero"
    horizon = 0

    def decide(self, view):
        return 0.0


class SafeAlgorithm(LocalAlgorithm):
    """Even split of every owned resource, keeping the most conservative share.

    x = min over the agent's resources of 1 / (coefficient * support size).
    Summing over any resource row then telescopes to at most one, so the
    output is feasible without any coordination beyond one hop.
    """

    name = "safe"
    horizon = 1

    def decide(self, view):
        v = view.center
        best = None
        for row in view.resources.values():
            a = row.get(v)
            if a is None:
                continue
            share = 1.0 / (a * len(row))
            if best is None or share < best:
                best = share
        if best is None:
            raise RuntimeError(
                f"agent {v} touches no resource; the instance should not have validated"
            )
        return best


def local_subproblem(view):
    """The problem clipped to the view's members, as an :class:`Instance`.

    Every resource row keeps its members' coefficients; a benefit row is
    kept only when it lies fully inside, otherwise its value would be
    misstated.  The view's ``None`` marks exactly the entries beyond its
    members, so no ``None`` reaches the result.  Agents, rows and entries
    keep the view's ascending order.
    """
    resources = {
        i: {w: a for w, a in row.items() if a is not None}
        for i, row in view.resources.items()
    }
    beneficiaries = {
        k: row for k, row in view.beneficiaries.items() if None not in row.values()
    }
    return Instance(view.members, resources, beneficiaries)


def local_lp_solution(view):
    """Canonical optimum of the LP clipped to the view's members, keyed by
    agent, read-only.

    For the radius-R view of u that is the LP of the ball B(u, R).  All-zero
    when no benefit row fits inside: the objective would be vacuous there,
    and zero keeps every packing row slack.  The subproblem is canonical and
    the solver's pivot path is fixed, so the numbers are a pure function of
    the ball's rows.  A failing solve raises ``RuntimeError`` naming the
    ball's centre, R and size, chained from the solver's error.
    """
    sub = local_subproblem(view)
    if not sub.beneficiaries:
        return MappingProxyType(dict.fromkeys(sub.agents, 0.0))
    from .lp import solve_maxmin

    try:
        values, _ = solve_maxmin(sub)
    except (ArithmeticError, ValueError) as exc:
        raise RuntimeError(
            f"LP of the ball around u={view.center} with R={view.horizon} "
            f"({len(sub.agents)} agents) failed: {exc}"
        ) from exc
    return MappingProxyType(values)


class LocalAveraging(LocalAlgorithm):
    """Averaged ball optima, damped by the worst ball-size skew.

    Two rounds, both at horizon R.  In the first, every agent u solves the
    LP of its own ball B(u, R).  In the second, agent j averages its own
    coordinate of the optima of all u in B(j, R), then scales by
    beta_j = min over its resources of (smallest ball)/(union of balls).
    The damping is exactly what keeps the averaged point feasible; the
    averaging is what keeps every benefit row within a growth-controlled
    factor of optimum.  The rounds compose to a radius-2R view, whose rows
    name their supports one hop further, so the registered horizon 2R+1
    bounds everything a value depends on.
    """

    def __init__(self, R):
        if int(R) != R or R < 1:
            raise ValueError("R must be a positive integer")
        self.R = int(R)
        self.name = f"local-avg[R={self.R}]"
        self.horizon = 2 * self.R + 1

    @property
    def rounds(self):
        return (self.R, self.solve_ball), (self.R, self.average)

    def solve_ball(self, view):
        """Round 1: the centre's ball and its read-only LP optimum."""
        return view.members, local_lp_solution(view)

    def average(self, view, prior):
        """Round 2: the damped average over the members' ball optima."""
        j = view.center
        total = 0.0
        # ascending, so the float sum does not hang on the set's order
        for u in sorted(view.members):
            total += prior[u][1][j]

        beta = None
        for row in view.resources.values():
            if j not in row:
                continue
            smallest = min(len(prior[w][0]) for w in row)
            union = set()
            for w in row:
                union |= prior[w][0]
            fraction = smallest / len(union)
            if beta is None or fraction < beta:
                beta = fraction
        if beta is None:
            raise RuntimeError(f"agent {j} touches no resource")
        return beta / len(view.members) * total


def run_local(instance, algorithm):
    """Run a local algorithm round by round, one agent at a time.

    ``algorithm.rounds`` is a sequence of ``(horizon, step)`` pairs.  In each
    round every agent's step sees its own radius-``horizon`` view and, after
    the first round, the previous round's outputs of that view's members and
    nothing else.  The last round's outputs, as floats in a plain dict from
    agent id to value, are the assignment returned.  Evaluation order
    cannot matter because steps are pure; the executor still walks agents in
    ascending order so failures reproduce.

    Raises :class:`InvalidInstanceError` before any agent decides when the
    instance fails :func:`~maxminlp.model.validate`.
    """
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    outputs = None
    for horizon, step in algorithm.rounds:
        prior, outputs = outputs, {}
        for v in instance.agents:
            view = extract_view(instance, v, horizon)
            if prior is None:
                outputs[v] = step(view)
            else:
                outputs[v] = step(view, {u: prior[u] for u in view.members})
    for v, value in outputs.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or value < 0:
            raise RuntimeError(
                f"algorithm {algorithm.name!r} returned {value!r} for agent {v}; "
                "values must be finite and nonnegative"
            )
        outputs[v] = float(value)
    return outputs


def make_algorithm(name, R=None):
    """Resolve an algorithm by its command-line name.

    Only local-avg takes the averaging radius R; one given to zero or safe is
    refused rather than ignored.
    """
    if name in ("zero", "safe") and R is not None:
        raise ValueError(f"{name} uses no averaging radius R; only local-avg takes one")
    if name == "zero":
        return ZeroAlgorithm()
    if name == "safe":
        return SafeAlgorithm()
    if name == "local-avg":
        if R is None:
            raise ValueError("local-avg requires the averaging radius R")
        return LocalAveraging(R)
    raise ValueError(f"unknown algorithm {name!r} (expected zero, safe or local-avg)")
