"""Reference local algorithms and the executor that enforces locality.

A local algorithm is a pure function of one agent's view.  The executor
extracts the radius-``horizon`` view per agent and hands over nothing else,
so an implementation cannot accidentally read global structure.  The horizon
is fixed per configuration; it never depends on the instance.
"""

from __future__ import annotations

import math
from contextvars import ContextVar

from .hypergraph import distances, extract_view
from .lp import solve_maxmin
from .model import Assignment, Instance, validate


class LocalAlgorithmError(RuntimeError):
    pass


class InvalidInstanceError(ValueError):
    """run_local refused an instance; ``violations`` lists every defect."""

    def __init__(self, violations):
        self.violations = violations
        super().__init__("instance failed validation: " + "; ".join(violations[:5]))


# Ball-LP optima by sub-instance content, live only inside one run_local call.
_BALL_LP_MEMO = ContextVar("ball_lp_memo", default=None)


class LocalAlgorithm:
    name = "abstract"
    horizon = 0

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
        for i, row in view.resource_coeffs.items():
            a = row.get(v)
            if a is None:
                continue
            share = 1.0 / (a * len(view.resource_support[i]))
            if best is None or share < best:
                best = share
        if best is None:
            raise LocalAlgorithmError(
                f"agent {v} touches no resource; the instance should not have validated"
            )
        return best


def view_adjacency(view):
    """Agent adjacency reconstructed from the view's support lists alone."""
    adj = {}
    for supports in (view.resource_support, view.beneficiary_support):
        for support in supports.values():
            for a in support:
                adj.setdefault(a, set()).update(support)
    for a, neighbours in adj.items():
        neighbours.discard(a)
    return adj


def view_ball(view, adj, start, radius):
    """Radius-``radius`` ball around ``start`` walked over view-visible edges.

    Expanding a node requires knowing all of its hyperedges, which the view
    only guarantees for members.  Any non-member the walk expands lies in the
    ball it returns, so a ball that leaves the members is a locality
    violation and raises rather than silently truncating.
    """
    members = set(view.members)
    if start not in members:
        raise LocalAlgorithmError(f"agent {start} is outside the view of {view.center}")
    ball = frozenset(distances(adj, start, radius))
    if not ball <= members:
        raise LocalAlgorithmError(
            f"ball of radius {radius} around {start} leaves the view of {view.center}"
        )
    return ball


def local_subproblem(view, ball_members):
    """The clipped problem visible inside one inner ball.

    Resources that meet the ball keep their inside coefficients; benefit rows
    must lie fully inside, otherwise their value would be misstated.
    """
    inside = set(ball_members)
    resources = {}
    for i, support in view.resource_support.items():
        clipped = {w: view.resource_coeffs[i][w] for w in support if w in inside}
        if clipped:
            resources[i] = clipped
    beneficiaries = {}
    for k, support in view.beneficiary_support.items():
        if inside.issuperset(support):
            beneficiaries[k] = {w: view.beneficiary_coeffs[k][w] for w in support}
    return Instance(tuple(sorted(inside)), resources, beneficiaries)


def _content_key(instance):
    """A sub-instance by content: agents, rows and coefficients, not identity."""
    return (
        instance.agents,
        tuple((i, tuple(row.items())) for i, row in instance.resources.items()),
        tuple((k, tuple(row.items())) for k, row in instance.beneficiaries.items()),
    )


def local_lp_solution(view, u, R, adj=None):
    """Canonical optimum of the ball-(u, R) subproblem, keyed by agent.

    All-zero when no benefit row fits inside the ball: the objective would be
    vacuous there, and zero keeps every packing row slack.  Any agent whose
    view contains B(u, R) computes the exact same numbers, because the
    subproblem is canonical and the solver's pivot path is fixed.

    Inside :func:`run_local` the optimum is memoised on the content of the
    canonical subproblem -- its agents and its resource and benefit rows with
    their coefficients -- never on the deciding agent, the ball centre or any
    run state, so a hit returns exactly what a fresh solve would.  Outside
    ``run_local`` there is no memo and every call solves.  A failing solve
    raises :class:`LocalAlgorithmError` naming the deciding agent, u, R and
    the ball size, chained from the solver's error.
    """
    if adj is None:
        adj = view_adjacency(view)
    ball = view_ball(view, adj, u, R)
    sub = local_subproblem(view, ball)
    if not sub.beneficiaries:
        return {w: 0.0 for w in sub.agents}
    memo = _BALL_LP_MEMO.get()
    if memo is None:
        memo = {}
    key = _content_key(sub)
    if key not in memo:
        try:
            assignment, _ = solve_maxmin(sub)
        except (ArithmeticError, ValueError) as exc:
            raise LocalAlgorithmError(
                f"agent {view.center}: LP of the ball around u={u} with R={R} "
                f"({len(ball)} agents) failed: {exc}"
            ) from exc
        memo[key] = assignment.values
    # a copy, so a caller that edits its result cannot alter later hits
    return dict(memo[key])


class LocalAveraging(LocalAlgorithm):
    """Averaged inner-ball optima, damped by the worst ball-size skew.

    The deciding agent j averages its own coordinate of the canonical optima
    of all subproblems B(u, R) with u in B(j, R), then scales by
    beta_j = min over its resources of (smallest ball)/(union of balls).
    The damping is exactly what keeps the averaged point feasible; the
    averaging is what keeps every benefit row within a growth-controlled
    factor of optimum.  Needs a 2R+1 horizon: the farthest subproblem
    reaches R beyond an agent R hops away, plus one hop of support lists.
    """

    def __init__(self, R):
        if int(R) != R or R < 1:
            raise ValueError("R must be a positive integer")
        self.R = int(R)
        self.name = f"local-avg[R={self.R}]"
        self.horizon = 2 * self.R + 1

    def decide(self, view):
        j = view.center
        adj = view_adjacency(view)
        cache = {}

        def ball(w):
            got = cache.get(w)
            if got is None:
                got = view_ball(view, adj, w, self.R)
                cache[w] = got
            return got

        inner = sorted(ball(j))
        total = 0.0
        for u in inner:
            total += local_lp_solution(view, u, self.R, adj)[j]

        beta = None
        for i, row in view.resource_coeffs.items():
            if j not in row:
                continue
            support = view.resource_support[i]
            smallest = min(len(ball(w)) for w in support)
            union = set()
            for w in support:
                union |= ball(w)
            fraction = smallest / len(union)
            if beta is None or fraction < beta:
                beta = fraction
        if beta is None:
            raise LocalAlgorithmError(f"agent {j} touches no resource")
        return beta / len(inner) * total


def run_local(instance, algorithm):
    """Run a local algorithm one agent at a time.

    Every value is produced from that agent's own radius-``horizon`` view and
    nothing else.  Evaluation order cannot matter because decide() is pure;
    the executor still walks agents in ascending order so failures reproduce.

    For the duration of the call, :func:`local_lp_solution` shares one memo
    of ball-LP optima keyed on subproblem content, so each distinct ball LP
    is solved once per run rather than once per agent that sees it.  The memo
    is dropped when the call returns or raises; nothing carries over to the
    next run or to direct ``decide()`` calls.

    Raises :class:`InvalidInstanceError` before any agent decides when the
    instance fails :func:`~maxminlp.model.validate`.
    """
    report = validate(instance)
    if report.violations:
        raise InvalidInstanceError(report.violations)
    token = _BALL_LP_MEMO.set({})
    try:
        values = {}
        for v in instance.agents:
            view = extract_view(instance, v, algorithm.horizon)
            value = algorithm.decide(view)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not math.isfinite(value) or value < 0:
                raise LocalAlgorithmError(
                    f"algorithm {algorithm.name!r} returned {value!r} for agent {v}; "
                    "values must be finite and nonnegative"
                )
            values[v] = float(value)
    finally:
        _BALL_LP_MEMO.reset(token)
    return Assignment(values)


def make_algorithm(name, R=None):
    """Resolve an algorithm by its command-line name."""
    if name == "zero":
        return ZeroAlgorithm()
    if name == "safe":
        return SafeAlgorithm()
    if name == "local-avg":
        if R is None:
            raise ValueError("local-avg requires the averaging radius R")
        return LocalAveraging(R)
    raise ValueError(f"unknown algorithm {name!r} (expected zero, safe or local-avg)")
