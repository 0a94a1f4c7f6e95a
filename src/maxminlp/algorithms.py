"""Reference local algorithms and the executor that enforces locality.

A local algorithm is a pure function of one agent's view.  The executor
extracts the radius-``horizon`` view per agent and hands over nothing else,
so an implementation cannot accidentally read global structure.  The horizon
is fixed per configuration; it never depends on the instance.
"""

import math
from contextvars import ContextVar

from .hypergraph import distances, extract_view
from .model import Assignment, Instance, InvalidInstanceError, validate


class LocalAlgorithmError(RuntimeError):
    pass


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
        for row in view.resources.values():
            a = row.get(v)
            if a is None:
                continue
            share = 1.0 / (a * len(row))
            if best is None or share < best:
                best = share
        if best is None:
            raise LocalAlgorithmError(
                f"agent {v} touches no resource; the instance should not have validated"
            )
        return best


def view_ball(view, start, radius):
    """Radius-``radius`` ball around ``start`` walked over the view's
    incidence ``(rows_of, resources, beneficiaries)``.

    Expanding a node requires knowing all of its hyperedges, which the view
    only has for members, so its ``rows_of`` holds members only and
    :func:`~maxminlp.hypergraph.distances` refuses a walk that reaches any
    other node.  That is a locality violation, raised rather than truncated.
    """
    if start not in view.rows_of:
        raise LocalAlgorithmError(f"agent {start} is outside the view of {view.center}")
    try:
        return frozenset(
            distances((view.rows_of, view.resources, view.beneficiaries), start, radius)
        )
    except ValueError:
        raise LocalAlgorithmError(
            f"ball of radius {radius} around {start} leaves the view of {view.center}"
        ) from None


def local_subproblem(view, ball):
    """The clipped problem visible inside one inner ball, as sorted tuples.

    ``(agents, resources, beneficiaries)``, each row ``(id, ((agent, coeff),
    ...))`` with ids ascending and agents in the view's row order.  Resources
    that meet the ball keep their inside coefficients; benefit rows must lie
    fully inside, otherwise their value would be misstated.  ``ball`` holds
    members only, so no ``None`` of the view reaches the result.  The rows
    are those of the ball's members, from the view's ``rows_of``, so the
    cost follows the rows that meet the ball rather than the whole view.
    """
    touched = set()
    for w in ball:
        touched.update(view.rows_of[w])
    # tuples from lists or sized views, not generators: the memo keeps every
    # key for the run, and with generator-built tuples the heap held at the
    # run's last ball LP was 1.4 times as large (perturbed 8x8, R=2)
    resources = []
    beneficiaries = []
    for i in sorted(touched):
        row = view.resources.get(i)
        if row is not None:
            resources.append((i, tuple([(w, a) for w, a in row.items() if w in ball])))
        else:
            row = view.beneficiaries[i]
            if ball.issuperset(row):
                beneficiaries.append((i, tuple(row.items())))
    return tuple(sorted(ball)), tuple(resources), tuple(beneficiaries)


def local_lp_solution(view, u, R, ball):
    """Canonical optimum of the ball-(u, R) subproblem, keyed by agent.

    All-zero when no benefit row fits inside the ball: the objective would be
    vacuous there, and zero keeps every packing row slack.  Any agent whose
    view contains B(u, R) computes the exact same numbers, because the
    subproblem is canonical and the solver's pivot path is fixed.  ``ball``
    is B(u, R), as :func:`view_ball` walks it.

    Inside :func:`run_local` the optimum is memoised on the tuple that
    :func:`local_subproblem` returns -- agents, rows and coefficients, never
    the deciding agent, the ball centre or any run state -- and a miss solves
    the LP built from exactly that key, so a hit returns what a fresh solve
    would.  Outside ``run_local`` there is no memo and every call solves.  A
    failing solve raises :class:`LocalAlgorithmError` naming the deciding
    agent, u, R and the ball size, chained from the solver's error.
    """
    sub = local_subproblem(view, ball)
    agents, resources, beneficiaries = sub
    if not beneficiaries:
        return {w: 0.0 for w in agents}
    memo = _BALL_LP_MEMO.get()
    if memo is None:
        memo = {}
    # one look-up hashes the key once; tuples do not cache their hash
    values = memo.get(sub)
    if values is None:
        from .lp import solve_maxmin

        rows = ({rid: dict(row) for rid, row in kind} for kind in (resources, beneficiaries))
        try:
            assignment, _ = solve_maxmin(Instance(agents, *rows))
        except (ArithmeticError, ValueError) as exc:
            raise LocalAlgorithmError(
                f"agent {view.center}: LP of the ball around u={u} with R={R} "
                f"({len(ball)} agents) failed: {exc}"
            ) from exc
        values = memo[sub] = assignment.values
    # a copy, so a caller that edits its result cannot alter later hits
    return dict(values)


class LocalAveraging(LocalAlgorithm):
    """Averaged inner-ball optima, damped by the worst ball-size skew.

    The deciding agent j averages its own coordinate of the canonical optima
    of all subproblems B(u, R) with u in B(j, R), then scales by
    beta_j = min over its resources of (smallest ball)/(union of balls).
    The damping is exactly what keeps the averaged point feasible; the
    averaging is what keeps every benefit row within a growth-controlled
    factor of optimum.  Needs a 2R+1 horizon: the farthest subproblem
    reaches R beyond an agent R hops away, plus one hop of row supports.
    """

    def __init__(self, R):
        if int(R) != R or R < 1:
            raise ValueError("R must be a positive integer")
        self.R = int(R)
        self.name = f"local-avg[R={self.R}]"
        self.horizon = 2 * self.R + 1

    def decide(self, view):
        j = view.center
        cache = {}

        def ball(w):
            if w not in cache:
                cache[w] = view_ball(view, w, self.R)
            return cache[w]

        inner = sorted(ball(j))
        total = 0.0
        for u in inner:
            total += local_lp_solution(view, u, self.R, ball(u))[j]

        beta = None
        for row in view.resources.values():
            if j not in row:
                continue
            smallest = min(len(ball(w)) for w in row)
            union = set()
            for w in row:
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
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
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
