"""Local averaging computed one agent at a time from the raw instance.

The test suite pins ``run_local`` with ``LocalAveraging`` to this reference
bit for bit.  Balls come from ``oracles.ball``, each ball's rows are clipped
straight from the instance's row dictionaries, and the only code shared with
the package is the simplex, ``maxminlp.lp.solve_maxmin``, whose pivot path
fixes the bits of every ball optimum.  The sums and the damping follow the
paper's formula in the package's order: ball optima in ascending centre
order, then beta_j over the agent's resource rows.
"""

from types import SimpleNamespace

import oracles
from maxminlp.lp import solve_maxmin


def ball_lp(instance, ball):
    """Optimum of the LP clipped to ``ball``, keyed by agent: resource rows
    that meet the ball keep its entries, benefit rows must lie inside it,
    and with no benefit row inside every value is zero."""
    def clipped(mapping, keep):
        return {
            i: {w: a for w, a in mapping[i].items() if w in ball}
            for i in sorted(mapping) if keep(mapping[i].keys())
        }

    resources = clipped(instance.resources, lambda support: not ball.isdisjoint(support))
    beneficiaries = clipped(instance.beneficiaries, lambda support: support <= ball)
    agents = tuple(sorted(ball))
    if not beneficiaries:
        return dict.fromkeys(agents, 0.0)
    sub = SimpleNamespace(agents=agents, resources=resources, beneficiaries=beneficiaries)
    return solve_maxmin(sub)[0].values


def local_averaging(instance, R):
    """Every agent's local-avg value at radius R, keyed by agent."""
    balls = {u: frozenset(oracles.ball(instance, u, R)) for u in instance.agents}
    optima = {u: ball_lp(instance, balls[u]) for u in instance.agents}
    values = {}
    for j in instance.agents:
        inner = sorted(balls[j])
        total = 0.0
        for u in inner:
            total += optima[u][j]
        beta = min(
            min(len(balls[w]) for w in row) / len(frozenset().union(*(balls[w] for w in row)))
            for row in instance.resources.values() if j in row
        )
        values[j] = beta / len(inner) * total
    return values
