"""Independent reference implementations the test suite trusts.

Everything here works straight off the raw row dictionaries and shares no
code with the package, so a package bug cannot vouch for itself.  The grid
search enumerates feasible lattice points outright, the LP reference is
scipy's HiGHS, the graph quantities (balls, growth factors and the ball
statistics of the averaging guarantee) are recomputed with plain set
expansion, the degree maxima are counted off the rows, and the forest check
on the incidence graph is networkx's.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


def row_adjacency(instance):
    """agent -> set of agents sharing at least one row with it."""
    adj = {v: set() for v in instance.agents}
    for mapping in (instance.resources, instance.beneficiaries):
        for row in mapping.values():
            members = list(row)
            for v in members:
                adj[v].update(members)
    for v in adj:
        adj[v].discard(v)
    return adj


def ball(instance, v, r):
    """Set-expansion ball, one frontier sweep per hop."""
    adj = row_adjacency(instance)
    seen = {v}
    frontier = {v}
    for _ in range(r):
        frontier = {w for u in frontier for w in adj[u]} - seen
        if not frontier:
            break
        seen |= frontier
    return seen


def growth(instance, r):
    best = Fraction(0)
    for v in instance.agents:
        ratio = Fraction(len(ball(instance, v, r + 1)), len(ball(instance, v, r)))
        best = max(best, ratio)
    return best


@dataclass(frozen=True)
class LocalityProfile:
    """Ball statistics the averaging guarantee quotes.

    per_resource maps i -> (n_i, N_i): the smallest radius-R ball among the
    row's agents and the size of the union of their balls.  per_beneficiary
    maps k -> (m_k, M_k): the size of the intersection of the row's balls and
    the largest ball.  beta = min_i n_i / N_i.
    """

    beta: float
    per_resource: dict
    per_beneficiary: dict


def locality_profile(instance, R):
    balls = {v: ball(instance, v, R) for v in instance.agents}
    per_resource = {}
    for i, row in instance.resources.items():
        union = set().union(*(balls[v] for v in row))
        per_resource[i] = (min(len(balls[v]) for v in row), len(union))
    per_beneficiary = {}
    for k, row in instance.beneficiaries.items():
        inter = set.intersection(*(balls[v] for v in row))
        per_beneficiary[k] = (len(inter), max(len(balls[v]) for v in row))
    beta = min(n_i / N_i for n_i, N_i in per_resource.values())
    return LocalityProfile(beta, per_resource, per_beneficiary)


def degree_maxima(instance):
    """(delta_VI, delta_VK, delta_IV, delta_KV) counted off the raw rows.

    The largest resource support, the largest beneficiary support, the most
    resources covering one agent and the most beneficiaries one agent serves.
    """
    packs = dict.fromkeys(instance.agents, 0)
    serves = dict.fromkeys(instance.agents, 0)
    for mapping, count in ((instance.resources, packs), (instance.beneficiaries, serves)):
        for row in mapping.values():
            for v in row:
                count[v] += 1
    return (
        max(len(row) for row in instance.resources.values()),
        max((len(row) for row in instance.beneficiaries.values()), default=0),
        max(packs.values()),
        max(serves.values()),
    )


def incidence_is_forest(instance):
    """True when the agent-row incidence graph is a forest, via networkx.

    Resource and beneficiary nodes are tagged apart, and every agent is a
    node, so two rows sharing two agents form a cycle.
    """
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(("agent", v) for v in instance.agents)
    for kind, mapping in (("resource", instance.resources), ("beneficiary", instance.beneficiaries)):
        for rid, row in mapping.items():
            G.add_edges_from((("agent", v), (kind, rid)) for v in row)
    return nx.is_forest(G)


def _epigraph(instance):
    """(cost, A_ub, b_ub, bounds) of the epigraph form, for scipy's linprog.

    Variables are (t, x); maximise t subject to A x <= 1 and t - C x <= 0.
    """
    agents = list(instance.agents)
    index = {v: pos for pos, v in enumerate(agents)}
    n = len(agents)
    rows = []
    rhs = []
    for row in instance.resources.values():
        coeffs = np.zeros(n + 1)
        for v, a in row.items():
            coeffs[index[v] + 1] = a
        rows.append(coeffs)
        rhs.append(1.0)
    for row in instance.beneficiaries.values():
        coeffs = np.zeros(n + 1)
        coeffs[0] = 1.0
        for v, c in row.items():
            coeffs[index[v] + 1] = -c
        rows.append(coeffs)
        rhs.append(0.0)
    cost = np.zeros(n + 1)
    cost[0] = -1.0
    bounds = [(None, None)] + [(0, None)] * n
    return cost, np.array(rows), np.array(rhs), bounds


def linprog_maxmin(instance):
    """Reference optimum via scipy HiGHS, at its default tolerances."""
    cost, A, b, bounds = _epigraph(instance)
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.status == 0, f"reference LP failed: {res.message}"
    return -res.fun


def exact_maxmin(instance):
    """Reference optimum via HiGHS dual simplex at 1e-10 feasibility tolerances.

    Default HiGHS can stop 3.4e-9 below the optimum (perturbed 14x14 torus,
    seed 2), where this setting agrees with HiGHS's interior-point method to
    1e-15.
    """
    cost, A, b, bounds = _epigraph(instance)
    res = linprog(
        cost, A_ub=A, b_ub=b, bounds=bounds, method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, f"reference LP failed: {res.message}"
    return -res.fun


def grid_search_maxmin(instance, step):
    """Best objective over feasible lattice points with spacing ``step``.

    Each activity is capped by min_i 1/a_iv, so the lattice is finite.  The
    first axis is looped, the rest are vectorised; instances here stay tiny.
    """
    agents = list(instance.agents)
    index = {v: pos for pos, v in enumerate(agents)}
    n = len(agents)
    caps = np.full(n, np.inf)
    for row in instance.resources.values():
        for v, a in row.items():
            caps[index[v]] = min(caps[index[v]], 1.0 / a)
    assert np.all(np.isfinite(caps)), "every agent needs a covering resource"
    axes = [np.arange(int(np.floor(c / step)) + 1) * step for c in caps]

    A = np.zeros((len(instance.resources), n))
    for pos, row in enumerate(instance.resources.values()):
        for v, a in row.items():
            A[pos, index[v]] = a
    C = np.zeros((len(instance.beneficiaries), n))
    for pos, row in enumerate(instance.beneficiaries.values()):
        for v, c in row.items():
            C[pos, index[v]] = c

    if n == 1:
        points = axes[0][:, None]
        loads = points @ A.T
        keep = points[np.all(loads <= 1.0 + 1e-12, axis=1)]
        if keep.size == 0:
            return 0.0
        return float(np.max(np.min(keep @ C.T, axis=1)))

    tail = axes[1:]
    grids = np.meshgrid(*tail, indexing="ij")
    tail_points = np.stack([g.ravel() for g in grids], axis=1)
    best = -np.inf
    for first in axes[0]:
        points = np.column_stack([np.full(len(tail_points), first), tail_points])
        feasible = np.all(points @ A.T <= 1.0 + 1e-12, axis=1)
        if not np.any(feasible):
            continue
        objective = np.min(points[feasible] @ C.T, axis=1)
        best = max(best, float(np.max(objective)))
    return best if best > -np.inf else 0.0


def bipartite_girth(edges):
    """Exact girth via networkx; None when the graph is acyclic."""
    import networkx as nx

    G = nx.Graph()
    G.add_edges_from(edges)
    g = nx.girth(G)
    return None if g == float("inf") else g


def reference_regular_bipartite(degree, min_girth, n_per_side, seed, max_attempts):
    """The template greedy as first written, for comparing edge streams.

    Each step searches every vertex, of either side, within min_girth - 2
    hops of the left endpoint, and draws from the sorted list of free right
    vertices outside that ball.  Returns the sorted edges, or None when the
    attempt budget runs out.
    """
    import random

    rng = random.Random(seed)
    rights = range(n_per_side, 2 * n_per_side)
    for _ in range(max_attempts):
        adj = {q: [] for q in range(2 * n_per_side)}
        stuck = False
        for _ in range(degree):
            order = list(range(n_per_side))
            rng.shuffle(order)
            free = set(rights)
            for u in order:
                seen = frontier = {u}
                for _ in range(min_girth - 2):
                    frontier = {w for v in frontier for w in adj[v]} - seen
                    seen = seen | frontier
                allowed = sorted(free - seen)
                if not allowed:
                    stuck = True
                    break
                w = rng.choice(allowed)
                adj[u].append(w)
                adj[w].append(u)
                free.discard(w)
            if stuck:
                break
        if not stuck:
            return sorted((u, w) for u in range(n_per_side) for w in adj[u])
    return None
