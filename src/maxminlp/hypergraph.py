"""Communication structure of an instance: adjacency, distances, balls, views.

Two agents are adjacent when some row's support holds both, and distance
counts row hops.  The graph layer is :func:`adjacency`, the one builder of
that adjacency (for an instance's rows and a view's support lists alike),
:func:`distances`, the one breadth-first search over it, and :func:`ball`.
Growth factors, views, the local algorithms' subproblems, the adversary's
carve and its template's girth all walk through :func:`distances`.  Only
the template greedy keeps a search of its own, the bitmask steps of
``lowerbound._PartialTemplate.rights_within``, which build the template
several times faster.  An agent's radius-r knowledge is a :class:`View`.
"""

from typing import NamedTuple


def distances(adj, start, limit=None):
    """Hop distances from ``start`` over ``adj``, none beyond ``limit``.

    ``adj`` maps a node to its neighbours; a node it does not list has none.
    The search goes level by level and expands nothing at depth ``limit``,
    so the nodes come out in nondecreasing depth.
    """
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        reached = []
        for u in frontier:
            for w in adj.get(u, ()):
                if w not in dist:
                    dist[w] = depth
                    reached.append(w)
        frontier = reached
    return dist


def adjacency(resources, beneficiaries, agents=None):
    """Agent -> ascending tuple of the other agents that share a row with it.

    ``resources`` and ``beneficiaries`` map a row id to its support.  Given
    ``agents``, each of them is listed, one in no row too, and a support
    naming another agent is refused; else the supports name the agents.
    Each agent's rows are collected first and then turned into its tuple
    one agent at a time, so at most one neighbour set is alive at a time.
    """
    adj = {} if agents is None else {v: [] for v in agents}
    for kind, rows in (("resource", resources), ("beneficiary", beneficiaries)):
        for rid, row in rows.items():
            for v in row:
                mine = adj.get(v)
                if mine is None:
                    if agents is not None:
                        raise ValueError(f"{kind} {rid} references unknown agent {v}")
                    mine = adj[v] = []
                mine.append(row)
    for v, mine in adj.items():
        neighbours = set().union(*mine)
        neighbours.discard(v)
        adj[v] = tuple(sorted(neighbours))
    return adj


def hypergraph(instance):
    """The adjacency of the instance's agents, built on first use and cached."""
    adj = instance._cache.get("hypergraph")
    if adj is None:
        adj = adjacency(instance.resources, instance.beneficiaries, instance.agents)
        instance._cache["hypergraph"] = adj
    return adj


def ball(adj, v, r):
    """The agents within ``r`` hops of ``v`` over ``adj``, ``v`` included."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if v not in adj:
        raise ValueError(f"unknown agent id {v}")
    return frozenset(distances(adj, v, r))


def growth_factor(instance, r):
    """max_v |B(v, r+1)| / |B(v, r)| as an exact rational.

    Measures how much a one-hop horizon extension can inflate what an agent
    sees; the guarantees of the averaging algorithm are stated against it.
    """
    if not instance.agents:
        raise ValueError("growth factor of an empty instance is undefined")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    from fractions import Fraction

    adj = hypergraph(instance)
    best = Fraction(0)
    for v in instance.agents:
        dist = distances(adj, v, r + 1)
        best = max(best, Fraction(len(dist), sum(1 for d in dist.values() if d <= r)))
    return best


class View(NamedTuple):
    """Everything one agent may legally see within its horizon.

    ``members`` is exactly the radius-``horizon`` ball around ``center``.
    The coefficient maps carry members' own entries only.  The support maps
    name the full membership of every hyperedge incident to a member --
    identities, not coefficients -- which is how an agent knows whom it
    shares a row with just beyond its horizon.  Equality is field-by-field
    over these canonical structures.
    """

    center: int
    horizon: int
    members: tuple
    resource_coeffs: dict
    beneficiary_coeffs: dict
    resource_support: dict
    beneficiary_support: dict


def extract_view(instance, v, r):
    """Agent ``v``'s radius-``r`` :class:`View` of a valid instance.

    One pass over the members' rows of :meth:`~maxminlp.model.Instance.agent_rows`
    gets or creates each row's coefficients once per member; a row id is a
    resource's when the resources hold it, which validity makes exact.
    """
    members = sorted(ball(hypergraph(instance), v, r))
    rows_of = instance.agent_rows()
    resources = instance.resources
    beneficiaries = instance.beneficiaries

    res_coeffs = {}
    ben_coeffs = {}
    for u in members:
        for i in rows_of[u]:
            row = resources.get(i)
            coeffs_of = res_coeffs
            if row is None:
                row = beneficiaries[i]
                coeffs_of = ben_coeffs
            coeffs = coeffs_of.get(i)
            if coeffs is None:
                coeffs = coeffs_of[i] = {}
            coeffs[u] = row[u]

    res_ids = sorted(res_coeffs)
    ben_ids = sorted(ben_coeffs)
    return View(
        center=v,
        horizon=r,
        members=tuple(members),
        resource_coeffs={i: res_coeffs[i] for i in res_ids},
        beneficiary_coeffs={k: ben_coeffs[k] for k in ben_ids},
        resource_support={i: tuple(resources[i]) for i in res_ids},
        beneficiary_support={k: tuple(beneficiaries[k]) for k in ben_ids},
    )
