"""Communication structure of an instance: distances, balls, views.

Two agents are adjacent when some row's support holds both, and distance
counts row hops.  :func:`distances` is the package's one breadth-first search
over such an adjacency; balls, growth factors, views, the local algorithms'
subproblems and the adversary's carve all walk through it.  Everything an
agent may learn within r hops is packaged as a :class:`View`.
"""

from typing import NamedTuple


def distances(adj, start, limit=None):
    """Hop distances from ``start`` over ``adj``, none beyond ``limit``.

    ``adj`` maps a node to its neighbours; a node it does not list has none.
    The search goes level by level and expands nothing at depth ``limit``.
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


class Hypergraph:
    """Shared-support adjacency over the agents, built once per instance."""

    def __init__(self, instance):
        adj = {v: set() for v in instance.agents}
        for kind, rows in (
            ("resource", instance.resources),
            ("beneficiary", instance.beneficiaries),
        ):
            for rid, row in rows.items():
                for v in row:
                    if v not in adj:
                        raise ValueError(f"{kind} {rid} references unknown agent {v}")
                    adj[v].update(row)
        for v, neighbours in adj.items():
            neighbours.discard(v)
        self._adj = {v: tuple(sorted(neighbours)) for v, neighbours in adj.items()}

    def distances_from(self, v, limit=None):
        """Hop distances from ``v``, optionally cut off beyond ``limit``."""
        if v not in self._adj:
            raise ValueError(f"unknown agent id {v}")
        return distances(self._adj, v, limit)

    def ball(self, v, r):
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return frozenset(self.distances_from(v, limit=r))


def hypergraph(instance):
    """The instance's hypergraph, built on first use and cached."""
    hg = instance._cache.get("hypergraph")
    if hg is None:
        hg = Hypergraph(instance)
        instance._cache["hypergraph"] = hg
    return hg


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

    H = hypergraph(instance)
    best = Fraction(0)
    for v in instance.agents:
        dist = H.distances_from(v, limit=r + 1)
        inner = sum(1 for d in dist.values() if d <= r)
        ratio = Fraction(len(dist), inner)
        if ratio > best:
            best = ratio
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
    members = sorted(hypergraph(instance).ball(v, r))
    I_of = instance.agent_resources()
    K_of = instance.agent_beneficiaries()

    res_coeffs = {}
    ben_coeffs = {}
    for u in members:
        for i in I_of[u]:
            res_coeffs.setdefault(i, {})[u] = instance.resources[i][u]
        for k in K_of[u]:
            ben_coeffs.setdefault(k, {})[u] = instance.beneficiaries[k][u]

    return View(
        center=v,
        horizon=r,
        members=tuple(members),
        resource_coeffs={i: res_coeffs[i] for i in sorted(res_coeffs)},
        beneficiary_coeffs={k: ben_coeffs[k] for k in sorted(ben_coeffs)},
        resource_support={
            i: tuple(instance.resources[i]) for i in sorted(res_coeffs)
        },
        beneficiary_support={
            k: tuple(instance.beneficiaries[k]) for k in sorted(ben_coeffs)
        },
    )
