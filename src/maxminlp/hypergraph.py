"""Communication structure of an instance: hyperedges, distances, balls, views.

Every support set is one hyperedge over the agents, tagged by the row that
induced it (so identical supports stay distinct).  Two agents are adjacent
when they share a hyperedge, and distance counts hyperedge hops.  Everything
an agent may learn within r hops is packaged as a :class:`View`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

RESOURCE = "resource"
BENEFICIARY = "beneficiary"


@dataclass(frozen=True)
class HyperEdge:
    kind: str
    origin: int
    members: tuple


class Hypergraph:
    """Shared-support adjacency over the agents, built once per instance."""

    def __init__(self, instance):
        self.vertices = instance.agents
        edges = []
        for i, row in instance.resources.items():
            edges.append(HyperEdge(RESOURCE, i, tuple(row)))
        for k, row in instance.beneficiaries.items():
            edges.append(HyperEdge(BENEFICIARY, k, tuple(row)))
        self.edges = tuple(edges)

        adj = {v: set() for v in self.vertices}
        for edge in self.edges:
            for v in edge.members:
                if v not in adj:
                    raise ValueError(
                        f"{edge.kind} {edge.origin} references unknown agent {v}"
                    )
                adj[v].update(edge.members)
        for v, neighbours in adj.items():
            neighbours.discard(v)
        self._adj = {v: tuple(sorted(neighbours)) for v, neighbours in adj.items()}

    def distances_from(self, v, limit=None):
        """Hop distances from ``v``, optionally cut off beyond ``limit``."""
        if v not in self._adj:
            raise ValueError(f"unknown agent id {v}")
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            d = dist[u]
            if limit is not None and d >= limit:
                continue
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = d + 1
                    queue.append(w)
        return dist

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


def neighbourhood_ball(instance, v, r):
    """Agents within r hyperedge hops of ``v`` (``v`` included)."""
    return hypergraph(instance).ball(v, r)


def growth_factor(instance, r):
    """max_v |B(v, r+1)| / |B(v, r)| as an exact rational.

    Measures how much a one-hop horizon extension can inflate what an agent
    sees; the guarantees of the averaging algorithm are stated against it.
    """
    if not instance.agents:
        raise ValueError("growth factor of an empty instance is undefined")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    H = hypergraph(instance)
    best = Fraction(0)
    for v in instance.agents:
        dist = H.distances_from(v, limit=r + 1)
        inner = sum(1 for d in dist.values() if d <= r)
        ratio = Fraction(len(dist), inner)
        if ratio > best:
            best = ratio
    return best


@dataclass(frozen=True)
class View:
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
    H = hypergraph(instance)
    if v not in H._adj:
        raise ValueError(f"unknown agent id {v}")
    if r < 0:
        raise ValueError("horizon must be nonnegative")
    members = sorted(H.ball(v, r))
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
