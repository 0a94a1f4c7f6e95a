"""Benign instance families: toroidal grids and random bounded-support instances."""

import itertools
import math
import random
from typing import NamedTuple

from .model import Instance


class TorusParams(NamedTuple):
    dim: int
    side: int
    perturb: bool = False
    seed: int = 0


def gen_torus(params):
    """Wrap-around grid with one agent per cell of {0..side-1}^dim.

    Each cell carries one packing row over itself and its positive-direction
    neighbours and one benefit row over itself and its negative-direction
    neighbours, so every degree bound equals dim+1.  Unperturbed, the uniform
    point 1/(dim+1) meets every row exactly and the optimum is one.
    Perturbation redraws every coefficient uniformly from [1/2, 1], seeded.
    """
    d, n = params.dim, params.side
    if d < 1:
        raise ValueError("dim must be at least 1")
    if n < 3:
        raise ValueError("side must be at least 3 so supports stay distinct")

    weights = [n ** (d - 1 - j) for j in range(d)]

    def cell_id(z):
        return sum(zj * w for zj, w in zip(z, weights))

    rng = random.Random(params.seed)

    def coeff():
        return rng.uniform(0.5, 1.0) if params.perturb else 1.0

    n_cells = n ** d
    resources = {}
    beneficiaries = {}
    for z in itertools.product(range(n), repeat=d):
        i = cell_id(z)
        plus = [i] + [
            cell_id(z[:j] + ((z[j] + 1) % n,) + z[j + 1 :]) for j in range(d)
        ]
        minus = [i] + [
            cell_id(z[:j] + ((z[j] - 1) % n,) + z[j + 1 :]) for j in range(d)
        ]
        resources[i] = {v: coeff() for v in plus}
        beneficiaries[n_cells + i] = {v: coeff() for v in minus}
    return Instance(tuple(range(n_cells)), resources, beneficiaries)


def gen_random(n_agents, max_support, coeff_range=(0.5, 2.0), seed=0):
    """Seeded random instance with supports capped at ``max_support``.

    Draws random sparse resource and beneficiary rows, then gives any agent
    no row ended up packing a private unit resource -- an unpacked activity
    would make the problem unbounded.  At least one beneficiary always
    exists.  Identical arguments reproduce the identical instance.
    """
    if n_agents < 1:
        raise ValueError("need at least one agent")
    if max_support < 1:
        raise ValueError("max_support must be at least 1")
    lo, hi = coeff_range
    if not (0 < lo <= hi < math.inf):
        raise ValueError("coefficient range must be finite and satisfy 0 < lo <= hi")

    rng = random.Random(seed)
    agents = list(range(n_agents))
    cap = min(max_support, n_agents)

    rows = []
    for _ in range(rng.randint(1, n_agents)):
        support = sorted(rng.sample(agents, rng.randint(1, cap)))
        rows.append({v: rng.uniform(lo, hi) for v in support})
    packed = set()
    for row in rows:
        packed.update(row)
    for v in agents:
        if v not in packed:
            rows.append({v: 1.0})
    resources = dict(enumerate(rows))

    beneficiaries = {}
    for t in range(rng.randint(1, n_agents)):
        support = sorted(rng.sample(agents, rng.randint(1, cap)))
        beneficiaries[len(resources) + t] = {v: rng.uniform(lo, hi) for v in support}
    return Instance(tuple(agents), resources, beneficiaries)
