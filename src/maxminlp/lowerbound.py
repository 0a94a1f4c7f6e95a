"""Adversarial family probing the limits of locality.

The construction glues many node-disjoint hypertrees leaf-to-leaf through a
regular bipartite template whose girth exceeds what any radius-r view can
see.  Whatever a fixed-horizon rule outputs on the full instance, at least
one tree's leaves are no poorer than their partners; carving out that tree
plus a thin shell yields a sub-instance on which the rule provably behaves
identically, yet whose true optimum is 1.  Counting activity level by level
then caps the benefit the rule can have delivered, which bounds from below
the approximation ratio any such rule can claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .evaluation import feasibility, objective
from .hypergraph import hypergraph
from .model import Assignment, Instance, InvalidInstanceError, restrict
from .algorithms import run_local

DEFAULT_NODE_CAP = 200_000
DELTA_CANCEL_TOL = 1e-9
LEVEL_SUM_TOL = 1e-9


class SizeCapError(ValueError):
    """The requested construction would exceed the node cap."""


class TemplateGenerationError(RuntimeError):
    """Random search exhausted its attempt budget without the required girth."""


class HorizonTooLargeError(ValueError):
    """The algorithm sees farther than the template's girth guarantee covers."""


# ---------------------------------------------------------------------------
# Hypertrees.


@dataclass
class Hypertree:
    """Levelled tree of tagged hyperedges.

    Every node at an even level spawns one packing edge ("I") over itself and
    d children; every node at an odd level spawns one benefit edge ("II")
    over itself and D children.  Node ids are consecutive from ``first_id``
    in level order, so rebuilding with the same arguments is byte-stable.
    """

    d: int
    D: int
    height: int
    levels: list
    edges: list

    @property
    def root(self):
        return self.levels[0][0]

    @property
    def leaves(self):
        return self.levels[-1]


def hypertree_node_count(d, D, height):
    total, width = 1, 1
    for level in range(height):
        width *= d if level % 2 == 0 else D
        total += width
    return total


def build_hypertree(d, D, height, first_id=0, node_cap=DEFAULT_NODE_CAP):
    if d < 1 or D < 1:
        raise ValueError("branching factors must be at least 1")
    if height < 0:
        raise ValueError("height must be nonnegative")
    count = hypertree_node_count(d, D, height)
    if count > node_cap:
        raise SizeCapError(
            f"hypertree would have {count} nodes, above the cap of {node_cap}"
        )
    levels = [[first_id]]
    next_id = first_id + 1
    edges = []
    for level in range(height):
        width = d if level % 2 == 0 else D
        grown = []
        for node in levels[level]:
            children = list(range(next_id, next_id + width))
            next_id += width
            edges.append(("I" if level % 2 == 0 else "II", (node, *children)))
            grown.extend(children)
        levels.append(grown)
    return Hypertree(d=d, D=D, height=height, levels=levels, edges=edges)


# ---------------------------------------------------------------------------
# High-girth regular bipartite templates.


@dataclass
class BipartiteTemplate:
    """Simple regular bipartite graph; right-side ids are offset by n_per_side.

    ``girth`` is None when the graph is acyclic (degree 1).
    """

    n_per_side: int
    degree: int
    edges: tuple
    girth: int | None

    @property
    def vertices(self):
        return range(2 * self.n_per_side)


def _graph_girth(adj):
    """Exact girth of a bipartite graph by BFS from every vertex; None when acyclic.

    Expanding BFS level L closes cycles of length 2L (edges back to level
    L - 1, already seen from there) or 2L + 2; with no edge inside a level,
    nothing shorter than the best so far can appear once 2L + 2 reaches it.
    """
    best = None
    for root in adj:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cycle = dist[u] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
            queue = nxt
            if best is not None and queue and 2 * dist[queue[0]] + 2 >= best:
                break
    return best


class _Bits:
    """The set bits of a mask as an ascending sequence.

    ``rng.choice`` on it draws exactly as on the sorted list of the same
    positions, without building that list.
    """

    def __init__(self, mask):
        self.mask = mask
        self.count = mask.bit_count()

    def __len__(self):
        return self.count

    def __iter__(self):
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __getitem__(self, k):
        if not 0 <= k < self.count:
            raise IndexError(k)
        # invariant: at most k set bits below lo, more than k below hi
        lo, hi = 0, self.mask.bit_length()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (self.mask & ((1 << mid) - 1)).bit_count() > k:
                hi = mid
            else:
                lo = mid
        return lo


class _PartialTemplate:
    """The greedy's graph so far, with right vertices as bits of a mask.

    Bit i stands for right vertex n_per_side + i.  ``near[i]`` has the bits
    of the right vertices within two hops of bit i, i itself included, so a
    search from a left vertex moves between right vertices two hops at a
    time and never expands a left one.
    """

    def __init__(self, n_per_side):
        self.rights_of = [[] for _ in range(n_per_side)]
        self.mask_of = [0] * n_per_side
        self.near = [1 << i for i in range(n_per_side)]

    def add_edge(self, u, i):
        """Join left vertex u to the right vertex of bit i."""
        bit = 1 << i
        for j in self.rights_of[u]:
            self.near[j] |= bit
        self.rights_of[u].append(i)
        self.mask_of[u] |= bit
        self.near[i] |= self.mask_of[u]

    def rights_within(self, u, window):
        """Mask of the right vertices within an even ``window`` of hops from u.

        Every edge joins the two sides, so right vertices sit at odd distances
        from the left vertex u and window - 1 hops reach the same ones: u's
        neighbours, then window / 2 - 1 two-hop steps.
        """
        if window < 2:
            return 0
        seen = self.mask_of[u]
        frontier = self.rights_of[u]
        for _ in range(window // 2 - 1):
            reached = 0
            for j in frontier:
                reached |= self.near[j]
            step = reached & ~seen
            if not step:
                break
            seen |= step
            frontier = _Bits(step)
        return seen


def build_regular_bipartite(degree, min_girth, n_per_side, seed, max_attempts=10_000):
    """Seeded randomized greedy: add ``degree`` perfect matchings edge by
    edge, never joining two vertices closer than min_girth - 1 in the graph
    built so far, restarting from scratch whenever a matching gets stuck.

    Plain rejection sampling is useless here: the number of 4-cycles in a
    random regular bipartite graph is roughly Poisson with mean
    (degree-1)^4 / 4 regardless of n, so girth 6 at degree 4 would already
    need on the order of e^20 draws.  The distance-checked greedy succeeds
    almost surely once n_per_side comfortably exceeds the number of
    vertices a girth window can see.

    Raises TemplateGenerationError with advice once the attempt budget runs
    out; for a fixed seed the accepted graph (and hence everything built on
    it) is deterministic.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if n_per_side < degree:
        raise ValueError("n_per_side must be at least the degree")
    if min_girth % 2:
        raise ValueError("bipartite girth targets must be even")

    rng = random.Random(seed)
    window = min_girth - 2
    lefts = list(range(n_per_side))
    for _ in range(max_attempts):
        graph = _PartialTemplate(n_per_side)
        stuck = False
        for _ in range(degree):
            order = lefts[:]
            rng.shuffle(order)
            free = (1 << n_per_side) - 1
            for u in order:
                # a new edge u-w closes a cycle of length dist(u, w) + 1
                allowed = _Bits(free & ~graph.rights_within(u, window))
                if not allowed:
                    stuck = True
                    break
                i = rng.choice(allowed)
                graph.add_edge(u, i)
                free &= ~(1 << i)
            if stuck:
                break
        if stuck:
            continue
        edges = [(u, n_per_side + i) for u in lefts for i in graph.rights_of[u]]
        adj = {q: [] for q in range(2 * n_per_side)}
        for u, w in edges:
            adj[u].append(w)
            adj[w].append(u)
        girth = _graph_girth(adj)
        if girth is not None and girth < min_girth:
            raise AssertionError("greedy construction violated its own girth bound")
        return BipartiteTemplate(
            n_per_side=n_per_side,
            degree=degree,
            edges=tuple(sorted(edges)),
            girth=girth,
        )
    raise TemplateGenerationError(
        f"no {degree}-regular bipartite graph of girth >= {min_girth} found in "
        f"{max_attempts} attempts; try a larger n_per_side"
    )


# ---------------------------------------------------------------------------
# The glued instance.


@dataclass
class LowerBoundMeta:
    """Construction bookkeeping the pipeline needs after the fact."""

    d: int
    D: int
    r: int
    R: int
    seed: int
    n_per_side: int
    template: BipartiteTemplate
    tree_levels: dict
    leaf_pair: dict
    type3_edges: tuple
    p: int | None = None
    root: int | None = None
    delta: dict | None = None

    def tree_agents(self, q):
        return [v for level in self.tree_levels[q] for v in level]


def default_template_width(degree, min_girth):
    """Twice the worst-case number of partners the girth window can block.

    With that much room the greedy essentially never sticks, and the
    template stays linear in size; everything downstream is per tree, so a
    roomy template costs only memory.
    """
    if degree == 1:
        return degree + 1
    blocked = 0
    reach = 1
    for t in range(1, min_girth - 1):
        reach *= degree if t == 1 else degree - 1
        if t % 2 == 1:
            blocked += reach
    return max(degree + 1, 2 * blocked)


def build_adversarial_instance(
    d, D, r, R, seed, n_per_side=None, node_cap=DEFAULT_NODE_CAP
):
    """One hypertree of height 2R-1 per template vertex, leaves paired along
    template edges.  Packing rows are the trees' type-I edges (coefficient 1);
    benefit rows are the type-II edges (coefficient 1/D) plus one unit row per
    paired leaf couple.  Returns (instance, meta).
    """
    if d < 1 or D < 1:
        raise ValueError("branching factors must be at least 1")
    if r < 1:
        raise ValueError("the attack radius r must be at least 1")
    if R <= r:
        raise ValueError("the tree parameter R must exceed the attack radius r")

    degree = d**R * D ** (R - 1)
    if n_per_side is None:
        n_per_side = default_template_width(degree, 4 * r + 2)
    height = 2 * R - 1
    per_tree = hypertree_node_count(d, D, height)
    total_agents = 2 * n_per_side * per_tree
    if total_agents > node_cap:
        raise SizeCapError(
            f"construction would have {total_agents} agents, above the cap of {node_cap}"
        )

    template = build_regular_bipartite(degree, 4 * r + 2, n_per_side, seed)

    trees = {}
    next_id = 0
    for q in template.vertices:
        trees[q] = build_hypertree(d, D, height, first_id=next_id, node_cap=node_cap)
        next_id += per_tree

    # pair leaves along template edges: vertex q's leaves, in level order,
    # follow its incident edges sorted by the opposite endpoint, which is the
    # order one pass over the sorted (left, right) edge list reaches them in
    leaves = {q: iter(trees[q].leaves) for q in template.vertices}
    leaf_pair = {}
    type3 = []
    for u, w in template.edges:
        left_leaf, right_leaf = next(leaves[u]), next(leaves[w])
        leaf_pair[left_leaf] = right_leaf
        leaf_pair[right_leaf] = left_leaf
        type3.append((left_leaf, right_leaf))

    resources = {}
    beneficiaries = {}
    rid = 0
    pending_benefit_rows = []
    for q in template.vertices:
        for kind, members in trees[q].edges:
            if kind == "I":
                resources[rid] = {v: 1.0 for v in members}
                rid += 1
            else:
                pending_benefit_rows.append({v: 1.0 / D for v in members})
    for pair in type3:
        pending_benefit_rows.append({v: 1.0 for v in pair})
    for offset, row in enumerate(pending_benefit_rows):
        beneficiaries[rid + offset] = row

    instance = Instance(tuple(range(total_agents)), resources, beneficiaries)
    meta = LowerBoundMeta(
        d=d,
        D=D,
        r=r,
        R=R,
        seed=seed,
        n_per_side=n_per_side,
        template=template,
        tree_levels={q: trees[q].levels for q in template.vertices},
        leaf_pair=leaf_pair,
        type3_edges=tuple(type3),
    )
    return instance, meta


def select_hard_subinstance(instance, meta, assignment):
    """Pick the tree whose leaves fare best against their partners and carve
    it out together with a radius-2r shell around its leaves.

    delta(q) sums x(leaf) - x(partner) over q's leaves; the deltas cancel
    globally because the pairing is an involution, so the best tree is never
    negative.  Ties go to the lowest template vertex id.  The carve keeps only
    rows fully inside.
    """
    x = assignment.values
    delta = {}
    for q in meta.template.vertices:
        leaves = meta.tree_levels[q][-1]
        delta[q] = sum(x[v] - x[meta.leaf_pair[v]] for v in leaves)
    total = sum(delta.values())
    if abs(total) > DELTA_CANCEL_TOL:
        raise ArithmeticError(
            f"leaf deltas sum to {total!r}; the pairing should make them cancel"
        )
    best = max(delta.values())
    if best < 0:
        raise ArithmeticError("every tree is negative; deltas cannot all be below zero")
    p = min(q for q, value in delta.items() if value == best)

    keep = set(meta.tree_agents(p))
    H = hypergraph(instance)
    for leaf in meta.tree_levels[p][-1]:
        keep |= H.ball(leaf, 2 * meta.r)
    sub = restrict(instance, keep)
    return sub, replace(meta, p=p, root=meta.tree_levels[p][0][0], delta=delta)


def level_sums(meta, assignment):
    """Total activity per level of the selected tree.

    Works for assignments on the full instance or on the carved sub-instance;
    both contain the selected tree.
    """
    if meta.p is None:
        raise ValueError("no tree has been selected yet")
    x = assignment.values
    return [sum(x[v] for v in level) for level in meta.tree_levels[meta.p]]


def parity_solution(sub_instance, meta):
    """Activity 1 on agents an even number of hops from the selected root.

    On the carved sub-instance the incidence structure is a tree, packing and
    benefit rows alternate along every root path, and this point meets every
    row with exactly one unit -- witnessing an optimum of one.
    """
    if meta.root is None:
        raise ValueError("no tree has been selected yet")
    dist = hypergraph(sub_instance).distances_from(meta.root)
    missing = set(sub_instance.agents) - set(dist)
    if missing:
        raise ArithmeticError(
            f"carved sub-instance is disconnected from the root: {sorted(missing)[:5]}"
        )
    return Assignment(
        {v: 1.0 if dist[v] % 2 == 0 else 0.0 for v in sub_instance.agents}
    )


# ---------------------------------------------------------------------------
# The end-to-end adversarial driver.


@dataclass
class AdversaryReport:
    params: dict
    delta_sum: float
    delta_max: float
    p: int
    identical_choices: bool
    omega_alg_full: float
    omega_alg_sub: float
    certified_ratio: float | None
    parity_omega: float
    parity_feasible: bool
    parity_rows_exact: bool
    level_sums: list
    level_caps: list
    level_inequalities_ok: bool
    theoretical_floor: float

    def to_dict(self):
        return {
            "params": self.params,
            "delta": {"sum": self.delta_sum, "max": self.delta_max, "p": self.p},
            "identical_choices": self.identical_choices,
            "omega_alg_full": self.omega_alg_full,
            "omega_alg_sub": self.omega_alg_sub,
            "certified_ratio": (
                "unbounded" if self.certified_ratio is None else self.certified_ratio
            ),
            "parity": {
                "omega": self.parity_omega,
                "feasible": self.parity_feasible,
                "rows_exact": self.parity_rows_exact,
            },
            "level_sums": self.level_sums,
            "level_caps": self.level_caps,
            "level_inequalities_ok": self.level_inequalities_ok,
            "theoretical_floor": self.theoretical_floor,
        }


def theoretical_ratio_floor(d, D):
    """No algorithm of bounded horizon can beat this approximation ratio on
    instances with resource supports of d+1 and benefit supports of D+1."""
    return (d + 1) / 2 + 0.5 - 1.0 / (2 * D)


def _parity_rows_exact(sub_instance, parity, D):
    """Row-by-row audit of the parity point.

    With D = 1 every coefficient is one and binary arithmetic is exact, so
    the audit demands equality; otherwise 1/D rounding leaves dust below
    1e-12.
    """
    x = parity.values
    exact = D == 1
    tol = 0.0 if exact else 1e-12
    for row in list(sub_instance.resources.values()) + list(
        sub_instance.beneficiaries.values()
    ):
        load = sum(c * x[v] for v, c in row.items())
        if abs(load - 1.0) > tol:
            return False
    return True


def adversarial_lower_bound(
    algorithm, d, D, r, R, seed, n_per_side=None, node_cap=DEFAULT_NODE_CAP
):
    """Run the whole attack and certify a ratio lower bound for ``algorithm``.

    Refuses algorithms whose horizon exceeds r: the construction only
    guarantees indistinguishability up to radius r.  The certified ratio is
    1 / omega_alg(sub) because the parity point witnesses an optimum of one
    on the carved sub-instance; a zero sub-objective certifies an unbounded
    ratio.
    """
    if algorithm.horizon > r:
        raise HorizonTooLargeError(
            f"algorithm {algorithm.name!r} has horizon {algorithm.horizon}, "
            f"which exceeds the attack radius {r}"
        )
    full, meta = build_adversarial_instance(
        d, D, r, R, seed, n_per_side=n_per_side, node_cap=node_cap
    )
    x_full = run_local(full, algorithm)
    sub, meta = select_hard_subinstance(full, meta, x_full)
    try:
        x_sub = run_local(sub, algorithm)
    except InvalidInstanceError as exc:
        raise ArithmeticError(
            "carved sub-instance failed validation: " + "; ".join(exc.violations[:5])
        ) from exc

    selected_tree = meta.tree_agents(meta.p)
    identical = all(x_full.values[v] == x_sub.values[v] for v in selected_tree)
    if not identical:
        raise ArithmeticError(
            "outputs on the selected tree differ between the full and carved runs; "
            "views at the registered horizon should have been identical"
        )

    omega_full = objective(full, x_full)
    omega_sub = objective(sub, x_sub)

    parity = parity_solution(sub, meta)
    parity_feasible, _ = feasibility(sub, parity)
    parity_rows = _parity_rows_exact(sub, parity, D)
    parity_omega = objective(sub, parity)

    sums = level_sums(meta, x_sub)
    # consecutive level pairs share the packing rows between them, so their
    # joint activity is capped by the count of those rows
    caps = [float((d * D) ** j) for j in range(len(sums) // 2)]
    pair_ok = all(
        sums[2 * j] + sums[2 * j + 1] <= caps[j] + LEVEL_SUM_TOL
        for j in range(len(sums) // 2)
    )

    certified = None if omega_sub <= 0.0 else 1.0 / omega_sub

    params = {
        "algorithm": algorithm.name,
        "d": d,
        "D": D,
        "r": r,
        "R": R,
        "seed": seed,
        "n_per_side": meta.n_per_side,
        "template_degree": meta.template.degree,
        "template_girth": meta.template.girth,
        "agents": len(full.agents),
        "resources": len(full.resources),
        "beneficiaries": len(full.beneficiaries),
        "sub_agents": len(sub.agents),
    }
    return AdversaryReport(
        params=params,
        delta_sum=sum(meta.delta.values()),
        delta_max=max(meta.delta.values()),
        p=meta.p,
        identical_choices=identical,
        omega_alg_full=omega_full,
        omega_alg_sub=omega_sub,
        certified_ratio=certified,
        parity_omega=parity_omega,
        parity_feasible=parity_feasible,
        parity_rows_exact=parity_rows,
        level_sums=sums,
        level_caps=caps,
        level_inequalities_ok=pair_ok,
        theoretical_floor=theoretical_ratio_floor(d, D),
    )
