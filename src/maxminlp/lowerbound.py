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

import math
import random
from typing import NamedTuple

from .evaluation import exact_sums, objective
from .hypergraph import ball, distances, incidence
from .model import Instance, InvalidInstanceError, restrict
from .algorithms import run_local

NODE_CAP = 200_000
# restarts of the template greedy before a width is refused as too narrow
TEMPLATE_ATTEMPTS = 100


class SizeCapError(ValueError):
    """The requested construction would exceed the node cap."""


class TemplateGenerationError(RuntimeError):
    """Random search exhausted its attempt budget without the required girth."""


class HorizonTooLargeError(ValueError):
    """The algorithm sees farther than the template's girth guarantee covers."""


# ---------------------------------------------------------------------------
# Hypertrees.


def hypertree_node_count(d, D, height, cap=math.inf):
    """Nodes in a tree of ``height`` levels below its root.

    A count above ``cap`` raises :class:`SizeCapError` at the level that
    takes it there, so a huge tree is refused without being counted in
    full; when levels are left uncounted, the message says "at least".
    """
    total, width = 1, 1
    for level in range(height):
        width *= d if level % 2 == 0 else D
        total += width
        if total > cap:
            bound = "" if level == height - 1 else "at least "
            raise SizeCapError(
                f"hypertree would have {bound}{total} nodes, above the cap of {cap}"
            )
    return total


def build_hypertree(d, D, height, first_id=0):
    """The levels of a tree of ``height`` levels below its root, as lists of
    consecutive ids from ``first_id`` in level order.

    Level L + 1 lists the children of level L's nodes in order: d per node
    on even levels, where a packing row spans the node and its children, and
    D per node on odd levels, where a benefit row does.  Rebuilding with the
    same arguments is byte-stable.
    """
    if d < 1 or D < 1:
        raise ValueError("branching factors must be at least 1")
    if height < 0:
        raise ValueError("height must be nonnegative")
    hypertree_node_count(d, D, height, NODE_CAP)
    levels = [[first_id]]
    for level in range(height):
        width = d if level % 2 == 0 else D
        start = levels[-1][-1] + 1
        levels.append(list(range(start, start + width * len(levels[-1]))))
    return levels


# ---------------------------------------------------------------------------
# High-girth regular bipartite templates.


class BipartiteTemplate(NamedTuple):
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
    """Exact girth of a bipartite graph, None when acyclic; ``adj`` lists a
    repeated edge as often as it repeats, making a cycle of length 2.

    Until a cycle closes, the root sends all its edges down to depth 1 and
    each node at depth d - 1 >= 1 all but the one to its parent down to
    depth d, so a ring d holding fewer nodes than the edges into it has a
    node with two parents, on a cycle of at most 2d.  From a root on a
    shortest cycle, its antipode is such a node at half the girth.  Rings
    come from :func:`distances`, which lists nodes in nondecreasing depth,
    and only as deep as a shorter cycle could close.  It walks ``adj`` as
    the incidence in which each vertex holds one row, keyed by the vertex,
    whose support is the vertex's neighbours: one step through that row is
    one edge.
    """
    graph = ({q: (q,) for q in adj}, adj, {})
    best = None
    for root in adj:
        dist = distances(graph, root, None if best is None else best // 2 - 1)
        deepest = next(reversed(dist.values()))
        # surplus[d]: edges from ring d - 1 down to ring d, less ring d's nodes
        surplus = [0] * (deepest + 1)
        for u, depth in dist.items():
            surplus[depth] -= 1
            if depth < deepest:
                surplus[depth + 1] += len(adj[u]) - (depth > 0)
        best = next((2 * d for d in range(1, deepest + 1) if surplus[d] > 0), best)
    return best


def _set_bits(mask):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kth_set_bit(mask, k):
    """Position of the set bit of ``mask`` that has k set bits below it."""
    # invariant: at most k set bits below lo, more than k below hi
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() > k:
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

    def add_matching(self, rng, window):
        """Add one perfect matching, edge by edge in a shuffled left order,
        never joining vertices within ``window`` hops; False as soon as a
        left vertex has no allowed partner left.
        """
        order = list(range(len(self.mask_of)))
        rng.shuffle(order)
        free = (1 << len(order)) - 1
        for u in order:
            # a new edge u-w closes a cycle of length dist(u, w) + 1
            allowed = free & ~self.rights_within(u, window)
            count = allowed.bit_count()
            if not count:
                return False
            # the draw of rng.choice over the ascending allowed bits
            i = _kth_set_bit(allowed, rng.randrange(count))
            self.add_edge(u, i)
            free &= ~(1 << i)
        return True

    def rights_within(self, u, window):
        """Mask of the right vertices within an even ``window`` of hops from u.

        Every edge joins the two sides, so right vertices sit at odd distances
        from the left vertex u and window - 1 hops reach the same ones: u's
        neighbours, then window / 2 - 1 two-hop steps.  This is the template
        greedy's bitmask search, kept beside :func:`distances` because whole
        masks build the adversary's template about seven times faster.
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
            frontier = _set_bits(step)
        return seen


def build_regular_bipartite(degree, min_girth, n_per_side, seed):
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
    it) is deterministic.  At the default width a few restarts suffice, so
    the budget of TEMPLATE_ATTEMPTS refuses a width that is too narrow
    within seconds.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if n_per_side < degree:
        raise ValueError("n_per_side must be at least the degree")
    if min_girth % 2:
        raise ValueError("bipartite girth targets must be even")

    rng = random.Random(seed)
    for _ in range(TEMPLATE_ATTEMPTS):
        graph = _PartialTemplate(n_per_side)
        if not all(graph.add_matching(rng, min_girth - 2) for _ in range(degree)):
            continue
        edges = [(u, n_per_side + i) for u in range(n_per_side) for i in graph.rights_of[u]]
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
        f"{TEMPLATE_ATTEMPTS} attempts; try a larger n_per_side"
    )


# ---------------------------------------------------------------------------
# The glued instance.


class LowerBoundMeta(NamedTuple):
    """What the construction fixes and the later steps of the attack read.

    The template's width is ``template.n_per_side``.  ``tree_levels`` maps
    each template vertex to its tree's levels, as :func:`build_hypertree`
    returns them, and ``leaf_pair`` maps each leaf to its partner.
    """

    r: int
    template: BipartiteTemplate
    tree_levels: dict
    leaf_pair: dict

    def tree_agents(self, q):
        return [v for level in self.tree_levels[q] for v in level]


def default_template_width(degree, min_girth):
    """Twice the worst-case number of partners the girth window can block.

    With that much room the greedy essentially never sticks, and the
    template stays linear in size; everything downstream is per tree, so a
    roomy template costs only memory.
    """
    blocked = 0
    reach = 1
    for t in range(1, min_girth - 1):
        reach *= degree if t == 1 else degree - 1
        if t % 2 == 1:
            blocked += reach
    return max(degree + 1, 2 * blocked)


def build_adversarial_instance(d, D, r, R, seed, n_per_side=None):
    """One hypertree of height 2R-1 per template vertex, leaves paired along
    template edges.  Packing rows span an even-level node and its d children
    (coefficient 1); benefit rows span an odd-level node and its D children
    (coefficient 1/D), plus one unit row per paired leaf couple.  Returns
    (instance, meta).
    """
    if d < 1 or D < 1:
        raise ValueError("branching factors must be at least 1")
    if r < 1:
        raise ValueError("the attack radius r must be at least 1")
    if R <= r:
        raise ValueError("the tree parameter R must exceed the attack radius r")

    # one tree is counted first, and no further than the cap: its leaves
    # number the degree, so that and the template width stay small too
    height = 2 * R - 1
    per_tree = hypertree_node_count(d, D, height, NODE_CAP)
    degree = d**R * D ** (R - 1)
    if n_per_side is None:
        n_per_side = default_template_width(degree, 4 * r + 2)
    total_agents = 2 * n_per_side * per_tree
    if total_agents > NODE_CAP:
        raise SizeCapError(
            f"construction would have {total_agents} agents, above the cap of {NODE_CAP}"
        )

    template = build_regular_bipartite(degree, 4 * r + 2, n_per_side, seed)

    # node t of a level spans itself and the t-th slice of w children in the
    # next level: a packing row on even levels (w = d), a benefit row on odd
    # ones (w = D)
    share = 1.0 / D  # one float object shared by every type-II entry
    packing, benefit = [], []
    tree_levels = {}
    for q in template.vertices:
        levels = build_hypertree(d, D, height, first_id=q * per_tree)
        for level, (nodes, below) in enumerate(zip(levels, levels[1:])):
            rows, w, c = (packing, d, 1.0) if level % 2 == 0 else (benefit, D, share)
            for t, node in enumerate(nodes):
                rows.append(dict.fromkeys((node, *below[t * w:(t + 1) * w]), c))
        tree_levels[q] = levels

    # pair leaves along template edges: vertex q's leaves, in level order,
    # follow its incident edges sorted by the opposite endpoint, which is the
    # order one pass over the sorted (left, right) edge list reaches them in
    leaves = {q: iter(levels[-1]) for q, levels in tree_levels.items()}
    leaf_pair = {}
    for u, w in template.edges:
        left_leaf, right_leaf = next(leaves[u]), next(leaves[w])
        leaf_pair[left_leaf] = right_leaf
        leaf_pair[right_leaf] = left_leaf
        benefit.append({left_leaf: 1.0, right_leaf: 1.0})

    # the trees' own id objects, which the rows hold too, and already ascending
    agents = tuple(v for levels in tree_levels.values() for level in levels for v in level)
    # every row lists its agents in ascending order (a node before its
    # children, a left tree's leaf before a right tree's), so the instance
    # keeps these row objects as its own; the lists go before it sorts the ids
    resources = dict(enumerate(packing))
    beneficiaries = dict(enumerate(benefit, start=len(packing)))
    del packing, benefit
    instance = Instance(agents, resources, beneficiaries)
    meta = LowerBoundMeta(
        r=r,
        template=template,
        tree_levels=tree_levels,
        leaf_pair=leaf_pair,
    )
    return instance, meta


def select_hard_subinstance(instance, meta, x):
    """Pick the tree whose leaves fare best against their partners and carve
    it out together with a radius-2r shell around its leaves.  Returns
    (sub-instance, selected template vertex p, delta by template vertex).

    ``x`` is the algorithm's assignment on ``instance``, a dict from agent id
    to activity, and delta(q) sums x(leaf) - x(partner) over q's leaves.
    The pairing is checked to be a fixed-point-free involution on exactly
    the trees' leaves: it then permutes them, so in exact arithmetic the
    deltas cancel and the best tree is never negative.  Ties go to the
    lowest template vertex id.  The carve keeps only rows fully inside.
    """
    pair = meta.leaf_pair
    leaves = [meta.tree_levels[q][-1] for q in meta.template.vertices]
    # as many pairs as leaves, and each leaf paired with another leaf that
    # is paired back with it; counted, so no set of the leaves is built
    if sum(map(len, leaves)) != len(pair) or any(
        pair.get(pair.get(v)) != v or pair[v] == v for tree in leaves for v in tree
    ):
        raise ArithmeticError(
            "the leaf pairing is not a fixed-point-free involution on the trees' "
            "leaves, so the leaf deltas need not cancel"
        )
    delta = {
        q: sum(x[v] - x[pair[v]] for v in tree)
        for q, tree in zip(meta.template.vertices, leaves)
    }
    best = max(delta.values())
    if best < 0:
        raise ArithmeticError("every tree is negative; deltas cannot all be below zero")
    p = min(q for q, value in delta.items() if value == best)

    keep = set(meta.tree_agents(p))
    inc = incidence(instance)
    for leaf in meta.tree_levels[p][-1]:
        keep |= ball(inc, leaf, 2 * meta.r)
    return restrict(instance, keep), p, delta


def parity_solution(sub_instance, root):
    """Activity 1 on agents an even number of hops from the selected tree's
    root and 0 on the rest, as a dict from agent id to activity.

    On the carved sub-instance the incidence structure is a tree, packing and
    benefit rows alternate along every root path, and this point meets every
    row with one unit -- D * fl(1/D) in a tree's benefit rows -- witnessing an
    optimum of about one.
    """
    dist = distances(incidence(sub_instance), root)
    missing = set(sub_instance.agents) - set(dist)
    if missing:
        raise ArithmeticError(
            f"carved sub-instance is disconnected from the root: {sorted(missing)[:5]}"
        )
    return {v: 1.0 if dist[v] % 2 == 0 else 0.0 for v in sub_instance.agents}


# ---------------------------------------------------------------------------
# The end-to-end adversarial driver.


def theoretical_ratio_floor(d, D):
    """No algorithm of bounded horizon can beat this approximation ratio on
    instances with resource supports of d+1 and benefit supports of D+1."""
    return (d + 1) / 2 + 0.5 - 1.0 / (2 * D)


def _certified_ratio(witness, omega_alg):
    """The largest float at most ``witness / omega_alg``, what the attack
    proves about the ratio from an exact lower bound on omega*(sub) and the
    exact omega_alg(sub); an omega_alg(sub) of zero or below certifies an
    unbounded ratio.
    """
    if omega_alg <= 0:
        return "unbounded"
    proven = witness / omega_alg
    # float() rounds to nearest, so at most a step down remains
    ratio = float(proven)
    if ratio > proven:
        ratio = math.nextafter(ratio, -math.inf)
    return ratio


def adversarial_lower_bound(algorithm, d, D, r, R, seed, n_per_side=None):
    """Run the whole attack and certify a ratio lower bound for ``algorithm``.

    Returns the report that ``adversary`` writes, as a JSON-ready dict.
    Refuses algorithms whose horizon exceeds r: the construction only
    guarantees indistinguishability up to radius r.  The certified ratio is
    about 1 / omega_alg(sub), because the parity point witnesses an optimum
    of about one on the carved sub-instance; it is written as the largest
    float at most the exact quotient (see :func:`_certified_ratio`), and a
    zero sub-objective certifies an unbounded ratio.

    Every audit of the carve is exact over the floats it holds.  The parity
    point is 0/1, so it is ``feasible`` when no resource load exceeds one;
    ``rows_exact`` holds when every row sums to exactly one, which fails
    wherever D * fl(1/D) is not one.
    """
    if algorithm.horizon > r:
        raise HorizonTooLargeError(
            f"algorithm {algorithm.name!r} has horizon {algorithm.horizon}, "
            f"which exceeds the attack radius {r}"
        )
    full, meta = build_adversarial_instance(d, D, r, R, seed, n_per_side=n_per_side)
    x_full = run_local(full, algorithm)
    sub, p, delta = select_hard_subinstance(full, meta, x_full)
    try:
        x_sub = run_local(sub, algorithm)
    except InvalidInstanceError as exc:
        raise ArithmeticError(
            "carved sub-instance failed validation: " + "; ".join(exc.violations[:5])
        ) from exc

    if any(x_full[v] != x_sub[v] for v in meta.tree_agents(p)):
        raise ArithmeticError(
            "outputs on the selected tree differ between the full and carved runs; "
            "views at the registered horizon should have been identical"
        )

    omega_sub = objective(sub, x_sub)
    parity = parity_solution(sub, meta.tree_levels[p][0][0])
    loads = exact_sums(sub.resources, parity)
    gains = exact_sums(sub.beneficiaries, parity)
    load = max(loads, default=0)
    # the parity point scaled down by its largest resource load, when that
    # exceeds one, is feasible, so its smallest benefit over that load is at
    # most omega*(sub)
    witness = min(gains) / max(1, load)
    ratio = _certified_ratio(witness, min(exact_sums(sub.beneficiaries, x_sub)))

    levels = meta.tree_levels[p]
    sums = [sum(x_sub[v] for v in level) for level in levels]
    # consecutive level pairs share the (dD)^j unit packing rows between
    # them, so their joint activity is capped by the count of those rows
    pairs = {
        j: dict.fromkeys(levels[2 * j] + levels[2 * j + 1], 1.0)
        for j in range(len(levels) // 2)
    }
    caps = [(d * D) ** j for j in pairs]
    pair_ok = all(total <= cap for total, cap in zip(exact_sums(pairs, x_sub), caps))

    params = {
        "algorithm": algorithm.name,
        "d": d,
        "D": D,
        "r": r,
        "R": R,
        "seed": seed,
        "n_per_side": meta.template.n_per_side,
        "template_degree": meta.template.degree,
        "template_girth": meta.template.girth,
        "agents": len(full.agents),
        "resources": len(full.resources),
        "beneficiaries": len(full.beneficiaries),
        "sub_agents": len(sub.agents),
    }
    return {
        "params": params,
        "delta": {"sum": sum(delta.values()), "max": max(delta.values()), "p": p},
        "identical_choices": True,
        "omega_alg_full": objective(full, x_full),
        "omega_alg_sub": omega_sub,
        "certified_ratio": ratio,
        "parity": {
            "omega": objective(sub, parity),
            "feasible": load <= 1,
            "rows_exact": all(total == 1 for total in loads + gains),
        },
        "level_sums": sums,
        "level_caps": [float(cap) for cap in caps],
        "level_inequalities_ok": pair_ok,
        "theoretical_floor": theoretical_ratio_floor(d, D),
    }
