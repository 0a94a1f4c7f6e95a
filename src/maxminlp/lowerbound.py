"""Adversarial family probing the limits of locality.

The construction glues many node-disjoint hypertrees leaf-to-leaf through a
regular bipartite template whose girth exceeds what any radius-r view can
see: a D(k, q) graph of Lazebnik, Ustimenko and Woldar cut down to the
degree, built without search or seed and checked by its exact girth.
Whatever a fixed-horizon rule outputs on the full instance, at least one
tree's leaves are no poorer than their partners; carving out that tree plus
a thin shell yields a sub-instance on which the rule provably behaves
identically, yet whose true optimum is 1.  Counting activity level by level
then caps the benefit the rule can have delivered, which bounds from below
the approximation ratio any such rule can claim.
"""

import functools
import itertools
import math
from typing import NamedTuple

from .evaluation import exact_sums, objective
from .hypergraph import ball, distances, incidence
from .model import Instance, InvalidInstanceError, restrict
from .algorithms import run_local

NODE_CAP = 200_000


class SizeCapError(ValueError):
    """The requested construction would exceed the node cap."""


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


def _template_shape(degree, min_girth):
    """(q, k) of the D(k, q) that :func:`build_regular_bipartite` restricts:
    q is the least prime at least ``degree``, and k the least length whose
    girth bound reaches ``min_girth``, k + 4 for even k and k + 5 for odd
    k >= 3."""
    q = max(degree, 2)
    while any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
        q += 1
    return q, max(2, min_girth - 5)


def template_width(degree, min_girth):
    """The template's vertices per side, worked out before any edge is built."""
    if degree == 1:
        return 2
    q, k = _template_shape(degree, min_girth)
    return degree * q ** (k - 1)


def _line_through(point, c, q):
    """The line of D(k, q) with first coordinate ``c`` that meets ``point``.

    Its coordinate j > 0 is p_j + a * b mod q, where (a, b) is (l_{j-1}, p_0)
    for j = 1, 2, (l_{j-2}, p_0) for j mod 4 in {1, 2} and (l_0, p_{j-2})
    for j mod 4 in {0, 3}: the incidence equations of D(k, q) with the
    coordinates in the order its authors list them.
    """
    line = [c]
    for j in range(1, len(point)):
        if j % 4 in (1, 2):
            a, b = line[j - 1 if j < 3 else j - 2], point[0]
        else:
            a, b = c, point[j - 2]
        line.append((point[j] + a * b) % q)
    return line


def build_regular_bipartite(degree, min_girth):
    """A ``degree``-regular bipartite graph of girth at least ``min_girth``,
    built without search or seed.

    Degree 1 is a perfect matching on two vertices per side.  Above it the
    graph is D(k, q) of Lazebnik, Ustimenko and Woldar ("A new series of
    dense graphs of high girth", Bull. AMS 32, 1995), with q and k from
    :func:`_template_shape`, restricted to the points and lines whose first
    coordinate is below the degree.  A point meets one line of each first
    coordinate and a line one point of each, so the subgraph is regular,
    and its girth is at least that of D(k, q); k = 2 is the biaffine plane.
    Ids rank the k-tuples lexicographically, points first.  The exact
    :func:`_graph_girth` guards the construction: a graph that is not
    regular, or falls short of ``min_girth``, is refused.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if min_girth % 2:
        raise ValueError("bipartite girth targets must be even")
    n = template_width(degree, min_girth)
    if degree == 1:
        edges = [(0, 3), (1, 2)]
    else:
        q, k = _template_shape(degree, min_girth)
        points = itertools.product(range(degree), *[range(q)] * (k - 1))
        # a line's id is n plus its coordinates read as base-q digits
        edges = [
            (u, n + functools.reduce(lambda rank, x: rank * q + x, _line_through(p, c, q)))
            for u, p in enumerate(points)
            for c in range(degree)
        ]
    adj = {v: [] for v in range(2 * n)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    girth = _graph_girth(adj)
    if girth is not None and girth < min_girth or any(len(e) != degree for e in adj.values()):
        raise ArithmeticError(
            f"the template is not {degree}-regular of girth at least {min_girth} (girth {girth})"
        )
    return BipartiteTemplate(n, degree, tuple(sorted(edges)), girth)


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


def build_adversarial_instance(d, D, r, R):
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
    total_agents = 2 * template_width(degree, 4 * r + 2) * per_tree
    if total_agents > NODE_CAP:
        raise SizeCapError(
            f"construction would have {total_agents} agents, above the cap of {NODE_CAP}"
        )

    template = build_regular_bipartite(degree, 4 * r + 2)

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


def adversarial_lower_bound(algorithm, d, D, r, R):
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
    full, meta = build_adversarial_instance(d, D, r, R)
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
