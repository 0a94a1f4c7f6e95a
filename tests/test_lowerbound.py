import gc
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from maxminlp import algorithms, hypergraph, lowerbound
from maxminlp.algorithms import (
    InvalidInstanceError, LocalAlgorithm, make_algorithm, run_local,
)
from maxminlp.evaluation import feasibility, objective
from maxminlp.hypergraph import extract_view
from maxminlp.lowerbound import (
    adversarial_lower_bound,
    build_adversarial_instance,
    build_hypertree,
    build_regular_bipartite,
    hypertree_node_count,
    parity_solution,
    select_hard_subinstance,
    theoretical_ratio_floor,
)
from maxminlp.model import Instance, restrict, validate


def test_hypertree_levels_alternate_arity():
    levels = build_hypertree(2, 1, 3)
    assert levels[0] == [0]
    assert [len(level) for level in levels] == [1, 2, 2, 4]
    assert levels[-1] == [5, 6, 7, 8]
    assert sum(len(level) for level in levels) == hypertree_node_count(2, 1, 3)
    # every row spans a node and its children: packing rows from even
    # levels, benefit rows (1/D = 1 here) from odd ones
    inst, _ = build_adversarial_instance(2, 1, 1, 2)
    assert [set(inst.resources[k]) for k in range(3)] == [{0, 1, 2}, {3, 5, 6}, {4, 7, 8}]
    assert [set(inst.beneficiaries[k]) for k in (120, 121)] == [{1, 3}, {2, 4}]
    rows = [*inst.resources.values(), *inst.beneficiaries.values()]
    assert {c for row in rows for c in row.values()} == {1.0}


def test_hypertree_ids_offset_cleanly():
    levels = build_hypertree(2, 3, 3, first_id=100)
    assert levels[0] == [100]
    nodes = [v for level in levels for v in level]
    assert len(nodes) == hypertree_node_count(2, 3, 3)
    assert min(nodes) == 100


def test_hypertree_node_count_formula():
    # 1 + 2 + 6 + 12 + 36 + 72
    assert hypertree_node_count(2, 3, 5) == 129
    assert hypertree_node_count(1, 1, 4) == 5


def test_hypertree_respects_node_cap():
    # the count is checked before any node is built
    assert hypertree_node_count(2, 3, 13) <= lowerbound.NODE_CAP
    with pytest.raises(ValueError, match="have 447897 nodes, above the cap of 200000"):
        hypertree_node_count(2, 3, 14)
    with pytest.raises(ValueError, match="447897 nodes"):
        build_hypertree(2, 3, 14)


def test_hypertree_argument_validation():
    with pytest.raises(ValueError):
        build_hypertree(0, 1, 2)
    with pytest.raises(ValueError):
        build_hypertree(1, 0, 2)
    with pytest.raises(ValueError):
        build_hypertree(1, 1, -1)


# degrees 2 and 3 fall on q = 2 and 3; 8 and 36 on q = 11 and 37 with
# points and lines cut down to the degree; girth 10 takes D(5, q)
@pytest.mark.parametrize("degree, girth", [
    (1, 6), (2, 6), (3, 6), (4, 6), (8, 6), (36, 6), (3, 8), (2, 10), (4, 10),
])
def test_template_regular_and_high_girth(degree, girth):
    tpl = build_regular_bipartite(degree, girth)
    width = tpl.n_per_side
    left = [0] * width
    right = [0] * width
    for u, w in tpl.edges:
        assert 0 <= u < width <= w < 2 * width
        left[u] += 1
        right[w - width] += 1
    assert set(left) == set(right) == {degree}
    # networkx walks every edge from every root, about half a minute at
    # degree 36, so girths 4 and 6 are settled by counting common neighbours
    short = oracles.bipartite_girth_four_or_six(tpl.edges)
    assert tpl.girth == (short or oracles.bipartite_girth(tpl.edges))
    if tpl.girth is not None:
        assert tpl.girth >= girth


def test_template_width_is_the_restricted_dkq_size():
    # t q^(k-1) per side, q the least prime at least t: the biaffine plane
    # (k = 2) at girth 6 and D(5, q) at girth 10; degree 1 is two edges
    assert [lowerbound.template_width(t, 6) for t in (1, 2, 4, 8, 36)] == [
        2, 4, 20, 88, 36 * 37,
    ]
    assert lowerbound.template_width(4, 10) == 4 * 5**4
    assert build_regular_bipartite(1, 6) == (2, 1, ((0, 3), (1, 2)), None)
    for degree, girth in [(4, 6), (4, 10)]:
        assert build_regular_bipartite(degree, girth).n_per_side == (
            lowerbound.template_width(degree, girth)
        )


@st.composite
def partial_bipartite(draw, forest=False):
    """(n_per_side, edges in insertion order) of a simple bipartite graph.

    With ``forest`` every edge that would close a cycle is dropped; otherwise
    a 4-cycle may be planted among the random edges.
    """
    n = draw(st.integers(1, 7))
    lefts, rights = st.integers(0, n - 1), st.integers(n, 2 * n - 1)
    edges = draw(st.lists(st.tuples(lefts, rights), max_size=3 * n, unique=True))
    if not forest and n >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(lefts, min_size=2, max_size=2, unique=True))
        c, d = draw(st.lists(rights, min_size=2, max_size=2, unique=True))
        planted = [(a, c), (a, d), (b, c), (b, d)]
        edges = [e for e in edges if e not in planted] + planted
        edges = draw(st.permutations(edges))
    if forest:
        component = list(range(2 * n))
        kept = []
        for u, w in edges:
            if component[u] != component[w]:
                old = component[w]
                component = [component[u] if c == old else c for c in component]
                kept.append((u, w))
        edges = kept
    return n, edges


def adjacency(n, edges):
    adj = {q: [] for q in range(2 * n)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


def assert_girth_matches_networkx(n, edges):
    girth = oracles.bipartite_girth(edges)
    assert lowerbound._graph_girth(adjacency(n, edges)) == girth
    # the counting oracle the degree-36 template is checked against
    assert oracles.bipartite_girth_four_or_six(edges) == (girth if girth in (4, 6) else None)


# vertex 0 lies only on a 6-cycle, found first; the 4-cycle sits on higher
# ids, so an exit one level early would report 6
HEXAGON_THEN_SQUARE = [
    (0, 10), (1, 10), (1, 11), (2, 11), (2, 12), (0, 12),
    (3, 13), (3, 14), (4, 13), (4, 14),
]


@settings(max_examples=100, deadline=None)
@given(partial_bipartite())
@example((10, HEXAGON_THEN_SQUARE))
def test_early_exit_girth_matches_networkx(case):
    assert_girth_matches_networkx(*case)


@settings(max_examples=50, deadline=None)
@given(partial_bipartite(forest=True))
def test_early_exit_girth_is_none_on_forests(case):
    n, edges = case
    assert lowerbound._graph_girth(adjacency(n, edges)) is None
    assert_girth_matches_networkx(n, edges)


def test_a_repeated_edge_is_a_cycle_of_length_two():
    # networkx's Graph keeps one copy of an edge, so it cannot check these;
    # in the second the repeat is two rings away from the first root
    for n, edges in [
        (3, [(0, 3), (1, 4), (0, 3), (2, 5), (1, 5)]),
        (2, [(0, 2), (1, 2), (1, 3), (1, 3)]),
    ]:
        assert lowerbound._graph_girth(adjacency(n, edges)) == 2


def test_template_argument_validation():
    with pytest.raises(ValueError):
        build_regular_bipartite(0, 6)
    with pytest.raises(ValueError):
        build_regular_bipartite(3, 5)


def test_template_girth_audit_catches_a_wrong_line_map(monkeypatch):
    # without its product term every line l_1 = p_1 meets the points
    # sharing that coordinate, which close 4-cycles: the exact girth taken
    # after the construction must refuse the graph
    monkeypatch.setattr(
        lowerbound, "_line_through", lambda point, c, q: [c, *point[1:]]
    )
    with pytest.raises(ArithmeticError, match=r"4-regular of girth at least 6 \(girth 4\)"):
        build_regular_bipartite(4, 6)


def test_template_regularity_audit_catches_a_wrong_line_map(monkeypatch):
    # points 0-2 and lines 0-2 make a hexagon, and point 3 hangs on lines 0
    # and 3: girth 6 as asked, but line 0 meets three points and line 3 one
    lines = {(0, 0): [0, 2], (0, 1): [0, 1], (1, 0): [1, 2], (1, 1): [3, 0]}
    monkeypatch.setattr(
        lowerbound, "_line_through", lambda point, c, q: divmod(lines[point][c], 2)
    )
    with pytest.raises(ArithmeticError, match=r"not 2-regular of girth at least 6 \(girth 6\)"):
        build_regular_bipartite(2, 6)


def built():
    return build_adversarial_instance(2, 1, 1, 2)


def test_adversarial_instance_shape():
    inst, meta = built()
    # degree d^R D^(R-1) = 4, on the biaffine plane over Z_5 cut down to
    # 4 * 5 = 20 vertices a side, trees of 9 nodes on both sides
    assert meta.template.degree == 4
    assert meta.template.n_per_side == 20
    per_tree = hypertree_node_count(2, 1, 3)
    assert per_tree == 9
    assert len(inst.agents) == 40 * per_tree
    # type I: three per tree; type II: two per tree; type III: one per
    # template edge
    assert len(inst.resources) == 40 * 3
    assert len(inst.beneficiaries) == 40 * 2 + 80
    assert validate(inst) == ()
    # (delta_VI, delta_VK, delta_IV, delta_KV)
    assert oracles.degree_maxima(inst) == (3, 2, 1, 1)


def test_type_two_rows_share_one_coefficient_object():
    # 1/D is computed once, so the trees' benefit rows hold one float
    inst, _ = build_adversarial_instance(1, 2, 1, 2)
    shares = [c for row in inst.beneficiaries.values() for c in row.values() if c != 1.0]
    assert len(shares) > 1 and set(shares) == {0.5}
    assert len({id(c) for c in shares}) == 1


def test_agents_are_the_id_objects_the_rows_hold():
    # the instance keeps one object per id: the trees' own, which the rows key on
    inst, _ = built()
    held = {}
    for rows in (inst.resources, inst.beneficiaries):
        for row in rows.values():
            for v in row:
                held.setdefault(v, []).append(v)
    assert sorted(held) == list(inst.agents)
    assert all(obj is v for v in inst.agents for obj in held[v])


def test_adversarial_build_peaks_near_what_it_keeps():
    # each tree's edges become rows at once and only its levels are kept, and
    # the instance keeps those rows rather than copying them, so the peak is
    # what it keeps plus the outer id maps the instance builds next to the
    # caller's (copying every row peaked at 1.65x, holding the trees' edges
    # too at 1.9x)
    gc.collect()  # earlier tests' tuples in the free lists would go untraced
    tracemalloc.start()
    try:
        built = build_adversarial_instance(2, 2, 1, 2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built[0].agents) == 2_640
    assert peak <= 1.3 * kept, (peak, kept, peak / kept)


def test_the_attack_caches_no_neighbour_map(monkeypatch):
    # walks go over the instance's one incidence map; no agent -> neighbours
    # map is built next to it and kept for the instance's life
    made = []

    def keeping(*args, **kwargs):
        made.append(build_adversarial_instance(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(lowerbound, "build_adversarial_instance", keeping)
    adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2)
    full, _ = made[0]
    assert set(vars(full)) == {"agents", "resources", "beneficiaries", "rows_of", "_violations"}
    rows_of = full.rows_of
    row_ids = full.resources.keys() | full.beneficiaries.keys()
    assert all(set(ids) <= row_ids for ids in rows_of.values())


def test_adversarial_instance_is_deterministic():
    a, meta_a = built()
    b, meta_b = built()
    assert a == b
    assert meta_a.template.edges == meta_b.template.edges
    assert meta_a.leaf_pair == meta_b.leaf_pair


def test_leaf_pairing_is_a_cross_tree_involution():
    inst, meta = built()
    tree_of = {}
    for q in meta.template.vertices:
        for v in meta.tree_agents(q):
            tree_of[v] = q
    pairing = meta.leaf_pair
    assert len(pairing) == 2 * len(meta.template.edges)
    for v, w in pairing.items():
        assert v != w
        assert pairing[w] == v
        # partners live in adjacent template vertices' trees
        assert (
            (tree_of[v], tree_of[w]) in meta.template.edges
            or (tree_of[w], tree_of[v]) in meta.template.edges
        )
    # every leaf pair is a type III row with unit coefficients
    unit_pairs = {
        frozenset(row) for row in inst.beneficiaries.values()
        if len(row) == 2 and set(row.values()) == {1.0}
    }
    assert {frozenset(pair) for pair in pairing.items()} <= unit_pairs


def test_benefit_coefficients_by_kind():
    inst, meta = build_adversarial_instance(1, 3, 1, 2)
    type3 = {frozenset(pair) for pair in meta.leaf_pair.items()}
    assert len(type3) == len(meta.template.edges)
    for row in inst.beneficiaries.values():
        if frozenset(row) in type3:
            assert set(row.values()) == {1.0}
        else:
            assert set(row.values()) == {1.0 / 3.0}
            assert len(row) == 4


def test_adversarial_argument_validation():
    for bad in [(0, 1, 1, 2), (2, 0, 1, 2), (2, 1, 0, 2), (2, 1, 1, 1), (2, 1, 2, 2)]:
        with pytest.raises(ValueError):
            build_adversarial_instance(*bad)
    with pytest.raises(ValueError, match="above the cap of 200000"):
        build_adversarial_instance(3, 3, 1, 3)


@pytest.mark.parametrize("d, D, r, R, agents", [
    # trees of 364 nodes on a degree-243 template, 243 * 251 a side
    (3, 3, 1, 3, 44_402_904),
    # trees of 21 nodes on D(5, 11) cut to degree 8, 8 * 11^4 a side
    (2, 1, 2, 3, 4_919_376),
])
def test_oversized_attacks_are_refused_before_the_template_is_built(
    d, D, r, R, agents, monkeypatch
):
    def unbuilt(*args):
        raise AssertionError("the template was built")

    monkeypatch.setattr(lowerbound, "build_regular_bipartite", unbuilt)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=f"have {agents} agents, above the cap of 200000"):
        build_adversarial_instance(d, D, r, R)
    assert time.monotonic() - t0 < 1.0


def test_selection_breaks_ties_toward_the_lowest_tree():
    inst, meta = built()
    zero = {v: 0.0 for v in inst.agents}
    sub, p, delta = select_hard_subinstance(inst, meta, zero)
    assert p == 0
    assert set(delta) == set(meta.template.vertices)
    assert set(delta.values()) == {0.0}
    assert set(meta.tree_agents(0)) <= set(sub.agents)
    assert validate(sub) == ()
    assert oracles.incidence_is_forest(sub)


def test_selection_follows_the_advantaged_tree():
    inst, meta = built()
    x = {v: 0.0 for v in inst.agents}
    lucky_leaf = meta.tree_levels[7][-1][0]
    x[lucky_leaf] = 0.5
    sub, p, delta = select_hard_subinstance(inst, meta, x)
    assert p == 7
    assert delta[7] == 0.5
    # the partner's tree is the mirror loser
    partner_tree = next(
        q for q in meta.template.vertices
        if meta.leaf_pair[lucky_leaf] in meta.tree_agents(q)
    )
    assert delta[partner_tree] == -0.5


def test_selection_rejects_uncancelled_deltas():
    inst, meta = built()
    anchor = meta.tree_levels[0][-1][0]
    x = {v: 0.0 for v in inst.agents}
    x[anchor] = 1.0
    broken = meta._replace(leaf_pair={v: anchor for v in meta.leaf_pair})
    with pytest.raises(ArithmeticError, match="cancel"):
        select_hard_subinstance(inst, broken, x)


def test_selection_refuses_a_pairing_that_is_no_involution():
    # every leaf paired with one anchor: with x = 0 every delta is zero, so
    # only the check on the pairing, which is what makes them cancel, refuses it
    inst, meta = built()
    anchor = meta.tree_levels[0][-1][0]
    broken = meta._replace(leaf_pair={v: anchor for v in meta.leaf_pair})
    zero = {v: 0.0 for v in inst.agents}
    with pytest.raises(ArithmeticError, match="involution.*cancel"):
        select_hard_subinstance(inst, broken, zero)


@pytest.mark.parametrize("pairing", [
    lambda pair: {**pair, next(iter(pair)): next(iter(pair))},
    lambda pair: dict(list(pair.items())[1:]),
    # tree 0's root and a child of it, paired with each other
    lambda pair: {**pair, 0: 1, 1: 0},
], ids=["a-leaf-paired-with-itself", "a-leaf-left-out", "two-inner-nodes-paired"])
def test_selection_refuses_a_pairing_off_the_leaves(pairing):
    inst, meta = built()
    broken = meta._replace(leaf_pair=pairing(meta.leaf_pair))
    zero = {v: 0.0 for v in inst.agents}
    with pytest.raises(ArithmeticError, match="involution"):
        select_hard_subinstance(inst, broken, zero)


def test_parity_solution_saturates_every_row():
    inst, meta = built()
    sub, p, _ = select_hard_subinstance(
        inst, meta, {v: 0.0 for v in inst.agents}
    )
    parity = parity_solution(sub, meta.tree_levels[p][0][0])
    assert set(parity.values()) <= {0.0, 1.0}
    for row in list(sub.resources.values()) + list(sub.beneficiaries.values()):
        assert sum(c * parity[v] for v, c in row.items()) == 1.0
    ok, worst = feasibility(sub, parity)
    assert ok
    assert objective(sub, parity) == 1.0


def test_parity_solution_refuses_agents_the_root_cannot_reach():
    two_pairs = Instance(
        (0, 1, 2, 3), {0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: 1.0}}, {2: {0: 1.0}, 3: {2: 1.0}}
    )
    with pytest.raises(
        ArithmeticError, match=re.escape("disconnected from the root: [2, 3]")
    ):
        parity_solution(two_pairs, 0)


def _walks(monkeypatch, module):
    """The start node of every ``distances`` call made through ``module``."""
    starts = []
    real = module.distances

    def counted(*args):
        starts.append(args[1])
        return real(*args)

    monkeypatch.setattr(module, "distances", counted)
    return starts


def test_every_graph_walk_of_the_attack_goes_through_distances(monkeypatch):
    # a private breadth-first search anywhere below would leave a list short
    in_hypergraph = _walks(monkeypatch, hypergraph)
    in_lowerbound = _walks(monkeypatch, lowerbound)
    inst, meta = built()
    # the template's girth: one walk from every template vertex
    assert in_hypergraph == []
    assert in_lowerbound == list(meta.template.vertices)
    zero = {v: 0.0 for v in inst.agents}
    sub, p, _ = select_hard_subinstance(inst, meta, zero)
    # the carve: one ball around each leaf of the selected tree
    assert in_hypergraph == meta.tree_levels[p][-1]
    root = meta.tree_levels[p][0][0]
    parity_solution(sub, root)
    assert in_lowerbound == [*meta.template.vertices, root]


@pytest.mark.parametrize("alg_name", ["zero", "safe"])
def test_views_inside_the_kept_tree_are_unchanged(alg_name):
    inst, meta = built()
    algorithm = make_algorithm(alg_name)
    full = run_local(inst, algorithm)
    sub, p, _ = select_hard_subinstance(inst, meta, full)
    for v in meta.tree_agents(p):
        assert extract_view(inst, v, meta.r) == extract_view(sub, v, meta.r)


def test_floor_values():
    assert theoretical_ratio_floor(2, 1) == 1.5
    assert theoretical_ratio_floor(3, 1) == 2.0
    assert theoretical_ratio_floor(1, 3) == pytest.approx(4.0 / 3.0)


def test_full_attack_on_the_safe_algorithm():
    report = adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2)
    assert report["identical_choices"]
    assert abs(report["delta"]["sum"]) <= 1e-9
    assert report["parity"]["feasible"]
    assert report["parity"]["rows_exact"]
    assert report["level_inequalities_ok"]
    assert report["certified_ratio"] == pytest.approx(1.0 / report["omega_alg_sub"])
    assert report["certified_ratio"] >= report["theoretical_floor"] - 1e-9
    sums = report["level_sums"]
    assert len(sums) == 4
    for j, cap in enumerate(report["level_caps"]):
        assert sums[2 * j] + sums[2 * j + 1] <= cap + 1e-9


def test_full_attack_on_the_zero_algorithm():
    report = adversarial_lower_bound(make_algorithm("zero"), 2, 1, 1, 2)
    assert report["omega_alg_sub"] == 0.0
    assert report["certified_ratio"] == "unbounded"
    assert report["parity"]["feasible"] and report["parity"]["rows_exact"]


def test_attack_validates_each_instance_once(monkeypatch):
    checked = []

    def counting(instance):
        checked.append(len(instance.agents))
        return validate(instance)

    monkeypatch.setattr(algorithms, "validate", counting)
    report = adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2)
    assert checked == [report["params"]["agents"], report["params"]["sub_agents"]]


def test_attack_reports_an_invalid_carve(monkeypatch):
    def uncovered_agent(instance, agent_set):
        sub = restrict(instance, agent_set)
        stray = max(sub.agents) + 1
        return Instance(sub.agents + (stray,), sub.resources, sub.beneficiaries)

    monkeypatch.setattr(lowerbound, "restrict", uncovered_agent)
    with pytest.raises(
        ArithmeticError, match="carved sub-instance failed validation: agent .* no resource"
    ) as caught:
        adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2)
    assert isinstance(caught.value.__cause__, InvalidInstanceError)


def test_attack_refuses_far_sighted_algorithms():
    with pytest.raises(ValueError, match="has horizon 3, which exceeds the attack radius 1"):
        adversarial_lower_bound(make_algorithm("local-avg", R=1), 2, 1, 1, 2)


def test_attack_with_wide_benefit_rows():
    # D = 3 puts fl(1/3) in the benefit rows, and 3 * fl(1/3) is not one in
    # exact arithmetic, so the exact audit finds the parity rows inexact
    report = adversarial_lower_bound(make_algorithm("safe"), 1, 3, 1, 2)
    assert report["parity"]["feasible"]
    assert report["parity"]["rows_exact"] is False
    assert report["level_inequalities_ok"]
    assert report["certified_ratio"] >= report["theoretical_floor"] - 1e-9


@pytest.mark.parametrize("D, exact", [(3, False), (4, True)])
def test_parity_rows_are_exact_where_D_times_its_share_is_one(D, exact):
    # fl(1/4) is exact; fl(1/3) is not, and 3 * fl(1/3) < 1
    assert (D * Fraction(1.0 / D) == 1) is exact
    report = adversarial_lower_bound(make_algorithm("safe"), 1, D, 1, 2)
    assert report["parity"]["rows_exact"] is exact
    assert report["parity"]["feasible"]


class JustAboveHalf(LocalAlgorithm):
    """Activity one ulp above 1/2 everywhere: every level pair then sums to
    1.0000000000000002, above its cap of one."""

    name = "just-above-half"
    horizon = 1

    def decide(self, view):
        return math.nextafter(0.5, 1.0)


def test_level_audit_is_exact():
    # a one-ulp excess fails the audit; any tolerance would let it through
    report = adversarial_lower_bound(JustAboveHalf(), 1, 1, 1, 2)
    sums = report["level_sums"]
    assert sums[0] + sums[1] == math.nextafter(1.0, 2.0)
    assert report["level_caps"] == [1.0, 1.0]
    assert report["level_inequalities_ok"] is False


class CountsItsDecisions(LocalAlgorithm):
    """Outputs how many agents it has decided so far, across runs: a
    horizon-1 algorithm that is not a function of its view."""

    name = "counts-its-decisions"
    horizon = 1

    def __init__(self):
        self.decided = 0

    def decide(self, view):
        self.decided += 1
        return float(self.decided)


def test_attack_refuses_outputs_that_differ_between_the_full_and_carved_runs():
    # the carved run continues the count, so no agent of the selected tree
    # repeats its value from the full run
    with pytest.raises(ArithmeticError, match="outputs on the selected tree differ"):
        adversarial_lower_bound(CountsItsDecisions(), 1, 1, 1, 2)


def test_certified_ratio_is_the_largest_float_at_most_the_quotient():
    # 1/3 rounds down to nearest and is kept; 9/5 rounds up to 1.8, so one
    # step down, not the float 1 / omega_alg(sub) two steps below that the
    # attack at d = 1, D = 9 computes
    assert lowerbound._certified_ratio(Fraction(1), Fraction(3)) == 1 / 3
    assert lowerbound._certified_ratio(Fraction(1), Fraction(5, 9)) == math.nextafter(1.8, 0.0)
    assert lowerbound._certified_ratio(Fraction(1), Fraction(0)) == "unbounded"


def _exact_sums(rows, x):
    return [sum(Fraction(c) * Fraction(x[v]) for v, c in row.items()) for row in rows.values()]


# 18 of the 53 sets under NODE_CAP at r = 1, R = 2, none taking two
# seconds.  (4, 1) and (4, 2) stay out until safe's point is exactly
# feasible: each of the five members of a packing row takes fl(1/5) > 1/5,
# so the level audit reads false there.
@pytest.mark.parametrize(
    "d, D",
    [(1, D) for D in range(1, 13)] + [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)],
)
def test_certified_ratio_is_the_largest_float_at_most_the_proven_ratio(d, D, monkeypatch):
    # 1 / omega_alg(sub) in floats came out an ulp or two above the exact
    # (smallest parity benefit) / omega_alg(sub) at d = 1 and D = 4 to 7.
    # The attack's own meta, carve and run on the carve are kept as it makes
    # them, so it runs once; the exact sums below are this test's own.
    seen = {}

    def spy(name):
        real = getattr(lowerbound, name)

        def spying(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.setdefault(name, []).append((args, result))
            return result

        monkeypatch.setattr(lowerbound, name, spying)

    for name in ("build_adversarial_instance", "select_hard_subinstance", "run_local"):
        spy(name)
    report = adversarial_lower_bound(make_algorithm("safe"), d, D, 1, 2)
    [(_, (_, meta))] = seen["build_adversarial_instance"]
    [(_, (sub, p, _))] = seen["select_hard_subinstance"]
    [x_sub] = [x for (instance, _), x in seen["run_local"] if instance is sub]
    parity = parity_solution(sub, meta.tree_levels[p][0][0])
    assert max(_exact_sums(sub.resources, parity)) == 1
    proven = min(_exact_sums(sub.beneficiaries, parity)) / min(
        _exact_sums(sub.beneficiaries, x_sub)
    )
    ratio = report["certified_ratio"]
    assert Fraction(ratio) <= proven < Fraction(math.nextafter(ratio, math.inf))
    rows = _exact_sums(sub.resources, parity) + _exact_sums(sub.beneficiaries, parity)
    assert report["parity"]["rows_exact"] is all(total == 1 for total in rows)
    assert report["level_inequalities_ok"] is True


def test_the_radius_two_attack_runs_on_a_girth_ten_template():
    # (1, 2) at r = 2, R = 3: degree 4 on D(5, 5) cut to 4 * 5^4 = 2,500 a
    # side, with trees of 14 nodes
    report = adversarial_lower_bound(make_algorithm("safe"), 1, 2, 2, 3)
    assert report["params"]["agents"] == 70_000
    assert report["params"]["template_girth"] == 10
    assert report["certified_ratio"] == 1.3333333333333333


def test_ratio_floor_never_undercuts_observed_attacks():
    # the certified ratio should come out at or above the closed-form floor
    # for a few small parameter choices
    for d, D in [(1, 1), (2, 1), (1, 3)]:
        report = adversarial_lower_bound(make_algorithm("safe"), d, D, 1, 2)
        assert report["certified_ratio"] >= theoretical_ratio_floor(d, D) - 1e-9
