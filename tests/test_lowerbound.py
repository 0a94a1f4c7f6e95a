import gc
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import networkx as nx
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
    HorizonTooLargeError,
    SizeCapError,
    TemplateGenerationError,
    adversarial_lower_bound,
    build_adversarial_instance,
    build_hypertree,
    build_regular_bipartite,
    default_template_width,
    hypertree_node_count,
    parity_solution,
    select_hard_subinstance,
    theoretical_ratio_floor,
)
from maxminlp.model import Assignment, Instance, restrict, validate


def test_hypertree_levels_alternate_arity():
    levels = build_hypertree(2, 1, 3)
    assert levels[0] == [0]
    assert [len(level) for level in levels] == [1, 2, 2, 4]
    assert levels[-1] == [5, 6, 7, 8]
    assert sum(len(level) for level in levels) == hypertree_node_count(2, 1, 3)
    # every row spans a node and its children: packing rows from even
    # levels, benefit rows (1/D = 1 here) from odd ones
    inst, _ = build_adversarial_instance(2, 1, 1, 2, seed=0)
    assert [set(inst.resources[k]) for k in range(3)] == [{0, 1, 2}, {3, 5, 6}, {4, 7, 8}]
    assert [set(inst.beneficiaries[k]) for k in (480, 481)] == [{1, 3}, {2, 4}]
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
    assert hypertree_node_count(2, 3, 14) > lowerbound.NODE_CAP
    with pytest.raises(SizeCapError, match="447897 nodes"):
        build_hypertree(2, 3, 14)


def test_hypertree_argument_validation():
    with pytest.raises(ValueError):
        build_hypertree(0, 1, 2)
    with pytest.raises(ValueError):
        build_hypertree(1, 0, 2)
    with pytest.raises(ValueError):
        build_hypertree(1, 1, -1)


@pytest.mark.parametrize(
    "degree, girth", [(1, 6), (2, 6), (3, 6), (4, 6), (8, 6), (3, 8), (2, 10)]
)
def test_template_regular_and_high_girth(degree, girth):
    width = default_template_width(degree, girth)
    tpl = build_regular_bipartite(degree, girth, width, seed=0)
    left = [0] * width
    right = [0] * width
    for u, w in tpl.edges:
        assert 0 <= u < width <= w < 2 * width
        left[u] += 1
        right[w - width] += 1
    assert set(left) == set(right) == {degree}
    assert tpl.girth == oracles.bipartite_girth(tpl.edges)
    if tpl.girth is not None:
        assert tpl.girth >= girth


def test_template_is_seed_deterministic():
    a = build_regular_bipartite(3, 6, 30, seed=5)
    b = build_regular_bipartite(3, 6, 30, seed=5)
    c = build_regular_bipartite(3, 6, 30, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


# SHA-256 of repr((edges, girth)), recorded from the greedy that searched
# every vertex within min_girth - 2 hops; a change in any random draw, or in
# the list a draw indexes, shows here.
TEMPLATE_DIGESTS = {
    # the adversary-safe benchmark's template, found on the first attempt
    (8, 6, 800, 0): "5a3d6196b070fdfc4aa877cc99795650f3fc3465215c64126cf7f81c3032d8f2",
    # the same size, but the greedy gets stuck and restarts
    (8, 6, 800, 1): "85e031c84a44ffc2ae41b9fcdc3baf94af8ec7d9cf42ec86e386f412c5354c5d",
    # five attempts
    (3, 8, 126, 3): "7ec9833b5c9de59231ab7bafb9217cd4a8b7c0b6266c88a26a7387342f2e9c6b",
    # girth 10: right vertices within 7 hops instead of all vertices within 8
    (3, 10, 300, 0): "d4d93374be891b89f5b800d41960433a33e6ffafcc06ba46316e1de4a73c1acf",
}


@pytest.mark.parametrize(
    "case", sorted(TEMPLATE_DIGESTS), ids=lambda case: "-".join(map(str, case))
)
def test_template_stream_matches_the_recorded_digest(case):
    tpl = build_regular_bipartite(*case)
    digest = hashlib.sha256(repr((tpl.edges, tpl.girth)).encode()).hexdigest()
    assert digest == TEMPLATE_DIGESTS[case]


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


def partial_template(n, edges):
    graph = lowerbound._PartialTemplate(n)
    for u, w in edges:
        graph.add_edge(u, w - n)
    return graph


def adjacency(n, edges):
    adj = {q: [] for q in range(2 * n)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    return adj


@settings(max_examples=100, deadline=None)
@given(partial_bipartite())
def test_right_vertices_within_an_even_window_are_within_one_hop_less(case):
    n, edges = case
    graph = partial_template(n, edges)
    G = nx.Graph()
    G.add_nodes_from(range(2 * n))
    G.add_edges_from(edges)
    for u in range(n):
        for window in range(0, 2 * n + 4, 2):
            def rights_at(depth):
                if depth < 0:
                    return set()
                reach = nx.single_source_shortest_path_length(G, u, cutoff=depth)
                return {v for v in reach if v >= n}

            mask = graph.rights_within(u, window)
            assert rights_at(window) == rights_at(window - 1)
            assert {n + i for i in range(n) if mask >> i & 1} == rights_at(window)


def assert_girth_matches_networkx(n, edges):
    assert lowerbound._graph_girth(adjacency(n, edges)) == oracles.bipartite_girth(edges)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**70), st.integers(0, 2**32))
def test_set_bit_helpers_give_the_set_positions_in_order(mask, seed):
    positions = [p for p in range(mask.bit_length()) if mask >> p & 1]
    assert list(lowerbound._set_bits(mask)) == positions
    assert [lowerbound._kth_set_bit(mask, k) for k in range(len(positions))] == positions
    if positions:
        # the template greedy's draw is the one rng.choice makes on the list
        k = random.Random(seed).randrange(len(positions))
        assert lowerbound._kth_set_bit(mask, k) == random.Random(seed).choice(positions)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4), st.sampled_from([0, 2, 4, 6, 8]), st.integers(0, 10),
    st.integers(0, 2**32),
)
def test_template_draws_match_the_reference_greedy(degree, min_girth, extra, seed):
    n = degree + extra
    want = oracles.reference_regular_bipartite(
        degree, min_girth, n, seed, max_attempts=lowerbound.TEMPLATE_ATTEMPTS
    )
    if want is None:
        with pytest.raises(TemplateGenerationError):
            build_regular_bipartite(degree, min_girth, n, seed)
        return
    tpl = build_regular_bipartite(degree, min_girth, n, seed)
    assert list(tpl.edges) == want
    if len(set(want)) == len(want):
        assert tpl.girth == oracles.bipartite_girth(want)
    else:
        assert tpl.girth == 2


def test_template_argument_validation():
    with pytest.raises(ValueError):
        build_regular_bipartite(0, 6, 5, seed=0)
    with pytest.raises(ValueError):
        build_regular_bipartite(3, 6, 2, seed=0)
    with pytest.raises(ValueError):
        build_regular_bipartite(3, 5, 30, seed=0)


def test_template_reports_impossible_width():
    # K_{3,3} is the only 3-regular graph on 3+3 vertices and has girth 4
    with pytest.raises(TemplateGenerationError, match="larger n_per_side"):
        build_regular_bipartite(3, 6, 3, seed=0)


def test_template_girth_audit_catches_a_greedy_that_ignores_distances(monkeypatch):
    # with every partner allowed the greedy closes short cycles, and the
    # exact girth taken after it must refuse the graph
    monkeypatch.setattr(lowerbound._PartialTemplate, "rights_within", lambda *_: 0)
    with pytest.raises(AssertionError, match="violated its own girth bound"):
        build_regular_bipartite(3, 6, 30, seed=0)


def test_default_width_grows_with_the_girth_window():
    # a perfect matching has no cycle, so two per side do at any girth
    assert all(default_template_width(1, girth) == 2 for girth in range(2, 15))
    assert default_template_width(4, 6) == 80
    assert default_template_width(4, 10) > default_template_width(4, 6)


def built():
    return build_adversarial_instance(2, 1, 1, 2, seed=0)


def test_adversarial_instance_shape():
    inst, meta = built()
    # degree d^R D^(R-1) = 4, default width 80, trees of 9 nodes on both sides
    assert meta.template.degree == 4
    assert meta.template.n_per_side == 80
    per_tree = hypertree_node_count(2, 1, 3)
    assert per_tree == 9
    assert len(inst.agents) == 160 * per_tree
    # type I: three per tree; type II: two per tree; type III: one per
    # template edge
    assert len(inst.resources) == 160 * 3
    assert len(inst.beneficiaries) == 160 * 2 + 320
    assert validate(inst) == ()
    # (delta_VI, delta_VK, delta_IV, delta_KV)
    assert oracles.degree_maxima(inst) == (3, 2, 1, 1)


def test_type_two_rows_share_one_coefficient_object():
    # 1/D is computed once, so the trees' benefit rows hold one float
    inst, _ = build_adversarial_instance(1, 2, 1, 2, seed=0)
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
        built = build_adversarial_instance(2, 2, 1, 2, 0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built[0].agents) == 24_000
    assert peak <= 1.3 * kept, (peak, kept, peak / kept)


def test_the_attack_caches_no_neighbour_map(monkeypatch):
    # walks go over the instance's one incidence map; no agent -> neighbours
    # map is built next to it and kept for the instance's life
    made = []

    def keeping(*args, **kwargs):
        made.append(build_adversarial_instance(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(lowerbound, "build_adversarial_instance", keeping)
    adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2, seed=0)
    full, _ = made[0]
    assert set(full._cache) == {"rows_of", "validation"}
    rows_of = full.agent_rows()
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
    inst, meta = build_adversarial_instance(1, 3, 1, 2, seed=0)
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
            build_adversarial_instance(*bad, seed=0)
    # trees of 6,481 nodes on a template of degree 729: checked before the
    # template is searched for
    with pytest.raises(SizeCapError, match="above the cap of 200000"):
        build_adversarial_instance(3, 3, 1, 3, seed=0)


def test_selection_breaks_ties_toward_the_lowest_tree():
    inst, meta = built()
    zero = Assignment({v: 0.0 for v in inst.agents})
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
    sub, p, delta = select_hard_subinstance(inst, meta, Assignment(x))
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
        select_hard_subinstance(inst, broken, Assignment(x))


def test_selection_refuses_a_pairing_that_is_no_involution():
    # every leaf paired with one anchor: with x = 0 every delta is zero, so
    # only the check on the pairing, which is what makes them cancel, refuses it
    inst, meta = built()
    anchor = meta.tree_levels[0][-1][0]
    broken = meta._replace(leaf_pair={v: anchor for v in meta.leaf_pair})
    zero = Assignment({v: 0.0 for v in inst.agents})
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
    zero = Assignment({v: 0.0 for v in inst.agents})
    with pytest.raises(ArithmeticError, match="involution"):
        select_hard_subinstance(inst, broken, zero)


def test_parity_solution_saturates_every_row():
    inst, meta = built()
    sub, p, _ = select_hard_subinstance(
        inst, meta, Assignment({v: 0.0 for v in inst.agents})
    )
    parity = parity_solution(sub, meta.tree_levels[p][0][0])
    assert set(parity.values.values()) <= {0.0, 1.0}
    for row in list(sub.resources.values()) + list(sub.beneficiaries.values()):
        assert sum(c * parity.values[v] for v, c in row.items()) == 1.0
    ok, worst = feasibility(sub, parity)
    assert ok
    assert objective(sub, parity) == 1.0


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
    zero = Assignment({v: 0.0 for v in inst.agents})
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
    report = adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2, seed=0)
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
    report = adversarial_lower_bound(make_algorithm("zero"), 2, 1, 1, 2, seed=0)
    assert report["omega_alg_sub"] == 0.0
    assert report["certified_ratio"] == "unbounded"
    assert report["parity"]["feasible"] and report["parity"]["rows_exact"]


def test_attack_validates_each_instance_once(monkeypatch):
    checked = []

    def counting(instance):
        checked.append(len(instance.agents))
        return validate(instance)

    monkeypatch.setattr(algorithms, "validate", counting)
    report = adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2, seed=0)
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
        adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2, seed=0)
    assert isinstance(caught.value.__cause__, InvalidInstanceError)


def test_attack_refuses_far_sighted_algorithms():
    with pytest.raises(HorizonTooLargeError):
        adversarial_lower_bound(make_algorithm("local-avg", R=1), 2, 1, 1, 2, seed=0)


def test_attack_with_wide_benefit_rows():
    # D = 3 puts fl(1/3) in the benefit rows, and 3 * fl(1/3) is not one in
    # exact arithmetic, so the exact audit finds the parity rows inexact
    report = adversarial_lower_bound(make_algorithm("safe"), 1, 3, 1, 2, seed=0)
    assert report["parity"]["feasible"]
    assert report["parity"]["rows_exact"] is False
    assert report["level_inequalities_ok"]
    assert report["certified_ratio"] >= report["theoretical_floor"] - 1e-9


@pytest.mark.parametrize("D, exact", [(3, False), (4, True)])
def test_parity_rows_are_exact_where_D_times_its_share_is_one(D, exact):
    # fl(1/4) is exact; fl(1/3) is not, and 3 * fl(1/3) < 1
    assert (D * Fraction(1.0 / D) == 1) is exact
    report = adversarial_lower_bound(make_algorithm("safe"), 1, D, 1, 2, seed=0)
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
    report = adversarial_lower_bound(JustAboveHalf(), 1, 1, 1, 2, seed=0)
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
        adversarial_lower_bound(CountsItsDecisions(), 1, 1, 1, 2, seed=0)


def test_certified_ratio_is_the_largest_float_at_most_the_quotient():
    # 1/3 rounds down to nearest and is kept; 9/5 rounds up to 1.8, so one
    # step down, not the float 1 / omega_alg(sub) two steps below that the
    # attack at d = 1, D = 9 computes
    assert lowerbound._certified_ratio(Fraction(1), Fraction(3)) == 1 / 3
    assert lowerbound._certified_ratio(Fraction(1), Fraction(5, 9)) == math.nextafter(1.8, 0.0)
    assert lowerbound._certified_ratio(Fraction(1), Fraction(0)) == "unbounded"


def _exact_sums(rows, x):
    return [sum(Fraction(c) * Fraction(x[v]) for v, c in row.items()) for row in rows.values()]


# every (d, D) under NODE_CAP at r = 1, R = 2 but D = 11 and (2, 3), which
# take about seven seconds each
@pytest.mark.parametrize("d, D", [(1, D) for D in range(1, 11)] + [(2, 1), (2, 2), (3, 1)])
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
    report = adversarial_lower_bound(make_algorithm("safe"), d, D, 1, 2, seed=0)
    [(_, (_, meta))] = seen["build_adversarial_instance"]
    [(_, (sub, p, _))] = seen["select_hard_subinstance"]
    [x_sub] = [x for (instance, _), x in seen["run_local"] if instance is sub]
    parity = parity_solution(sub, meta.tree_levels[p][0][0])
    assert max(_exact_sums(sub.resources, parity.values)) == 1
    proven = min(_exact_sums(sub.beneficiaries, parity.values)) / min(
        _exact_sums(sub.beneficiaries, x_sub.values)
    )
    ratio = report["certified_ratio"]
    assert Fraction(ratio) <= proven < Fraction(math.nextafter(ratio, math.inf))
    rows = _exact_sums(sub.resources, parity.values) + _exact_sums(sub.beneficiaries, parity.values)
    assert report["parity"]["rows_exact"] is all(total == 1 for total in rows)
    assert report["level_inequalities_ok"] is True


def test_ratio_floor_never_undercuts_observed_attacks():
    # the certified ratio should come out at or above the closed-form floor
    # for a few small parameter choices
    for d, D in [(1, 1), (2, 1), (1, 3)]:
        report = adversarial_lower_bound(make_algorithm("safe"), d, D, 1, 2, seed=1)
        assert report["certified_ratio"] >= theoretical_ratio_floor(d, D) - 1e-9
