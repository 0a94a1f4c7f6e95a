import hashlib
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from maxminlp import algorithms, lowerbound
from maxminlp.algorithms import InvalidInstanceError, make_algorithm, run_local
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
    t = build_hypertree(2, 1, 3)
    assert [len(level) for level in t.levels] == [1, 2, 2, 4]
    assert t.root == 0
    assert t.leaves == [5, 6, 7, 8]
    kinds = [kind for kind, _ in t.edges]
    assert kinds == ["I", "II", "II", "I", "I"]
    # every edge spans its node and that node's children
    assert ("I", (0, 1, 2)) == t.edges[0]
    assert ("II", (1, 3)) in t.edges
    assert sum(len(level) for level in t.levels) == hypertree_node_count(2, 1, 3)


def test_hypertree_ids_offset_cleanly():
    t = build_hypertree(2, 3, 3, first_id=100)
    assert t.root == 100
    nodes = [v for level in t.levels for v in level]
    assert len(nodes) == hypertree_node_count(2, 3, 3)
    assert min(nodes) == 100


def test_hypertree_node_count_formula():
    # 1 + 2 + 6 + 12 + 36 + 72
    assert hypertree_node_count(2, 3, 5) == 129
    assert hypertree_node_count(1, 1, 4) == 5


def test_hypertree_respects_node_cap():
    with pytest.raises(SizeCapError):
        build_hypertree(2, 3, 5, node_cap=100)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**70))
def test_bits_index_the_set_positions_in_order(mask):
    positions = [p for p in range(mask.bit_length()) if mask >> p & 1]
    bits = lowerbound._Bits(mask)
    assert len(bits) == len(positions)
    assert list(bits) == positions
    assert [bits[k] for k in range(len(bits))] == positions
    with pytest.raises(IndexError):
        bits[len(positions)]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4), st.sampled_from([0, 2, 4, 6, 8]), st.integers(0, 10),
    st.integers(0, 2**32),
)
def test_template_draws_match_the_reference_greedy(degree, min_girth, extra, seed):
    n = degree + extra
    want = oracles.reference_regular_bipartite(degree, min_girth, n, seed, max_attempts=5)
    if want is None:
        with pytest.raises(TemplateGenerationError):
            build_regular_bipartite(degree, min_girth, n, seed, max_attempts=5)
        return
    tpl = build_regular_bipartite(degree, min_girth, n, seed, max_attempts=5)
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
        build_regular_bipartite(3, 6, 3, seed=0, max_attempts=50)


def test_default_width_grows_with_the_girth_window():
    assert default_template_width(1, 6) == 2
    assert default_template_width(4, 6) == 80
    assert default_template_width(4, 10) > default_template_width(4, 6)


def built():
    return build_adversarial_instance(2, 1, 1, 2, seed=0)


def test_adversarial_instance_shape():
    inst, meta = built()
    # degree d^R D^(R-1) = 4, default width 80, trees of 9 nodes on both sides
    assert meta.template.degree == 4
    assert meta.n_per_side == 80
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
    assert len(pairing) == 2 * len(meta.type3_edges)
    for v, w in pairing.items():
        assert v != w
        assert pairing[w] == v
        # partners live in adjacent template vertices' trees
        assert (
            (tree_of[v], tree_of[w]) in meta.template.edges
            or (tree_of[w], tree_of[v]) in meta.template.edges
        )
    # every type III row is a pair with unit coefficients
    for a, b in meta.type3_edges:
        assert pairing[a] == b


def test_benefit_coefficients_by_kind():
    inst, meta = build_adversarial_instance(1, 3, 1, 2, seed=0)
    type3 = {frozenset(pair) for pair in meta.type3_edges}
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
    with pytest.raises(SizeCapError):
        build_adversarial_instance(2, 1, 1, 2, seed=0, node_cap=100)


def test_selection_breaks_ties_toward_the_lowest_tree():
    inst, meta = built()
    zero = Assignment({v: 0.0 for v in inst.agents})
    sub, after = select_hard_subinstance(inst, meta, zero)
    assert after.p == 0
    assert after.root == meta.tree_levels[0][0][0]
    assert set(after.delta.values()) == {0.0}
    assert set(meta.tree_agents(0)) <= set(sub.agents)
    assert validate(sub) == ()
    assert oracles.incidence_is_forest(sub)


def test_selection_follows_the_advantaged_tree():
    inst, meta = built()
    x = {v: 0.0 for v in inst.agents}
    lucky_leaf = meta.tree_levels[7][-1][0]
    x[lucky_leaf] = 0.5
    sub, after = select_hard_subinstance(inst, meta, Assignment(x))
    assert after.p == 7
    assert after.delta[7] == 0.5
    # the partner's tree is the mirror loser
    partner_tree = next(
        q for q in meta.template.vertices
        if meta.leaf_pair[lucky_leaf] in meta.tree_agents(q)
    )
    assert after.delta[partner_tree] == -0.5


def test_selection_rejects_uncancelled_deltas():
    inst, meta = built()
    anchor = meta.tree_levels[0][-1][0]
    x = {v: 0.0 for v in inst.agents}
    x[anchor] = 1.0
    broken = replace(meta, leaf_pair={v: anchor for v in meta.leaf_pair})
    with pytest.raises(ArithmeticError, match="cancel"):
        select_hard_subinstance(inst, broken, Assignment(x))


def test_parity_solution_saturates_every_row():
    inst, meta = built()
    sub, after = select_hard_subinstance(
        inst, meta, Assignment({v: 0.0 for v in inst.agents})
    )
    parity = parity_solution(sub, after)
    assert set(parity.values.values()) <= {0.0, 1.0}
    for row in list(sub.resources.values()) + list(sub.beneficiaries.values()):
        assert sum(c * parity.values[v] for v, c in row.items()) == 1.0
    ok, worst = feasibility(sub, parity)
    assert ok
    assert objective(sub, parity) == 1.0


def test_parity_needs_a_selection():
    inst, meta = built()
    with pytest.raises(ValueError):
        parity_solution(inst, meta)


@pytest.mark.parametrize("alg_name", ["zero", "safe"])
def test_views_inside_the_kept_tree_are_unchanged(alg_name):
    inst, meta = built()
    algorithm = make_algorithm(alg_name)
    full = run_local(inst, algorithm)
    sub, after = select_hard_subinstance(inst, meta, full)
    for v in after.tree_agents(after.p):
        assert extract_view(inst, v, meta.r) == extract_view(sub, v, meta.r)


def test_floor_values():
    assert theoretical_ratio_floor(2, 1) == 1.5
    assert theoretical_ratio_floor(3, 1) == 2.0
    assert theoretical_ratio_floor(1, 3) == pytest.approx(4.0 / 3.0)


def test_full_attack_on_the_safe_algorithm():
    report = adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2, seed=0)
    assert report.identical_choices
    assert abs(report.delta_sum) <= 1e-9
    assert report.parity_feasible
    assert report.parity_rows_exact
    assert report.level_inequalities_ok
    assert report.certified_ratio == pytest.approx(1.0 / report.omega_alg_sub)
    assert report.certified_ratio >= report.theoretical_floor - 1e-9
    sums = report.level_sums
    assert len(sums) == 4
    for j, cap in enumerate(report.level_caps):
        assert sums[2 * j] + sums[2 * j + 1] <= cap + 1e-9
    assert report.to_dict()["certified_ratio"] == report.certified_ratio


def test_full_attack_on_the_zero_algorithm():
    report = adversarial_lower_bound(make_algorithm("zero"), 2, 1, 1, 2, seed=0)
    assert report.omega_alg_sub == 0.0
    assert report.certified_ratio is None
    assert report.to_dict()["certified_ratio"] == "unbounded"
    assert report.parity_feasible and report.parity_rows_exact


def test_attack_validates_each_instance_once(monkeypatch):
    checked = []

    def counting(instance):
        checked.append(len(instance.agents))
        return validate(instance)

    monkeypatch.setattr(algorithms, "validate", counting)
    report = adversarial_lower_bound(make_algorithm("safe"), 2, 1, 1, 2, seed=0)
    assert checked == [report.params["agents"], report.params["sub_agents"]]


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
    # D = 3 puts thirds in the benefit rows; the parity audit then runs at
    # 1e-12 rather than demanding bit equality
    report = adversarial_lower_bound(make_algorithm("safe"), 1, 3, 1, 2, seed=0)
    assert report.parity_feasible
    assert report.parity_rows_exact
    assert report.level_inequalities_ok
    assert report.certified_ratio >= report.theoretical_floor - 1e-9


def test_ratio_floor_never_undercuts_observed_attacks():
    # the certified ratio should come out at or above the closed-form floor
    # for a few small parameter choices
    for d, D in [(1, 1), (2, 1), (1, 3)]:
        report = adversarial_lower_bound(make_algorithm("safe"), d, D, 1, 2, seed=1)
        assert report.certified_ratio >= theoretical_ratio_floor(d, D) - 1e-9
