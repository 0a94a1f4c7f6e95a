import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maxminlp.generators import gen_random, gen_torus
from maxminlp.hypergraph import (
    ball,
    distances,
    extract_view,
    growth_factor,
    growth_factors,
    incidence,
)
from maxminlp.model import Instance


def path4():
    return Instance(
        agents=(0, 1, 2, 3),
        resources={0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: 1.0}},
        beneficiaries={2: {1: 1.0, 2: 1.0}, 3: {0: 1.0}, 4: {3: 1.0}},
    )


def test_unknown_agent_in_support_is_rejected():
    # the walk refuses the row as it reaches the agent, and names both
    bad = Instance((0,), {0: {0: 1.0, 7: 1.0}}, {1: {0: 1.0}})
    with pytest.raises(ValueError, match="resource 0 references unknown agent 7"):
        distances(incidence(bad), 0)
    worse = Instance((0,), {0: {0: 1.0}}, {1: {0: 1.0, 5: 1.0}})
    with pytest.raises(ValueError, match="beneficiary 1 references unknown agent 5"):
        ball(incidence(worse), 0, 1)


def test_an_agent_in_no_row_is_still_known():
    inc = incidence(Instance((0, 1, 2), {0: {0: 1.0, 2: 1.0}}, {}))
    assert distances(inc, 1) == {1: 0}
    assert ball(inc, 1, 3) == frozenset({1})
    assert ball(inc, 0, 3) == frozenset({0, 2})


def test_distances_on_the_path():
    inc = incidence(path4())
    assert distances(inc, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert distances(inc, 0, limit=1) == {0: 0, 1: 1}
    assert ball(inc, 1, 1) == frozenset({0, 1, 2})
    assert ball(inc, 3, 2) == frozenset({1, 2, 3})
    with pytest.raises(ValueError, match="unknown agent id 99"):
        ball(inc, 99, 0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        ball(inc, 0, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6))
def test_adjacency_matches_the_row_oracle_as_ascending_tuples(n_agents, max_support, seed):
    # the radius-1 neighbours of the walk are the agents sharing a row
    inst = gen_random(n_agents, max_support, seed=seed)
    inc = incidence(inst)
    expected = oracles.row_adjacency(inst)
    for v in inst.agents:
        dist = distances(inc, v, 1)
        assert set(dist) - {v} == expected[v]
        assert ball(inc, v, 1) == expected[v] | {v}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_balls_match_set_expansion_oracle(seed, r):
    inst = gen_random(10, 3, seed=seed)
    inc = incidence(inst)
    for v in inst.agents:
        assert set(ball(inc, v, r)) == oracles.ball(inst, v, r)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6))
def test_distances_match_set_expansion_at_every_radius(n_agents, max_support, seed):
    inst = gen_random(n_agents, max_support, seed=seed)
    inc = incidence(inst)
    for v in inst.agents:
        inner = set()
        for r in range(5):
            dist = distances(inc, v, r)
            ball = oracles.ball(inst, v, r)
            assert set(dist) == ball
            # the new ring of the ball sits exactly r hops out
            assert {w for w, d in dist.items() if d == r} == ball - inner
            inner = ball


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("r", [0, 1, 2])
def test_growth_factor_matches_oracle(seed, r):
    inst = gen_random(9, 3, seed=seed)
    assert growth_factor(inst, r) == oracles.growth(inst, r)


@pytest.mark.parametrize("seed", range(4))
def test_growth_factors_from_one_walk_match_each_factor(seed):
    inst = gen_random(9, 3, seed=seed)
    assert growth_factors(inst, 0, 3) == [oracles.growth(inst, r) for r in range(4)]
    # 9 agents are all within 8 hops, so the walks end before radius 13
    assert growth_factors(inst, 0, 12) == [oracles.growth(inst, r) for r in range(13)]
    assert growth_factors(inst, 2, 2) == [growth_factor(inst, 2)]


def test_growth_factor_exact_values_on_small_tori():
    # 3x3 torus: each cell sees 6 others at one hop, everything at two
    t = gen_torus(dim=2, side=3)
    assert growth_factor(t, 0) == Fraction(7, 1)
    assert growth_factor(t, 1) == Fraction(9, 7)
    assert growth_factor(t, 2) == Fraction(1)
    # ring of 6: balls grow by two cells per hop until they wrap
    ring = gen_torus(dim=1, side=6)
    assert growth_factor(ring, 0) == Fraction(3, 1)
    assert growth_factor(ring, 1) == Fraction(5, 3)
    assert growth_factor(ring, 2) == Fraction(6, 5)


def test_growth_factor_far_past_the_diameter_needs_memory_of_the_walk_only():
    # the 8x8 torus's balls stop growing at radius 8; sizing the ring
    # counts by the radius would allocate a million entries per agent
    t = gen_torus(dim=2, side=8)
    tracemalloc.start()
    try:
        assert growth_factor(t, 10**6) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_growth_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        growth_factor(Instance((), {}, {}), 0)
    with pytest.raises(ValueError):
        growth_factor(path4(), -1)


def test_view_contents_on_the_path():
    view = extract_view(path4(), 1, 1)
    assert view.center == 1
    assert view.horizon == 1
    # members ascending, each with all its row ids; agent 3, named by
    # resource 1's support, has no entry
    assert list(view.rows_of.items()) == [(0, (0, 3)), (1, (0, 2)), (2, (1, 2))]
    # every row touching a member over its full support, None beyond the horizon
    assert view.resources == {0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: None}}
    assert list(view.resources[1]) == [2, 3]
    assert view.beneficiaries == {2: {1: 1.0, 2: 1.0}, 3: {0: 1.0}}
    assert view._fields == ("center", "horizon", "rows_of", "resources", "beneficiaries")


def test_view_equality_is_structural():
    a = extract_view(path4(), 1, 1)
    b = extract_view(path4(), 1, 1)
    assert a == b
    assert a != extract_view(path4(), 1, 2)


@pytest.mark.parametrize("seed", range(5))
def test_view_coefficients_never_leave_the_ball(seed):
    inst = gen_random(12, 3, seed=seed)
    for v in inst.agents:
        view = extract_view(inst, v, 2)
        members = view.rows_of.keys()
        assert members == oracles.ball(inst, v, 2)
        for theirs, mine in ((inst.resources, view.resources),
                             (inst.beneficiaries, view.beneficiaries)):
            # exactly the rows touching a member, ids ascending
            assert list(mine) == [i for i, row in theirs.items() if members & row.keys()]
            for i, row in mine.items():
                # the instance row's support, in its order
                assert list(row) == list(theirs[i])
                for w, a in row.items():
                    # a coefficient for a member, the instance's own; None otherwise
                    assert (a is None) == (w not in members)
                    if a is not None:
                        assert a == theirs[i][w]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6), st.integers(0, 3))
def test_view_rows_are_the_instances_own_for_exactly_the_members(n_agents, max_support, seed, r):
    inst = gen_random(n_agents, max_support, seed=seed)
    v = inst.agents[seed % len(inst.agents)]
    view = extract_view(inst, v, r)
    assert tuple(view.rows_of) == tuple(sorted(oracles.ball(inst, v, r)))
    for u, ids in view.rows_of.items():
        assert ids is inst.rows_of[u]


def test_view_argument_errors():
    with pytest.raises(ValueError):
        extract_view(path4(), 42, 1)
    with pytest.raises(ValueError):
        extract_view(path4(), 0, -1)
