from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maxminlp.generators import TorusParams, gen_random, gen_torus
from maxminlp.hypergraph import (
    Hypergraph,
    distances,
    extract_view,
    growth_factor,
    hypergraph,
)
from maxminlp.model import Instance


def path4():
    return Instance(
        agents=(0, 1, 2, 3),
        resources={0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: 1.0}},
        beneficiaries={2: {1: 1.0, 2: 1.0}, 3: {0: 1.0}, 4: {3: 1.0}},
    )


def test_unknown_agent_in_support_is_rejected():
    bad = Instance((0,), {0: {0: 1.0, 7: 1.0}}, {1: {0: 1.0}})
    with pytest.raises(ValueError, match="resource 0 references unknown agent 7"):
        Hypergraph(bad)


def test_distances_on_the_path():
    H = Hypergraph(path4())
    assert H.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert H.distances_from(0, limit=1) == {0: 0, 1: 1}
    assert H.ball(1, 1) == frozenset({0, 1, 2})
    assert H.ball(3, 2) == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        H.distances_from(99)
    with pytest.raises(ValueError):
        H.ball(0, -1)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_balls_match_set_expansion_oracle(seed, r):
    inst = gen_random(10, 3, seed=seed)
    H = hypergraph(inst)
    for v in inst.agents:
        assert set(H.ball(v, r)) == oracles.ball(inst, v, r)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6))
def test_distances_match_set_expansion_at_every_radius(n_agents, max_support, seed):
    inst = gen_random(n_agents, max_support, seed=seed)
    adj = hypergraph(inst)._adj
    for v in inst.agents:
        inner = set()
        for r in range(5):
            dist = distances(adj, v, r)
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


def test_growth_factor_exact_values_on_small_tori():
    # 3x3 torus: each cell sees 6 others at one hop, everything at two
    t = gen_torus(TorusParams(dim=2, side=3))
    assert growth_factor(t, 0) == Fraction(7, 1)
    assert growth_factor(t, 1) == Fraction(9, 7)
    assert growth_factor(t, 2) == Fraction(1)
    # ring of 6: balls grow by two cells per hop until they wrap
    ring = gen_torus(TorusParams(dim=1, side=6))
    assert growth_factor(ring, 0) == Fraction(3, 1)
    assert growth_factor(ring, 1) == Fraction(5, 3)
    assert growth_factor(ring, 2) == Fraction(6, 5)


def test_growth_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        growth_factor(Instance((), {}, {}), 0)
    with pytest.raises(ValueError):
        growth_factor(path4(), -1)


def test_view_contents_on_the_path():
    view = extract_view(path4(), 1, 1)
    assert view.center == 1
    assert view.horizon == 1
    assert view.members == (0, 1, 2)
    # coefficients only for members, full identities for every incident row
    assert view.resource_coeffs == {0: {0: 1.0, 1: 1.0}, 1: {2: 1.0}}
    assert view.resource_support == {0: (0, 1), 1: (2, 3)}
    assert view.beneficiary_coeffs == {2: {1: 1.0, 2: 1.0}, 3: {0: 1.0}}
    assert view.beneficiary_support == {2: (1, 2), 3: (0,)}


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
        members = set(view.members)
        assert members == oracles.ball(inst, v, 2)
        for coeffs in view.resource_coeffs.values():
            assert set(coeffs) <= members
        for coeffs in view.beneficiary_coeffs.values():
            assert set(coeffs) <= members
        # support lists quote the instance rows verbatim
        for i, support in view.resource_support.items():
            assert support == tuple(inst.resources[i])


def test_view_argument_errors():
    with pytest.raises(ValueError):
        extract_view(path4(), 42, 1)
    with pytest.raises(ValueError):
        extract_view(path4(), 0, -1)
