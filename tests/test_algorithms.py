import contextlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import local_avg_reference
import oracles
from maxminlp import algorithms, hypergraph, lp
from maxminlp.algorithms import (
    LocalAlgorithm,
    LocalAlgorithmError,
    LocalAveraging,
    SafeAlgorithm,
    ZeroAlgorithm,
    local_lp_solution,
    local_subproblem,
    make_algorithm,
    run_local,
)
from maxminlp.evaluation import feasibility, objective
from maxminlp.generators import TorusParams, gen_random, gen_torus
from maxminlp.hypergraph import View, extract_view, growth_factor
from maxminlp.lp import solve_maxmin
from maxminlp.model import Instance


def path4():
    return Instance(
        agents=(0, 1, 2, 3),
        resources={0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: 1.0}},
        beneficiaries={2: {1: 1.0, 2: 1.0}, 3: {0: 1.0}, 4: {3: 1.0}},
    )


def test_safe_takes_the_most_conservative_share():
    # agent 0 sits in a support-2 row at weight 1 and a support-3 row at
    # weight 0.25: shares 1/2 and 1/0.75, keep 1/2
    inst = Instance(
        agents=(0, 1, 2),
        resources={0: {0: 1.0, 1: 1.0}, 1: {0: 0.25, 1: 4.0, 2: 1.0}},
        beneficiaries={2: {0: 1.0, 2: 1.0}},
    )
    out = run_local(inst, SafeAlgorithm())
    assert out.values[0] == 0.5
    assert out.values[1] == 1.0 / (4.0 * 3.0)
    assert out.values[2] == 1.0 / 3.0


@pytest.mark.parametrize("algorithm", [SafeAlgorithm(), LocalAveraging(1)])
def test_a_centre_without_a_resource_is_refused(algorithm):
    # agent 0 sits in benefit row 5 only; local-avg's last round, handed both
    # members' ball optima, gets as far as its damping before refusing
    view = View(
        center=0,
        horizon=1,
        rows_of={0: (5,), 1: (4, 5, 6)},
        resources={4: {1: 1.0}},
        beneficiaries={5: {0: 1.0, 1: 1.0}, 6: {1: 1.0}},
    )
    *earlier, (_, step) = algorithm.rounds
    ball = frozenset(view.rows_of)
    prior = dict.fromkeys(ball, (ball, {0: 1.0, 1: 1.0}))
    with pytest.raises(LocalAlgorithmError, match="agent 0 touches no resource"):
        step(view, prior) if earlier else step(view)


@pytest.mark.parametrize("dim, side", [(1, 4), (1, 6), (2, 4), (2, 8)])
def test_safe_is_exact_on_uniform_tori(dim, side):
    # every row has d+1 unit entries, so each agent takes exactly 1/(d+1)
    # and each benefit row sums straight back to one
    inst = gen_torus(TorusParams(dim=dim, side=side))
    out = run_local(inst, SafeAlgorithm())
    assert set(out.values.values()) == {1.0 / (dim + 1)}
    assert objective(inst, out) == 1.0


@pytest.mark.parametrize("seed", range(25))
def test_safe_feasible_and_within_factor(seed):
    inst = gen_random(4 + seed % 9, 3, seed=seed)
    out = run_local(inst, SafeAlgorithm())
    ok, worst = feasibility(inst, out)
    assert ok, worst
    _, omega_star = solve_maxmin(inst)
    bound, _, _, _ = oracles.degree_maxima(inst)
    assert objective(inst, out) >= omega_star / bound - 1e-9


def test_zero_algorithm_is_trivially_feasible():
    inst = gen_random(8, 3, seed=1)
    out = run_local(inst, ZeroAlgorithm())
    assert set(out.values.values()) == {0.0}
    assert feasibility(inst, out)[0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6),
    st.sampled_from(["safe", "local-avg"]),
)
def test_local_outputs_are_feasible_on_small_random_instances(
    n_agents, max_support, seed, name
):
    inst = gen_random(n_agents, max_support, seed=seed)
    x = run_local(inst, make_algorithm(name, R=1 if name == "local-avg" else None)).values
    assert sorted(x) == list(inst.agents)
    assert min(x.values()) >= 0.0
    # from the raw rows, not through evaluation.feasibility
    for row in inst.resources.values():
        assert sum(a * x[v] for v, a in row.items()) <= 1.0 + 1e-9


def test_local_subproblem_clips_resources_keeps_inside_benefits():
    view = extract_view(path4(), 1, 1)
    assert local_subproblem(view) == Instance(
        (0, 1, 2),
        {0: {0: 1.0, 1: 1.0}, 1: {2: 1.0}},
        {2: {1: 1.0, 2: 1.0}, 3: {0: 1.0}},
    )


def test_local_lp_zero_when_no_benefit_row_fits():
    # the only benefit row lives two hops from agent 0, so the ball-(0, 1)
    # subproblem has no objective and the canonical answer is all zero
    inst = Instance(
        agents=(0, 1, 2, 3),
        resources={0: {0: 1.0, 1: 1.0}, 1: {1: 1.0, 2: 1.0}, 2: {2: 1.0, 3: 1.0}},
        beneficiaries={3: {2: 1.0, 3: 1.0}},
    )
    assert local_lp_solution(extract_view(inst, 0, 1)) == {0: 0.0, 1: 0.0}


@pytest.mark.parametrize("R", [1, 2])
def test_local_lp_matches_the_reference_ball_lp_from_raw_rows(torus11, R):
    # each centre's ball LP, from its own radius-R view, equals the LP that
    # the reference clips from the instance's rows, bit for bit
    for u in torus11.agents:
        got = local_lp_solution(extract_view(torus11, u, R))
        assert got == local_avg_reference.ball_lp(torus11, oracles.ball(torus11, u, R))


def test_averaging_constructor_validates_r():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            LocalAveraging(bad)
    alg = LocalAveraging(2)
    assert alg.horizon == 5
    assert alg.name == "local-avg[R=2]"


def test_averaging_on_uniform_ring():
    # no translation symmetry claim here: tie-breaking is id-ordered, and the
    # id wrap at the ring seam legitimately shifts which optimum is picked
    inst = gen_torus(TorusParams(dim=1, side=8))
    out = run_local(inst, LocalAveraging(1))
    assert run_local(inst, LocalAveraging(1)).values == out.values
    assert feasibility(inst, out)[0]
    _, omega_star = solve_maxmin(inst)
    certificate = growth_factor(inst, 0) * growth_factor(inst, 1)
    assert objective(inst, out) >= omega_star / float(certificate) - 1e-9


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("R", [1, 2])
def test_averaging_meets_its_guarantee(seed, R):
    inst = gen_random(4 + seed, 3, seed=seed)
    out = run_local(inst, LocalAveraging(R))
    ok, worst = feasibility(inst, out)
    assert ok, worst
    _, omega_star = solve_maxmin(inst)
    certificate = growth_factor(inst, R - 1) * growth_factor(inst, R)
    assert objective(inst, out) >= omega_star / float(certificate) - 1e-9


@pytest.mark.parametrize("R", [1, 2])
def test_averaging_per_beneficiary_bound_on_perturbed_torus(R):
    inst = gen_torus(TorusParams(dim=1, side=8, perturb=True, seed=2))
    out = run_local(inst, LocalAveraging(R))
    _, omega_star = solve_maxmin(inst)
    profile = oracles.locality_profile(inst, R)
    for k, row in inst.beneficiaries.items():
        benefit = sum(c * out.values[v] for v, c in row.items())
        m_k, M_k = profile.per_beneficiary[k]
        assert benefit >= profile.beta * (m_k / M_k) * omega_star - 1e-9


@pytest.mark.parametrize("seed", [2, 16, 23])
def test_averaging_runs_on_tori_whose_ball_lps_once_failed(seed):
    # local-avg with R=2 exited 1 on these 8x8 tori while the simplex drifted
    inst = gen_torus(TorusParams(dim=2, side=8, perturb=True, seed=seed))
    out = run_local(inst, LocalAveraging(2))
    ok, worst = feasibility(inst, out)
    assert ok, worst
    _, omega_star = solve_maxmin(inst)
    certificate = oracles.growth(inst, 1) * oracles.growth(inst, 2)
    assert objective(inst, out) >= omega_star / float(certificate) - 1e-9


def test_run_local_rejects_invalid_instances():
    broken = Instance((0, 1), {0: {0: 1.0}}, {1: {1: 1.0}})  # agent 1 uncovered
    with pytest.raises(ValueError, match="failed validation"):
        run_local(broken, SafeAlgorithm())


class _Misbehaving(LocalAlgorithm):
    name = "misbehaving"
    horizon = 0

    def __init__(self, value):
        self.value = value

    def decide(self, view):
        return self.value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, True, None, "x"])
def test_run_local_rejects_bad_outputs(value):
    inst = path4()
    with pytest.raises(LocalAlgorithmError):
        run_local(inst, _Misbehaving(value))


def test_make_algorithm_dispatch():
    assert make_algorithm("zero").name == "zero"
    assert make_algorithm("safe").horizon == 1
    assert make_algorithm("local-avg", R=3).horizon == 7
    with pytest.raises(ValueError):
        make_algorithm("local-avg")
    with pytest.raises(ValueError):
        make_algorithm("greedy")
    for name in ("zero", "safe"):
        with pytest.raises(ValueError, match="only local-avg takes one"):
            make_algorithm(name, R=1)


def _mutate_outside(inst, protected, seed):
    """Rescale every coefficient belonging to agents outside ``protected``."""
    rng = random.Random(seed)
    resources = {}
    for i, row in inst.resources.items():
        resources[i] = {
            v: (a if v in protected else a * rng.uniform(0.1, 3.0)) for v, a in row.items()
        }
    beneficiaries = {}
    for k, row in inst.beneficiaries.items():
        beneficiaries[k] = {
            v: (c if v in protected else c * rng.uniform(0.1, 3.0)) for v, c in row.items()
        }
    return Instance(inst.agents, resources, beneficiaries)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("alg_name, R", [("safe", None), ("local-avg", 1)])
def test_decides_from_the_view_alone(seed, alg_name, R):
    inst = gen_random(10, 3, seed=seed)
    alg = make_algorithm(alg_name, R)
    rng = random.Random(seed + 100)
    v = rng.choice(inst.agents)
    protected = oracles.ball(inst, v, alg.horizon + 1)
    mutated = _mutate_outside(inst, protected, seed)
    before = extract_view(inst, v, alg.horizon)
    after = extract_view(mutated, v, alg.horizon)
    assert before == after
    assert run_local(inst, alg).values[v] == run_local(mutated, alg).values[v]


def _counting_solver(monkeypatch):
    """Route the executor's LP calls through a wrapper that records each LP by content."""
    seen = []
    real = lp.solve_maxmin

    def counted(sub):
        seen.append((sub.agents, repr(sub.resources), repr(sub.beneficiaries)))
        return real(sub)

    monkeypatch.setattr(lp, "solve_maxmin", counted)
    return seen


@pytest.fixture(scope="module")
def torus11():
    return gen_torus(TorusParams(dim=2, side=8, perturb=True, seed=11))


def test_run_local_solves_each_distinct_ball_lp_once(torus11, monkeypatch):
    # 64 agents, each solving its own ball B(u, 2) once in the first round;
    # the second round only averages what its members hand over
    seen = _counting_solver(monkeypatch)
    run_local(torus11, LocalAveraging(2))
    assert len(seen) == 64
    assert len(set(seen)) == 64


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_walk_per_ball_and_one_instance_per_distinct_ball_lp(torus11, monkeypatch):
    # each of the two rounds extracts every agent's radius-2 view once, one
    # walk each: 2 * 64.  Only the 64 ball LPs of the first round build an
    # Instance
    views = _counting(monkeypatch, algorithms, "extract_view")
    walks = _counting(monkeypatch, hypergraph, "distances")
    builds = _counting(monkeypatch, Instance, "__init__")
    run_local(torus11, LocalAveraging(2))
    assert len(views) == 128
    assert len(walks) == 128
    assert len(builds) == 64


def _bits(values):
    return {v: x.hex() for v, x in values.items()}


@pytest.mark.parametrize("inst, R", [
    (gen_torus(TorusParams(dim=2, side=8, perturb=True, seed=11)), 2),
    (gen_torus(TorusParams(dim=2, side=8, perturb=True, seed=2)), 1),
    (gen_torus(TorusParams(dim=2, side=8)), 2),
    (gen_torus(TorusParams(dim=1, side=12, perturb=True, seed=5)), 2),
], ids=["torus8x8-seed11-R2", "torus8x8-seed2-R1", "torus8x8-uniform-R2", "ring12-seed5-R2"])
def test_run_local_matches_the_reference_bit_for_bit(inst, R):
    got = run_local(inst, LocalAveraging(R)).values
    assert _bits(got) == _bits(local_avg_reference.local_averaging(inst, R))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 2))
def test_run_local_matches_the_reference_on_random_instances(n_agents, max_support, seed, R):
    inst = gen_random(n_agents, max_support, seed=seed)
    got = run_local(inst, LocalAveraging(R)).values
    assert _bits(got) == _bits(local_avg_reference.local_averaging(inst, R))


def _ring(scale=1.0):
    inst = gen_torus(TorusParams(dim=1, side=10, perturb=True, seed=3))
    row = dict(inst.resources[0])
    row[min(row)] *= scale
    return Instance(inst.agents, {**inst.resources, 0: row}, inst.beneficiaries)


def _fresh(inst, monkeypatch):
    with monkeypatch.context() as m:
        seen = _counting_solver(m)
        values = run_local(inst, LocalAveraging(1)).values
    return values, len(seen)


def test_no_memo_survives_a_run(monkeypatch):
    # same agent ids, one coefficient apart: most balls of the two rings have
    # identical content, so ball optima kept from the first run would let the
    # second solve fewer LPs than a fresh run does
    a, b = _ring(), _ring(scale=0.75)
    assert a.agents == b.agents and a != b
    b_fresh, b_solves = _fresh(b, monkeypatch)
    run_local(a, LocalAveraging(1))
    assert _fresh(b, monkeypatch) == (b_fresh, b_solves)
    assert run_local(a, LocalAveraging(1)).values != b_fresh


def test_no_memo_survives_a_run_that_raised(monkeypatch):
    inst = _ring()
    expected = _fresh(inst, monkeypatch)
    real = lp.solve_maxmin
    calls = []

    def failing(sub):
        calls.append(sub)
        if len(calls) == 3:
            raise ArithmeticError("injected")
        return real(sub)

    with monkeypatch.context() as m:
        m.setattr(lp, "solve_maxmin", failing)
        with pytest.raises(LocalAlgorithmError, match="injected"):
            run_local(inst, LocalAveraging(1))
    assert _fresh(inst, monkeypatch) == expected


class _Clobbering(LocalAveraging):
    """A second round that tries to zero every member's ball optimum before
    averaging as usual."""

    def average(self, view, prior):
        for _, optimum in prior.values():
            with contextlib.suppress(TypeError):
                for w in optimum:
                    optimum[w] = 0.0
        return super().average(view, prior)


def test_editing_a_members_ball_optimum_does_not_reach_other_agents():
    # with writable optima the first agent would zero what every later
    # agent averages
    inst = _ring()
    assert run_local(inst, _Clobbering(1)).values == run_local(inst, LocalAveraging(1)).values


def test_failing_ball_lp_names_agent_ball_and_radius(monkeypatch):
    # the solver is made to fail on the LP of one ball; the error must name
    # that ball's centre, its radius and its size
    inst = gen_torus(TorusParams(dim=2, side=8, perturb=True, seed=2))
    doomed = tuple(sorted(oracles.ball(inst, 32, 2)))
    real = lp.solve_maxmin

    def failing(sub):
        if sub.agents == doomed:
            raise ArithmeticError("simplex returned an infeasible point")
        return real(sub)

    monkeypatch.setattr(lp, "solve_maxmin", failing)
    with pytest.raises(LocalAlgorithmError) as info:
        run_local(inst, LocalAveraging(2))
    assert isinstance(info.value.__cause__, ArithmeticError)
    match = re.fullmatch(
        r"LP of the ball around u=(\d+) with R=2 \((\d+) agents\) failed: (.*)",
        str(info.value),
    )
    assert match, str(info.value)
    assert (int(match.group(1)), int(match.group(2))) == (32, len(doomed))
    assert match.group(3) == str(info.value.__cause__)
    assert "infeasible point" in match.group(3)
    # the named ball is the one that fails, solved from its centre's view
    with pytest.raises(LocalAlgorithmError) as again:
        local_lp_solution(extract_view(inst, 32, 2))
    assert str(again.value) == str(info.value)
