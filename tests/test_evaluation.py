import json
import tracemalloc
from fractions import Fraction

import pytest

import oracles
from maxminlp import hypergraph, lp
from maxminlp.cli import main
from maxminlp.evaluation import (
    benefits,
    evaluate,
    exact_sums,
    feasibility,
    objective,
    write_report_csv,
)
from maxminlp.generators import gen_random, gen_torus
from maxminlp.hypergraph import ball, growth_factor, incidence
from maxminlp.model import (
    Instance,
    assignment_to_dict,
    dump_json,
    save_instance,
    validate,
)


def pair():
    return Instance((0, 1), {0: {0: 1.0, 1: 2.0}}, {1: {0: 3.0, 1: 1.0}})


def test_feasibility_reports_worst_overshoot():
    ok, worst = feasibility(pair(), {0: 0.5, 1: 0.25})
    assert ok
    assert worst == pytest.approx(0.0)
    ok, worst = feasibility(pair(), {0: 1.0, 1: 0.25})
    assert not ok
    assert worst == pytest.approx(0.5)


def test_feasibility_rejects_negative_activity():
    ok, _ = feasibility(pair(), {0: -0.1, 1: 0.0})
    assert not ok
    # within tolerance it slides
    ok, _ = feasibility(pair(), {0: -1e-12, 1: 0.0})
    assert ok


def test_evaluate_without_beneficiaries_leaves_the_objective_undefined():
    report = evaluate(Instance((0,), {0: {0: 1.0}}, {}), {0: 0.5})
    assert report["omega"] is None
    assert report["ratio"] is None
    assert "no beneficiaries: objective undefined" in report["notes"]


def test_domain_mismatch_raises():
    with pytest.raises(ValueError, match="domain"):
        feasibility(pair(), {0: 0.0})
    with pytest.raises(ValueError, match="domain"):
        benefits(pair(), {0: 0.0, 1: 0.0, 2: 0.0})
    with pytest.raises(ValueError, match="domain"):
        feasibility(pair(), {0: 0.0, 2: 0.0})


def test_domain_check_builds_no_agent_keyed_scratch():
    inst = gen_torus(dim=2, side=60, perturb=True, seed=0)
    x = {v: 0.1 for v in inst.agents}
    validate(inst)  # builds and caches the incidence map, as loading does
    tracemalloc.start()
    try:
        agent_set = set(inst.agents)
        one_set, _ = tracemalloc.get_traced_memory()
        del agent_set
        tracemalloc.reset_peak()
        ok, _ = feasibility(inst, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < one_set, (peak, one_set)
    # the check keeps set semantics: the order of the keys does not matter
    assert feasibility(inst, dict(reversed(x.items())))[0]


def test_objective_keeps_no_benefit_per_row():
    inst = gen_torus(dim=2, side=60, perturb=True, seed=0)
    x = {v: 0.1 for v in inst.agents}
    validate(inst)
    tracemalloc.start()
    try:
        got = benefits(inst, x)
        every_benefit, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        omega = objective(inst, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert omega == min(got.values())
    assert peak - every_benefit < every_benefit / 10, (peak, every_benefit)


def test_benefits_and_objective_exact():
    got = benefits(pair(), {0: 0.5, 1: 0.25})
    assert got == {1: 3.0 * 0.5 + 0.25}
    assert objective(pair(), {0: 0.5, 1: 0.25}) == got[1]
    with pytest.raises(ValueError, match="empty K"):
        objective(Instance((0,), {0: {0: 1.0}}, {}), {0: 0.0})


def test_exact_sums_are_exact_over_the_floats_held():
    # fl(0.1) + fl(0.2) rounds up to 0.30000000000000004 in floats
    rows = {3: {0: 0.1, 1: 0.2}, 1: {1: 1.0}}
    sums = exact_sums(rows, {0: 1.0, 1: 1.0})
    assert sums == [Fraction(0.1) + Fraction(0.2), 1]
    assert sums[0] < Fraction(0.1 + 0.2)


def _no_oracle(*_):
    raise AssertionError("the exact oracle must not run")


def test_ratio_branches():
    inst = pair()
    # capacity x0 + 2 x1 <= 1 allows x = (1, 0) with benefit 3, the optimum
    report = evaluate(inst, {0: 0.5, 1: 0.0})
    assert report["omega_star"] == pytest.approx(3.0)
    assert report["ratio"] == pytest.approx(2.0)
    assert report["notes"] == []
    report = evaluate(inst, {0: 0.0, 1: 0.0})
    assert report["ratio"] == "unbounded"
    assert report["notes"] == ["achieved objective is zero: ratio unbounded"]
    allzero = Instance((0,), {0: {0: 1.0}}, {1: {0: 1e-18}})
    # both sides vanish at double precision: treated as attained
    report = evaluate(allzero, {0: 0.0})
    assert report["omega"] == 0.0
    assert report["omega_star"] == 0.0
    assert report["ratio"] == 1.0
    assert report["notes"] == []


def test_ratio_refuses_oversized_instances(monkeypatch):
    monkeypatch.setattr(lp, "solve_maxmin", _no_oracle)
    inst = gen_random(12, 3, seed=0)
    report = evaluate(inst, {v: 0.0 for v in inst.agents}, oracle_cap=5)
    assert report["omega_star"] is None
    assert report["ratio"] is None
    assert report["notes"] == ["oracle unavailable: 12 agents exceed the cap of 5"]


def test_evaluate_full_report():
    inst = gen_torus(dim=1, side=6)
    x = {v: 0.25 for v in inst.agents}
    report = evaluate(inst, x, R=1)
    assert report["feasible"]
    assert report["omega"] == pytest.approx(0.5)
    assert report["omega_star"] == pytest.approx(1.0, abs=1e-9)
    assert report["ratio"] == pytest.approx(2.0, abs=1e-9)
    assert report["certificate"] == float(growth_factor(inst, 0) * growth_factor(inst, 1))


def test_evaluate_respects_oracle_cap():
    inst = gen_torus(dim=2, side=4)
    x = {v: 0.0 for v in inst.agents}
    report = evaluate(inst, x, oracle_cap=3)
    assert report["omega_star"] is None
    assert report["ratio"] is None
    assert any("oracle unavailable" in note for note in report["notes"])


def test_evaluate_serialises_unbounded_ratio():
    inst = pair()
    report = evaluate(inst, {0: 0.0, 1: 0.0})
    assert report["ratio"] == "unbounded"
    assert report["notes"] == ["achieved objective is zero: ratio unbounded"]


def test_evaluate_names_a_negative_objective():
    # the note used to call omega = -0.4 zero
    report = evaluate(pair(), {0: -0.2, 1: 0.2})
    assert report["omega"] == pytest.approx(-0.4)
    assert report["ratio"] == "unbounded"
    assert report["notes"] == [
        "negative activity: agent 0 has -0.2",
        "achieved objective is negative: ratio unbounded",
    ]


def test_evaluate_names_the_lowest_negative_activity():
    # max_violation covers rows only: every row has slack here, so the
    # figure alone never says why the assignment is infeasible
    torus = gen_torus(dim=1, side=4)
    x = dict.fromkeys(torus.agents, 0.0)
    first, second, third = torus.agents[:3]
    x[first], x[second], x[third] = -0.1, -0.4, -0.4
    report = evaluate(torus, x, oracle_cap=0)
    assert not report["feasible"]
    assert report["max_violation"] < 0
    assert report["notes"][0] == f"negative activity: agent {second} has -0.4"
    # within the feasibility tolerance there is nothing to name
    x = dict.fromkeys(torus.agents, 0.0)
    x[first] = -1e-12
    report = evaluate(torus, x, oracle_cap=0)
    assert report["feasible"]
    assert not any(note.startswith("negative activity") for note in report["notes"])


def test_evaluate_rejects_nonpositive_radius(monkeypatch):
    # refused before any work: the exact oracle never starts
    monkeypatch.setattr(lp, "solve_maxmin", _no_oracle)
    with pytest.raises(ValueError, match="R >= 1"):
        evaluate(pair(), {0: 0.0, 1: 0.0}, R=0)


def test_evaluate_rejects_a_negative_oracle_cap(monkeypatch):
    # refused before any work: the exact oracle never starts
    monkeypatch.setattr(lp, "solve_maxmin", _no_oracle)
    with pytest.raises(ValueError, match="oracle cap must be at least 0"):
        evaluate(pair(), {0: 0.0, 1: 0.0}, oracle_cap=-3)


def test_csv_report_golden(tmp_path):
    report = {
        "feasible": True,
        "max_violation": -0.25,
        "omega": 0.5,
        "omega_star": 1.0,
        "ratio": 2.0,
        "certificate": 5.0,
        "benefits": {"0": 0.5},
        "notes": [],
    }
    path = tmp_path / "out.csv"
    write_report_csv(path, "toy.json", "safe", report)
    assert path.read_bytes() == (
        b"instance,algorithm,feasible,max_violation,omega,omega_star,ratio,certificate\r\n"
        b"toy.json,safe,True,-0.25,0.5,1.0,2.0,5.0\r\n"
    )


def test_csv_report_writes_unbounded_and_empty_cells(tmp_path):
    report = evaluate(pair(), {0: 0.0, 1: 0.0})
    path = tmp_path / "out.csv"
    write_report_csv(path, "pair.json", "zero", report)
    assert path.read_bytes().splitlines()[1] == b"pair.json,zero,True,-1.0,0.0,3.0,unbounded,"


def test_csv_report_refuses_a_report_without_a_field(tmp_path):
    report = evaluate(pair(), {0: 0.0, 1: 0.0})
    del report["omega_star"]
    with pytest.raises(KeyError, match="omega_star"):
        write_report_csv(tmp_path / "out.csv", "pair.json", "zero", report)


def test_acyclicity_classification():
    path_inst = Instance(
        (0, 1, 2),
        {0: {0: 1.0, 1: 1.0}},
        {1: {1: 1.0, 2: 1.0}, 2: {0: 1.0}},
    )
    assert oracles.incidence_is_forest(path_inst)
    # two rows over the same pair close a cycle in the incidence structure
    looped = Instance((0, 1), {0: {0: 1.0, 1: 1.0}}, {1: {0: 1.0, 1: 1.0}})
    assert not oracles.incidence_is_forest(looped)
    assert not oracles.incidence_is_forest(gen_torus(dim=1, side=4))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("R", [1, 2])
def test_locality_profile_matches_independent_balls(seed, R):
    # the reference profile against statistics rebuilt from the package's balls
    inst = gen_random(10, 3, seed=seed)
    profile = oracles.locality_profile(inst, R)
    inc = incidence(inst)
    balls = {v: ball(inc, v, R) for v in inst.agents}
    beta = None
    for i, row in inst.resources.items():
        n_i = min(len(balls[v]) for v in row)
        union = set().union(*(balls[v] for v in row))
        assert profile.per_resource[i] == (n_i, len(union))
        frac = n_i / len(union)
        beta = frac if beta is None else min(beta, frac)
    assert profile.beta == beta
    for k, row in inst.beneficiaries.items():
        members = list(row)
        inter = set(balls[members[0]])
        for v in members[1:]:
            inter &= balls[v]
        assert profile.per_beneficiary[k] == (len(inter), max(len(balls[v]) for v in members))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("R", [1, 2])
def test_growth_certificate_dominates_profile_exactly(seed, R):
    # beta >= 1/gamma(R) and min m_k/M_k >= 1/gamma(R-1), both provable one
    # ball at a time, so the package's product certificate is never
    # optimistic; checked in exact rational arithmetic
    inst = gen_random(9, 3, seed=seed)
    profile = oracles.locality_profile(inst, R)
    beta = min(Fraction(n_i, N_i) for n_i, N_i in profile.per_resource.values())
    skew = min(Fraction(m_k, M_k) for m_k, M_k in profile.per_beneficiary.values())
    assert beta >= 1 / growth_factor(inst, R)
    assert skew >= 1 / growth_factor(inst, R - 1)
    assert beta * skew >= 1 / (growth_factor(inst, R - 1) * growth_factor(inst, R))


def test_the_certificate_walks_from_each_agent_once(tmp_path, monkeypatch):
    # gamma(R-1) and gamma(R) come from one walk to radius R + 1 per agent
    inst = gen_random(30, 3, seed=4)
    save_instance(inst, tmp_path / "inst.json")
    x = {v: 0.1 for v in inst.agents}
    dump_json(assignment_to_dict(x), tmp_path / "x.json")
    starts = []
    real = hypergraph.distances

    def counted(inc, start, limit=None):
        starts.append((start, limit))
        return real(inc, start, limit)

    monkeypatch.setattr(hypergraph, "distances", counted)
    out = tmp_path / "report.json"
    argv = ["eval", str(tmp_path / "inst.json"), str(tmp_path / "x.json"), "--radius", "2"]
    assert main([*argv, "-o", str(out)]) == 0
    assert starts == [(v, 3) for v in inst.agents]
    expected = float(oracles.growth(inst, 1) * oracles.growth(inst, 2))
    assert json.loads(out.read_text())["certificate"] == expected
