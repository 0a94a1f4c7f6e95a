import math
from fractions import Fraction

import pytest

import oracles
from maxminlp import lp
from maxminlp.evaluation import (
    EvaluationReport,
    benefits,
    evaluate,
    feasibility,
    objective,
    write_reports_csv,
)
from maxminlp.generators import TorusParams, gen_random, gen_torus
from maxminlp.hypergraph import growth_factor, hypergraph
from maxminlp.model import Assignment, Instance


def pair():
    return Instance((0, 1), {0: {0: 1.0, 1: 2.0}}, {1: {0: 3.0, 1: 1.0}})


def test_feasibility_reports_worst_overshoot():
    ok, worst = feasibility(pair(), Assignment({0: 0.5, 1: 0.25}))
    assert ok
    assert worst == pytest.approx(0.0)
    ok, worst = feasibility(pair(), Assignment({0: 1.0, 1: 0.25}))
    assert not ok
    assert worst == pytest.approx(0.5)


def test_feasibility_rejects_negative_activity():
    ok, _ = feasibility(pair(), Assignment({0: -0.1, 1: 0.0}))
    assert not ok
    # within tolerance it slides
    ok, _ = feasibility(pair(), Assignment({0: -1e-12, 1: 0.0}))
    assert ok


def test_domain_mismatch_raises():
    with pytest.raises(ValueError, match="domain"):
        feasibility(pair(), Assignment({0: 0.0}))
    with pytest.raises(ValueError, match="domain"):
        benefits(pair(), Assignment({0: 0.0, 1: 0.0, 2: 0.0}))


def test_benefits_and_objective_exact():
    got = benefits(pair(), Assignment({0: 0.5, 1: 0.25}))
    assert got == {1: 3.0 * 0.5 + 0.25}
    assert objective(pair(), Assignment({0: 0.5, 1: 0.25})) == got[1]
    with pytest.raises(ValueError, match="empty K"):
        objective(Instance((0,), {0: {0: 1.0}}, {}), Assignment({0: 0.0}))


def _no_oracle(*_):
    raise AssertionError("the exact oracle must not run")


def test_ratio_branches():
    inst = pair()
    # capacity x0 + 2 x1 <= 1 allows x = (1, 0) with benefit 3, the optimum
    report = evaluate(inst, Assignment({0: 0.5, 1: 0.0}))
    assert report.omega_star == pytest.approx(3.0)
    assert report.ratio == pytest.approx(2.0)
    assert report.notes == ()
    report = evaluate(inst, Assignment({0: 0.0, 1: 0.0}))
    assert report.ratio == math.inf
    assert report.notes == ("achieved objective is zero: ratio unbounded",)
    allzero = Instance((0,), {0: {0: 1.0}}, {1: {0: 1e-18}})
    # both sides vanish at double precision: treated as attained
    report = evaluate(allzero, Assignment({0: 0.0}))
    assert report.omega == 0.0
    assert report.omega_star == 0.0
    assert report.ratio == 1.0
    assert report.notes == ()


def test_ratio_refuses_oversized_instances(monkeypatch):
    monkeypatch.setattr(lp, "solve_maxmin", _no_oracle)
    inst = gen_random(12, 3, seed=0)
    report = evaluate(inst, Assignment({v: 0.0 for v in inst.agents}), oracle_cap=5)
    assert report.omega_star is None
    assert report.ratio is None
    assert report.notes == ("oracle unavailable: 12 agents exceed the cap of 5",)


def test_evaluate_full_report():
    inst = gen_torus(TorusParams(dim=1, side=6))
    x = Assignment({v: 0.25 for v in inst.agents})
    report = evaluate(inst, x, R=1)
    assert report.feasible
    assert report.omega == pytest.approx(0.5)
    assert report.omega_star == pytest.approx(1.0, abs=1e-9)
    assert report.ratio == pytest.approx(2.0, abs=1e-9)
    assert report.certificate == float(growth_factor(inst, 0) * growth_factor(inst, 1))
    assert report.to_dict()["ratio"] == report.ratio


def test_evaluate_respects_oracle_cap():
    inst = gen_torus(TorusParams(dim=2, side=4))
    x = Assignment({v: 0.0 for v in inst.agents})
    report = evaluate(inst, x, oracle_cap=3)
    assert report.omega_star is None
    assert report.ratio is None
    assert any("oracle unavailable" in note for note in report.notes)


def test_evaluate_serialises_unbounded_ratio():
    inst = pair()
    report = evaluate(inst, Assignment({0: 0.0, 1: 0.0}))
    assert report.ratio == math.inf
    assert report.to_dict()["ratio"] == "unbounded"
    assert report.notes == ("achieved objective is zero: ratio unbounded",)


def test_evaluate_names_a_negative_objective():
    # the note used to call omega = -0.4 zero
    report = evaluate(pair(), Assignment({0: -0.2, 1: 0.2}))
    assert report.omega == pytest.approx(-0.4)
    assert report.ratio == math.inf
    assert report.notes == ("achieved objective is negative: ratio unbounded",)


def test_evaluate_rejects_nonpositive_radius(monkeypatch):
    # refused before any work: the exact oracle never starts
    monkeypatch.setattr(lp, "solve_maxmin", _no_oracle)
    with pytest.raises(ValueError, match="R >= 1"):
        evaluate(pair(), Assignment({0: 0.0, 1: 0.0}), R=0)


def test_evaluate_rejects_a_negative_oracle_cap(monkeypatch):
    # refused before any work: the exact oracle never starts
    monkeypatch.setattr(lp, "solve_maxmin", _no_oracle)
    with pytest.raises(ValueError, match="oracle cap must be at least 0"):
        evaluate(pair(), Assignment({0: 0.0, 1: 0.0}), oracle_cap=-3)


def test_csv_report_golden(tmp_path):
    report = EvaluationReport(
        feasible=True,
        max_violation=-0.25,
        omega=0.5,
        omega_star=1.0,
        ratio=2.0,
        certificate=5.0,
        benefits={0: 0.5},
    )
    path = tmp_path / "out.csv"
    write_reports_csv(path, [("toy.json", "safe", report)])
    assert path.read_bytes() == (
        b"instance,algorithm,feasible,max_violation,omega,omega_star,ratio,certificate\r\n"
        b"toy.json,safe,True,-0.25,0.5,1.0,2.0,5.0\r\n"
    )


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
    assert not oracles.incidence_is_forest(gen_torus(TorusParams(dim=1, side=4)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("R", [1, 2])
def test_locality_profile_matches_independent_balls(seed, R):
    # the reference profile against statistics rebuilt from the package's balls
    inst = gen_random(10, 3, seed=seed)
    profile = oracles.locality_profile(inst, R)
    H = hypergraph(inst)
    balls = {v: H.ball(v, R) for v in inst.agents}
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
