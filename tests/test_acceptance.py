"""Release gate: one test per shipping criterion.

Every test prints a single ``ACCEPTANCE n PASS`` line (visible with -s or
in the -v test listing) and enforces its wall-clock budget where one is
stated.  Quantities on the right-hand side of each guarantee are recomputed
through independent code paths, the brute-force helpers in oracles.py
(growth factors, and the ball statistics in ``oracles.locality_profile``),
never read back from the algorithm under test.
"""
import random
import time

import local_avg_reference
import oracles
from cli_child import cli
from maxminlp.algorithms import (
    LocalAveraging,
    SafeAlgorithm,
    local_lp_solution,
    run_local,
)
from maxminlp.evaluation import (
    benefits,
    feasibility,
    objective,
)
from maxminlp.generators import gen_random, gen_torus
from maxminlp.hypergraph import extract_view
from maxminlp.lowerbound import (
    build_adversarial_instance,
    build_hypertree,
    select_hard_subinstance,
    parity_solution,
)
from maxminlp.lp import solve_maxmin
from maxminlp.model import Instance


def test_criterion_1_hypertree_level_sizes():
    t0 = time.monotonic()
    levels = build_hypertree(2, 3, 5)
    sizes = [len(level) for level in levels]
    assert sizes == [1, 2, 6, 12, 36, 72]
    assert len(levels[-1]) == 72
    assert all(isinstance(v, int) for level in levels for v in level)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    print("ACCEPTANCE 1 PASS: hypertree(2,3,5) levels 1,2,6,12,36,72 "
          f"with 72 leaves in {elapsed:.2f}s")


def test_criterion_2_safe_guarantee_on_random_instances():
    t0 = time.monotonic()
    for seed in range(100):
        inst = gen_random(n_agents=3 + seed % 10, max_support=3, seed=seed)
        x = run_local(inst, SafeAlgorithm())
        feasible, worst = feasibility(inst, x)
        assert feasible, f"seed {seed}: overload {worst}"
        _, omega_star = solve_maxmin(inst)
        delta_vi, _, _, _ = oracles.degree_maxima(inst)
        assert objective(inst, x) >= omega_star / delta_vi - 1e-9, f"seed {seed}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    print("ACCEPTANCE 2 PASS: safe output feasible and within the "
          f"resource-support factor on 100 instances in {elapsed:.2f}s")


def test_criterion_3_averaging_guarantee():
    t0 = time.monotonic()
    cases = [gen_random(n_agents=3 + seed % 10, max_support=3, seed=seed)
             for seed in range(50)]
    cases.append(gen_torus(dim=2, side=8, perturb=True, seed=11))
    for idx, inst in enumerate(cases):
        _, omega_star = solve_maxmin(inst)
        for R in (1, 2):
            x = run_local(inst, LocalAveraging(R))
            feasible, worst = feasibility(inst, x)
            assert feasible, f"case {idx} R={R}: overload {worst}"
            ratio = oracles.growth(inst, R - 1) * oracles.growth(inst, R)
            assert objective(inst, x) >= omega_star / float(ratio) - 1e-9, (
                f"case {idx} R={R}")
            profile = oracles.locality_profile(inst, R)
            got = benefits(inst, x)
            for k, (m_k, M_k) in profile.per_beneficiary.items():
                floor = profile.beta * (m_k / M_k) * omega_star
                assert got[k] >= floor - 1e-9, f"case {idx} R={R} row {k}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    print("ACCEPTANCE 3 PASS: averaging meets the growth-factor bound and "
          f"the per-row ball bound on 51 instances x R in (1, 2) in {elapsed:.2f}s")


def test_criterion_4_uniform_torus_exactness():
    t0 = time.monotonic()
    inst = gen_torus(dim=2, side=8)
    _, omega_star = solve_maxmin(inst)
    assert abs(omega_star - 1.0) <= 1e-9
    x = run_local(inst, SafeAlgorithm())
    assert objective(inst, x) == 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print("ACCEPTANCE 4 PASS: unperturbed 8x8 torus has optimum 1 and safe "
          f"attains exactly 1.0 in {elapsed:.2f}s")


def test_criterion_5_adversarial_structural_suite():
    t0 = time.monotonic()
    d, D, r, R = 2, 1, 1, 2
    algorithm = SafeAlgorithm()
    full, meta = build_adversarial_instance(d, D, r, R, seed=0)
    x_full = run_local(full, algorithm)
    sub, p, delta = select_hard_subinstance(full, meta, x_full)
    levels = meta.tree_levels[p]

    assert abs(sum(delta.values())) <= 1e-9
    assert oracles.incidence_is_forest(sub)

    parity = parity_solution(sub, levels[0][0])
    feasible, worst = feasibility(sub, parity)
    assert feasible and worst <= 0.0 and min(parity.values()) >= 0.0
    for row in list(sub.resources.values()) + list(sub.beneficiaries.values()):
        assert sum(coeff * parity[v] for v, coeff in row.items()) == 1.0

    x_sub = run_local(sub, algorithm)
    for v in meta.tree_agents(p):
        assert extract_view(full, v, r) == extract_view(sub, v, r)
        assert x_full[v] == x_sub[v]

    sums = [sum(x_sub[v] for v in level) for level in levels]
    assert len(sums) == 2 * R
    for j in range(R):
        assert sums[2 * j] + sums[2 * j + 1] <= (d * D) ** j + 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    print("ACCEPTANCE 5 PASS: cancellation, acyclic carve, exact parity "
          "rows, matching tree views and outputs, level sums within caps "
          f"in {elapsed:.2f}s")


def test_criterion_6_simplex_vs_grid_search():
    t0 = time.monotonic()
    for seed in range(20):
        inst = gen_random(n_agents=1 + seed % 3, max_support=2,
                          coeff_range=(0.5, 1.0), seed=seed)
        _, omega = solve_maxmin(inst)
        gridded = oracles.grid_search_maxmin(inst, step=1e-2)
        assert abs(omega - gridded) <= 2e-2, f"seed {seed}: {omega} vs {gridded}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    print("ACCEPTANCE 6 PASS: simplex optimum within 2e-2 of an exhaustive "
          f"grid search on 20 instances in {elapsed:.2f}s")


def test_criterion_7_determinism(tmp_path):
    t0 = time.monotonic()

    def rerun_bytes(args, out_name, cwd):
        blobs = []
        for _ in range(2):
            proc = cli(*args, cwd=cwd)
            assert proc.returncode == 0, proc.stderr
            blobs.append((cwd / out_name).read_bytes())
        assert blobs[0] == blobs[1], f"{args[0]} output changed between runs"
        return blobs[0]

    rerun_bytes(["gen-torus", "--dim", "2", "--side", "4", "--perturb",
                 "--seed", "7", "-o", "inst.json"], "inst.json", tmp_path)
    rerun_bytes(["gen-random", "--agents", "9", "--seed", "5",
                 "-o", "rand.json"], "rand.json", tmp_path)
    rerun_bytes(["solve", "inst.json", "-o", "sol.json"], "sol.json", tmp_path)
    run_blob = rerun_bytes(["run", "inst.json", "--algorithm", "local-avg",
                            "--radius", "1", "-o", "x.json"], "x.json", tmp_path)
    rerun_bytes(["adversary", "--algorithm", "safe", "-d", "2", "-D", "1",
                 "-r", "1", "-R", "2", "--seed", "0", "-o", "adv.json"],
                "adv.json", tmp_path)

    # moving the instance elsewhere must not leak into the output
    moved_dir = tmp_path / "moved"
    moved_dir.mkdir()
    (moved_dir / "renamed.json").write_bytes((tmp_path / "inst.json").read_bytes())
    assert rerun_bytes(["run", "renamed.json", "--algorithm", "local-avg",
                        "--radius", "1", "-o", "x.json"], "x.json",
                       moved_dir) == run_blob

    # the centre's ball LP, from its own view, is bit-identical to the one
    # the test reference clips from the instance's raw rows
    inst = gen_torus(dim=2, side=8, perturb=True, seed=3)
    R = 1
    centre = 0
    ball = oracles.ball(inst, centre, R)
    assert len(ball) >= 3
    solution = local_lp_solution(extract_view(inst, centre, R))
    assert solution == local_avg_reference.ball_lp(inst, ball)
    elapsed = time.monotonic() - t0
    print("ACCEPTANCE 7 PASS: byte-identical reruns for five commands, "
          "location-independent outputs, and local solutions that match "
          f"the raw-row reference in {elapsed:.2f}s")


def _mutate_outside(inst, protected, seed):
    rng = random.Random(seed)

    def rework(mapping):
        return {
            ident: {
                v: (c if v in protected else c * rng.uniform(0.1, 3.0))
                for v, c in row.items()
            }
            for ident, row in mapping.items()
        }

    return Instance(inst.agents, rework(inst.resources), rework(inst.beneficiaries))


def test_criterion_8_locality_under_remote_mutation():
    t0 = time.monotonic()
    nontrivial = {"safe": 0, "local-avg[R=1]": 0}
    for seed in range(20):
        inst = gen_random(n_agents=14 + seed % 7, max_support=2, seed=200 + seed)
        v = inst.agents[seed % len(inst.agents)]
        for algorithm in (SafeAlgorithm(), LocalAveraging(1)):
            protected = oracles.ball(inst, v, algorithm.horizon + 1)
            mutated = _mutate_outside(inst, protected, seed)
            if mutated != inst:
                nontrivial[algorithm.name] += 1
            before = run_local(inst, algorithm)[v]
            after = run_local(mutated, algorithm)[v]
            assert before == after, f"seed {seed}, {algorithm.name}"
    # the sample must actually exercise remote mutations for both algorithms
    assert min(nontrivial.values()) >= 5, nontrivial
    elapsed = time.monotonic() - t0
    print("ACCEPTANCE 8 PASS: coefficients beyond the horizon never change "
          f"a decision (20 instance/agent pairs) in {elapsed:.2f}s")
