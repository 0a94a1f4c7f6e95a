import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maxminlp import lp
from maxminlp.generators import gen_random, gen_torus
from maxminlp.lp import assemble_maxmin_lp, solve_maxmin
from maxminlp.model import Instance


def test_assemble_epigraph_layout():
    inst = Instance(
        agents=(4, 7),
        resources={0: {4: 1.0, 7: 2.0}},
        beneficiaries={1: {4: 3.0}, 2: {7: 0.5}},
    )
    prog = assemble_maxmin_lp(inst)
    # column 0 is omega, then x4 and x7; rows are resource 0, then
    # beneficiaries 1 and 2
    assert prog.n_columns == 3
    assert prog.rhs.tolist() == [1.0, 0.0, 0.0]
    r, c, a = prog.entries
    assert list(zip(r.tolist(), c.tolist(), a.tolist())) == [
        (0, 1, 1.0), (0, 2, 2.0), (1, 0, 1.0), (1, 1, -3.0), (2, 0, 1.0), (2, 2, -0.5),
    ]
    # the tableau the solver starts from and every rebuild reloads: the
    # constraint rows and right-hand sides, then the objective (maximise omega)
    tableau = np.empty((len(prog.rhs) + 1, prog.n_columns + 1))
    lp._load(tableau, prog)
    assert tableau.tolist() == [
        [0.0, 1.0, 2.0, 1.0],
        [1.0, -3.0, 0.0, 0.0],
        [1.0, 0.0, -0.5, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ]


def test_assemble_requires_a_beneficiary():
    inst = Instance((0,), {0: {0: 1.0}}, {})
    with pytest.raises(ValueError, match="empty K"):
        assemble_maxmin_lp(inst)


def test_unbounded_lp_detected():
    # agent 1 earns benefit but no resource caps it
    inst = Instance((0, 1), {0: {0: 1.0}}, {1: {0: 1.0, 1: 1.0}})
    with pytest.raises(ArithmeticError, match="unbounded"):
        solve_maxmin(inst)


def test_degenerate_ties_resolve_identically():
    # the last resource row caps the benefit row at 1 and every point of
    # x0 + x1 + x2 = 1 reaches it; entering x0 ties three rows at ratio 1.
    # Re-solving must replay the same path and return the same point
    res = {0: {0: 1.0, 1: 1.0}, 1: {1: 1.0, 2: 1.0}, 2: {0: 1.0, 2: 1.0}, 3: {0: 1.0, 1: 1.0, 2: 1.0}}
    inst = Instance((0, 1, 2), res, {4: {0: 1.0, 1: 1.0, 2: 1.0}})
    first = solve_maxmin(inst)
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    for _ in range(3):
        again = solve_maxmin(inst)
        assert again[0] == first[0]
        assert again[1] == first[1]


def two_agent():
    return Instance((0, 1), {0: {0: 1.0, 1: 1.0}}, {1: {0: 1.0, 1: 1.0}})


def hexagon():
    # six agents around a ring, resources pairing them one way and benefit
    # rows the other way
    res = {0: {0: 1.0, 1: 1.0}, 1: {2: 1.0, 3: 1.0}, 2: {4: 1.0, 5: 1.0}}
    ben = {3: {1: 1.0, 2: 1.0}, 4: {3: 1.0, 4: 1.0}, 5: {5: 1.0, 0: 1.0}}
    return Instance(tuple(range(6)), res, ben)


def test_maxmin_on_shared_pair():
    x, omega = solve_maxmin(two_agent())
    assert omega == pytest.approx(1.0, abs=1e-9)
    assert sum(x.values()) == pytest.approx(1.0, abs=1e-9)


def test_maxmin_on_hexagon_ring():
    # every agent shares its resource with one neighbour and its benefit row
    # with the other, so activity 1/2 everywhere is feasible and the three
    # packing rows cap total activity at 3, forcing some benefit row to 1
    x, omega = solve_maxmin(hexagon())
    assert omega == pytest.approx(1.0, abs=1e-9)
    assert omega == pytest.approx(oracles.linprog_maxmin(hexagon()), abs=1e-7)


def test_maxmin_rejects_empty_beneficiaries():
    with pytest.raises(ValueError, match="empty K"):
        solve_maxmin(Instance((0,), {0: {0: 1.0}}, {}))


def test_maxmin_names_a_row_agent_the_instance_lacks():
    # never validated, so the assembly is the first to meet agent 5
    with pytest.raises(ValueError, match="^resource 0 references unknown agent 5$"):
        solve_maxmin(Instance((0,), {0: {0: 1.0, 5: 1.0}}, {1: {0: 1.0}}))


@pytest.mark.parametrize("seed", range(30))
def test_maxmin_matches_reference_solver(seed):
    inst = gen_random(4 + seed % 9, 3, seed=seed)
    x, omega = solve_maxmin(inst)
    assert omega == pytest.approx(oracles.linprog_maxmin(inst), abs=1e-7)
    # and the reported point actually earns the reported objective
    for row in inst.resources.values():
        assert sum(a * x[v] for v, a in row.items()) <= 1.0 + 1e-9
    worst = min(
        sum(c * x[v] for v, c in row.items())
        for row in inst.beneficiaries.values()
    )
    assert worst == pytest.approx(omega, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6))
def test_optimum_matches_highs_on_small_random_instances(n_agents, max_support, seed):
    inst = gen_random(n_agents, max_support, seed=seed)
    _, omega = solve_maxmin(inst)
    assert abs(omega - oracles.linprog_maxmin(inst)) <= 1e-9


@pytest.mark.parametrize("dim, side", [(1, 4), (1, 6), (2, 3), (2, 4)])
def test_uniform_torus_optimum_is_one(dim, side):
    x, omega = solve_maxmin(gen_torus(dim=dim, side=side))
    assert omega == pytest.approx(1.0, abs=1e-9)


def test_benefit_scaling_scales_the_optimum_exactly():
    inst = gen_random(8, 3, seed=5)
    _, omega = solve_maxmin(inst)
    scaled = Instance(
        inst.agents,
        inst.resources,
        {k: {v: 4.0 * c for v, c in row.items()} for k, row in inst.beneficiaries.items()},
    )
    _, omega4 = solve_maxmin(scaled)
    # scaling by a power of two shifts exponents only: equality is exact
    assert omega4 == 4.0 * omega


@pytest.mark.parametrize("seed", range(10))
def test_resolve_is_bit_identical(seed):
    inst = gen_random(10, 3, seed=seed)
    a1, o1 = solve_maxmin(inst)
    a2, o2 = solve_maxmin(inst)
    assert o1 == o2
    assert a1 == a2


def test_omega_never_negative():
    # beneficiary coefficients tiny, resources tight: optimum near zero but
    # the reported value must not dip below it
    inst = Instance((0,), {0: {0: 1.0}}, {1: {0: 1e-9}})
    _, omega = solve_maxmin(inst)
    assert omega >= 0.0


def _refusal(message):
    match = re.search(
        r"on (\d+) rows and (\d+) columns after (\d+) pivots; "
        r"last primal residual (\S+)$",
        message,
    )
    assert match, message
    return tuple(int(g) for g in match.groups()[:3]) + (float(match.group(4)),)


def _size(inst):
    return len(inst.resources) + len(inst.beneficiaries), 1 + len(inst.agents)


def test_pivot_budget_is_a_function_of_the_program_size(monkeypatch):
    # the uniform 10x10 torus needs 370 pivots on 200 rows and 101 columns;
    # a factor of 1 allows rows + columns = 301, and the refusal comes as
    # soon as they are spent
    inst = gen_torus(dim=2, side=10)
    rows, columns = _size(inst)
    assert solve_maxmin(inst)[1] == pytest.approx(1.0, abs=1e-9)
    monkeypatch.setattr(lp, "_PIVOT_BUDGET_FACTOR", 1)
    with pytest.raises(ArithmeticError, match=f"exhausted its budget of {rows + columns} pivots") as info:
        solve_maxmin(inst)
    *counts, residual = _refusal(str(info.value))
    assert counts == [rows, columns, rows + columns]
    assert 0.0 <= residual < 1e-9


def test_singular_basis_at_a_rebuild_is_refused(monkeypatch):
    # no entry passes a partial-pivot threshold above every coefficient, so
    # the first rebuild must refuse instead of pivoting on noise
    inst = gen_random(12, 3, seed=1)
    monkeypatch.setattr(lp, "SINGULAR_TOL", 1e9)
    with pytest.raises(ArithmeticError, match="singular basis at a rebuild") as info:
        solve_maxmin(inst)
    rows, columns, pivots, _ = _refusal(str(info.value))
    assert (rows, columns) == _size(inst)
    assert 0 < pivots <= rows


def test_an_infeasible_final_point_is_refused(monkeypatch):
    # every basis the simplex reaches from the slack basis is feasible, so a
    # run that stops after one exchange skipping the ratio test stands in for
    # a drifted one: x = 1 fits resource 0 but loads resource 1 to 2
    inst = Instance((0,), {0: {0: 1.0}, 1: {0: 2.0}}, {2: {0: 1.0}})

    def stops_early(self):
        self.exchange(0, 1)

    monkeypatch.setattr(lp._Solve, "run", stops_early)
    with pytest.raises(ArithmeticError, match="returned an infeasible point") as info:
        solve_maxmin(inst)
    assert _refusal(str(info.value))[:3] == (3, 2, 0)


def test_rebuilds_run_every_m_pivots_and_depend_on_the_basis_alone():
    prog = assemble_maxmin_lp(_torus(10, 3))
    m = len(prog.rhs)
    solve = lp._Solve(prog)
    rebuild = solve.rebuild
    at = []

    def counted():
        at.append(solve.pivots)
        rebuild()

    solve.rebuild = counted
    solve.run()
    # at least one rebuild per m pivots, and the last one after the last pivot
    assert all(0 < b - a <= m for a, b in zip([0] + at, at))
    assert at[-1] == solve.pivots
    # a rebuild wipes whatever drift the tableau carries: the result is a
    # function of the basis, and its basic point satisfies the rows
    final, basis = solve.T.copy(), solve.basis.copy()
    solve.T += 1e-9
    rebuild()
    assert np.array_equal(solve.T, final)
    assert np.array_equal(solve.basis, basis)
    solve.measure_residual()
    assert solve.residual < 1e-12


def _torus(side, seed):
    return gen_torus(dim=2, side=side, perturb=True, seed=seed)


AGREEMENT_CASES = {
    **{f"torus{side}x{side}-seed{seed}": (side, seed) for side, seed in (
        (8, 2), (10, 3), (11, 2), (12, 0), (13, 2), (14, 0), (14, 1)
    )},
    "uniform14x14": (14, None),
    **{f"random200-seed{seed}": (200, seed) for seed in range(4)},
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_optimum_agrees_with_a_tight_reference_within_budget(case):
    # tori up to the oracle cap that the drifting Bland simplex got wrong or
    # took minutes on; each must solve within 20 s and agree to 1e-9
    size, seed = AGREEMENT_CASES[case]
    if case.startswith("random"):
        inst = gen_random(size, 3, seed=seed)
    elif seed is None:
        inst = gen_torus(dim=2, side=size)
    else:
        inst = _torus(size, seed)
    start = time.perf_counter()
    x, omega = solve_maxmin(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.1f}s, budget 20s"
    assert omega == pytest.approx(oracles.exact_maxmin(inst), abs=1e-9)
    for row in inst.resources.values():
        assert sum(a * x[v] for v, a in row.items()) <= 1.0 + 1e-9
    worst = min(
        sum(c * x[v] for v, c in row.items())
        for row in inst.beneficiaries.values()
    )
    assert worst == pytest.approx(omega, abs=1e-9)
