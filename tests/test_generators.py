import math

import pytest

import oracles
from maxminlp.generators import gen_random, gen_torus
from maxminlp.lp import solve_maxmin
from maxminlp.model import validate


@pytest.mark.parametrize("dim, side", [(1, 3), (1, 5), (2, 3), (2, 4), (3, 3)])
def test_torus_shape_and_bounds(dim, side):
    inst = gen_torus(dim=dim, side=side)
    cells = side**dim
    assert len(inst.agents) == cells
    assert len(inst.resources) == cells
    assert len(inst.beneficiaries) == cells
    assert validate(inst) == ()
    assert oracles.degree_maxima(inst) == (dim + 1,) * 4


def test_torus_unperturbed_is_all_ones():
    inst = gen_torus(dim=2, side=4)
    for row in list(inst.resources.values()) + list(inst.beneficiaries.values()):
        assert set(row.values()) == {1.0}


def test_torus_rows_pair_opposite_neighbours():
    inst = gen_torus(dim=1, side=5)
    # capacity row of cell z spans {z, z+1}, benefit row spans {z, z-1}
    assert inst.resources[2] == {2: 1.0, 3: 1.0}
    assert inst.resources[4] == {0: 1.0, 4: 1.0}
    assert inst.beneficiaries[5 + 2] == {1: 1.0, 2: 1.0}
    assert inst.beneficiaries[5 + 0] == {0: 1.0, 4: 1.0}


def test_torus_perturbation_is_seeded_and_ranged():
    a = gen_torus(dim=2, side=4, perturb=True, seed=9)
    b = gen_torus(dim=2, side=4, perturb=True, seed=9)
    c = gen_torus(dim=2, side=4, perturb=True, seed=10)
    assert a == b
    assert a != c
    coeffs = [x for row in a.resources.values() for x in row.values()]
    coeffs += [x for row in a.beneficiaries.values() for x in row.values()]
    assert all(0.5 <= x <= 1.0 for x in coeffs)
    assert len(set(coeffs)) > 10  # actually perturbed


def test_torus_parameter_validation():
    with pytest.raises(ValueError):
        gen_torus(dim=0, side=4)
    with pytest.raises(ValueError):
        gen_torus(dim=2, side=2)


@pytest.mark.parametrize("dim, side", [(1, 5), (2, 3)])
def test_torus_unperturbed_optimum_is_one(dim, side):
    _, omega = solve_maxmin(gen_torus(dim=dim, side=side))
    assert omega == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_random_instances_validate(seed):
    inst = gen_random(3 + seed % 10, 3, seed=seed)
    violations = validate(inst)
    assert not violations, violations


def test_random_is_deterministic_per_seed():
    assert gen_random(10, 3, seed=4) == gen_random(10, 3, seed=4)
    assert gen_random(10, 3, seed=4) != gen_random(10, 3, seed=5)


def test_random_row_ids_do_not_collide():
    inst = gen_random(12, 4, seed=8)
    assert not set(inst.resources) & set(inst.beneficiaries)
    assert min(inst.beneficiaries) >= len(inst.resources)


@pytest.mark.parametrize("seed", range(10))
def test_random_respects_support_and_coefficient_limits(seed):
    inst = gen_random(9, 2, coeff_range=(0.5, 1.0), seed=seed)
    for row in list(inst.resources.values()) + list(inst.beneficiaries.values()):
        assert 1 <= len(row) <= 2
        assert all(0.5 <= x <= 1.0 for x in row.values())


def test_random_patches_every_uncovered_agent():
    # small support counts leave agents out of the drawn rows; each such
    # agent must end up with a private unit capacity
    for seed in range(30):
        inst = gen_random(10, 1, seed=seed)
        assert validate(inst) == ()


def test_random_argument_validation():
    with pytest.raises(ValueError):
        gen_random(0, 2)
    with pytest.raises(ValueError):
        gen_random(5, 0)
    with pytest.raises(ValueError):
        gen_random(5, 2, coeff_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        gen_random(5, 2, coeff_range=(2.0, 1.0))
    for coeff_range in ((0.5, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            gen_random(5, 2, coeff_range=coeff_range)
