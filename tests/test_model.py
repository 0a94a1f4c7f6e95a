import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maxminlp import algorithms
from maxminlp.generators import gen_random
from maxminlp.model import (
    Assignment,
    Instance,
    InvalidInstanceError,
    assignment_from_dict,
    assignment_to_dict,
    dump_json,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    restrict,
    save_instance,
    validate,
)


def chain():
    # 0-1 share a resource, 1-2 a beneficiary, 2-3 a resource, plus unit
    # caps so every agent is covered
    return Instance(
        agents=(0, 1, 2, 3),
        resources={0: {0: 1.0, 1: 2.0}, 1: {2: 0.5, 3: 1.0}, 2: {2: 1.0}},
        beneficiaries={10: {1: 1.0, 2: 3.0}, 11: {0: 2.0}, 12: {3: 1.0}},
    )


def test_construction_canonicalises_order():
    inst = Instance(
        agents=(3, 0, 2, 1),
        resources={1: {3: 1.0, 2: 0.5}, 0: {1: 2.0, 0: 1.0}, 2: {2: 1.0}},
        beneficiaries={12: {3: 1.0}, 10: {2: 3.0, 1: 1.0}, 11: {0: 2.0}},
    )
    assert inst.agents == (0, 1, 2, 3)
    assert list(inst.resources) == [0, 1, 2]
    assert list(inst.resources[0]) == [0, 1]
    assert list(inst.beneficiaries) == [10, 11, 12]
    assert inst == chain()


def test_participation_maps():
    inst = chain()
    assert inst.agent_resources() == {0: (0,), 1: (0,), 2: (1, 2), 3: (1,)}
    assert inst.agent_beneficiaries() == {0: (11,), 1: (10,), 2: (10,), 3: (12,)}


def test_validate_clean_instance_and_its_degree_maxima():
    assert validate(chain()) == ()
    # (delta_VI, delta_VK, delta_IV, delta_KV)
    assert oracles.degree_maxima(chain()) == (2, 2, 2, 1)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["agents"].append(2), "duplicate id"),
        (lambda d: d["agents"].append(-1), "nonnegative integers"),
        (lambda d: d["resources"].update({10: {0: 1.0}}), "both a resource and a beneficiary"),
        (lambda d: d["resources"].update({5: {}}), "empty support"),
        (lambda d: d["resources"].update({5: {9: 1.0}}), "unknown agent 9"),
        (lambda d: d["resources"][0].update({1: 0.0}), "nonpositive coefficient"),
        (lambda d: d["resources"][0].update({1: float("nan")}), "non-finite coefficient"),
        (lambda d: d["beneficiaries"][10].update({1: -2.0}), "nonpositive coefficient"),
    ],
)
def test_validate_flags_each_defect(mutate, fragment):
    base = chain()
    parts = {
        "agents": list(base.agents),
        "resources": {i: dict(r) for i, r in base.resources.items()},
        "beneficiaries": {k: dict(r) for k, r in base.beneficiaries.items()},
    }
    mutate(parts)
    violations = validate(Instance(tuple(parts["agents"]), parts["resources"], parts["beneficiaries"]))
    assert violations
    assert any(fragment in line for line in violations), violations


def test_validate_flags_uncovered_agent():
    inst = Instance((0, 1), {0: {0: 1.0}}, {1: {1: 1.0}})
    assert any("empty I_v" in line for line in validate(inst))


def test_restrict_strict_keeps_fully_inside_rows():
    sub = restrict(chain(), {0, 1})
    assert sub.agents == (0, 1)
    assert sub.resources == {0: {0: 1.0, 1: 2.0}}
    # beneficiary 10 leaks to agent 2, so only the singleton survives
    assert sub.beneficiaries == {11: {0: 2.0}}


def test_restrict_rejects_bad_agent_sets():
    with pytest.raises(ValueError):
        restrict(chain(), set())
    with pytest.raises(ValueError):
        restrict(chain(), {0, 99})


def test_instance_json_round_trip(tmp_path):
    inst = chain()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst
    # a second save is byte-identical
    first = path.read_bytes()
    save_instance(inst, path)
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6))
def test_random_instances_survive_save_load_save_byte_for_byte(n_agents, max_support, seed):
    inst = gen_random(n_agents, max_support, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        save_instance(inst, first)
        loaded = load_instance(first)
        save_instance(loaded, second)
        assert loaded == inst
        assert second.read_bytes() == first.read_bytes()


def test_instance_json_tolerates_extra_top_level_keys(tmp_path):
    inst = chain()
    path = tmp_path / "inst.json"
    save_instance(inst, path, extra={"config": {"command": "gen-torus", "seed": 3}})
    payload = json.loads(path.read_text())
    assert payload["config"]["seed"] == 3
    assert load_instance(path) == inst


def two_agents(resources=None, beneficiaries=None):
    return {
        "agents": [0, 1],
        "resources": resources or [{"id": 0, "coeffs": {"0": 1.0, "1": 1.0}}],
        "beneficiaries": beneficiaries or [{"id": 5, "coeffs": {"0": 1.0}}],
    }


# ids and coefficients that int() or float() would have truncated or coerced
COERCED = [
    ({**two_agents(), "agents": [0, 1.9]}, "agent 1.9 is not an integer"),
    ({**two_agents(), "agents": [0, True]}, "agent True is not an integer"),
    (two_agents(resources=[{"id": 5.5, "coeffs": {"0": 1.0, "1": 1.0}}]),
     "resource id 5.5 is not an integer"),
    (two_agents(beneficiaries=[{"id": False, "coeffs": {"0": 1.0}}]),
     "beneficiary id False is not an integer"),
    (two_agents(resources=[{"id": 0, "coeffs": {"0": 1.0, "1": True}}]),
     "resource 0: True for agent 1 is not a number"),
]


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"agents": [0], "resources": []},
        {"agents": [0], "resources": [{"id": 0}], "beneficiaries": []},
        {"agents": [0], "resources": [{"id": 0, "coeffs": {"x": 1.0}}], "beneficiaries": []},
        {"agents": "zero", "resources": [], "beneficiaries": []},
        *(payload for payload, _ in COERCED),
    ],
)
def test_instance_from_dict_rejects_malformed(payload):
    with pytest.raises(ValueError):
        instance_from_dict(payload)


@pytest.mark.parametrize("payload, fragment", COERCED)
def test_instance_from_dict_names_a_coerced_id_or_coefficient(payload, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        instance_from_dict(payload)


def test_instance_dict_shape():
    payload = instance_to_dict(chain())
    assert payload["agents"] == [0, 1, 2, 3]
    assert payload["resources"][0] == {"id": 0, "coeffs": {"0": 1.0, "1": 2.0}}
    assert instance_from_dict(payload) == chain()


def test_assignment_round_trip(tmp_path):
    a = Assignment({0: 0.125, 3: 1.5})
    payload = assignment_to_dict(a)
    assert payload == {"values": {"0": 0.125, "3": 1.5}}
    assert assignment_from_dict(payload).values == a.values
    path = tmp_path / "a.json"
    dump_json(payload, path)
    assert assignment_from_dict(json.loads(path.read_text())).values == a.values


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 10**9), st.floats(allow_nan=False, allow_infinity=False)))
def test_assignments_round_trip_bit_for_bit(values):
    payload = assignment_to_dict(Assignment(values))
    for back in (payload, json.loads(json.dumps(payload))):
        got = assignment_from_dict(back).values
        # hex, so that -0.0 and 0.0 count as different
        assert {v: x.hex() for v, x in got.items()} == {v: x.hex() for v, x in values.items()}


def test_assignment_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        assignment_from_dict({"values": {"a": 1.0}})
    with pytest.raises(ValueError, match="values: True for agent 0 is not a number"):
        assignment_from_dict({"values": {"0": True}})
    with pytest.raises(ValueError):
        assignment_from_dict({})


@pytest.mark.parametrize("value", ["NaN", float("nan"), float("inf"), "-Infinity"])
def test_assignment_from_dict_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="agent 3 has the non-finite value"):
        assignment_from_dict({"values": {"0": 0.5, "3": value}})


def test_assignment_from_dict_keeps_negative_values():
    # a negative activity is a defect of the assignment that feasibility
    # reports, not a malformed file
    assert assignment_from_dict({"values": {"0": -0.5}}).values == {0: -0.5}


def test_load_instance_refuses_an_instance_that_fails_validation(tmp_path):
    path = tmp_path / "bad.json"
    payload = instance_to_dict(chain())
    payload["agents"].append(0)
    path.write_text(json.dumps(payload))
    with pytest.raises(InvalidInstanceError) as info:
        load_instance(path)
    assert info.value.violations == ["agent 0: duplicate id"]
    # the executor's refusal is the same class, wherever it is imported from
    assert algorithms.InvalidInstanceError is InvalidInstanceError


@pytest.mark.parametrize(
    "payload, fragment",
    [
        # the last row used to win, dropping agent 0's coverage silently
        (two_agents(resources=[{"id": 0, "coeffs": {"0": 1.0}},
                               {"id": 0, "coeffs": {"1": 1.0}}]),
         "duplicate resource id 0"),
        (two_agents(beneficiaries=[{"id": 5, "coeffs": {"0": 1.0}},
                                   {"id": 5, "coeffs": {"1": 2.0}}]),
         "duplicate beneficiary id 5"),
        (two_agents(resources=[{"id": 0, "coeffs": {"0": 1.0, "00": 0.5, "1": 1.0}}]),
         "resource 0: keys '0' and '00' both name agent 0"),
        (two_agents(beneficiaries=[{"id": 5, "coeffs": {"1": 1.0, "+1": 2.0}}]),
         "beneficiary 5: keys '1' and '+1' both name agent 1"),
    ],
)
def test_instance_from_dict_rejects_duplicates(payload, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        instance_from_dict(payload)


def test_assignment_from_dict_rejects_keys_naming_one_agent():
    with pytest.raises(ValueError, match="keys '3' and '03' both name agent 3"):
        assignment_from_dict({"values": {"3": 1.0, "03": 0.5}})


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"agents": [0], "agents": [0, 1], "resources": [], "beneficiaries": []}',
         "agents"),
        ('{"agents": [0], "resources": [{"id": 0, "coeffs": {"0": 1.0, "0": 2.0}}],'
         ' "beneficiaries": []}', "0"),
    ],
)
def test_load_json_rejects_duplicate_object_keys(tmp_path, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"duplicate JSON object key '{key}'"):
        load_instance(path)
