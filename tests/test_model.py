import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from maxminlp import algorithms
from maxminlp.generators import gen_random, gen_torus
from maxminlp.hypergraph import ball, incidence
from maxminlp.model import (
    Instance,
    InvalidInstanceError,
    assignment_from_dict,
    assignment_to_dict,
    dump_json,
    instance_from_dict,
    load_instance,
    load_json,
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


def test_a_row_in_canonical_order_becomes_the_instances_own():
    packing, benefit = {0: 1.0, 2: 0.5}, {1: 2.0}
    inst = Instance((0, 1, 2), {3: packing}, {4: benefit})
    assert inst.resources[3] is packing
    assert inst.beneficiaries[4] is benefit


class _DictRow(dict):
    pass


def _unordered():
    row = {2: 0.5, 0: 1.0}
    return row, row


def _dict_subclass():
    row = _DictRow({0: 1.0, 2: 0.5})
    return row, row


def _read_only_view():
    backing = {0: 1.0, 2: 0.5}
    return MappingProxyType(backing), backing


@pytest.mark.parametrize("make", [_unordered, _dict_subclass, _read_only_view])
def test_any_other_row_is_copied_into_a_sorted_plain_dict(make):
    # (row, the dict a caller can still change it through)
    row, backing = make()
    inst = Instance((0, 2), {0: row}, {1: {0: 1.0}})
    held = inst.resources[0]
    assert type(held) is dict and held is not row
    assert list(held.items()) == [(0, 1.0), (2, 0.5)]
    backing[1] = 9.0
    assert list(held.items()) == [(0, 1.0), (2, 0.5)]


@pytest.mark.parametrize("row", [{0: 1.0, "a": 1.0}, {"a": 1.0, 0: 1.0}])
def test_a_row_whose_keys_cannot_be_compared_is_refused(row):
    with pytest.raises(TypeError):
        Instance((0,), {0: row}, {})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 4), st.integers(0, 10**6), st.randoms(use_true_random=False))
def test_shuffled_rows_build_the_instance_canonical_rows_build(n_agents, max_support, seed, rnd):
    # gen_random hands over canonical rows; shuffled copies must be sorted back
    canonical = gen_random(n_agents, max_support, seed=seed)

    def shuffled(rows):
        ids = list(rows)
        rnd.shuffle(ids)
        out = {}
        for rid in ids:
            items = list(rows[rid].items())
            rnd.shuffle(items)
            out[rid] = dict(items)
        return out

    agents = list(canonical.agents)
    rnd.shuffle(agents)
    inst = Instance(agents, shuffled(canonical.resources), shuffled(canonical.beneficiaries))
    assert inst == canonical
    assert inst.agents == canonical.agents
    for mine, theirs in [(inst.resources, canonical.resources),
                         (inst.beneficiaries, canonical.beneficiaries)]:
        assert list(mine) == list(theirs)
        assert [list(row.items()) for row in mine.values()] == [
            list(row.items()) for row in theirs.values()
        ]


def test_an_instance_equals_no_other_type():
    inst = chain()
    assert inst.__eq__(5) is NotImplemented
    assert inst != 5


def test_repr_rebuilds_an_equal_instance_in_the_same_order():
    inst = gen_random(8, 3, seed=2)
    back = eval(repr(inst), {"Instance": Instance})
    assert back == inst
    for mine, theirs in ((back.resources, inst.resources),
                         (back.beneficiaries, inst.beneficiaries)):
        assert [(i, list(row.items())) for i, row in mine.items()] == [
            (i, list(row.items())) for i, row in theirs.items()
        ]


def test_rows_of_lists_resource_ids_then_beneficiary_ids():
    inst = chain()
    assert inst.rows_of == {0: (0, 11), 1: (0, 10), 2: (1, 2, 10), 3: (1, 12)}
    assert inst.rows_of is inst.rows_of


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
        (lambda d: d["resources"][0].update({1: -float("inf")}),
         "resource 0: non-finite coefficient for agent 1"),
        (lambda d: d["resources"][0].update({1: "2"}),
         "resource 0: '2' for agent 1 is not a number"),
        (lambda d: d["resources"][0].update({1: True}),
         "resource 0: True for agent 1 is not a number"),
        (lambda d: d["agents"].append(True), "agent True: ids must be nonnegative integers"),
        (lambda d: d["resources"].update({5: {True: 1.0}}), "resource 5: unknown agent True"),
        # 1.0 == 1, and saved as "1.0" it is a key no file reader takes
        (lambda d: d["resources"].update({5: {1.0: 1.0}}), "resource 5: unknown agent 1.0"),
        (lambda d: d["beneficiaries"][10].update({1: -2.0}), "nonpositive coefficient"),
        # too large for a float, which math.isfinite raises on
        (lambda d: d["resources"][0].update({1: 10**400}),
         "resource 0: non-finite coefficient for agent 1"),
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


def test_validate_refuses_an_instance_without_agents():
    assert validate(Instance((), {}, {})) == ("instance has no agents",)


def test_validate_refuses_booleans_that_would_pass_for_one():
    assert validate(Instance((True,), {0: {True: 1.0}}, {1: {True: True}})) == (
        "agent True: ids must be nonnegative integers",
        "resource 0: unknown agent True",
        "beneficiary 1: unknown agent True",
        "beneficiary 1: True for agent True is not a number",
    )


def test_validate_refuses_row_ids_that_are_not_integers(tmp_path):
    # saved, 'a' and True would be written as no JSON value and 1.5 as an id
    # no reader takes
    assert validate(Instance((0,), {"a": {0: 1.0}}, {1.5: {0: 1.0}})) == (
        "resource 'a': ids must be integers",
        "beneficiary 1.5: ids must be integers",
    )
    assert validate(Instance((0,), {True: {0: 1.0}}, {2: {0: 1.0}})) == (
        "resource True: ids must be integers",
    )
    inst = Instance((0,), {0: {0: 1.0}}, {1: {0: 1.0}})
    assert validate(inst) == ()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_validate_flags_uncovered_agent():
    inst = Instance((0, 1), {0: {0: 1.0}}, {1: {1: 1.0}})
    assert validate(inst) == ("agent 1: no resource covers it (empty I_v)",)


def test_validate_flags_an_agent_held_only_by_a_beneficiary_sharing_a_resource_id():
    # agent 1's first row id, 5, names a resource too, but that resource holds agent 0 only
    inst = Instance((0, 1), {5: {0: 1.0}}, {5: {1: 1.0}})
    assert inst.rows_of == {0: (5,), 1: (5,)}
    assert validate(inst) == (
        "id 5: used for both a resource and a beneficiary",
        "agent 1: no resource covers it (empty I_v)",
    )


def test_restrict_strict_keeps_fully_inside_rows():
    sub = restrict(chain(), {0, 1})
    assert sub.agents == (0, 1)
    assert sub.resources == {0: {0: 1.0, 1: 2.0}}
    # beneficiary 10 leaks to agent 2, so only the singleton survives
    assert sub.beneficiaries == {11: {0: 2.0}}


def test_restrict_gives_the_carve_the_parents_own_rows():
    inst = chain()
    sub = restrict(inst, {0, 1, 2})
    assert list(sub.resources) == [0, 2] and list(sub.beneficiaries) == [10, 11]
    assert all(sub.resources[i] is inst.resources[i] for i in sub.resources)
    assert all(sub.beneficiaries[k] is inst.beneficiaries[k] for k in sub.beneficiaries)


def test_restrict_rejects_bad_agent_sets():
    with pytest.raises(ValueError, match="agent_set must be nonempty"):
        restrict(chain(), set())
    with pytest.raises(ValueError, match=re.escape("agent_set contains unknown agents: [99]")):
        restrict(chain(), {0, 99})


def test_validate_lists_shared_row_ids_in_ascending_order():
    inst = Instance((0,), {7: {0: 1.0}, 3: {0: 1.0}, 5: {0: 1.0}}, {7: {0: 1.0}, 3: {0: 1.0}})
    assert validate(inst) == (
        "id 3: used for both a resource and a beneficiary",
        "id 7: used for both a resource and a beneficiary",
    )


def test_validate_flags_a_repeated_id_once_per_extra_copy():
    inst = Instance((2, 0, 2, 1, 2), {0: {0: 1.0, 1: 1.0, 2: 1.0}}, {1: {0: 1.0}})
    assert validate(inst) == ("agent 2: duplicate id", "agent 2: duplicate id")


def _traced(call):
    """``call()``, the bytes still allocated when it returns, and its traced peak."""
    tracemalloc.start()
    try:
        got = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, kept, peak


def _torus_and_one_agent_set():
    inst = gen_torus(dim=2, side=60, perturb=True, seed=0)
    _, one_set, _ = _traced(lambda: set(inst.agents))
    return inst, one_set


def test_restrict_builds_no_agent_keyed_scratch():
    inst, one_set = _torus_and_one_agent_set()
    keep = ball(incidence(inst), 0, 2)
    sub, kept, peak = _traced(lambda: restrict(inst, keep))
    assert sub.agents == tuple(sorted(keep))
    assert peak - kept < one_set, (peak, kept, one_set)


def test_validate_builds_no_agent_keyed_scratch():
    inst, one_set = _torus_and_one_agent_set()
    validate(inst)  # builds and keeps the incidence map, as loading does
    inst._violations = None
    violations, kept, peak = _traced(lambda: validate(inst))
    assert violations == ()
    assert peak - kept < one_set, (peak, kept, one_set)


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
    save_instance(inst, path, config={"command": "gen-torus", "seed": 3})
    payload = json.loads(path.read_text())
    assert payload["config"]["seed"] == 3
    assert load_instance(path) == inst


# ids of 1 to 5 digits, so that string order ("10" < "9") is not numeric order
IDS = st.integers(0, 99_999)
# st.floats() draws NaN, both infinities and -0.0; save_instance does not validate
COEFFS = st.one_of(st.floats(), st.integers(-(10**18), 10**18))
ROWS = st.dictionaries(IDS, st.dictionaries(IDS, COEFFS, max_size=6), max_size=4)
STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["é", "naïve ünïcode", 'say "hi"', "two\nlines", "back\\slash", "😀"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from([-0.0, 1e16]), STRINGS
)
CONFIGS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(IDS, max_size=8), ROWS, ROWS, st.one_of(st.none(), CONFIGS))
@example([9, 10], {0: {9: 1.0, 10: 2}}, {}, None)
@example([], {}, {3: {}}, {"seed": -0.0, "note": 'é"\n', "big": 1e16})
def test_save_instance_writes_what_json_dumps_writes(agents, resources, beneficiaries, config):
    inst = Instance(agents, resources, beneficiaries)
    payload = oracles.instance_to_dict(inst)
    if config is not None:
        payload["config"] = config
    want = json.dumps(payload, indent=2, sort_keys=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "inst.json")
        save_instance(inst, path, config)
        assert path.read_text() == want + "\n"


def test_save_instance_never_holds_the_file_text(tmp_path):
    inst = gen_torus(dim=2, side=60, perturb=True, seed=0)
    path = tmp_path / "torus.json"
    _, kept, peak = _traced(lambda: save_instance(inst, path))
    size = path.stat().st_size
    # each row goes to the file as it is rendered: the scratch is a row, not the text
    assert peak - kept < size / 2, (peak - kept, size)


def two_agents(resources=None, beneficiaries=None):
    return {
        "agents": [0, 1],
        "resources": resources or [{"id": 0, "coeffs": {"0": 1.0, "1": 1.0}}],
        "beneficiaries": beneficiaries or [{"id": 5, "coeffs": {"0": 1.0}}],
    }


# ids and coefficients that int() or float() would have truncated or coerced,
# strings that float() would have parsed among them
COERCED = [
    ({**two_agents(), "agents": [0, 1.9]}, "agent 1.9 is not an integer"),
    ({**two_agents(), "agents": [0, True]}, "agent True is not an integer"),
    (two_agents(resources=[{"id": 5.5, "coeffs": {"0": 1.0, "1": 1.0}}]),
     "resource id 5.5 is not an integer"),
    (two_agents(beneficiaries=[{"id": False, "coeffs": {"0": 1.0}}]),
     "beneficiary id False is not an integer"),
    (two_agents(resources=[{"id": 0, "coeffs": {"0": 1.0, "1": True}}]),
     "resource 0: True for agent 1 is not a number"),
    (two_agents(resources=[{"id": 3, "coeffs": {"0": 1.0, "1": "2"}}]),
     "resource 3: '2' for agent 1 is not a number"),
    (two_agents(beneficiaries=[{"id": 5, "coeffs": {"0": "1e0"}}]),
     "beneficiary 5: '1e0' for agent 0 is not a number"),
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
    payload = oracles.instance_to_dict(chain())
    assert payload["agents"] == [0, 1, 2, 3]
    assert payload["resources"][0] == {"id": 0, "coeffs": {"0": 1.0, "1": 2.0}}
    assert instance_from_dict(payload) == chain()


def test_assignment_round_trip(tmp_path):
    a = {0: 0.125, 3: 1.5}
    payload = assignment_to_dict(a)
    assert payload == {"values": {"0": 0.125, "3": 1.5}}
    assert assignment_from_dict(payload) == a
    path = tmp_path / "a.json"
    dump_json(payload, path)
    assert assignment_from_dict(json.loads(path.read_text())) == a


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 10**9), st.floats(allow_nan=False, allow_infinity=False)))
def test_assignments_round_trip_bit_for_bit(values):
    payload = assignment_to_dict(values)
    for back in (payload, json.loads(json.dumps(payload))):
        got = assignment_from_dict(back)
        # hex, so that -0.0 and 0.0 count as different
        assert {v: x.hex() for v, x in got.items()} == {v: x.hex() for v, x in values.items()}


def test_assignment_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        assignment_from_dict({"values": {"a": 1.0}})
    with pytest.raises(ValueError, match="values: True for agent 0 is not a number"):
        assignment_from_dict({"values": {"0": True}})
    with pytest.raises(ValueError):
        assignment_from_dict({})


@pytest.mark.parametrize("value, refusal", [
    pytest.param(float("nan"), "agent 3 has the non-finite value nan", id="nan"),
    pytest.param(float("inf"), "agent 3 has the non-finite value inf", id="inf"),
    # a value must be a JSON number: a string is refused before float() can
    # read "NaN" as nan, or the last three as 3.0, 1000.0 and 1.0
    pytest.param("NaN", "values: 'NaN' for agent 3 is not a number", id="NaN"),
    pytest.param("-Infinity", "values: '-Infinity' for agent 3 is not a number",
                 id="-Infinity"),
    pytest.param("\u0663", "values: '\u0663' for agent 3 is not a number",
                 id="arabic-indic-three"),
    pytest.param("1_000", "values: '1_000' for agent 3 is not a number", id="1_000"),
    pytest.param(" 1 ", "values: ' 1 ' for agent 3 is not a number", id="spaced-1"),
])
def test_assignment_from_dict_rejects_non_finite_values(value, refusal):
    with pytest.raises(ValueError) as info:
        assignment_from_dict({"values": {"0": 0.5, "3": value}})
    assert str(info.value) == f"malformed assignment payload: {refusal}"


def test_assignment_from_dict_keeps_negative_values():
    # a negative activity is a defect of the assignment that feasibility
    # reports, not a malformed file
    assert assignment_from_dict({"values": {"0": -0.5}}) == {0: -0.5}


def test_load_instance_refuses_an_instance_that_fails_validation(tmp_path):
    path = tmp_path / "bad.json"
    payload = oracles.instance_to_dict(chain())
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
        (two_agents(beneficiaries=[{"id": 5, "coeffs": {"1": 1.0, "01": 2.0}}]),
         "beneficiary 5: keys '1' and '01' both name agent 1"),
    ],
)
def test_instance_from_dict_rejects_duplicates(payload, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        instance_from_dict(payload)


# keys that int() reads but no writer spells: an underscore, surrounding
# space, a plus sign, non-ASCII digits; and keys that are no integer at all
@pytest.mark.parametrize("key", ["1_0", " 0", "0 ", "+0", "\u0661\u0660", "", "-", "--1", "1.0"])
def test_agent_keys_are_ascii_digits_with_an_optional_minus(key):
    payload = two_agents(resources=[{"id": 0, "coeffs": {"0": 1.0, "1": 1.0, key: 1.0}}])
    with pytest.raises(ValueError, match=re.escape(f"resource 0: key {key!r} is not an agent id")):
        instance_from_dict(payload)
    with pytest.raises(ValueError, match=re.escape(f"values: key {key!r} is not an agent id")):
        assignment_from_dict({"values": {"0": 0.5, key: 0.5}})


def test_a_negative_agent_key_is_read_for_validation_to_refuse():
    assert assignment_from_dict({"values": {"-1": 0.5}}) == {-1: 0.5}
    instance = instance_from_dict(two_agents(resources=[{"id": 0, "coeffs": {"-1": 1.0}}]))
    assert "resource 0: unknown agent -1" in validate(instance)


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


@pytest.mark.parametrize("data, fault", [
    (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"values": {"0": -' + b"9" * 4301 + b"}}",
     "an integer of 4301 digits, above the limit of 4300"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["syntax", "long-integer", "not-utf-8"])
def test_load_json_names_a_file_that_is_not_json(tmp_path, data, fault):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as refusal:
        load_json(path)
    assert str(refusal.value) == f"{path}: {fault}"
    # an integer at the limit is read exactly
    path.write_text("[" + "9" * 4300 + "]")
    assert load_json(path) == [10**4300 - 1]
