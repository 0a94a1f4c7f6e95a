"""Sparse max-min LP instances: data model, validation, restriction, JSON interchange.

An instance asks for nonnegative activities, one per agent, that maximise the
smallest beneficiary benefit subject to unit resource capacities:

    maximise   min_k  sum_v c_kv x_v
    subject to         sum_v a_iv x_v <= 1   for every resource i
                       x_v >= 0.

Rows are sparse maps ``agent id -> coefficient`` holding strictly positive
entries only; an absent key is a structural zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

@dataclass
class Instance:
    """One max-min allocation problem.

    ``agents`` is the sorted tuple of agent ids.  ``resources`` maps a
    resource id to its capacity row, ``beneficiaries`` maps a beneficiary id
    to its benefit row.  Construction canonicalises all orderings so that two
    equal instances iterate identically; treat instances as immutable after
    construction (derived structure is cached on first use).
    """

    agents: tuple
    resources: dict
    beneficiaries: dict

    def __post_init__(self):
        self.agents = tuple(sorted(self.agents))
        self.resources = {
            i: dict(sorted(row.items())) for i, row in sorted(self.resources.items())
        }
        self.beneficiaries = {
            k: dict(sorted(row.items())) for k, row in sorted(self.beneficiaries.items())
        }
        self._cache = {}

    def agent_resources(self):
        """Map agent -> ascending ids of the resource rows covering it."""
        return self._incidence("I_of", self.resources)

    def agent_beneficiaries(self):
        """Map agent -> ascending ids of the beneficiary rows drawing on it."""
        return self._incidence("K_of", self.beneficiaries)

    def _incidence(self, key, rows):
        got = self._cache.get(key)
        if got is None:
            acc = {v: [] for v in self.agents}
            for rid, row in rows.items():
                for v in row:
                    if v in acc:
                        acc[v].append(rid)
            got = {v: tuple(ids) for v, ids in acc.items()}
            self._cache[key] = got
        return got


def _check_rows(kind, rows, agent_set, violations):
    for rid, row in rows.items():
        if not row:
            violations.append(f"{kind} {rid}: empty support")
        for v, coeff in row.items():
            if v not in agent_set:
                violations.append(f"{kind} {rid}: unknown agent {v}")
            if not isinstance(coeff, (int, float)) or not math.isfinite(coeff):
                violations.append(f"{kind} {rid}: non-finite coefficient for agent {v}")
            elif coeff <= 0:
                violations.append(f"{kind} {rid}: nonpositive coefficient for agent {v}")


class InvalidInstanceError(ValueError):
    """An instance failed :func:`validate`; ``violations`` lists every defect."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("instance failed validation: " + "; ".join(violations[:5]))


def validate(instance):
    """Structural audit: a tuple with one line per defect, empty when valid.

    Never raises.  All downstream operations assume validity.  The tuple is
    cached on the instance like its derived maps, so an instance that is
    loaded and then run is audited once.
    """
    violations = instance._cache.get("validation")
    if violations is not None:
        return violations
    violations = []
    seen = set()
    for v in instance.agents:
        if not isinstance(v, int) or v < 0:
            violations.append(f"agent {v!r}: ids must be nonnegative integers")
        elif v in seen:
            violations.append(f"agent {v}: duplicate id")
        seen.add(v)
    overlap = set(instance.resources) & set(instance.beneficiaries)
    for rid in sorted(overlap):
        violations.append(f"id {rid}: used for both a resource and a beneficiary")
    agent_set = set(instance.agents)
    _check_rows("resource", instance.resources, agent_set, violations)
    _check_rows("beneficiary", instance.beneficiaries, agent_set, violations)
    for v, ids in instance.agent_resources().items():
        if not ids:
            violations.append(f"agent {v}: no resource covers it (empty I_v)")
    violations = tuple(violations)
    instance._cache["validation"] = violations
    return violations


def restrict(instance, agent_set):
    """Sub-instance induced on ``agent_set``: the rows whose support lies fully
    inside it.  Coefficients and ids are never rewritten.
    """
    kept = frozenset(agent_set)
    if not kept:
        raise ValueError("agent_set must be nonempty")
    unknown = kept - set(instance.agents)
    if unknown:
        raise ValueError(f"agent_set contains unknown agents: {sorted(unknown)[:5]}")

    def inside(mapping):
        return {rid: dict(row) for rid, row in mapping.items() if kept.issuperset(row)}

    return Instance(tuple(sorted(kept)), inside(instance.resources), inside(instance.beneficiaries))


@dataclass
class Assignment:
    """Activity levels keyed by agent id."""

    values: dict


# ---------------------------------------------------------------------------
# JSON interchange.  The on-disk shape is fixed: top-level keys "agents",
# "resources", "beneficiaries"; rows are {"id": int, "coeffs": {str: number}}.
# Readers ignore extra top-level keys, so embedded run configuration survives
# round trips.

def instance_to_dict(instance):
    def rows(mapping):
        return [
            {"id": rid, "coeffs": {str(v): float(c) for v, c in row.items()}}
            for rid, row in mapping.items()
        ]

    return {
        "agents": list(instance.agents),
        "resources": rows(instance.resources),
        "beneficiaries": rows(instance.beneficiaries),
    }


def _integer_id(value, what):
    """``value`` itself when it is an integer; anything else, a float or a
    boolean included, is refused rather than truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _by_agent(mapping, where):
    """``{int(key): float(value)}``, refusing two keys that name one agent
    and a boolean value."""
    out = {}
    keys = {}
    for key, value in mapping.items():
        v = int(key)
        if v in out:
            raise ValueError(
                f"{where}: keys {keys[v]!r} and {key!r} both name agent {v}"
            )
        if isinstance(value, bool):
            raise ValueError(f"{where}: {value!r} for agent {v} is not a number")
        keys[v] = key
        out[v] = float(value)
    return out


def _rows_from_list(entries, kind):
    rows = {}
    for entry in entries:
        rid = _integer_id(entry["id"], f"{kind} id")
        if rid in rows:
            raise ValueError(f"duplicate {kind} id {rid}")
        rows[rid] = _by_agent(entry["coeffs"], f"{kind} {rid}")
    return rows


def instance_from_dict(payload):
    """Inverse of :func:`instance_to_dict`.

    Two rows of one kind with the same id, or two coefficient keys that parse
    to the same agent (``"0"`` and ``"00"``), are rejected rather than letting
    the last one win.  An agent or row id must be a JSON integer and a
    coefficient must not be a boolean, so no id is truncated and no boolean
    is read as 1 or 0.
    """
    try:
        agents = tuple(_integer_id(v, "agent") for v in payload["agents"])
        resources = _rows_from_list(payload["resources"], "resource")
        beneficiaries = _rows_from_list(payload["beneficiaries"], "beneficiary")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed instance payload: {exc}") from exc
    return Instance(agents, resources, beneficiaries)


def dump_json(payload, path):
    """Canonical JSON writer: sorted keys, fixed indentation, trailing newline.

    Identical payloads serialize to identical bytes, which the command line
    relies on for reproducibility checks.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON object key {key!r}")
        obj[key] = value
    return obj


def load_json(path):
    """Parse a JSON file, rejecting any object that repeats a key."""
    return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)


def save_instance(instance, path, extra=None):
    payload = instance_to_dict(instance)
    if extra:
        payload.update(extra)
    dump_json(payload, path)


def load_instance(path):
    """Read an instance file, raising :class:`InvalidInstanceError` unless it validates."""
    instance = instance_from_dict(load_json(path))
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance


def assignment_to_dict(assignment):
    return {"values": {str(v): float(x) for v, x in sorted(assignment.values.items())}}


def assignment_from_dict(payload):
    try:
        values = _by_agent(payload["values"], "values")
        for v, x in values.items():
            if not math.isfinite(x):
                raise ValueError(f"agent {v} has the non-finite value {x!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed assignment payload: {exc}") from exc
    return Assignment(values)
