"""Sparse max-min LP instances: data model, validation, restriction, JSON interchange.

An instance asks for nonnegative activities, one per agent, that maximise the
smallest beneficiary benefit subject to unit resource capacities:

    maximise   min_k  sum_v c_kv x_v
    subject to         sum_v a_iv x_v <= 1   for every resource i
                       x_v >= 0.

Rows are sparse maps ``agent id -> coefficient`` holding strictly positive
entries only; an absent key is a structural zero.  An assignment, one
activity per agent, is a plain dict ``agent id -> float``.
"""

import functools
import itertools
import json
import math
import operator
import sys
from pathlib import Path


class Instance:
    """One max-min allocation problem.

    ``agents`` is the sorted tuple of agent ids.  ``resources`` maps a
    resource id to its capacity row, ``beneficiaries`` maps a beneficiary id
    to its benefit row.  Construction canonicalises all orderings so that two
    equal instances iterate identically; treat instances as immutable after
    construction.  Equality compares those three canonical fields.

    Two derived facts are kept, each worked out once on first use: the
    incidence map :attr:`rows_of`, a cached property, and the verdict of
    :func:`validate`, in ``_violations`` (``None`` until the first audit).

    Rows handed to ``Instance`` become its own: a row that is a plain dict
    with its agent keys in strictly ascending order is kept as that object,
    any other row is replaced by a sorted plain-dict copy.  Callers must not
    change a row after handing it over; instances may share rows, as
    :func:`restrict` does with its parent's.
    """

    def __init__(self, agents, resources, beneficiaries):
        self.agents = tuple(sorted(agents))
        self.resources = _canonical({i: _canonical(row) for i, row in resources.items()})
        self.beneficiaries = _canonical({k: _canonical(row) for k, row in beneficiaries.items()})
        self._violations = None

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.agents, self.resources, self.beneficiaries) == (
            other.agents, other.resources, other.beneficiaries
        )

    def __repr__(self):
        return (
            f"Instance(agents={self.agents!r}, resources={self.resources!r}, "
            f"beneficiaries={self.beneficiaries!r})"
        )

    @functools.cached_property
    def rows_of(self):
        """Map agent -> the ascending ids of the resource rows covering it,
        then the ascending ids of the beneficiary rows drawing on it, in one
        tuple."""
        rows_of = {v: [] for v in self.agents}
        for rows in (self.resources, self.beneficiaries):
            for rid, row in rows.items():
                for v in row:
                    mine = rows_of.get(v)
                    if mine is not None:
                        mine.append(rid)
        return {v: tuple(ids) for v, ids in rows_of.items()}


def _canonical(row):
    """``row`` itself when it is a plain dict whose keys strictly ascend,
    else a plain dict of its items in ascending key order.  Keys that cannot
    be compared raise ``TypeError`` either way."""
    if type(row) is dict and all(map(operator.lt, row, itertools.islice(row, 1, None))):
        return row
    return dict(sorted(row.items()))


def _check_rows(kind, rows, agent_set, violations):
    for rid, row in rows.items():
        # a float, string or boolean id is written as no id a reader takes
        if not isinstance(rid, int) or isinstance(rid, bool):
            violations.append(f"{kind} {rid!r}: ids must be integers")
        if not row:
            violations.append(f"{kind} {rid}: empty support")
        for v, coeff in row.items():
            # True == 1.0 == 1, so a boolean or a float would pass as agent 1
            if not isinstance(v, int) or isinstance(v, bool) or v not in agent_set:
                violations.append(f"{kind} {rid}: unknown agent {v}")
            if not isinstance(coeff, (int, float)) or isinstance(coeff, bool):
                violations.append(f"{kind} {rid}: {coeff!r} for agent {v} is not a number")
            # compared, not converted: an integer too large for a float is
            # refused here, where math.isfinite would raise
            elif not abs(coeff) <= sys.float_info.max:
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
    kept on the instance, so an instance that is loaded and then run is
    audited once.
    """
    if instance._violations is not None:
        return instance._violations
    # the incidence map is keyed by the agents and kept, so it serves as the
    # agent set; agents is sorted, so a repeated id follows its first copy
    rows_of = instance.rows_of
    violations = [] if instance.agents else ["instance has no agents"]
    previous = None
    for v in instance.agents:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            violations.append(f"agent {v!r}: ids must be nonnegative integers")
        elif v == previous:
            violations.append(f"agent {v}: duplicate id")
        previous = v
    overlap = instance.resources.keys() & instance.beneficiaries.keys()
    for rid in sorted(overlap):
        violations.append(f"id {rid}: used for both a resource and a beneficiary")
    _check_rows("resource", instance.resources, rows_of, violations)
    _check_rows("beneficiary", instance.beneficiaries, rows_of, violations)
    for v, ids in rows_of.items():
        # resource ids come first, so a covered agent's first id names a
        # resource row holding it; a beneficiary row may share that id
        if not ids or v not in instance.resources.get(ids[0], ()):
            violations.append(f"agent {v}: no resource covers it (empty I_v)")
    instance._violations = violations = tuple(violations)
    return violations


def restrict(instance, agent_set):
    """Sub-instance induced on ``agent_set``: the rows whose support lies fully
    inside it.  Coefficients and ids are never rewritten.
    """
    kept = frozenset(agent_set)
    if not kept:
        raise ValueError("agent_set must be nonempty")
    unknown = kept.difference(instance.agents)
    if unknown:
        raise ValueError(f"agent_set contains unknown agents: {sorted(unknown)[:5]}")

    def inside(mapping):
        # the parent's rows are canonical, so the carve keeps and shares them
        return {rid: row for rid, row in mapping.items() if kept.issuperset(row)}

    return Instance(tuple(sorted(kept)), inside(instance.resources), inside(instance.beneficiaries))


# ---------------------------------------------------------------------------
# JSON interchange.  The on-disk shape is fixed: top-level keys "agents",
# "resources", "beneficiaries"; rows are {"id": int, "coeffs": {str: number}}.
# Readers ignore extra top-level keys, so embedded run configuration survives
# round trips.  Every file is written as json.dumps(payload, indent=2,
# sort_keys=True) spells it, plus a trailing newline.

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _mistyped(where, expected, value):
    kind = _JSON_KINDS.get(type(value)) or f"a {type(value).__name__}"
    return ValueError(f"{where}: expected {expected}, not {kind}")


def _field(payload, key, where):
    """``payload[key]``, refusing a payload that is not an object or lacks ``key``."""
    if not isinstance(payload, dict):
        raise _mistyped(where, "an object", payload)
    if key not in payload:
        raise ValueError(f"{where}: missing key {key!r}")
    return payload[key]


def _top_list(payload, key):
    value = _field(payload, key, "top level")
    if not isinstance(value, list):
        raise _mistyped(key, "a list", value)
    return value


def _integer_id(value, what):
    """``value`` itself when it is an integer; anything else, a float or a
    boolean included, is refused rather than truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


def _by_agent(mapping, where):
    """``{int(key): float(value)}`` from a JSON object, refusing two keys that
    name one agent, a value that is not a JSON number and an integer too
    large for a float.  A key is ASCII
    digits with an optional leading ``-``, as the writers spell an id; ``int``
    alone would also read ``"1_0"``, ``" 0"``, ``"+0"`` and non-ASCII digits,
    and ``float`` would read a string value the same loose way."""
    if not isinstance(mapping, dict):
        raise _mistyped(where, "an object keyed by agent id", mapping)
    out = {}
    keys = {}
    for key, value in mapping.items():
        if not (isinstance(key, str) and key.isascii() and key.removeprefix("-").isdigit()):
            raise ValueError(f"{where}: key {key!r} is not an agent id")
        v = int(key)
        if v in out:
            raise ValueError(
                f"{where}: keys {keys[v]!r} and {key!r} both name agent {v}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: {value!r} for agent {v} is not a number")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"{where}: the integer for agent {v} is too large for a float")
        keys[v] = key
        out[v] = float(value)
    return out


def _rows_from_list(entries, kind):
    """Rows by id; every row must carry an integer ``id``, and a refusal names
    a row without one by its position in the list."""
    rows = {}
    for position, entry in enumerate(entries):
        rid = _integer_id(_field(entry, "id", f"{kind} at position {position}"), f"{kind} id")
        if rid in rows:
            raise ValueError(f"duplicate {kind} id {rid}")
        rows[rid] = _by_agent(_field(entry, "coeffs", f"{kind} {rid}"), f"{kind} {rid}")
    return rows


def instance_from_dict(payload):
    """The instance a parsed instance file holds (see :func:`save_instance`).

    Two rows of one kind with the same id, or two coefficient keys that parse
    to the same agent (``"0"`` and ``"00"``), are rejected rather than letting
    the last one win.  An agent or row id must be a JSON integer and a
    coefficient a JSON number, so no id is truncated, no boolean is read as
    1 or 0 and no string such as ``"2"`` is read as a number.  A refusal
    names the row, the key or the top level at fault.
    """
    try:
        agents = tuple(_integer_id(v, "agent") for v in _top_list(payload, "agents"))
        resources = _rows_from_list(_top_list(payload, "resources"), "resource")
        beneficiaries = _rows_from_list(_top_list(payload, "beneficiaries"), "beneficiary")
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


def _json_integer(text):
    # int alone refuses a long one with advice to raise a limit that only
    # the running program can raise
    digits = len(text) - text.startswith("-")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(f"an integer of {digits} digits, above the limit of {limit}")
    return int(text)


def load_json(path):
    """Parse a JSON file.  A file that is not JSON, repeats a key in an
    object or holds an integer too long to read is refused naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_integer)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _row_texts(mapping):
    """Each row of a row list as it sits one level down in an indented,
    key-sorted dump: ``{"coeffs": {...}, "id": n}``, with the agent keys in
    string order (``"10"`` before ``"9"``) and each coefficient passed
    through ``float``."""
    for rid, row in mapping.items():
        # the closing quote sorts below every digit and "-", so sorting the
        # entries sorts them by key
        entries = sorted([f'"{v}": {float(c)!r}' for v, c in row.items()])
        coeffs = ",\n        ".join(entries)
        if "n" in coeffs:
            # only nan, inf and -inf hold an n; json spells them its own way
            coeffs = (
                coeffs.replace(": nan", ": NaN")
                .replace(": inf", ": Infinity")
                .replace(": -inf", ": -Infinity")
            )
        coeffs = "{\n        " + coeffs + "\n      }" if entries else "{}"
        yield '{\n      "coeffs": %s,\n      "id": %s\n    }' % (coeffs, rid)


def _write_list(out, items):
    """Write a top-level list of rendered ``items``, one at a time."""
    opening = "[\n    "
    for item in items:
        out.write(opening + item)
        opening = ",\n    "
    out.write("[]" if opening == "[\n    " else "\n  ]")


def save_instance(instance, path, config=None):
    """Write ``instance``, and ``config`` under the key ``"config"`` when one
    is given, in the bytes :func:`dump_json` writes for that payload.

    The text is rendered straight from the canonical instance: ``json.dumps``
    with ``indent`` set runs its pure-Python encoder over every coefficient,
    which cost more than building the largest generated instances.  Each
    section, and each row of a row list, goes to the file as it is
    rendered, so the writer never holds the file's text.  Only ``config``
    goes through ``json.dumps``.
    """
    with Path(path).open("w") as out:
        out.write('{\n  "agents": ')
        _write_list(out, map(str, instance.agents))
        out.write(',\n  "beneficiaries": ')
        _write_list(out, _row_texts(instance.beneficiaries))
        if config is not None:
            # json escapes newlines inside strings, so every newline is layout
            out.write(',\n  "config": ')
            out.write(json.dumps(config, indent=2, sort_keys=True).replace("\n", "\n  "))
        out.write(',\n  "resources": ')
        _write_list(out, _row_texts(instance.resources))
        out.write("\n}\n")


def load_instance(path):
    """Read an instance file, raising :class:`InvalidInstanceError` unless it validates."""
    instance = instance_from_dict(load_json(path))
    violations = validate(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance


def assignment_to_dict(assignment):
    """The file payload of an assignment, a dict from agent id to activity."""
    return {"values": {str(v): float(x) for v, x in sorted(assignment.items())}}


def assignment_from_dict(payload):
    """The assignment a file payload holds, as a dict from agent id to float;
    raises ``ValueError`` on a malformed payload or a non-finite value."""
    try:
        values = _by_agent(_field(payload, "values", "top level"), "values")
        for v, x in values.items():
            if not math.isfinite(x):
                raise ValueError(f"agent {v} has the non-finite value {x!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed assignment payload: {exc}") from exc
    return values
