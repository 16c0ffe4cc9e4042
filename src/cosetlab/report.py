"""Report assembly and schema for the cosetlab-report-v1 JSON format.

Everything under the "runtime" key is volatile (timings, cache state, worker
count, output paths) and is stripped before byte-for-byte comparisons.  All
other blocks are deterministic functions of the inputs and the seed.
"""

from __future__ import annotations

import json
import operator
from itertools import chain
from typing import Any, Optional

from . import __version__

REPORT_FORMAT = "cosetlab-report-v1"

_GCD_MATRIX = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer", "minimum": 1}},
}

_VIOLATION = {
    "type": "object",
    "additionalProperties": False,
    "required": ["k", "subgroups", "coset_reps", "gcd_matrix"],
    "properties": {
        "k": {"type": "integer", "minimum": 2},
        "subgroups": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "coset_reps": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "gcd_matrix": _GCD_MATRIX,
    },
}

_VERIFICATION = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "k",
        "group_label",
        "group_order",
        "subgroup_count",
        "status",
        "candidate_cliques",
        "clique_orbits",
        "tuples_examined",
        "violations",
    ],
    "properties": {
        "k": {"type": "integer", "minimum": 2},
        "group_label": {"type": "string"},
        "group_order": {"type": "integer", "minimum": 1},
        "subgroup_count": {"type": "integer", "minimum": 1},
        "status": {"type": "string"},
        "candidate_cliques": {"type": "integer", "minimum": 0},
        "clique_orbits": {"type": "integer", "minimum": 0},
        "tuples_examined": {"type": "integer", "minimum": 0},
        "violations": {"type": "array", "items": _VIOLATION},
        "note": {"type": "string"},
    },
}

_LEMMA_STAT = {
    "type": "object",
    "additionalProperties": False,
    "required": ["checked", "failed"],
    "properties": {
        "checked": {"type": "integer", "minimum": 0},
        "failed": {"type": "integer", "minimum": 0},
        "examples": {"type": "array", "items": {"type": "string"}},
    },
}

_LEMMAS = {
    "type": "object",
    "additionalProperties": False,
    "required": ["group_label", "group_order", "modes", "counts", "seed", "stats"],
    "properties": {
        "group_label": {"type": "string"},
        "group_order": {"type": "integer", "minimum": 1},
        "subgroup_count": {"type": "integer", "minimum": 1},
        "modes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pairs": {"type": "string", "enum": ["exhaustive", "sampled"]},
                "triples": {"type": "string", "enum": ["exhaustive", "sampled"]},
                "nested": {"type": "string", "enum": ["exhaustive", "sampled"]},
            },
        },
        "counts": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "pairs": {"type": "integer", "minimum": 0},
                "triples": {"type": "integer", "minimum": 0},
                "nested_quadruples": {"type": "integer", "minimum": 0},
                "samples": {"type": "integer", "minimum": 0},
            },
        },
        "seed": {"type": "integer"},
        "stats": {
            "type": "object",
            "additionalProperties": _LEMMA_STAT,
        },
        "failures": {"type": "integer", "minimum": 0},
    },
}

_CENSUS_ENTRY = {
    "type": "object",
    "additionalProperties": False,
    "required": [
        "subgroup_orders",
        "total",
        "s_pair",
        "s_pair_pair",
        "meet_all",
        "enumerated",
    ],
    "properties": {
        "subgroup_orders": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
        },
        "total": {"type": "integer", "minimum": 0},
        "s_pair": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "s_pair_pair": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "s_triple": {"type": ["integer", "null"]},
        "meet_all": {"type": "integer", "minimum": 0},
        "n_disjoint": {"type": ["integer", "null"]},
        "enumerated": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["format", "tool_version", "config", "group"],
    "properties": {
        "format": {"const": REPORT_FORMAT},
        "tool_version": {"type": "string"},
        "config": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "command": {"type": "string"},
                "group": {"type": "string"},
                "k_min": {"type": "integer"},
                "k_max": {"type": "integer"},
                "seed": {"type": "integer"},
                "max_order": {"type": "integer"},
                "max_cliques": {"type": "integer"},
                "max_census": {"type": "integer"},
            },
        },
        "group": {
            "type": "object",
            "additionalProperties": False,
            "required": ["label", "order", "spec_hash"],
            "properties": {
                "label": {"type": "string"},
                "order": {"type": "integer", "minimum": 1},
                "spec_hash": {"type": "string"},
                "subgroup_count": {"type": "integer", "minimum": 1},
            },
        },
        "verifications": {"type": "array", "items": _VERIFICATION},
        "lemmas": _LEMMAS,
        "census": {"type": "array", "items": _CENSUS_ENTRY},
        "subgroups": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "runtime": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "elapsed_seconds": {"type": "number", "minimum": 0},
                "phases": {
                    "type": "object",
                    "additionalProperties": {"type": "number", "minimum": 0},
                },
                "cache_status": {"type": "string", "enum": ["cold", "warm", "off"]},
                "cache_dir": {"type": "string"},
                "jobs": {"type": "integer", "minimum": 1},
                "report_path": {"type": ["string", "null"]},
            },
        },
    },
}


def _entry_template(enumerated: bool) -> str:
    """One census entry as ``json.dumps(..., sort_keys=True, indent=2)`` writes
    it inside the top-level census list; a capped entry has null s_triple and
    n_disjoint."""
    triple = "[\n        %d,\n        %d,\n        %d\n      ]"
    nullable = "%d" if enumerated else "null"
    fields = {
        "enumerated": "true" if enumerated else "false",
        "meet_all": "%d",
        "n_disjoint": nullable,
        "s_pair": triple,
        "s_pair_pair": triple,
        "s_triple": nullable,
        "subgroup_orders": triple,
        "total": "%d",
    }
    body = ",\n".join(f'      "{key}": {value}' for key, value in fields.items())
    return "    {\n" + body + "\n    }"


_ENTRY_TEMPLATES = {True: _entry_template(True), False: _entry_template(False)}
_ENTRY_KEYS = frozenset(_CENSUS_ENTRY["properties"])
_CENSUS_SLOT = '\n  "census": []'


def _census_text(entries: list) -> Optional[str]:
    """The census list rendered from the entry templates, or None when some
    entry is not of the fixed shape: eight keys, ints and lists of three ints,
    with null for s_triple and n_disjoint exactly when enumerated is false.

    Each check runs over the whole block at once.  %d would also take bools
    and floats, which JSON writes differently, so every value must be an int.
    """
    if not all(type(e) is dict and e.keys() == _ENTRY_KEYS for e in entries):
        return None
    lists = [e[key] for e in entries for key in ("s_pair", "s_pair_pair", "subgroup_orders")]
    if set(map(type, lists)) != {list} or set(map(len, lists)) != {3}:
        return None
    exact = [e["enumerated"] for e in entries]
    if set(map(type, exact)) != {bool}:
        return None
    if not all(e["s_triple"] is e["n_disjoint"] is None for e, x in zip(entries, exact) if not x):
        return None
    rows = [
        (e["meet_all"], e["n_disjoint"], *e["s_pair"], *e["s_pair_pair"], e["s_triple"],
         *e["subgroup_orders"], e["total"])
        if x
        else (e["meet_all"], *e["s_pair"], *e["s_pair_pair"], *e["subgroup_orders"], e["total"])
        for e, x in zip(entries, exact)
    ]
    if set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    body = ",\n".join(map(operator.mod, map(_ENTRY_TEMPLATES.get, exact), rows))
    return '\n  "census": [\n' + body + "\n  ]"


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    With ``indent`` set, the json module encodes in pure Python.  A census
    block can run to tens of thousands of entries of one fixed shape, so it
    is written from a template and spliced in at its sorted position, in
    place of the emptied list.  The census key's line is the only one that
    starts with two spaces and ``"census"``: nested keys are indented
    further, and JSON strings hold no raw newline.
    """
    census = doc.get("census")
    if type(census) is list and census:
        text = _census_text(census)
        if text is not None:
            rest = json.dumps({**doc, "census": []}, sort_keys=True, indent=2)
            return rest.replace(_CENSUS_SLOT, text, 1) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def strip_volatile(doc: dict) -> dict:
    """Copy of the report without the runtime block, for byte comparisons."""
    return {k: v for k, v in doc.items() if k != "runtime"}


def build_report(
    *,
    config: dict,
    group: dict,
    verifications: Optional[list[dict]] = None,
    lemmas: Optional[dict] = None,
    census: Optional[list[dict]] = None,
    subgroups: Optional[list[list[int]]] = None,
    runtime: Optional[dict] = None,
) -> dict:
    doc: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "tool_version": __version__,
        "config": config,
        "group": group,
    }
    if verifications is not None:
        doc["verifications"] = verifications
    if lemmas is not None:
        doc["lemmas"] = lemmas
    if census is not None:
        doc["census"] = census
    if subgroups is not None:
        doc["subgroups"] = subgroups
    if runtime is not None:
        doc["runtime"] = runtime
    return doc


def validate_report(doc: dict) -> None:
    """Schema-check a report; import of jsonschema is deferred so the core
    library works without the test extra."""
    import jsonschema

    jsonschema.validate(doc, REPORT_SCHEMA)
