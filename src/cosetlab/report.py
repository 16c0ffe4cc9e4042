"""Report assembly and schema for the cosetlab-report-v1 JSON format.

Everything under the "runtime" key is volatile (timings, cache state, worker
count, output paths) and is stripped before byte-for-byte comparisons.  All
other blocks are deterministic functions of the inputs and the seed.
"""

from __future__ import annotations

import json
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
                "cache_status": {"type": "string", "enum": ["cold", "warm", "off"]},
                "cache_dir": {"type": "string"},
                "jobs": {"type": "integer", "minimum": 1},
                "report_path": {"type": ["string", "null"]},
            },
        },
    },
}


def canonical_json(doc: dict) -> str:
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
