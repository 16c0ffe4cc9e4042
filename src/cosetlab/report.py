"""Report assembly and schema for the cosetlab-report-v1 JSON format.

Everything under the "runtime" key is volatile (timings, cache state, output
paths) and is stripped before byte-for-byte comparisons.  All other blocks
are deterministic functions of the inputs and the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np

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
# the row columns of an entry: its fields but enumerated, in sorted key
# order, a list field taking three columns
CENSUS_COLUMNS = (
    "meet_all", "n_disjoint", "s_pair", "s_pair_pair", "s_triple", "subgroup_orders", "total"
)
# the columns of n_disjoint and s_triple, which a capped entry writes as null
_NULLABLE = [1, 8]
# census rows deduplicated and joined per block of text
CENSUS_BLOCK = 1 << 13
_CENSUS_SLOT = '\n  "census": []'


@dataclass(frozen=True)
class CensusRows:
    """A report's census as whole arrays: ``fields`` holds one array per
    name in ``CENSUS_COLUMNS``, N or N x 3, and ``enumerated`` one flag per
    entry.  n_disjoint and s_triple are not read where ``enumerated`` is
    False."""

    fields: dict[str, np.ndarray]
    enumerated: np.ndarray


def report_chunks(doc: dict) -> Iterator[str]:
    """The text of ``canonical_json(doc)``, in pieces.

    With ``indent`` set, the json module encodes in pure Python.  A census
    given as ``CensusRows`` can run to hundreds of thousands of entries of
    one fixed shape but few distinct ones, so each distinct entry fills its
    template once: the fields are stacked into rows of 13 ints and
    deduplicated CENSUS_BLOCK entries at a time, so the whole census is
    never one such array, and the texts are carried across blocks.  The
    blocks go in place of an emptied list at the census's sorted position
    in the rest of the document.  The
    census key's line is the only one that starts with two spaces and
    ``"census"``: nested keys are indented further, and JSON strings hold
    no raw newline.  Any other document, a census given as a list of entry
    dicts included, goes through ``json.dumps`` whole.
    """
    census = doc.get("census")
    if not isinstance(census, CensusRows):
        yield json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return
    text = json.dumps({**doc, "census": []}, sort_keys=True, indent=2) + "\n"
    if not len(census.enumerated):
        yield text
        return
    head, tail = text.split(_CENSUS_SLOT, 1)
    yield head + '\n  "census": [\n'
    rendered: dict[tuple, str] = {}  # by a row's values, then its enumerated flag
    for lo in range(0, len(census.enumerated), CENSUS_BLOCK):
        at = slice(lo, lo + CENSUS_BLOCK)
        columns = [census.fields[key][at] for key in CENSUS_COLUMNS]
        keys = np.column_stack([*columns, census.enumerated[at]])
        order = np.lexsort(keys.T)
        keys = keys[order]
        new = np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)])
        distinct = np.empty_like(order)
        distinct[order] = np.cumsum(new) - 1
        texts = []
        for key in map(tuple, keys[new].tolist()):
            if key not in rendered:
                values = key[:-1] if key[-1] else np.delete(key[:-1], _NULLABLE).tolist()
                rendered[key] = _ENTRY_TEMPLATES[bool(key[-1])] % tuple(values)
            texts.append(rendered[key])
        yield (",\n" if lo else "") + ",\n".join([texts[p] for p in distinct.tolist()])
    yield "\n  ]" + tail


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline; a census
    given as ``CensusRows`` is written as its list of entries."""
    return "".join(report_chunks(doc))


def strip_volatile(doc: dict) -> dict:
    """Copy of the report without the runtime block, for byte comparisons."""
    return {k: v for k, v in doc.items() if k != "runtime"}


def build_report(
    *,
    config: dict,
    group: dict,
    verifications: Optional[list[dict]] = None,
    lemmas: Optional[dict] = None,
    census: Optional[list[dict] | CensusRows] = None,
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
