from __future__ import annotations

import json

import jsonschema
import pytest

import cosetlab
from cosetlab.report import (
    REPORT_FORMAT,
    REPORT_SCHEMA,
    build_report,
    canonical_json,
    strip_volatile,
    validate_report,
)


def _minimal():
    return build_report(
        config={"command": "verify", "group": "S4", "seed": 0},
        group={"label": "S4", "order": 24, "spec_hash": "ab" * 32, "subgroup_count": 30},
    )


def test_minimal_report_validates():
    validate_report(_minimal())


def test_tool_version_is_package_version():
    assert _minimal()["tool_version"] == cosetlab.__version__


def test_format_constant_enforced():
    doc = _minimal()
    doc["format"] = "cosetlab-report-v0"
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_unknown_top_level_field_rejected():
    doc = _minimal()
    doc["surprise"] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_unknown_config_field_rejected():
    doc = _minimal()
    doc["config"]["verbose"] = True
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_runtime_block_is_volatile():
    doc = build_report(
        config={"command": "verify", "group": "S4"},
        group={"label": "S4", "order": 24, "spec_hash": "cd" * 32},
        runtime={"elapsed_seconds": 1.5, "cache_status": "warm", "jobs": 4},
    )
    validate_report(doc)
    stripped = strip_volatile(doc)
    assert "runtime" not in stripped
    assert set(doc) - set(stripped) == {"runtime"}
    # stripping does not mutate the original
    assert "runtime" in doc


def test_canonical_json_is_sorted_and_stable():
    doc = _minimal()
    text = canonical_json(doc)
    assert text == canonical_json(json.loads(text))
    keys = list(json.loads(text))
    assert keys == sorted(keys)
    assert text.endswith("\n")


def test_violation_entries_validate():
    doc = _minimal()
    doc["verifications"] = [
        {
            "k": 2,
            "group_label": "S4",
            "group_order": 24,
            "subgroup_count": 30,
            "status": "confirmed",
            "candidate_cliques": 3,
            "tuples_examined": 17,
            "violations": [
                {
                    "k": 2,
                    "subgroups": [[0, 2], [0, 2]],
                    "coset_reps": [0, 1],
                    "gcd_matrix": [[2, 2], [2, 2]],
                }
            ],
        }
    ]
    validate_report(doc)
    doc["verifications"][0]["violations"][0]["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_schema_is_itself_valid_draft7():
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)
    assert REPORT_SCHEMA["properties"]["format"]["const"] == REPORT_FORMAT
