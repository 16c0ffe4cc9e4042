from __future__ import annotations

import contextlib
import io
import json
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetlab
from cosetlab import bitset, report
from cosetlab.cli import main
from cosetlab.report import (
    REPORT_FORMAT,
    REPORT_SCHEMA,
    CensusRows,
    build_report,
    canonical_json,
    strip_volatile,
    validate_report,
)

from test_cli import PINNED_REPORTS


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
        runtime={"elapsed_seconds": 1.5, "cache_status": "warm"},
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
            "clique_orbits": 1,
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
    orbits = doc["verifications"][0].pop("clique_orbits")
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)
    doc["verifications"][0]["clique_orbits"] = orbits
    doc["verifications"][0]["violations"][0]["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate_report(doc)


def test_schema_is_itself_valid_draft7():
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)
    assert REPORT_SCHEMA["properties"]["format"]["const"] == REPORT_FORMAT


def _json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_count = st.integers(-(2**70), 2**70)
_triple = st.lists(_count, min_size=3, max_size=3)


@st.composite
def census_entries(draw):
    """A census entry of the fixed shape, enumerated or capped, or now and
    then one of another shape."""
    exact = draw(st.booleans())
    entry = {
        "subgroup_orders": draw(_triple),
        "total": draw(_count),
        "s_pair": draw(_triple),
        "s_pair_pair": draw(_triple),
        "s_triple": draw(_count) if exact else None,
        "meet_all": draw(_count),
        "n_disjoint": draw(_count) if exact else None,
        "enumerated": exact,
    }
    if draw(st.integers(0, 9)) == 0:
        key = draw(st.sampled_from(sorted(entry)))
        entry[key] = draw(
            st.one_of(
                st.none(),
                st.booleans(),
                st.floats(allow_nan=False),
                _count,
                st.lists(_count, max_size=4),
                st.tuples(_count, _count, _count),
            )
        )
        if draw(st.booleans()):
            del entry[key]
    return entry


@st.composite
def report_documents(draw):
    label = draw(st.text(min_size=1, max_size=8))  # non-ASCII escapes included
    doc = build_report(
        config={"command": "census", "group": label, "seed": draw(_count)},
        group={"label": label, "order": 1, "spec_hash": draw(st.text(max_size=8))},
        census=draw(st.lists(census_entries(), max_size=6)),
        subgroups=draw(st.none() | st.lists(st.lists(_count, max_size=3), max_size=3)),
        runtime=draw(st.none() | st.fixed_dictionaries({"cache_dir": st.text(max_size=8)})),
    )
    if draw(st.booleans()):
        doc["a\u00e9 key"] = draw(st.text(max_size=8))  # sorts before census
    return doc


@given(doc=report_documents())
@settings(max_examples=300, deadline=None)
def test_canonical_json_equals_indented_dumps(doc):
    assert canonical_json(doc) == _json_dumps(doc)


def test_canonical_json_empty_and_capped_census():
    doc = _minimal()
    doc["group"]["label"] = "S\u2084 \u00d7 C\u2082"
    doc["census"] = []
    assert canonical_json(doc) == _json_dumps(doc)
    doc["census"] = [
        {
            "subgroup_orders": [1, 2, 2],
            "total": 27,
            "s_pair": [18, 18, 18],
            "s_pair_pair": [12, 12, 12],
            "s_triple": None,
            "meet_all": 6,
            "n_disjoint": None,
            "enumerated": False,
        }
    ]
    assert '"s_triple": null' in canonical_json(doc)
    assert canonical_json(doc) == _json_dumps(doc)


@pytest.mark.parametrize("command", list(PINNED_REPORTS))
def test_canonical_json_equals_indented_dumps_on_pinned_reports(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*command.split(), "--cache-dir", "off"]) == 0
    doc = json.loads(out.getvalue())
    assert out.getvalue() == _json_dumps(doc)
    assert canonical_json(doc) == _json_dumps(doc)


def _main_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_census_with_capped_rows_equals_indented_dumps():
    # S4's 4,960 triples at a cap of 5,000 coset triples: enumerated rows
    # and capped ones, whose s_triple and n_disjoint are null
    out = _main_stdout(["census", "--group", "S4", "--max-census", "5000", "--cache-dir", "off"])
    doc = json.loads(out)
    assert out == _json_dumps(doc)
    exact = [e["enumerated"] for e in doc["census"]]
    assert 0 < sum(exact) < len(exact)


_int64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def census_rows(draw):
    """A census as arrays: a few rows of 13 int64 values, any enumerated
    flags.  The rows come from a pool of at most three, so the same values
    repeat within a block and across blocks, under one flag and both."""
    pool = draw(st.lists(st.lists(_int64, min_size=13, max_size=13), min_size=1, max_size=3))
    size = draw(st.integers(0, 8))
    picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    rows = np.array(picks, dtype=np.int64).reshape(size, 13)
    # one or three columns per field, in CENSUS_COLUMNS order
    columns = np.split(rows, [1, 2, 5, 8, 9, 12], axis=1)
    return CensusRows(dict(zip(report.CENSUS_COLUMNS, columns)), np.array(flags, dtype=bool))


def _entries(census):
    """The census entries that rows in the order meet_all, n_disjoint,
    s_pair, s_pair_pair, s_triple, subgroup_orders, total stand for."""
    return [
        {
            "enumerated": exact,
            "meet_all": row[0],
            "n_disjoint": row[1] if exact else None,
            "s_pair": row[2:5],
            "s_pair_pair": row[5:8],
            "s_triple": row[8] if exact else None,
            "subgroup_orders": row[9:12],
            "total": row[12],
        }
        for row, exact in zip(
            np.column_stack([census.fields[key] for key in report.CENSUS_COLUMNS]).tolist(),
            census.enumerated.tolist(),
        )
    ]


@given(census=census_rows(), budget=st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_census_rows_render_as_their_entries(census, budget):
    # the array route writes the bytes json.dumps writes for its entries,
    # across block boundaries, and a repeated entry as its first rendering;
    # budgets from under one entry's cost (14) to four entries'
    doc = _minimal()
    with mock.patch.object(bitset, "BLOCK_ENTRIES", budget):
        from_rows = canonical_json({**doc, "census": census})
        entries = {**doc, "census": _entries(census)}
        assert from_rows == canonical_json(entries) == _json_dumps(entries)
