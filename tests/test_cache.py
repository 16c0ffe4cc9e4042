from __future__ import annotations

import hashlib
import json
import logging
import warnings

import numpy as np
import pytest

import cosetlab as cl
from cosetlab.cache import (
    LATTICE_FORMAT,
    _checksum,
    cache_lattice,
    cached_subgroups,
    lattice_path,
    load_lattice,
    spec_hash,
    store_lattice,
)
from cosetlab.errors import CacheCorrupt


def test_round_trip_yields_identical_lattice(tmp_path):
    g = cl.load_catalog_group("S4")
    direct = cl.enumerate_subgroups(g)
    first, status1 = cached_subgroups(g, tmp_path)
    second, status2 = cached_subgroups(g, tmp_path)
    assert (status1, status2) == ("cold", "warm")
    for other in (first, second):
        assert [s.elements for s in other] == [s.elements for s in direct]


def test_lattice_file_is_compact_and_indented_files_still_load(tmp_path):
    # the file is the checksummed payload in compact JSON, one line; a file
    # laid out with indent=2, as earlier writers did, holds the same content
    # under the same format tag and still loads warm
    g = cl.load_catalog_group("S4")
    subs = cl.enumerate_subgroups(g)
    path = store_lattice(g, subs, tmp_path)
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    got, status = cached_subgroups(g, tmp_path)
    assert status == "warm"
    assert [s.elements for s in got] == [s.elements for s in subs]


def test_spec_hash_keys_by_content():
    a = cl.catalog_spec("C6")
    b = cl.catalog_spec("C7")
    assert spec_hash(a) != spec_hash(b)
    assert spec_hash(a) == spec_hash(cl.GroupSpec(kind="named", name="C6"))


def test_two_groups_share_a_directory(tmp_path):
    g1 = cl.load_catalog_group("C6")
    g2 = cl.load_catalog_group("Q8")
    s1, _ = cached_subgroups(g1, tmp_path)
    s2, _ = cached_subgroups(g2, tmp_path)
    r1, w1 = cached_subgroups(g1, tmp_path)
    r2, w2 = cached_subgroups(g2, tmp_path)
    assert (w1, w2) == ("warm", "warm")
    assert len(r1) == len(s1) == 4
    assert len(r2) == len(s2) == 6


def test_corrupt_file_detected_and_recomputed(tmp_path, caplog):
    g = cl.load_catalog_group("C12")
    subs = cl.enumerate_subgroups(g)
    path = store_lattice(g, subs, tmp_path)

    doc = json.loads(path.read_text())
    doc["elements"][0] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorrupt, match="checksum"):
        load_lattice(g, tmp_path)

    # the convenience wrapper logs and recovers instead of failing
    with caplog.at_level(logging.WARNING, logger="cosetlab.cache"):
        recovered, status = cached_subgroups(g, tmp_path)
    assert status == "cold"
    assert any("corrupt" in r.message for r in caplog.records)
    assert [s.elements for s in recovered] == [s.elements for s in subs]
    # and the rewrite healed the file
    assert load_lattice(g, tmp_path) is not None


def test_unparseable_file_is_corrupt(tmp_path):
    g = cl.load_catalog_group("C6")
    subs = cl.enumerate_subgroups(g)
    path = store_lattice(g, subs, tmp_path)
    path.write_text("{ not json")
    with pytest.raises(CacheCorrupt):
        load_lattice(g, tmp_path)


def test_wrong_format_tag_is_corrupt(tmp_path):
    g = cl.load_catalog_group("C6")
    subs = cl.enumerate_subgroups(g)
    path = store_lattice(g, subs, tmp_path)
    doc = json.loads(path.read_text())
    doc["format"] = "cosetlab-lattice-v0"
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorrupt, match="format"):
        load_lattice(g, tmp_path)


def _write_checksummed(tmp_path, g, fmt, subgroups):
    """A lattice file for g with a valid checksum over ``subgroups``, laid
    out with indent=2, as the element-list writers up to v5 did."""
    path = lattice_path(tmp_path, spec_hash(g.spec))
    payload = {"format": fmt, "spec_hash": spec_hash(g.spec), "order": g.n, "subgroups": subgroups}
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def _older_lattice_is_recomputed(tmp_path, caplog, fmt):
    g = cl.load_catalog_group("S4")
    subs = cl.enumerate_subgroups(g)
    # an intact file under an older tag, holding one subgroup too few, laid
    # out as that tag's writer did
    kept = subs[:-1]
    if fmt == "cosetlab-lattice-v6":
        orders, elements = [s.order for s in kept], [x for s in kept for x in s.elements]
        path = _write_flat(tmp_path, g, orders, elements, fmt)
    else:
        path = _write_checksummed(tmp_path, g, fmt, [list(s.elements) for s in kept])

    with caplog.at_level(logging.INFO, logger="cosetlab.cache"):
        got, status = cached_subgroups(g, tmp_path)
    assert status == "cold"
    assert [s.elements for s in got] == [s.elements for s in subs]
    # an older format is stale, not damage: logged at INFO, not as corrupt
    [record] = caplog.records
    assert record.levelno == logging.INFO
    assert fmt in record.message
    assert "cosetlab-lattice-v7" in record.message
    assert "corrupt" not in record.message
    assert json.loads(path.read_text())["format"] == LATTICE_FORMAT == "cosetlab-lattice-v7"
    assert cached_subgroups(g, tmp_path)[1] == "warm"


def test_lattice_from_older_algorithm_is_recomputed(tmp_path, caplog):
    _older_lattice_is_recomputed(tmp_path, caplog, "cosetlab-lattice-v1")


def test_lattice_from_every_subgroup_extension_is_recomputed(tmp_path, caplog):
    # v2 extended every subgroup, not one per conjugacy class
    _older_lattice_is_recomputed(tmp_path, caplog, "cosetlab-lattice-v2")


def test_lattice_from_class_only_extension_is_recomputed(tmp_path, caplog):
    # v3 extended one subgroup per conjugacy class in abelian groups too,
    # not each subgroup once from its canonical parent
    _older_lattice_is_recomputed(tmp_path, caplog, "cosetlab-lattice-v3")


def test_lattice_from_per_subgroup_augmentation_is_recomputed(tmp_path, caplog):
    # v4 closed each abelian subgroup from its canonical parent one at a
    # time, not a whole chain length at once
    _older_lattice_is_recomputed(tmp_path, caplog, "cosetlab-lattice-v4")


def test_lattice_from_element_list_file_is_recomputed(tmp_path, caplog):
    # v5 stored one element list per subgroup, not the orders and one flat
    # element list
    _older_lattice_is_recomputed(tmp_path, caplog, "cosetlab-lattice-v5")


def test_lattice_from_int_mask_class_route_is_recomputed(tmp_path, caplog):
    # v6 closed a non-abelian group's subgroups on int masks, one seed per
    # element not yet covered, not on bool rows a level at a time
    _older_lattice_is_recomputed(tmp_path, caplog, "cosetlab-lattice-v6")


def _write_flat(tmp_path, g, orders, elements, fmt=LATTICE_FORMAT):
    """A lattice file for g tagged ``fmt`` in the layout of v6 on, holding
    ``orders`` and ``elements``, with a valid checksum over them whenever
    they are lists of ints."""
    path = lattice_path(tmp_path, spec_hash(g.spec))
    try:
        checksum = _checksum(spec_hash(g.spec), g.n, np.array(orders), np.array(elements))
    except (TypeError, ValueError):
        checksum = "none"
    payload = {
        "format": fmt,
        "spec_hash": spec_hash(g.spec),
        "order": g.n,
        "orders": orders,
        "elements": elements,
        "checksum": checksum,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


# S3's lattice; the last three payloads hold only its subgroups, but not at
# their lattice positions, which the pair rows rely on
S3_LISTS = [[0], [0, 1], [0, 2], [0, 5], [0, 3, 4], [0, 1, 2, 3, 4, 5]]


@pytest.mark.parametrize(
    "subgroups",
    [
        [[0], [0, 99999]],
        [[0], [0, 6]],
        "abc",
        [[0], [-1]],
        [],
        [[0], [1, 2]],
        S3_LISTS[::-1],
        S3_LISTS[:2] + S3_LISTS[1:],
        [S3_LISTS[0], S3_LISTS[2], S3_LISTS[1], *S3_LISTS[3:]],
        [[0], [0, 1, 2, 3]],
        [[0], [0, 0]],
        ([1, 2], [0, 0, 1, 2]),
        ([1, 0, 2], [0, 0, 1]),
        ([1, 2], [0.0, 0.0, 1.0]),
        ([1, 2], [[0], [0, 1]]),
    ],
    ids=[
        "out-of-range", "at-the-order", "not-a-list", "negative", "empty", "no-identity",
        "reversed", "repeated", "swapped", "order-not-dividing", "repeated-element",
        "orders-short", "order-zero", "not-ints", "nested",
    ],
)
def test_checksummed_file_with_malformed_subgroups_is_recomputed(tmp_path, caplog, subgroups):
    # a valid checksum over contents no lattice has: logged as corrupt,
    # recomputed and rewritten, never trusted, never a crash and never a
    # numpy warning (an order of 0 is refused before |G| is divided by it).
    # A list of element lists is stored as its lengths and their
    # concatenation, any other value as both lists; a pair is the orders
    # and the elements.
    g = cl.load_catalog_group("S3")
    if isinstance(subgroups, tuple):
        orders, elements = subgroups
    elif isinstance(subgroups, list):
        orders, elements = [len(e) for e in subgroups], [x for e in subgroups for x in e]
    else:
        orders = elements = subgroups
    path = _write_flat(tmp_path, g, orders, elements)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CacheCorrupt, match="malformed|out of order or repeated"):
            load_lattice(g, tmp_path)
    with caplog.at_level(logging.WARNING, logger="cosetlab.cache"):
        got, status = cached_subgroups(g, tmp_path)
    assert status == "cold"
    assert any("corrupt" in r.message for r in caplog.records)
    want = [s.elements for s in cl.enumerate_subgroups(g)]
    assert [list(e) for e in want] == S3_LISTS
    assert [s.elements for s in got] == want
    doc = json.loads(path.read_text())
    assert doc["orders"] == [len(e) for e in want]
    assert doc["elements"] == [x for e in want for x in e]
    assert cached_subgroups(g, tmp_path)[1] == "warm"


def test_checksummed_file_without_subgroups_is_recomputed(tmp_path):
    # the checksum covers both lists, so a file missing either is
    # malformed, not a KeyError
    g = cl.load_catalog_group("S3")
    want = [s.elements for s in cl.enumerate_subgroups(g)]
    for key in ("orders", "elements"):
        path = store_lattice(g, cl.enumerate_subgroups(g), tmp_path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheCorrupt, match="malformed"):
            load_lattice(g, tmp_path)
        got, status = cached_subgroups(g, tmp_path)
        assert status == "cold"
        assert [s.elements for s in got] == want


@pytest.mark.parametrize("key, value", [("spec_hash", "0" * 64), ("order", 7)])
def test_checksum_covers_the_header(tmp_path, key, value):
    # a header field changed after the write fails the checksum, before
    # the check that the file is this group's
    g = cl.load_catalog_group("S3")
    path = store_lattice(g, cl.enumerate_subgroups(g), tmp_path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorrupt, match="checksum"):
        load_lattice(g, tmp_path)


@pytest.mark.parametrize("fail", ["dumps", "write_text"])
def test_failed_write_keeps_previous_lattice(tmp_path, monkeypatch, fail):
    g = cl.load_catalog_group("C12")
    subs = cl.enumerate_subgroups(g)
    path = store_lattice(g, subs, tmp_path)
    before = path.read_bytes()

    if fail == "dumps":
        def broken(*args, **kwargs):
            raise ValueError("cannot serialize")

        monkeypatch.setattr(json, "dumps", broken)
        expected = ValueError
    else:
        real_write_text = type(path).write_text

        def broken(self, text, *args, **kwargs):
            real_write_text(self, text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(type(path), "write_text", broken)
        expected = OSError
    with pytest.raises(expected):
        store_lattice(g, subs[:-1], tmp_path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
    assert [s.elements for s in load_lattice(g, tmp_path)] == [s.elements for s in subs]


def test_missing_file_returns_none(tmp_path):
    g = cl.load_catalog_group("C6")
    assert load_lattice(g, tmp_path) is None


def test_cache_lattice_record(tmp_path):
    g = cl.load_catalog_group("Q8")
    rec = cache_lattice(g, tmp_path)
    assert rec.status == "cold"
    assert rec.subgroup_count == 6
    assert rec.path == lattice_path(tmp_path, rec.spec_hash)
    assert rec.path.exists()
    again = cache_lattice(g, tmp_path)
    assert again.status == "warm"
    assert again.spec_hash == rec.spec_hash


def test_group_without_spec_rejected(tmp_path):
    base = cl.load_catalog_group("C4")
    bare = cl.FiniteGroup(base.np_table, "bare")
    with pytest.raises(ValueError):
        cache_lattice(bare, tmp_path)
