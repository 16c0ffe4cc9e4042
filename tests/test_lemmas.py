from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import cosetlab as cl
from cosetlab.errors import ConsistencyError
from cosetlab.lemmas import LemmaStats


EXHAUSTIVE_GROUPS = ["C6", "C12", "S3", "D4", "D6", "Q8", "A4", "C2xC2", "C2xC2xC2", "S4"]


def test_lemma_id_set_is_stable():
    assert cl.LEMMA_IDS == (
        "L2.1.i",
        "L2.1.ii",
        "L2.1.iii",
        "L2.1.iv",
        "L2.1.v",
        "L3.2",
        "L3.3",
        "R3.1",
        "E3.1",
        "E3.2",
        "E3.4",
    )


@pytest.mark.parametrize("name", EXHAUSTIVE_GROUPS)
def test_suite_green_and_complete(lattice, name):
    g, subs = lattice(name)
    res = cl.run_lemma_suite(g, subs)
    assert res.failures == 0
    assert set(res.stats) == set(cl.LEMMA_IDS)
    # every law is exercised on every one of these groups
    for lid, st in res.stats.items():
        assert st.checked > 0, (name, lid)
    assert res.pair_mode == "exhaustive"
    assert res.triple_mode == "exhaustive"


def test_s4_checked_counts_frozen(lattice):
    # how many instances each law checks on S4, frozen so that a rewrite of
    # a law cannot silently change its coverage
    g, subs = lattice("S4")
    res = cl.run_lemma_suite(g, subs, seed=0)
    assert {lid: st.checked for lid, st in res.stats.items()} == {
        "L2.1.i": 900,
        "L2.1.ii": 900,
        "L2.1.iii": 113,
        "L2.1.iv": 900,
        "L2.1.v": 22406,
        "L3.2": 5860,
        "L3.3": 900,
        "R3.1": 191736,
        "E3.1": 4960,
        "E3.2": 907,
        "E3.4": 4960,
    }
    assert res.failures == 0


@pytest.mark.parametrize(
    "name", [name for name in cl.CATALOG if cl.load_catalog_group(name).n <= 24]
)
def test_nested_quadruples_match_mask_rule(lattice, name):
    # the quadruple filter of the suite, recounted from the element masks:
    # H in G when H's mask has no bit outside G's, kept when H1&H2 == G1&G2
    g, subs = lattice(name)
    res = cl.run_lemma_suite(
        g, subs, sample_target=0, exhaustive_pair_limit=0, exhaustive_triple_limit=0
    )
    assert res.nested_mode == "exhaustive"
    within = [[k for k in subs if k.mask & ~h.mask == 0] for h in subs]
    want = sum(
        h1.mask & h2.mask == g1.mask & g2.mask
        for g1, inner in zip(subs, within)
        for h1 in inner
        if h1.order < g1.order
        for g2, inner2 in zip(subs, within)
        for h2 in inner2
    )
    assert res.nested_quadruples_run == want


def test_product_set_disagreement_recorded_as_l21i_failure(lattice, monkeypatch):
    # A closure test that always says no contradicts HK = KH on every
    # commuting pair; the suite must record that, not raise.
    g, subs = lattice("S3")
    clean = cl.run_lemma_suite(g, subs)
    monkeypatch.setattr("cosetlab.cosets._closed_under_mul", lambda parent, mask: False)
    res = cl.run_lemma_suite(g, subs)
    assert res.stats["L2.1.i"].failed > 0
    assert "disagrees" in res.stats["L2.1.i"].examples[0]
    # only L2.1.v, which needs HK as a subgroup, is skipped on failed pairs
    for lid in cl.LEMMA_IDS:
        if lid not in ("L2.1.i", "L2.1.v"):
            assert res.stats[lid].failed == 0, lid
            assert res.stats[lid].checked == clean.stats[lid].checked, lid
    assert res.stats["L2.1.v"].checked < clean.stats["L2.1.v"].checked


def test_r_value_disagreement_recorded_as_e34_failure(lattice, monkeypatch):
    # A failed r-value integrality check is an E3.4 failure of that triple,
    # which then skips E3.1 and E3.2; it must not escape the suite.
    def not_integral(subgroups, meet_order):
        raise ConsistencyError("intersection index not divisible by lcm")

    g, subs = lattice("S3")
    monkeypatch.setattr("cosetlab.counting._r_from_order", not_integral)
    res = cl.run_lemma_suite(g, subs)
    assert res.stats["E3.4"].failed > 0
    assert "not divisible" in res.stats["E3.4"].examples[0]
    assert res.stats["E3.1"].checked == 0
    assert res.stats["E3.2"].checked == 0


def test_modes_switch_to_sampled(lattice):
    g, subs = lattice("S4")
    res = cl.run_lemma_suite(
        g, subs, seed=7, exhaustive_pair_limit=4, exhaustive_triple_limit=4,
        nested_order_limit=4, sample_target=50,
    )
    assert res.pair_mode == "sampled"
    assert res.triple_mode == "sampled"
    assert res.nested_mode == "sampled"
    assert res.failures == 0
    assert res.samples > 0


def test_sampled_runs_reproducible(lattice):
    g, subs = lattice("A5")
    a = cl.run_lemma_suite(g, subs, seed=123, sample_target=300)
    b = cl.run_lemma_suite(g, subs, seed=123, sample_target=300)
    assert a.to_json_dict() == b.to_json_dict()
    c = cl.run_lemma_suite(g, subs, seed=124, sample_target=300)
    assert c.failures == 0


def test_suite_keeps_no_square_matrix(lattice):
    # containment rows are built one block at a time: an m x m int64 matrix
    # of intersection orders would be 64 MB for C2^6's 2825 subgroups
    g, subs = lattice("C2xC2xC2xC2xC2xC2")
    tracemalloc.start()
    try:
        res = cl.run_lemma_suite(g, subs, sample_target=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.failures == 0
    assert peak < 32 * 2**20


def test_json_shape(lattice):
    g, subs = lattice("C6")
    res = cl.run_lemma_suite(g, subs)
    doc = res.to_json_dict()
    assert doc["group_label"] == "C6"
    assert set(doc["modes"]) == {"pairs", "triples", "nested"}
    assert set(doc["counts"]) == {"pairs", "triples", "nested_quadruples", "samples"}
    assert doc["failures"] == 0
    assert set(doc["stats"]) == set(cl.LEMMA_IDS)


def test_stats_example_cap():
    st = LemmaStats()
    for i in range(9):
        st.record(False, f"case {i}")
    assert st.checked == 9
    assert st.failed == 9
    assert len(st.examples) == 5


def test_stats_tally_counts_whole_array():
    st = LemmaStats()
    st.record(False, "single")
    st.tally(np.array([True, False, False, True]), "array")
    assert (st.checked, st.failed) == (5, 3)
    assert st.examples == ["single", "array", "array"]
    st.tally(np.array([False] * 6), "more")
    st.tally(np.array([], dtype=bool), "empty")
    assert (st.checked, st.failed) == (11, 9)
    assert st.examples == ["single", "array", "array", "more", "more"]
