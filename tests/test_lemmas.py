from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cosetlab as cl
import cosetlab.counting
import cosetlab.lemmas
from cosetlab.counting import DEFAULT_CENSUS_CAP
from cosetlab.lemmas import LISTED, NOT_LISTED, LemmaStats
from helpers import (
    per_pair_family,
    per_quadruple_family,
    per_triple_family,
    plant_enumeration_fault,
)


EXHAUSTIVE_GROUPS = ["C6", "C12", "S3", "D4", "D6", "Q8", "A4", "C2xC2", "C2xC2xC2", "S4"]


def _set_limits(monkeypatch, limits):
    """Set lemmas module constants (PAIR_LIMIT, SAMPLE_TARGET, ...) for one test."""
    for name, value in limits.items():
        monkeypatch.setattr(cosetlab.lemmas, name, value)


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
def test_nested_quadruples_match_mask_rule(lattice, monkeypatch, name):
    # the quadruple filter of the suite, recounted from the element masks:
    # H in G when H's mask has no bit outside G's, kept when H1&H2 == G1&G2
    g, subs = lattice(name)
    _set_limits(monkeypatch, {"SAMPLE_TARGET": 0, "PAIR_LIMIT": 0, "TRIPLE_LIMIT": 0})
    res = cl.run_lemma_suite(g, subs)
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
    # A lattice lookup that never hits says no HK is a subgroup, which
    # contradicts HK = KH on every commuting pair; the suite must record
    # that, not raise.
    g, subs = lattice("S3")
    clean = cl.run_lemma_suite(g, subs)
    monkeypatch.setattr("cosetlab.lemmas.row_positions", lambda words: {})
    res = cl.run_lemma_suite(g, subs)
    assert res.stats["L2.1.i"].failed > 0
    assert "disagrees" in res.stats["L2.1.i"].examples[0]
    # only L2.1.v, which needs HK as a subgroup, is skipped on failed pairs
    for lid in cl.LEMMA_IDS:
        if lid not in ("L2.1.i", "L2.1.v"):
            assert res.stats[lid].failed == 0, lid
            assert res.stats[lid].checked == clean.stats[lid].checked, lid
    assert res.stats["L2.1.v"].checked < clean.stats["L2.1.v"].checked


def test_product_missing_from_the_list_fails_l21i(lattice, monkeypatch):
    # S4 without A4, its one subgroup of order 12, which is normal, so the
    # list stays closed under conjugation.  A4 = V4*C3 for the normal V4 and
    # each of the four C3: HK = KH, but HK is no row of the list, so these
    # 8 ordered pairs fail L2.1.i and skip L2.1.v, 24 disjoint coset pairs
    # each, where the per-pair oracle, which tests closure on the table,
    # passes and checks them.  Nothing else differs, and nothing raises.
    g, subs = lattice("S4")
    kept = [s for s in subs if s.order != 12]
    assert len(kept) == len(subs) - 1
    fast, oracle = _with_oracle(
        monkeypatch, lambda: cl.run_lemma_suite(g, kept), {"_check_pairs": per_pair_family}
    )
    l21i = fast["stats"]["L2.1.i"]
    assert (l21i["checked"], l21i["failed"], fast["failures"]) == (len(kept) ** 2, 8, 8)
    for text in l21i["examples"]:
        assert text in (f"S4: |H|=4 |K|=3: {NOT_LISTED}", f"S4: |H|=3 |K|=4: {NOT_LISTED}")
    assert oracle["failures"] == 0
    assert fast["stats"]["L2.1.v"]["checked"] == oracle["stats"]["L2.1.v"]["checked"] - 8 * 24
    for lid in cl.LEMMA_IDS:
        if lid not in ("L2.1.i", "L2.1.v"):
            assert fast["stats"][lid] == oracle["stats"][lid], lid


def test_listed_product_that_does_not_commute_fails_l21i(lattice, monkeypatch):
    # A lattice lookup that finds every HK, at the whole group, says HK is a
    # subgroup also on the 6 ordered pairs of distinct C2 in S3, where
    # HK != KH; each of them fails L2.1.i with the listed text.
    class Everywhere(dict):
        def get(self, key, default=None):
            return whole

    g, subs = lattice("S3")
    whole = next(i for i, s in enumerate(subs) if s.order == g.n)
    monkeypatch.setattr("cosetlab.lemmas.row_positions", lambda words: Everywhere())
    l21i = cl.run_lemma_suite(g, subs).stats["L2.1.i"]
    assert l21i.failed == 6
    assert l21i.examples and all(text == f"S3: |H|=2 |K|=2: {LISTED}" for text in l21i.examples)


def test_r_value_disagreement_recorded_as_e34_failure(lattice, monkeypatch):
    # A failed r-value integrality check is an E3.4 failure of that triple,
    # which then skips E3.1 and E3.2; it must not escape the suite.
    def not_integral(w, n, triples):
        ineq = real(w, n, triples)
        return replace(ineq, lcm=ineq.index + 1)  # no index is a multiple of itself + 1

    real = cosetlab.lemmas.triple_inequalities
    g, subs = lattice("S3")
    monkeypatch.setattr("cosetlab.lemmas.triple_inequalities", not_integral)
    res = cl.run_lemma_suite(g, subs)
    assert res.stats["E3.4"].failed > 0
    assert "not divisible" in res.stats["E3.4"].examples[0]
    assert res.stats["E3.1"].checked == 0
    assert res.stats["E3.2"].checked == 0


# every catalog group but A5 and S5 runs its triples exhaustively
EXHAUSTIVE_TRIPLE_GROUPS = [name for name in cl.CATALOG if name not in ("A5", "S5")]


# the per-instance route of each family, by the name of the batched check it replaces
TRIPLE_ORACLE = {"_check_triples": per_triple_family}
ORACLE = {**TRIPLE_ORACLE, "_check_pairs": per_pair_family, "_check_nested": per_quadruple_family}


def _with_oracle(monkeypatch, run, oracle=TRIPLE_ORACLE):
    """``run()``'s report, and the same run's with the families in ``oracle``
    done one instance at a time; by default the triple family, by ``census``
    and ``check_triple_inequalities``."""
    fast = run().to_json_dict()
    with monkeypatch.context() as m:
        for name, route in oracle.items():
            m.setattr(f"cosetlab.lemmas.{name}", route)
        return fast, run().to_json_dict()


SMALL_GROUPS = [name for name in cl.CATALOG if cl.load_catalog_group(name).n <= 24]
FORCED_SAMPLES = {"PAIR_LIMIT": 4, "TRIPLE_LIMIT": 4, "NESTED_ORDER_LIMIT": 4, "SAMPLE_TARGET": 300}


@pytest.mark.parametrize(
    "name,seed,limits",
    [(name, 0, {}) for name in SMALL_GROUPS]
    + [("S4", 7, FORCED_SAMPLES)]
    + [(name, seed, {}) for name in ("A5", "S5") for seed in (0, 3, 7)]
    + [("A6", 0, {})],
)
def test_suite_matches_per_instance_oracle(lattice, monkeypatch, name, seed, limits):
    # identical checked, failed and examples for every law when the pair,
    # triple and nested families each run one instance at a time: exhaustive
    # on the small groups, sampled on S4 with forced limits, A5, S5 and A6
    g, subs = lattice(name)
    _set_limits(monkeypatch, limits)
    fast, oracle = _with_oracle(monkeypatch, lambda: cl.run_lemma_suite(g, subs, seed=seed), ORACLE)
    assert fast == oracle
    mode = "sampled" if limits or name in ("A5", "S5", "A6") else "exhaustive"
    assert set(fast["modes"].values()) == {mode}


@pytest.mark.parametrize("name", ["S3", "A4"])
def test_unfiltered_nested_failures_match_oracle(lattice, monkeypatch, name):
    # With the H1 & H2 == G1 & G2 filter made to keep every quadruple, R3.1
    # fails on some of them: the batched count and its examples read as on
    # the per-quadruple route, which counts from the definition
    g, subs = lattice(name)
    _set_limits(monkeypatch, {"SAMPLE_TARGET": 0, "PAIR_LIMIT": 0, "TRIPLE_LIMIT": 0})
    monkeypatch.setattr("cosetlab.lemmas._meet_order", lambda w, a, b: np.zeros(len(a), dtype=np.int64))
    fast, oracle = _with_oracle(
        monkeypatch, lambda: cl.run_lemma_suite(g, subs), {"_check_nested": per_quadruple_family}
    )
    r31 = fast["stats"]["R3.1"]
    assert 0 < r31["failed"] < r31["checked"]
    assert len(r31["examples"]) == 5
    assert fast == oracle


# at census caps 1 and 100 these groups mix enumerated and capped triples
CAPPED_TRIPLE_GROUPS = ["S4", "D12", "A4", "C2xC2xC2"]


@pytest.mark.parametrize(
    "name,cap",
    [(name, DEFAULT_CENSUS_CAP) for name in EXHAUSTIVE_TRIPLE_GROUPS]
    + [(name, cap) for name in CAPPED_TRIPLE_GROUPS for cap in (1, 100)],
)
def test_triple_family_matches_per_triple_oracle(lattice, monkeypatch, name, cap):
    # identical checked, failed and examples for every law; the pair and
    # nested families are left out (no samples, no exhaustive pairs or nesting)
    g, subs = lattice(name)

    _no_per_triple_census(monkeypatch)
    _set_limits(monkeypatch, {"SAMPLE_TARGET": 0, "PAIR_LIMIT": 0, "NESTED_ORDER_LIMIT": 0})

    def run():
        res = cl.run_lemma_suite(g, subs, census_cap=cap)
        assert res.triple_mode == "exhaustive"
        return res

    fast, oracle = _with_oracle(monkeypatch, run)
    assert fast == oracle
    assert fast["stats"]["E3.4"]["checked"] == fast["counts"]["triples"]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["A5", "S5"])
def test_sampled_triple_family_matches_per_triple_oracle(lattice, monkeypatch, name, seed):
    g, subs = lattice(name)

    def run():
        res = cl.run_lemma_suite(g, subs, seed=seed)
        assert res.triple_mode == "sampled"
        return res

    fast, oracle = _with_oracle(monkeypatch, run)
    assert fast == oracle


def test_failed_strict_bound_examples_match_oracle(lattice, monkeypatch):
    # a strict bound of 0 fails E3.2 wherever it is checked; the examples,
    # which carry r and the bound, read as on the per-triple route
    def zero_bound(d, r_ij, r_ik, r_jk):
        return d * 0

    monkeypatch.setattr("cosetlab.counting.r_strict_upper", zero_bound)
    monkeypatch.setattr("helpers.r_strict_upper", zero_bound)
    g, subs = lattice("S4")
    fast, oracle = _with_oracle(monkeypatch, lambda: cl.run_lemma_suite(g, subs))
    assert fast == oracle
    e32 = fast["stats"]["E3.2"]
    assert e32["failed"] == e32["checked"] == 907
    assert e32["examples"][0].endswith(" bound=0")


def _no_per_triple_census(monkeypatch):
    """Fail the test if the library's per-triple ``census`` is called; the
    oracle in tests/helpers.py holds its own reference to it."""

    def per_triple_census(*args, **kwargs):
        raise AssertionError("the lemma suite reads the batched census")

    monkeypatch.setattr("cosetlab.counting.census", per_triple_census)


def _skipped_by_failed_census(clean, fast, failed):
    """The report ``fast`` differs from ``clean`` only where ``failed``
    triples failed L3.2 and skipped E3.1, E3.2 and E3.4."""
    l32 = fast["stats"]["L3.2"]
    assert fast["failures"] == l32["failed"] == failed
    assert l32["checked"] == clean["stats"]["L3.2"]["checked"]
    for lid in ("E3.1", "E3.4"):
        assert fast["stats"][lid]["checked"] == clean["stats"][lid]["checked"] - failed
    assert fast["stats"]["E3.2"]["checked"] <= clean["stats"]["E3.2"]["checked"]
    for lid in cl.LEMMA_IDS:
        if lid not in ("L3.2", "E3.1", "E3.2", "E3.4"):
            assert fast["stats"][lid] == clean["stats"][lid], lid


def test_lattice_census_fault_fails_each_triple(lattice, monkeypatch):
    # A wrong count in the enumeration of one orbit representative of S4's
    # exhaustive triples: the representative and every member of its orbit
    # fail L3.2 once each, named by their census text (a member's with its
    # representative), and skip E3.1, E3.2 and E3.4; no per-triple census runs.
    g, subs = lattice("S4")
    clean = cl.run_lemma_suite(g, subs).to_json_dict()
    orbits = cl.triple_orbits(subs)
    triples = cosetlab.counting._triples(len(subs))
    large = np.flatnonzero(np.bincount(orbits) > 5)  # representatives of orbits of 6 or more
    rep = int(large[len(large) // 2])
    members = np.flatnonzero(orbits == rep)
    plant_enumeration_fault(monkeypatch, triples[rep])
    _no_per_triple_census(monkeypatch)
    fast = cl.run_lemma_suite(g, subs).to_json_dict()
    _skipped_by_failed_census(clean, fast, len(members))

    def named(p):
        orders = ",".join(str(subs[x].order) for x in triples[p])
        return f"S4: orders ({orders}): census triple {tuple(triples[p].tolist())}"

    examples = fast["stats"]["L3.2"]["examples"]
    assert len(examples) == 5
    assert examples[0].startswith(named(rep) + " meet_all: closed form ")
    for p, text in zip(members[1:], examples[1:]):
        assert text.startswith(f"{named(p)} (orbit of {tuple(triples[rep].tolist())}) meet_all:")


def test_sampled_census_fault_fails_each_draw(lattice, monkeypatch):
    # A wrong count in the batched enumeration of one triple drawn from S5,
    # possibly more than once: every draw is its own orbit, fails L3.2 once,
    # named by its census text, and skips E3.1, E3.2 and E3.4.
    g, subs = lattice("S5")
    drawn = []
    real = cosetlab.lemmas._orbit_census

    def orbit_census(labels, w, triples, orbits, cap):
        drawn.append(triples)
        return real(labels, w, triples, orbits, cap)

    monkeypatch.setattr("cosetlab.lemmas._orbit_census", orbit_census)
    clean = cl.run_lemma_suite(g, subs).to_json_dict()
    triples = drawn[0]
    totals = [math.prod(subs[x].index for x in t) for t in triples]
    first = next(p for p in range(len(triples) // 3, len(triples)) if totals[p] <= DEFAULT_CENSUS_CAP)
    bad = tuple(triples[first].tolist())
    hits = sum(tuple(t) == bad for t in triples.tolist())
    plant_enumeration_fault(monkeypatch, bad)
    _no_per_triple_census(monkeypatch)
    fast = cl.run_lemma_suite(g, subs).to_json_dict()
    _skipped_by_failed_census(clean, fast, hits)
    orders = ",".join(str(subs[x].order) for x in bad)
    for text in fast["stats"]["L3.2"]["examples"]:
        assert text.startswith(f"S5: orders ({orders}): census triple {bad} meet_all: closed form ")


def test_modes_switch_to_sampled(lattice, monkeypatch):
    g, subs = lattice("S4")
    _set_limits(monkeypatch, {**FORCED_SAMPLES, "SAMPLE_TARGET": 50})
    res = cl.run_lemma_suite(g, subs, seed=7)
    assert res.pair_mode == "sampled"
    assert res.triple_mode == "sampled"
    assert res.nested_mode == "sampled"
    assert res.failures == 0
    assert res.samples > 0


@pytest.mark.parametrize("family", range(3))
def test_each_limit_is_inclusive_and_its_own(lattice, monkeypatch, family):
    # a family runs exhaustively exactly when its own count is at most its
    # own limit: here one family sits at its limit, the other two one past
    g, subs = lattice("S3")
    m = len(subs)
    counts = (m * m, math.comb(m + 2, 3), g.n)
    names = ("PAIR_LIMIT", "TRIPLE_LIMIT", "NESTED_ORDER_LIMIT")
    _set_limits(monkeypatch, {name: c - (i != family) for i, (name, c) in enumerate(zip(names, counts))})
    _set_limits(monkeypatch, {"SAMPLE_TARGET": 5})
    res = cl.run_lemma_suite(g, subs)
    modes = (res.pair_mode, res.triple_mode, res.nested_mode)
    assert modes == tuple("exhaustive" if i == family else "sampled" for i in range(3))
    assert res.pairs_run == (m * m if family == 0 else 5)
    assert res.triples_run == (counts[1] if family == 1 else 5)
    assert (res.nested_quadruples_run > 5) == (family == 2)
    assert res.samples == 10


def test_strict_bound_fails_at_equality(lattice, monkeypatch):
    # E3.2's bound is strict: a bound equal to r fails wherever it is checked
    real = cosetlab.lemmas.triple_inequalities

    def bound_at_r(w, n, triples):
        ineq = real(w, n, triples)
        return replace(ineq, r_bound=ineq.r[3])

    monkeypatch.setattr("cosetlab.lemmas.triple_inequalities", bound_at_r)
    g, subs = lattice("S4")
    e32 = cl.run_lemma_suite(g, subs).stats["E3.2"]
    assert e32.failed == e32.checked == 907


def test_sampled_runs_reproducible(lattice, monkeypatch):
    g, subs = lattice("A5")
    _set_limits(monkeypatch, {"SAMPLE_TARGET": 300})
    a = cl.run_lemma_suite(g, subs, seed=123)
    b = cl.run_lemma_suite(g, subs, seed=123)
    assert a.to_json_dict() == b.to_json_dict()
    c = cl.run_lemma_suite(g, subs, seed=124)
    assert c.failures == 0


def test_suite_keeps_no_square_matrix(lattice, monkeypatch):
    # containment rows are built one block at a time: an m x m int64 matrix
    # of intersection orders would be 64 MB for C2^6's 2825 subgroups
    g, subs = lattice("C2xC2xC2xC2xC2xC2")
    _set_limits(monkeypatch, {"SAMPLE_TARGET": 10})
    tracemalloc.start()
    try:
        res = cl.run_lemma_suite(g, subs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.failures == 0
    assert peak < 32 * 2**20


def test_sampled_suite_memory_stays_small(lattice):
    # every batched temporary is blocked: the three sampled families on S5
    # hold a few MB, not arrays over every instance at once
    g, subs = lattice("S5")
    tracemalloc.start()
    try:
        res = cl.run_lemma_suite(g, subs, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.failures == 0
    assert set(res.to_json_dict()["modes"].values()) == {"sampled"}
    assert peak < 16 * 2**20


def test_json_shape(lattice):
    g, subs = lattice("C6")
    res = cl.run_lemma_suite(g, subs)
    doc = res.to_json_dict()
    assert doc["group_label"] == "C6"
    assert doc["seed"] == 0  # the library's default seed is the CLI's
    assert set(doc["modes"]) == {"pairs", "triples", "nested"}
    assert set(doc["counts"]) == {"pairs", "triples", "nested_quadruples", "samples"}
    assert doc["failures"] == 0
    assert set(doc["stats"]) == set(cl.LEMMA_IDS)


def test_stats_example_cap():
    st = LemmaStats()
    for i in range(9):
        st.tally_at(np.ones(1, dtype=bool), np.zeros(1, dtype=bool), lambda p: f"case {i}")
    assert st.checked == 9
    assert st.failed == 9
    assert len(st.examples) == 5
    assert st.examples == [f"case {i}" for i in range(5)]


def test_stats_tally_counts_whole_array():
    # tally_at records only the checked positions, and names each failure
    st = LemmaStats()
    st.tally_at(np.ones(1, dtype=bool), np.zeros(1, dtype=bool), lambda p: "single")
    oks = np.array([True, False, False, True, False])
    st.tally_at(np.array([True, True, True, True, False]), oks, lambda p: f"array {p}")
    assert (st.checked, st.failed) == (5, 3)
    assert st.examples == ["single", "array 1", "array 2"]
    st.tally_at(np.ones(6, dtype=bool), np.zeros(6, dtype=bool), lambda p: f"more {p}")
    st.tally_at(np.array([], dtype=bool), np.array([], dtype=bool), lambda p: "empty")
    assert (st.checked, st.failed) == (11, 9)
    assert st.examples == ["single", "array 1", "array 2", "more 0", "more 1"]
