from __future__ import annotations

import math
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetlab as cl
from cosetlab import bitset, verifier
from cosetlab.bitset import bits_tuple, mask_of, popcounts
from cosetlab.cli import _resolve_spec
from cosetlab.cosets import coset_mask
from cosetlab.errors import CliqueCapExceeded
from cosetlab.groups import load_group
from cosetlab.subgroups import (
    _find_rows,
    _prefix_keys,
    conjugation_action,
    conjugators,
    generating_set,
    orbit_labels,
)
from cosetlab.verifier import (
    K_MAX,
    K_MIN,
    MEET_ROWS,
    OPEN_RANGE_NOTE,
    _coset_choices,
    _search_cliques,
    _search_with_count,
    search_orbits,
)

from helpers import (
    bar_row,
    exists_disjoint_family,
    int_coset_choices,
    pairwise_disjoint,
    recursive_cliques,
    rows_built,
    small_products,
    word_int,
)

VERIFY_GROUPS = ["C6", "C12", "S3", "S4", "D6", "Q8", "A4", "C2xC2xC2", "S3xC2"]
C2_6 = "C2xC2xC2xC2xC2xC2"


def clique_oracle(subs, k):
    """All nondecreasing index multisets whose pairs pass both pair bars.

    Grown one position at a time over plain index lists and a set of
    compatible pairs from the per-pair route; no order-sum bar.
    """
    comp = {
        (i, j)
        for i, j in combinations_with_replacement(range(len(subs)), 2)
        if math.gcd(subs[i].index, subs[j].index) < k and cl.disjointable(subs[i], subs[j])
    }
    out = []

    def grow(prefix):
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for j in range(prefix[-1] if prefix else 0, len(subs)):
            if all((i, j) in comp for i in prefix):
                grow(prefix + [j])

    grow([])
    return out


def within_order(g, subs, clique):
    return sum(subs[i].order for i in clique) <= g.n


@pytest.mark.parametrize("name", ["C6", "S3", "Q8"])
def test_pair_table_values(lattice, name):
    g, subs = lattice(name)
    stats = cl.pair_table(g, subs)
    assert len(stats) == len(subs) * (len(subs) + 1) // 2
    for ps in stats:
        h, k = subs[ps.i], subs[ps.j]
        assert ps.gcd_index == math.gcd(h.index, k.index)
        assert ps.disjointable == cl.disjointable(h, k)


def assert_rows_match_pairs(subs, source):
    """The pair rows and their iterated pairs against the per-pair route,
    over every unordered pair i <= j."""
    m = len(subs)
    assert len(source) == m * (m + 1) // 2
    stats = iter(source)
    for i, h in enumerate(subs):
        row = word_int(source.disjoint_rows(i))
        for j in range(i, m):
            k = subs[j]
            ok = cl.disjointable(h, k)
            assert bool(row >> j & 1) == ok, (i, j)
            assert next(stats) == cl.PairStats(i, j, math.gcd(h.index, k.index), ok)
    assert next(stats, None) is None


@pytest.mark.parametrize(
    "name", ["S4", "S5", "D30", "C1", "C63", "C64", "C65", "C128", "C129"]
)
def test_pair_matrices_match_per_pair_route(lattice, name):
    g, subs = lattice(name)
    assert_rows_match_pairs(subs, cl.pair_table(g, subs))


@given(factors=small_products())
@settings(max_examples=15, deadline=None)
def test_pair_matrices_match_per_pair_route_on_products(lattice, factors):
    g, subs = lattice("x".join(factors))
    assert_rows_match_pairs(subs, cl.pair_table(g, subs))


# group -> (m, pairs, disjointable pairs, {k: pairs with gcd < k that are
# disjointable}), all over unordered pairs i <= j
PAIR_COUNTS = {
    "S4": (30, 465, 376, {2: 0, 3: 50, 4: 107, 5: 209, 6: 209}),
    "S5": (156, 12246, 11694, {2: 0, 3: 359, 4: 629, 5: 1049, 6: 2544}),
    "D30": (80, 3240, 2830, {2: 0, 3: 162, 4: 453, 5: 458, 6: 948}),
    C2_6: (2825, 3991725, 2505487, {2: 0, 3: 23562, 4: 23562, 5: 635502, 6: 635502}),
}


@pytest.mark.parametrize("name", sorted(PAIR_COUNTS))
def test_pair_table_counts_frozen(lattice, name):
    # popcounts of the rows from the diagonal on
    g, subs = lattice(name)
    source = cl.pair_table(g, subs)
    disjoint = sum((word_int(source.disjoint_rows(j)) >> j).bit_count() for j in range(len(subs)))
    by_k = {}
    for k in range(2, 7):
        gcd_ok, _ = source.rows(k)
        by_k[k] = sum((bar_row(source, gcd_ok, j) >> j).bit_count() for j in range(len(subs)))
    assert (len(subs), len(source), disjoint, by_k) == PAIR_COUNTS[name]


def test_pair_table_serves_the_traced_replay(lattice):
    # the benchmark's traced replay takes len() of pair_table's result,
    # iterates it as PairStats and passes it on as pair_stats
    g, subs = lattice("S4")
    source = cl.pair_table(g, subs)
    assert isinstance(source, cl.PairRows)
    want = [
        cl.PairStats(i, j, math.gcd(h.index, k.index), cl.disjointable(h, k))
        for (i, h), (j, k) in combinations_with_replacement(enumerate(subs), 2)
    ]
    assert len(source) == len(want) and list(source) == want
    for k in (3, 4, 5):
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=source)
        assert rep == cl.verify_group(g, k, subgroups=subs, pair_stats=cl.PairRows(g, subs))


# every catalog group, and lattices past it up to C2^6's 2825 positions,
# whose rows cross many MEET_ROWS build units
ROW_SOURCE_GROUPS = sorted(cl.CATALOG) + ["D30", "S3xS3xC2", "A4xA4", "A6", C2_6]
# (group, k) -> disjointability rows a fresh source builds for the clique
# search.  In C2^6 every first pick is lone: the least order of a partner
# that passes its gcd bar and fits beside it, taken k - 1 times, passes |G|
# with it (at k = 2 only G has an index prime to another, and nothing fits
# beside G); 2,816 rows at k = 3 and 4 and 2,112 at k = 5 and 6 were built
# before lone first picks were dropped.
ROWS_BUILT = {(C2_6, 2): 0, (C2_6, 3): 0, (C2_6, 4): 0, (C2_6, 5): 0, (C2_6, 6): 0}


@pytest.mark.parametrize("name", ROW_SOURCE_GROUPS)
def test_pair_rows_match_pair_table(lattice, name):
    # the clique search reads bit t of row j only for t >= j; those bits
    # must be the per-pair route's gcd < k and disjointable, and the source
    # sets no bit below the start of j's row block
    g, subs = lattice(name)
    # per position j, the positions t >= j disjointable from j, one mask per
    # gcd of the two indices
    by_gcd = []
    for j, h in enumerate(subs):
        masks = defaultdict(int)
        for t in range(j, len(subs)):
            if cl.disjointable(h, subs[t]):
                masks[math.gcd(h.index, subs[t].index)] |= 1 << t
        by_gcd.append(masks)
    source = cl.PairRows(g, subs)
    for k in range(2, 7):
        gcd_ok, _ = source.rows(k)
        kept = 0
        for j, masks in enumerate(by_gcd):
            row, want = bar_row(source, gcd_ok, j), sum(mask for d, mask in masks.items() if d < k)
            assert row >> j << j == want, (k, j)
            assert row >> (j - j % MEET_ROWS) << (j - j % MEET_ROWS) == row, (k, j)
            kept += want.bit_count()
        if name in PAIR_COUNTS:
            assert kept == PAIR_COUNTS[name][3][k]
        # rows built on the clique search's lookups give the cliques of
        # rows built in full
        fresh = cl.PairRows(g, subs)
        assert cl.candidate_cliques(
            g, k, subgroups=subs, pair_stats=fresh
        ).tolist() == cl.candidate_cliques(g, k, subgroups=subs, pair_stats=source).tolist()
        if (name, k) in ROWS_BUILT:
            assert rows_built(fresh) == ROWS_BUILT[(name, k)]


@pytest.mark.parametrize("name", ROW_SOURCE_GROUPS)
def test_level_wise_cliques_match_recursive_route(lattice, name):
    # the same cliques in the same order, the same prefixes counted against
    # the cap, and the same disjointability rows built from a fresh source
    g, subs = lattice(name)
    for k in range(2, 7):
        oracle = cl.PairRows(g, subs)
        want, visits = recursive_cliques(g, k, oracle)
        source = cl.PairRows(g, subs)
        got = cl.candidate_cliques(g, k, subgroups=subs, pair_stats=source, max_cliques=visits)
        assert got.dtype == np.int64 and got.shape == (len(want), k)
        assert got.tolist() == [list(c) for c in want]
        assert source._built.tolist() == oracle._built.tolist()
        if visits:
            with pytest.raises(CliqueCapExceeded):
                cl.candidate_cliques(
                    g, k, subgroups=subs, pair_stats=source, max_cliques=visits - 1
                )


def test_lone_first_picks_build_no_row():
    # C2^7 at k = 3: a partner of H_j that passes the gcd bar and fits
    # beside it has index 2, and two of them pass |G| together with H_j, so
    # extend would stop before any bit of row j; 29,120 rows were built
    g = load_group(_resolve_spec("C2xC2xC2xC2xC2xC2xC2"))
    subs = cl.enumerate_subgroups(g, max_subgroups=30_000)
    source = cl.PairRows(g, subs)
    for k in range(2, 7):
        assert cl.candidate_cliques(g, k, subgroups=subs, pair_stats=source).tolist() == []
    assert rows_built(source) == 0


def test_lone_first_picks_count_against_the_cap(lattice):
    # a lone first pick builds no row but is still a prefix: at k = 3 every
    # position of order <= |G| / 3 is visited, and nothing past it
    g, subs = lattice(C2_6)
    stats = cl.PairRows(g, subs)
    visits = sum(3 * s.order <= g.n for s in subs)
    assert visits == 2761
    assert cl.candidate_cliques(
        g, 3, subgroups=subs, pair_stats=stats, max_cliques=visits
    ).tolist() == []
    with pytest.raises(CliqueCapExceeded):
        cl.candidate_cliques(g, 3, subgroups=subs, pair_stats=stats, max_cliques=visits - 1)


def unit_fraction_sums(k):
    """Every nondecreasing list of k integers d_i >= 2 with sum(1 / d_i) = 1."""
    out = []

    def grow(prefix, rest, left):
        low = max(prefix[-1] if prefix else 2, math.ceil(1 / rest))
        if left == 1:
            if rest.numerator == 1 and rest.denominator >= low:
                out.append(prefix + [rest.denominator])
            return
        for d in range(low, math.floor(left / rest) + 1):
            if rest > Fraction(1, d):
                grow(prefix + [d], rest - Fraction(1, d), left - 1)

    grow([], Fraction(1), k)
    return out


def test_no_clique_fills_the_group():
    # the premise of PairRows.rows' argument that its lone test loses no
    # clique: the indices of a clique whose orders fill G would sum to 1 in
    # reciprocals with every pair's gcd in [2, k), and no such list exists
    # for k <= K_MAX.  (Disjointable pairs have no coprime indices: the
    # disjointable pairs of PAIR_COUNTS at k = 2 are 0.)
    counts = []
    for k in range(K_MIN, K_MAX + 1):
        sums = unit_fraction_sums(k)
        counts.append(len(sums))
        for d in sums:
            assert any(not 1 < math.gcd(a, b) < k for a, b in combinations(d, 2)), d
    assert counts == [1, 3, 14, 147, 3462][: K_MAX - 1]  # OEIS A002966


@pytest.mark.parametrize("name, ks", [(C2_6, range(2, 7)), ("S5", [2]), ("A6", [2])])
def test_verify_without_cliques_builds_no_subgroup(tmp_path, name, ks):
    # a cold and then a warm lattice through the pair rows and the clique
    # search: with no clique, no position's elements are named
    g = load_group(_resolve_spec(name))
    for status in ("cold", "warm"):
        subs, got = cl.cached_subgroups(g, tmp_path)
        assert got == status
        source = cl.PairRows(g, subs)
        for k in ks:
            rep = cl.verify_group(g, k, subgroups=subs, pair_stats=source)
            assert rep.candidate_clique_count == 0
        assert all(item is None for item in subs._items)


@pytest.mark.parametrize("name, ks", [("S4", [3]), ("S5", [3]), ("S3xS3xC2", range(3, 6))])
def test_verify_without_a_find_builds_no_subgroup(tmp_path, name, ks):
    # a cold and then a warm lattice through verify at k with cliques but
    # no find: the coset search names no position's elements
    g = load_group(_resolve_spec(name))
    for status in ("cold", "warm"):
        subs, got = cl.cached_subgroups(g, tmp_path)
        assert got == status
        source = cl.PairRows(g, subs)
        for k in ks:
            rep = cl.verify_group(g, k, subgroups=subs, pair_stats=source)
            assert rep.candidate_clique_count and not rep.violations
        assert all(item is None for item in subs._items)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_census_and_lemmas_build_no_subgroup(tmp_path, name):
    # a cold and then a warm lattice through the census and the lemma
    # suite, whose coset labels come from the lattice rows
    g = load_group(_resolve_spec(name))
    for status in ("cold", "warm"):
        subs, got = cl.cached_subgroups(g, tmp_path)
        assert got == status
        cl.lattice_census(subs)
        cl.run_lemma_suite(g, subs)
        assert all(item is None for item in subs._items)


@pytest.mark.parametrize("name", ROW_SOURCE_GROUPS)
def test_coset_choice_table_matches_int_choices(lattice, name):
    # per clique and slot, the word table's rows read as ints are the
    # subgroup's mask, its double coset picks or its left cosets
    g, subs = lattice(name)
    source = cl.PairRows(g, subs)
    for k in range(3, 7):
        cliques = cl.candidate_cliques(g, k, subgroups=subs, pair_stats=source)
        table, start, count = _coset_choices(subs, cliques)
        masks = [word_int(row) for row in table]
        got = [
            [tuple(masks[a : a + c]) for a, c in zip(firsts, counts)]
            for firsts, counts in zip(start.tolist(), count.tolist())
        ]
        assert got == [int_coset_choices(subs, c) for c in cliques.tolist()], k


@pytest.mark.parametrize("entry", [cl.candidate_cliques, cl.verify_group])
def test_pair_rows_from_another_lattice_rejected(lattice, entry):
    g, subs = lattice("S4")
    stale = cl.PairRows(*lattice("S3"))
    with pytest.raises(ValueError, match="pair table covers 6 subgroups"):
        entry(g, 3, subgroups=subs, pair_stats=stale)


def test_verify_largest_lattice_memory_bound(lattice):
    # the pair bars of C2^6 as two m x m matrices and their products traced
    # 190 MB; the row source holds the membership words and the rows built
    g, subs = lattice(C2_6)
    tracemalloc.start()
    try:
        for k in range(2, 7):
            cl.verify_group(g, k, subgroups=subs, pair_stats=cl.PairRows(g, subs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_verify_open_range_memory_bound(lattice):
    # A4xA4 at k = 5, rows and action already built: 24,320 cliques in 360
    # orbits.  The recursive enumeration and the per-clique search traced
    # 5.60 MB, the level-wise blocks 4.49 MB
    g, subs = lattice("A4xA4")
    source = cl.PairRows(g, subs)
    cl.verify_group(g, 5, subgroups=subs, pair_stats=source)
    tracemalloc.start()
    try:
        rep = cl.verify_group(g, 5, subgroups=subs, pair_stats=source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.candidate_clique_count, rep.clique_orbits) == (24320, 360)
    assert peak < 5.5 * 2**20


def _spy_blocks(monkeypatch):
    """Record every block the verifier cuts: the function that asked, the
    block, and that function's local variables once the block is done."""
    seen = []

    def spy(cost):
        caller = sys._getframe(1)
        for block in bitset.blocks(cost):
            yield block
            seen.append((caller.f_code.co_name, block, dict(caller.f_locals)))

    monkeypatch.setattr(verifier, "blocks", spy)
    return seen


@pytest.mark.parametrize("name", ["S3xS3xC2", "A4xA4"])
def test_verifier_blocks_hold_their_budget(lattice, monkeypatch, name):
    # under a small budget, the arrays each block of more than one row
    # builds stay within it.  In grow every candidate bit of the block may
    # become a prefix of k positions and a row of candidate words, and the
    # block's own rows are candidate words; in place every try holds its
    # state and choice indices and three rows of words: its coset, the
    # state's union gathered, and their AND
    g, subs = lattice(name)
    budget = 1 << 10
    monkeypatch.setattr(bitset, "BLOCK_ENTRIES", budget)
    seen = _spy_blocks(monkeypatch)
    k = 5
    cl.verify_group(g, k, subgroups=subs, pair_stats=cl.PairRows(g, subs))
    fullest = {"grow": 0, "place": 0}
    for where, block, local in seen:
        if where == "grow":
            cand = local["cand"][block]
            entries = int(popcounts(cand).sum()) * (k + cand.shape[1]) + cand.size
        else:
            entries = 2 * len(local["choice"]) + 3 * local["coset"].size
        if block.stop - block.start > 1:
            assert entries <= budget, (where, block)
            fullest[where] = max(fullest[where], entries)
    # blocks of many rows, cut close to the budget
    assert min(fullest.values()) > budget * 3 // 4


def test_action_built_once_per_lattice(monkeypatch):
    # S4 has cliques at k = 3 and 5; one source serves k = 2..6, and its
    # lattice's action also serves the census of the same lattice
    g = cl.load_catalog_group("S4")
    subs = cl.enumerate_subgroups(g)
    calls = []

    def counted(*args):
        calls.append(args)
        return conjugation_action(*args)

    monkeypatch.setattr(cl.subgroups, "conjugation_action", counted)
    source = cl.PairRows(g, subs)
    assert source.lattice is subs
    for k in range(2, 7):
        cl.verify_group(g, k, subgroups=subs, pair_stats=source)
    cl.lattice_census(subs)
    assert len(calls) == 1


@pytest.mark.parametrize("name", VERIFY_GROUPS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_candidate_cliques_match_oracle(lattice, name, k):
    g, subs = lattice(name)
    stats = cl.pair_table(g, subs)
    got = cl.candidate_cliques(g, k, subgroups=subs, pair_stats=stats)
    assert got.tolist() == [list(c) for c in clique_oracle(subs, k) if within_order(g, subs, c)]


def test_candidate_clique_counts_frozen(lattice):
    g, subs = lattice("S4")
    stats = cl.pair_table(g, subs)
    # pair bars only
    counts = {k: len(clique_oracle(subs, k)) for k in (2, 3, 4)}
    assert counts == {2: 0, 3: 14, 4: 199}
    # k -> (candidate cliques, tuples examined over one clique per
    # conjugacy orbit, smallest max_cliques that passes)
    frozen = {3: (4, 11, 72), 4: (0, 0, 65), 5: (720, 705, 1309)}
    for k, (cliques, examined, cap) in frozen.items():
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=stats, max_cliques=cap)
        assert (rep.candidate_clique_count, rep.tuples_examined) == (cliques, examined)
        with pytest.raises(CliqueCapExceeded):
            cl.candidate_cliques(
                g, k, subgroups=subs, pair_stats=stats, max_cliques=cap - 1
            )


def test_candidate_cliques_need_sorted_lattice(lattice):
    # the order-sum bar stops at the first position too large, and the
    # order fit is a searchsorted over the orders: both are only sound while
    # positions ascend by order, so the row source refuses any other order
    g, subs = lattice("S4")
    with pytest.raises(ValueError, match="non-decreasing order"):
        cl.PairRows(g, subs[::-1])
    swapped = [subs[1], subs[0], *subs[2:]]
    assert swapped[0].order > swapped[1].order
    with pytest.raises(ValueError, match="non-decreasing order"):
        cl.pair_table(g, swapped)


SMALL_CATALOG = sorted(n for n in cl.CATALOG if cl.load_catalog_group(n).n <= 24)


@pytest.mark.parametrize(
    "name, ks",
    [pytest.param(n, (2, 3, 4, 5), id=n) for n in SMALL_CATALOG]
    + [pytest.param("S4", (6,), id="S4-k6")],
)
def test_order_bar_and_search_against_plain_backtracking(lattice, name, ks):
    # every pair-bar clique goes through a backtracking search with no
    # pinning: the ones the order-sum bar drops hold no disjoint family, and
    # on the ones it keeps the library search agrees
    g, subs = lattice(name)
    for k in ks:
        for clique in clique_oracle(subs, k):
            family = [subs[i] for i in clique]
            exists = exists_disjoint_family(g, family)
            if within_order(g, subs, clique):
                assert (cl.search_disjoint_tuple(family) is not None) == exists, clique
            else:
                assert not exists, clique


def test_forced_search_on_index_two_pair(lattice):
    # both slots the order-2 subgroup of C4: the two proper cosets are
    # disjoint, so the search must find them even though the pair fails
    # the gcd precondition and would never be enqueued by verify_group
    g, subs = lattice("C4")
    s2 = next(s for s in subs if s.order == 2)
    v = cl.search_disjoint_tuple([s2, s2])
    assert v is not None
    assert v.k == 2
    assert v.coset_reps == (0, 1)
    assert v.subgroup_elements == ((0, 2), (0, 2))
    assert v.gcd_matrix == ((2, 2), (2, 2))


def test_search_none_when_product_covers(lattice):
    g, subs = lattice("C6")
    h2 = next(s for s in subs if s.order == 2)
    h3 = next(s for s in subs if s.order == 3)
    assert cl.search_disjoint_tuple([h2, h3]) is None


def test_search_pins_first_rep(lattice):
    g, subs = lattice("C6")
    h2 = next(s for s in subs if s.order == 2)
    v = cl.search_disjoint_tuple([h2, h2, h2])
    assert v is not None
    assert v.coset_reps[0] == 0
    cosets = [frozenset(bits_tuple(coset_mask(r, s))) for r, s in zip(v.coset_reps, [h2] * 3)]
    assert pairwise_disjoint(cosets)


def test_search_result_in_caller_order(lattice):
    # regression: the search reorders slots largest subgroup first
    # internally, but the violation must come back in the caller's order
    g, subs = lattice("S3xC2")
    pairs = [
        (a, b)
        for a in subs
        for b in subs
        if a.order < b.order and cl.disjointable(a, b)
    ]
    assert pairs
    for a, b in pairs:
        v = cl.search_disjoint_tuple([a, b])
        assert v is not None
        assert v.subgroup_elements == (a.elements, b.elements)
        ca = frozenset(bits_tuple(coset_mask(v.coset_reps[0], a)))
        cb = frozenset(bits_tuple(coset_mask(v.coset_reps[1], b)))
        assert not ca & cb


def test_triple_search_result_in_caller_order(lattice):
    g, subs = lattice("S3xC2")
    a, b = subs[0], subs[1]
    assert a.order < b.order
    v = cl.search_disjoint_tuple([a, a, b])
    assert v is not None
    assert v.subgroup_elements == (a.elements, a.elements, b.elements)
    cosets = [
        frozenset(bits_tuple(coset_mask(r, s)))
        for r, s in zip(v.coset_reps, [a, a, b])
    ]
    assert pairwise_disjoint(cosets)


def test_violation_json_shape(lattice):
    g, subs = lattice("C4")
    s2 = next(s for s in subs if s.order == 2)
    v = cl.search_disjoint_tuple([s2, s2])
    doc = v.to_json_dict()
    assert set(doc) == {"k", "subgroups", "coset_reps", "gcd_matrix"}
    assert doc["subgroups"] == [[0, 2], [0, 2]]


@pytest.mark.parametrize("name", VERIFY_GROUPS)
def test_verify_confirms_catalog_groups(lattice, name):
    g, subs = lattice(name)
    stats = cl.pair_table(g, subs)
    for k in (2, 3, 4):
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=stats)
        assert rep.confirmed
        assert rep.status == "confirmed"
        assert rep.violations == []
        if rep.candidate_clique_count:
            assert rep.tuples_examined >= rep.candidate_clique_count


@pytest.mark.parametrize("name", ["S3xC2", "D4", "A4"])
def test_search_matches_plain_backtracking(lattice, name):
    # every subgroup triple, with no bars: both finds and misses occur
    g, subs = lattice(name)
    found = set()
    for triple in combinations_with_replacement(subs, 3):
        exists = exists_disjoint_family(g, list(triple))
        v = cl.search_disjoint_tuple(list(triple))
        assert (v is not None) == exists
        found.add(exists)
        if v is not None:
            cosets = [
                frozenset(bits_tuple(coset_mask(r, s)))
                for r, s in zip(v.coset_reps, triple)
            ]
            assert pairwise_disjoint(cosets)
    assert found == {True, False}


def test_verify_pinned_on_largest_lattice(lattice):
    # C2^6, 2825 subgroups: the largest lattice the suite verifies
    g, subs = lattice(C2_6)
    stats = cl.pair_table(g, subs)
    for k in (3, 4):
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=stats)
        assert (rep.candidate_clique_count, rep.tuples_examined) == (0, 0)
        assert rep.status == "confirmed"


@pytest.mark.parametrize("name", [C2_6, "A6"])
def test_verify_open_range_without_cliques(lattice, name):
    # the order-sum bar leaves no candidate clique at k = 5, 6 on these
    # lattices, well inside the default clique cap
    g, subs = lattice(name)
    stats = cl.pair_table(g, subs)
    for k in (5, 6):
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=stats)
        assert (rep.candidate_clique_count, rep.tuples_examined) == (0, 0)
        assert rep.status == "no violations found"


def test_verify_k_out_of_range(lattice):
    g, subs = lattice("C6")
    for bad in (1, 7):
        with pytest.raises(ValueError):
            cl.verify_group(g, bad, subgroups=subs, pair_stats=cl.PairRows(g, subs))


def test_clique_cap_counts_prefixes(lattice):
    # A5 admits no candidate cliques at all for k in 2..4, but the searcher
    # still visits single-subgroup prefixes, so a cap of 1 must trip
    g, subs = lattice("A5")
    stats = cl.PairRows(g, subs)
    for k in (2, 3, 4):
        assert cl.candidate_cliques(g, k, subgroups=subs, pair_stats=stats).tolist() == []
    with pytest.raises(CliqueCapExceeded):
        cl.candidate_cliques(g, 2, subgroups=subs, pair_stats=stats, max_cliques=1)


def test_verify_k5_reports_open_range(lattice):
    # C6 at k=5: four multisets pass the pair bars (a proper subgroup five
    # times, or four times with the trivial subgroup), but each has order
    # sum above 6, so none is a candidate and the verdict is still open
    g, subs = lattice("C6")
    rep = cl.verify_group(g, 5, subgroups=subs, pair_stats=cl.PairRows(g, subs))
    assert rep.candidate_clique_count == 0
    assert rep.violations == []
    assert rep.status == "no violations found"
    assert rep.note == OPEN_RANGE_NOTE
    doc = rep.stable_dict()
    assert doc["note"] == OPEN_RANGE_NOTE


def test_note_absent_below_k5(lattice):
    g, subs = lattice("C6")
    rep = cl.verify_group(g, 4, subgroups=subs, pair_stats=cl.PairRows(g, subs))
    assert rep.note is None
    assert "note" not in rep.stable_dict()


def plant_find(monkeypatch, k, gcds):
    """Make every search_orbits call report one family whose gcd matrix is
    ``gcds``; D30 has candidate cliques at k = 3..5, so verify_group reads it."""
    planted = cl.Violation(k, ((0,),) * k, (0,) * k, gcds)
    monkeypatch.setattr(
        verifier, "search_orbits", lambda perms, subgroups, cliques: ({0: planted}, 1, 1)
    )
    return planted


@pytest.mark.parametrize(
    "k, status", [(4, "violated (implementation bug suspected)"), (5, "violated")]
)
def test_planted_find_sets_the_status(lattice, monkeypatch, k, status):
    # the diagonal gcds are indices and may pass the bar; only the
    # off-diagonal entries are held to it
    g, subs = lattice("D30")
    gcds = tuple(tuple(k if a == b else 1 for b in range(k)) for a in range(k))
    planted = plant_find(monkeypatch, k, gcds)
    rep = cl.verify_group(g, k, subgroups=subs, pair_stats=cl.PairRows(g, subs))
    assert rep.violations == [planted]
    assert rep.status == status
    assert rep.note is None


def test_planted_find_at_the_gcd_bar_is_inconsistent(lattice, monkeypatch):
    g, subs = lattice("D30")
    k = 5
    gcds = tuple(tuple(k if (a, b) == (0, 1) else 1 for b in range(k)) for a in range(k))
    plant_find(monkeypatch, k, gcds)
    with pytest.raises(cl.ConsistencyError, match="at or above the gcd bar"):
        cl.verify_group(g, k, subgroups=subs, pair_stats=cl.PairRows(g, subs))


ORBIT_ORACLE_CASES = [
    pytest.param(n, range(2, 7), id=n) for n in sorted(cl.CATALOG)
] + [pytest.param(n, range(2, 6), id=n) for n in ("D30", "S3xS3xC2")]


@pytest.mark.parametrize("name, ks", ORBIT_ORACLE_CASES)
def test_orbit_search_matches_search_of_every_clique(lattice, name, ks):
    # the oracle searches each candidate clique on its own
    g, subs = lattice(name)
    stats = cl.pair_table(g, subs)
    for k in ks:
        cliques = cl.candidate_cliques(g, k, subgroups=subs, pair_stats=stats)
        full = [_search_with_count([subs[i] for i in c]) for c in cliques]
        expected = [v for v, _ in full if v is not None]
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=stats)
        assert rep.candidate_clique_count == len(cliques)
        assert rep.violations == expected
        assert rep.status == replace(rep, violations=expected).status
        assert rep.clique_orbits <= len(cliques)
        assert rep.tuples_examined <= sum(e for _, e in full)


@pytest.mark.parametrize("name", ["S3xC2", "D4", "A4"])
def test_orbit_search_find_path(lattice, name):
    # no candidate clique in reach holds a family, but the unbarred subgroup
    # triples are closed under conjugation and hold finds and misses, so
    # every found orbit is searched member by member
    g, subs = lattice(name)
    triples = list(combinations_with_replacement(range(len(subs)), 3))
    found, orbits, _ = search_orbits(conjugation_action(g, subs), subs, np.array(triples))
    direct = {}
    for c, triple in enumerate(triples):
        family = [subs[i] for i in triple]
        assert (c in found) == exists_disjoint_family(g, family), triple
        v, _ = _search_with_count(family)
        if v is not None:
            direct[c] = v
    assert list(found.items()) == list(direct.items())
    assert 0 < len(found) < len(triples)
    assert orbits < len(triples)


SEARCH_ORACLE_CASES = [
    pytest.param(n, range(2, 7), id=n) for n in sorted(cl.CATALOG)
] + [pytest.param(n, range(2, 6), id=n) for n in ("D30", "S3xS3xC2", "A4xA4")]


@pytest.mark.parametrize("name, ks", SEARCH_ORACLE_CASES)
def test_batched_search_matches_backtracking_per_representative(lattice, name, ks):
    # the find or miss, the coset placements and the family of every orbit
    # representative, against a backtracking search of that clique alone
    g, subs = lattice(name)
    source = cl.PairRows(g, subs)
    for k in ks:
        cliques = cl.candidate_cliques(g, k, subgroups=subs, pair_stats=source)
        reps = cliques[orbit_labels(source.lattice.action, cliques) == np.arange(len(cliques))]
        found, examined = _search_cliques(subs, reps)
        assert examined.shape == (len(reps),)
        for r, clique in enumerate(reps):
            family, count = _search_with_count([subs[i] for i in clique])
            assert (found.get(r), int(examined[r])) == (family, count), (k, clique)


@pytest.mark.parametrize("name", ["S3xC2", "D4", "A4"])
def test_batched_search_find_path(lattice, name):
    # every unbarred subgroup triple, finds and misses among them
    g, subs = lattice(name)
    triples = np.array(list(combinations_with_replacement(range(len(subs)), 3)))
    found, examined = _search_cliques(subs, triples)
    for r, triple in enumerate(triples):
        family, count = _search_with_count([subs[i] for i in triple])
        assert (found.get(r), int(examined[r])) == (family, count), triple
    assert 0 < len(found) < len(triples)


def brute_conjugacy_classes(g, subs):
    """Classes of lattice positions, conjugating by every element."""
    position = {frozenset(s.elements): i for i, s in enumerate(subs)}
    mul, inv = g.mul, g.inv
    return {
        frozenset(
            position[frozenset(mul[mul[inv[x]][h]][x] for h in s.elements)]
            for x in range(g.n)
        )
        for s in subs
    }


def action_classes(g, subs):
    perms = conjugation_action(g, subs)
    labels = orbit_labels(perms, np.arange(len(subs))[:, None])
    return {frozenset(np.flatnonzero(labels == r).tolist()) for r in set(labels.tolist())}


@pytest.mark.parametrize(
    "name", sorted(n for n in cl.CATALOG if cl.load_catalog_group(n).n <= 120)
)
def test_lattice_orbits_are_conjugacy_classes(lattice, name):
    g, subs = lattice(name)
    assert action_classes(g, subs) == brute_conjugacy_classes(g, subs)


# conjugacy classes of subgroups, as in the literature
CLASS_COUNTS = {"S4": 11, "S5": 19, "A5": 9, "A6": 22, "D4": 8, "Q8": 6}


@pytest.mark.parametrize("name", sorted(CLASS_COUNTS))
def test_lattice_orbit_counts_pinned(lattice, name):
    g, subs = lattice(name)
    assert len(action_classes(g, subs)) == CLASS_COUNTS[name]


def reference_action(g, subs):
    """Conjugation by every element of generating_set(g), through the table."""
    table = g.np_table
    position = {s.mask: i for i, s in enumerate(subs)}
    return [
        np.array([position[mask_of(conj[list(s.elements)].tolist())] for s in subs])
        for conj in (table[table[g.inv[x]], x] for x in generating_set(g))
    ]


ABELIAN = {n for n in cl.CATALOG if n.startswith("C")}


def has_center(name):
    table = cl.load_catalog_group(name).np_table
    return (table == table.T).all(axis=1).sum() > 1


@pytest.mark.parametrize(
    "name",
    sorted(n for n in cl.CATALOG if has_center(n)) + ["D30", "S3xS3xC2", "S4xS3"],
)
def test_action_modulo_center_has_the_orbits_of_the_full_action(lattice, name):
    # generators of g modulo its center give the same orbits, on the lattice
    # positions and on the candidate cliques
    g, subs = lattice(name)
    ours, full = conjugation_action(g, subs), reference_action(g, subs)
    assert len(ours) <= len(full)
    singletons = [(i,) for i in range(len(subs))]
    stats = cl.pair_table(g, subs)
    cliques = [
        cl.candidate_cliques(g, k, subgroups=subs, pair_stats=stats) for k in range(3, 7)
    ]
    for tuples in [singletons, *(c for c in cliques if len(c))]:
        assert np.array_equal(
            orbit_labels(ours, np.array(tuples)), orbit_labels(full, np.array(tuples))
        )


@pytest.mark.parametrize(
    "name", sorted(n for n in cl.CATALOG if n not in ABELIAN) + ["D30", "S4xS3"]
)
def test_no_conjugator_is_the_identity(lattice, name):
    g, _ = lattice(name)
    maps = conjugators(g)
    assert maps
    for conj in maps:
        assert conj != list(range(g.n))


@pytest.mark.parametrize("name", ["C24", "C6xC2", C2_6])
def test_abelian_group_builds_no_action(lattice, name):
    g, subs = lattice(name)
    assert conjugators(g) == []
    assert conjugation_action(g, subs) == []


def test_abelian_group_searches_every_clique(lattice):
    g, subs = lattice("C24")
    for k in range(3, 7):
        rep = cl.verify_group(g, k, subgroups=subs, pair_stats=cl.PairRows(g, subs))
        assert rep.clique_orbits == rep.candidate_clique_count


def test_prefix_keys_past_int64():
    # 2825 positions at k = 6 pass 2^63 as plain base-m numbers, so the keys
    # restart from row positions; they must still ascend with the rows and
    # find every row
    base = 2825
    rows = np.array(sorted(product([0, 1, 1400, base - 2], repeat=6)), dtype=np.int64)
    runs = _prefix_keys(rows, base)
    assert len(runs) > 1
    assert all((np.diff(key) >= 0).all() for _, key in runs)
    assert (np.diff(runs[-1][1]) > 0).all()
    n = len(rows)
    assert (_find_rows(runs, base, rows[::-1]) == np.arange(n)[::-1]).all()
    # a row that differs from every row in a column of the first run, or of
    # the last, or that lies above the last row
    for missing in ([0, 0, 2, 0, 0, 0], [0, 1, 1400, base - 2, 1, 5], [base - 1] * 6):
        with pytest.raises(cl.ConsistencyError, match="not among the rows"):
            _find_rows(runs, base, np.array([rows[0], missing]))


def test_orbit_labels_peak_on_s5_triples(lattice):
    # the rows are keyed once and each perm's images against them, so no
    # 2N x 3 stack of rows and images is held: about 54 MB traced on S5's
    # 644,956 triples, against 73.8 MB for that stack
    g, subs = lattice("S5")
    perms = conjugation_action(g, subs)
    rows = cl.counting._triples(len(subs))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        labels = orbit_labels(perms, rows)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(labels == np.arange(len(rows))) == 8959
    assert peak < 60 * 2**20


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pair_search_equivalence(lattice, data):
    # for pairs, a disjoint pair of cosets exists exactly when the
    # product set misses part of the group
    name = data.draw(st.sampled_from(VERIFY_GROUPS))
    g, subs = lattice(name)
    h = subs[data.draw(st.integers(0, len(subs) - 1))]
    k = subs[data.draw(st.integers(0, len(subs) - 1))]
    v = cl.search_disjoint_tuple([h, k])
    assert (v is not None) == cl.disjointable(h, k)
    if v is not None:
        ch = frozenset(bits_tuple(coset_mask(v.coset_reps[0], h)))
        ck = frozenset(bits_tuple(coset_mask(v.coset_reps[1], k)))
        assert not ch & ck
