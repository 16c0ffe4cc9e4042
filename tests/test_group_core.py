from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetlab as cl
import helpers
from cosetlab import bitset, subgroups
from cosetlab.cli import _resolve_spec
from cosetlab.errors import (
    ParentMismatch,
    BadInput,
    ConsistencyError,
    GroupSpecError,
    NotAGroup,
    OrderCapExceeded,
    SubgroupCountCapExceeded,
    UnknownFamily,
)
from cosetlab.bitset import (
    BLOCK_ENTRIES,
    blocks,
    empty_rows,
    iter_bits,
    mask_of,
    meet_orders,
    packed,
    popcounts,
    set_bits,
)
from cosetlab.cache import spec_hash
from cosetlab.groups import (
    GroupSpec,
    _validate_table,
    direct_product,
    load_group,
    spec_from_token,
)
from cosetlab.subgroups import generating_set

from helpers import (
    brute_subgroups,
    close_mask,
    composition_table,
    cyclic_extension_subgroups,
    element_order,
    is_subgroup_set,
    linear_perm_spec,
    reference_subgroups,
    set_closure,
    small_products,
    word_int,
)

# Lattice sizes from the literature; these freeze the enumeration output.
KNOWN_SUBGROUP_COUNTS = {
    "C6": 4,
    "C12": 6,
    "S3": 6,
    "S4": 30,
    "S5": 156,
    "A4": 10,
    "A5": 59,
    "Q8": 6,
    "C2xC2": 5,
    "C2xC2xC2": 16,
    "D6": 16,
}

# Latin square with two-sided identity 0 and every element an involution.
# (1*2)*2 = 3*2 = 4 but 1*(2*2) = 1, so it is not associative; and no group
# of order 5 has involutions at all.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


# Latin square with two-sided identity 0 in which 2*3 = 0 but 3*2 = 1: the
# right inverse of 2 is not a left one.
ONE_SIDED_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _num_divisors(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_known_subgroup_counts(lattice):
    for name, want in KNOWN_SUBGROUP_COUNTS.items():
        _, subs = lattice(name)
        assert len(subs) == want, name


@pytest.mark.parametrize("name", ["C6", "C12", "S3", "D4", "Q8", "A4", "C2xC2"])
def test_enumeration_matches_brute_force(lattice, name):
    g, subs = lattice(name)
    brute = brute_subgroups(g)
    assert {frozenset(s.elements) for s in subs} == brute
    for elems in brute:
        assert is_subgroup_set(g, elems)


@pytest.mark.parametrize(
    "name", [n for n in cl.catalog_names() if cl.load_catalog_group(n).n <= 120]
)
def test_enumeration_matches_reference(lattice, name):
    g, subs = lattice(name)
    assert [s.mask for s in subs] == reference_subgroups(g)


@given(factors=small_products())
@settings(max_examples=15, deadline=None)
def test_enumeration_matches_reference_on_products(factors):
    spec = cl.GroupSpec(
        kind="product", factors=tuple(cl.GroupSpec(kind="named", name=f) for f in factors)
    )
    g = load_group(spec)
    masks = [s.mask for s in cl.enumerate_subgroups(g)]
    assert masks == reference_subgroups(g)
    assert masks == cyclic_extension_subgroups(g)


# the abelian groups cover several primes and exponents 4 and 9, where a
# closure from a canonical candidate can still be rejected
@pytest.mark.parametrize(
    "name",
    [
        "A6",
        "S6",
        "D30",
        "S3xS3xC2",
        "A4xA4",
        "C2xC2xC2xC2xC2xC2",
        "C2xC2xC2xC2xC2",
        "C2xC4xC4",
        "C3xC3xC3",
        "C9xC3",
        "C2xC2xC6",
        "C2xC2xC2xC4xC4",
        "C2xC2xC2xC2xC4",
        "C3xC3xC3xC3",
    ],
)
def test_enumeration_matches_cyclic_extension(lattice, name):
    g, subs = lattice(name)
    assert [s.mask for s in subs] == cyclic_extension_subgroups(g)


@pytest.mark.parametrize("name", ["S4", "A4xC2", "D6", "C2xC4xC4"])
def test_relabelled_identity(name):
    # every built-in table puts the identity at element 0; a seeded
    # relabelling moves it, and the lattice, mapped back, and the verdict
    # counts must not change
    g = load_group(_resolve_spec(name))
    p = np.random.default_rng(0).permutation(g.n)  # element x is renamed p[x]
    table = np.empty_like(g.np_table)
    table[np.ix_(p, p)] = p[g.np_table]
    h = load_group(GroupSpec(kind="cayley", order=g.n, table=tuple(map(tuple, table.tolist()))))
    assert h.identity == p[g.identity] != 0
    subs, renamed = cl.enumerate_subgroups(g), cl.enumerate_subgroups(h)
    back = np.argsort(p)
    assert {frozenset(back[list(s.elements)].tolist()) for s in renamed} == {
        frozenset(s.elements) for s in subs
    }
    assert len(renamed) == len(subs)
    for k in range(2, 6):
        reps = [
            cl.verify_group(x, k, subgroups=lat, pair_stats=cl.PairRows(x, lat))
            for x, lat in ((g, subs), (h, renamed))
        ]
        counts = {(r.candidate_clique_count, r.clique_orbits, r.tuples_examined) for r in reps}
        assert len(counts) == 1, (k, counts)
        assert reps[0].confirmed and reps[1].confirmed


# (p, projective) -> subgroup count of PSL(2, p) or SL(2, p)
LINEAR_GROUP_COUNTS = {(7, True): 179, (11, True): 620, (3, False): 15, (5, False): 76}


@pytest.mark.parametrize("p, projective", sorted(LINEAR_GROUP_COUNTS))
def test_linear_groups_match_cyclic_extension(p, projective):
    g = load_group(linear_perm_spec(p, projective=projective))
    masks = [s.mask for s in cl.enumerate_subgroups(g)]
    assert len(masks) == LINEAR_GROUP_COUNTS[(p, projective)]
    assert masks == cyclic_extension_subgroups(g)


@pytest.mark.parametrize("name", ["S4", "Q8", "D6", "A5", "S5", "A6", "D30", "S3xS3xC2", "A4xA4"])
def test_lattice_closed_under_conjugation(lattice, name):
    g, subs = lattice(name)
    gens = generating_set(g)
    if g.n <= 120:
        assert set_closure(g, frozenset(gens)) == frozenset(range(g.n))
    masks = {s.mask for s in subs}
    mul, inv = g.np_table.tolist(), g.inv.tolist()
    for x in gens:
        for s in subs:
            assert mask_of(mul[mul[inv[x]][h]][x] for h in s.elements) in masks


def _count_closures(monkeypatch) -> list[int]:
    """Count the subgroups that the library closes in its closure step
    ``subgroups._extend``, one per row of each block it gets; every closure
    of the lattice and of ``generating_set`` goes through it."""
    calls = [0]
    real = subgroups._extend

    def counted(coset, back, start):
        calls[0] += len(start)
        return real(coset, back, start)

    monkeypatch.setattr(subgroups, "_extend", counted)
    return calls


def _count_oracle_closures(monkeypatch) -> list[int]:
    """Count calls of the oracles' own closure ``helpers.close_mask``."""
    calls = [0]
    real = helpers.close_mask

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(helpers, "close_mask", counted)
    return calls


def _count_joins(monkeypatch) -> list[int]:
    """Count the subgroups that the abelian route closes in its batched
    closure step ``subgroups._join``, one per row of each block it gets."""
    joined = [0]
    real = subgroups._join

    def counted(coset, seed):
        joined[0] += len(seed)
        return real(coset, seed)

    monkeypatch.setattr(subgroups, "_join", counted)
    return joined


def test_one_extension_per_conjugacy_class_saves_closures(monkeypatch):
    g = load_group(cl.GroupSpec(kind="named", name="A6"))
    calls = _count_closures(monkeypatch)
    assert len(cl.enumerate_subgroups(g)) == 501
    # the cyclic seeds come from the powers, closing nothing; 280 class
    # extensions and 4 closures of the generating set behind the
    # conjugators.  617 when the 167 seeds were closed one by one and the
    # trivial subgroup was extended, 10,326 when every subgroup was
    # extended
    assert calls[0] == 284


@pytest.mark.parametrize(
    "name", ["C12", "C9xC3", "C2xC4xC4", "C2xC2xC2xC2xC2xC2", "S4", "A5", "Q8xS3"]
)
def test_each_cyclic_subgroup_seeded_once(name):
    # one seed per cyclic subgroup, from its least generator, with its
    # elements; the oracle closes every element on int masks
    g = load_group(_resolve_spec(name))
    least: dict[int, int] = {}
    for x in range(g.n):
        least.setdefault(close_mask(g, (x,)), x)
    gens, rows = subgroups._cyclic_seeds(g)
    assert gens.tolist() == sorted(least.values())
    assert [mask_of(np.flatnonzero(row).tolist()) for row in rows] == [
        m for m, _ in sorted(least.items(), key=lambda item: item[1])
    ]


def test_abelian_group_computes_no_conjugates(monkeypatch):
    g = load_group(_resolve_spec("C2xC2xC2xC2xC2xC2"))
    assert subgroups.conjugators(g) == []
    calls = _count_closures(monkeypatch)
    joined = _count_joins(monkeypatch)
    subs = cl.enumerate_subgroups(g)
    oracle = _count_oracle_closures(monkeypatch)
    cyclic_extension_subgroups(g)
    assert oracle[0] == 23626
    # the seeds come from the powers, and each nontrivial subgroup is
    # closed once, from its canonical parent, in the batched closure step
    assert calls[0] == 0
    assert joined[0] == len(subs) - 1 == 2824


def test_duplicate_canonical_acceptance_raises(monkeypatch):
    # closing <y> alone, not <H, y>, hands back a subgroup already accepted
    # from the trivial subgroup
    g = load_group(_resolve_spec("C2xC2xC2"))
    monkeypatch.setattr(subgroups, "_join", lambda coset, seed: seed)
    with pytest.raises(ConsistencyError, match="two canonical parents"):
        cl.enumerate_subgroups(g)


def test_abelian_lattice_memory_bound():
    # the canonical route holds one block of one chain length's rows at a
    # time, next to the rows found; C2^6's lattice traced 1.1 MB
    g = load_group(_resolve_spec("C2xC2xC2xC2xC2xC2"))
    tracemalloc.start()
    try:
        cl.enumerate_subgroups(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_class_lattice_memory_bound():
    # the class route closes one block of a level's candidates at a time
    # (bitset.blocks), next to the rows found, and never gathers g's own
    # table rows; S6's lattice traces 3.3 MB on its uint16 table, 4.8 MB on
    # an int64 one, 7.6 MB with g queued for extension, and 13.4 MB with
    # each level's closures in one block
    g = load_group(_resolve_spec("S6"))
    tracemalloc.start()
    try:
        cl.enumerate_subgroups(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20


def test_frozen_counts_beyond_catalog():
    c2_6 = cl.GroupSpec(
        kind="product", factors=tuple(cl.GroupSpec(kind="named", name="C2") for _ in range(6))
    )
    assert len(cl.enumerate_subgroups(load_group(c2_6))) == 2825
    d30 = cl.GroupSpec(kind="named", name="D30")
    assert len(cl.enumerate_subgroups(load_group(d30))) == 80
    c2_7 = load_group(_resolve_spec("C2xC2xC2xC2xC2xC2xC2"))
    assert len(cl.enumerate_subgroups(c2_7, max_subgroups=30_000)) == 29212


def test_a7_lattice():
    # order 2520, past the default order cap: a uint16 table of 12.7 MB
    a7 = load_group(GroupSpec(kind="named", name="A7"), 2520)
    assert len(cl.enumerate_subgroups(a7)) == 3786


def test_subgroup_cap():
    g = cl.load_catalog_group("S4")
    with pytest.raises(SubgroupCountCapExceeded):
        cl.enumerate_subgroups(g, max_subgroups=29)
    assert len(cl.enumerate_subgroups(g, max_subgroups=30)) == 30
    # the abelian route counts against the same cap
    c2_3 = load_group(_resolve_spec("C2xC2xC2"))
    with pytest.raises(SubgroupCountCapExceeded):
        cl.enumerate_subgroups(c2_3, max_subgroups=15)
    assert len(cl.enumerate_subgroups(c2_3, max_subgroups=16)) == 16


def test_nonassociative_loop_rejected():
    spec = cl.GroupSpec(kind="cayley", order=5, table=tuple(map(tuple, NONASSOC_LOOP)))
    with pytest.raises(NotAGroup, match="associat"):
        load_group(spec)


def test_one_sided_inverse_rejected():
    spec = cl.GroupSpec(kind="cayley", order=5, table=tuple(map(tuple, ONE_SIDED_LOOP)))
    with pytest.raises(NotAGroup, match="element 2 has no two-sided inverse"):
        load_group(spec)


def test_broken_latin_row_rejected():
    rows = _cyclic_table(4)
    rows[2][3] = rows[2][2]
    spec = cl.GroupSpec(kind="cayley", order=4, table=tuple(map(tuple, rows)))
    with pytest.raises(NotAGroup):
        load_group(spec)


def test_no_identity_rejected():
    # subtraction table: Latin both ways, but no row is the identity map
    rows = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    spec = cl.GroupSpec(kind="cayley", order=3, table=tuple(map(tuple, rows)))
    with pytest.raises(NotAGroup):
        load_group(spec)


def test_cyclic_tables_accepted_and_orders():
    g = load_group(cl.GroupSpec(kind="cayley", order=6, table=tuple(map(tuple, _cyclic_table(6)))))
    assert g.n == 6
    assert g.identity == 0
    assert element_order(g, 1) == 6
    assert element_order(g, 2) == 3
    assert element_order(g, 3) == 2


def test_product_c2_c3_is_cyclic_of_order_6():
    a = cl.load_catalog_group("C2")
    b = cl.load_catalog_group("C3")
    g = cl.direct_product(a, b)
    assert g.n == 6
    assert max(element_order(g, x) for x in range(g.n)) == 6


def test_s3_permutation_ids(lattice):
    # elements are sorted one-line permutations:
    # 0=(0,1,2) 1=(0,2,1) 2=(1,0,2) 3=(1,2,0) 4=(2,0,1) 5=(2,1,0)
    from cosetlab.bitset import bits_tuple
    from cosetlab.cosets import coset_mask

    g, subs = lattice("S3")
    a3 = next(s for s in subs if s.order == 3)
    assert a3.elements == (0, 3, 4)
    assert bits_tuple(coset_mask(1, a3)) == (1, 2, 5)


def test_subgroup_from_elements_validates(lattice):
    g, subs = lattice("S3")
    with pytest.raises(NotAGroup, match="identity"):
        cl.subgroup_from_elements(g, [1, 2])
    with pytest.raises(NotAGroup, match="closed"):
        cl.subgroup_from_elements(g, [0, 3])  # (1,2,0) squared is (2,0,1) = 4
    a3 = next(s for s in subs if s.order == 3)
    assert cl.subgroup_from_elements(g, [0, 3, 4]) == a3


def test_dihedral_convention_order_2n():
    for m in (3, 5, 12):
        g = cl.load_catalog_group(f"D{m}")
        assert g.n == 2 * m


def test_d3_matches_s3_structure(lattice):
    _, d3subs = lattice("D3")
    _, s3subs = lattice("S3")
    assert sorted(s.order for s in d3subs) == sorted(s.order for s in s3subs)


def test_q8_has_unique_involution():
    g = cl.load_catalog_group("Q8")
    orders = sorted(element_order(g, x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


# The quaternion table as written out element by element, ids 0..7 being
# +1, -1, +i, -i, +j, -j, +k, -k.
Q8_ROWS = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


def test_q8_table_pinned():
    assert cl.load_catalog_group("Q8").np_table.tolist() == Q8_ROWS


# every catalog group, the lattices past it pinned above, and both routes:
# conjugacy classes for the non-abelian groups, canonical augmentation for
# the abelian ones
LATTICE_GROUPS = sorted(cl.CATALOG) + [
    "A6",
    "S6",
    "D30",
    "S3xS3xC2",
    "A4xA4",
    "C2xC2xC2xC2xC2xC2",
    "C2xC4xC4",
    "C3xC3xC3",
    "C9xC3",
    "C2xC2xC2xC4xC4",
    "C3xC3xC3xC3",
]


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_lattice_rows_are_in_sort_key_order(lattice, name):
    # Subgroups built eagerly from the lattice's rows ascend strictly by
    # sort_key, and the items of a lattice of the same rows, every one
    # unbuilt at first, equal them field for field when read
    g, subs = lattice(name)
    eager = [subgroups._subgroup_from_mask(g, mask_of(np.flatnonzero(r).tolist())) for r in subs.rows]
    assert sorted(eager, key=lambda s: s.sort_key) == eager
    assert all(a.sort_key < b.sort_key for a, b in zip(eager, eager[1:]))
    fresh = cl.Lattice(g, subs.rows)
    assert all(item is None for item in fresh._items)
    assert fresh.order.tolist() == [s.order for s in eager]
    assert fresh.index.tolist() == [s.index for s in eager]
    assert [int.from_bytes(w.tobytes(), "little") for w in fresh.words] == [s.mask for s in eager]
    fields = [(s.mask, s.elements, s.order, s.index) for s in eager]
    assert [(s.mask, s.elements, s.order, s.index) for s in fresh] == fields


def test_lattice_item_is_built_once(lattice):
    # every read of a position, by any index form, returns one object, so
    # its coset labels are computed once
    g, subs = lattice("S4")
    fresh = cl.Lattice(g, subs.rows)
    h = fresh[5]
    assert [item is not None for item in fresh._items].count(True) == 1
    assert fresh[5] is h and fresh[np.int64(5)] is h and fresh[5 - len(fresh)] is h
    assert fresh[4:6][1] is h and list(fresh)[5] is h
    labels = cl.coset_labels(h)
    assert cl.coset_labels(fresh[5]) is labels


def test_lattice_of_a_list_keeps_its_subgroups(lattice):
    g, subs = lattice("S4")
    picked = [subs[7], subs[3], subs[20]]
    lat = cl.Lattice.of(picked)
    assert all(lat[i] is s for i, s in enumerate(picked))
    assert lat.order.tolist() == [s.order for s in picked]
    assert lat.index.tolist() == [s.index for s in picked]
    assert [int.from_bytes(w.tobytes(), "little") for w in lat.words] == [s.mask for s in picked]
    assert cl.Lattice.of(subs) is subs
    assert cl.Lattice.of([subs[4]])[0] is subs[4]
    _, other = lattice("S3")
    with pytest.raises(ParentMismatch):
        cl.Lattice.of([subs[0], other[0]])


# both lattice routes: every catalog group, lattices past it up to C2^6's
# 2825 rows, and a mixed-exponent abelian product
LABEL_GROUPS = sorted(cl.CATALOG) + [
    "D30", "S3xS3xC2", "A4xA4", "A6", "C2xC2xC2xC2xC2xC2", "C2xC4xC4",
]


@pytest.mark.parametrize("name", LABEL_GROUPS)
def test_lattice_coset_labels_match_per_subgroup_route(lattice, name):
    # the labels of every position, and of positions named out of order and
    # twice, against cosets.coset_labels on each Subgroup; reading them
    # builds no item
    g, subs = lattice(name)
    fresh = cl.Lattice(g, subs.rows)
    got = fresh.coset_labels(np.arange(len(fresh)))
    assert all(item is None for item in fresh._items)
    assert got.dtype == np.int64 and got.shape == (len(subs), g.n)
    want = np.stack([cl.coset_labels(s) for s in subs])
    assert np.array_equal(got, want)
    picked = np.array([len(subs) - 1, 0, len(subs) // 2, 0])
    assert np.array_equal(fresh.coset_labels(picked), want[picked])
    assert fresh.coset_labels(np.arange(0)).shape == (0, g.n)


@pytest.mark.parametrize("name", ["C2xC2xC2xC2xC2xC2", "S5"])
def test_row_gathers_fill_each_block(lattice, name):
    # blocks tile the rows in order, each within BLOCK_ENTRIES gathered
    # entries or a single row, and each as long as the bound allows: one
    # more row would pass it.  Rows ascending and descending by order, and
    # the trivial subgroup's row repeated.
    g, subs = lattice(name)
    for rows in (subs.rows, subs.rows[::-1], np.repeat(subs.rows[:1], 3000, axis=0)):
        size = rows.sum(axis=1)
        end = 0
        for lo, hi, moved in subgroups._row_gathers(g.np_table, g.identity, rows, size):
            assert lo == end
            assert moved.shape == (hi - lo, size[lo:hi].max(), g.n)
            assert moved.size <= BLOCK_ENTRIES or hi - lo == 1
            if hi < len(rows):
                assert (hi - lo + 1) * size[lo : hi + 1].max() * g.n > BLOCK_ENTRIES
            end = hi
        assert end == len(rows)


def test_lattice_coset_labels_check_the_index(lattice):
    # {e, r} with r of order 3 is no subgroup of S3: its "cosets" {x, x r}
    # have 4 distinct least elements, where the index 6 / 2 says 3; both
    # routes refuse it
    g, _ = lattice("S3")
    r = next(x for x in range(g.n) if element_order(g, x) == 3)
    rows = np.zeros((1, g.n), dtype=bool)
    rows[0, [g.identity, r]] = True
    fake = cl.Lattice(g, rows)
    for route in (lambda: fake.coset_labels([0]), lambda: cl.coset_labels(fake[0])):
        with pytest.raises(ConsistencyError, match="coset count differs from the subgroup index"):
            route()


# Word boundaries of the packed rows, 64 elements to a word, two lattices,
# and C2^6, whose 2825 rows cross the row blocks of meet_orders.
PACKED_GROUPS = ["C1", "C63", "C64", "C65", "C128", "C129", "S4", "D30", "C2xC2xC2xC2xC2xC2"]


@pytest.mark.parametrize("name", PACKED_GROUPS)
def test_packed_rows_are_the_masks(lattice, name):
    g, subs = lattice(name)
    words = subs.words
    assert words.shape == (len(subs), (g.n + 63) // 64)
    assert [word_int(row) for row in words] == [s.mask for s in subs]
    assert [mask_of(np.flatnonzero(row).tolist()) for row in subs.rows] == [
        s.mask for s in subs
    ]
    rows, bits = set_bits(words)
    assert list(zip(rows.tolist(), bits.tolist())) == [
        (i, x) for i, s in enumerate(subs) for x in iter_bits(s.mask)
    ]


@pytest.mark.parametrize("width", [1, 2, 3, 47])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_word_row_kernels_match_each_bit(width, data):
    # set_bits, popcounts and empty_rows against a test of every bit of
    # every word; words are often zero, and some rows are zero throughout
    r = data.draw(st.integers(0, 5))
    word = st.one_of(st.just(0), st.integers(0, 2**64 - 1), st.sampled_from([1, 2**63]))
    values = data.draw(st.lists(word, min_size=r * width, max_size=r * width))
    words = np.array(values, dtype=np.uint64).reshape(r, width)
    words[data.draw(st.lists(st.booleans(), min_size=r, max_size=r))] = 0
    ones = [
        [64 * w + b for w in range(width) for b in range(64) if int(words[i, w]) >> b & 1]
        for i in range(r)
    ]
    rows, bits = set_bits(words)
    assert list(zip(rows.tolist(), bits.tolist())) == [(i, x) for i in range(r) for x in ones[i]]
    counts = popcounts(words)
    assert counts.dtype == np.int64
    assert counts.tolist() == [len(x) for x in ones]
    assert empty_rows(words).tolist() == [not x for x in ones]


@pytest.mark.parametrize("name", PACKED_GROUPS)
def test_meet_orders_are_mask_popcounts(lattice, name):
    g, subs = lattice(name)
    words = subs.words
    got = meet_orders(words, words[::-1])
    assert got.shape == (len(subs), len(subs))
    assert name != "C2xC2xC2xC2xC2xC2" or len(subs) ** 2 > BLOCK_ENTRIES
    assert got.tolist() == [[(a.mask & b.mask).bit_count() for b in subs[::-1]] for a in subs]


@pytest.mark.parametrize(
    "cost,want",
    [
        ([], []),
        # rows that cost nothing join any block, the first one included
        ([0, 0, 0], [(0, 3)]),
        ([0, 10, 0, 1], [(0, 3), (3, 4)]),
        # a running sum that lands on the budget closes the block there
        ([4, 6, 5, 5], [(0, 2), (2, 4)]),
        ([10, 10], [(0, 1), (1, 2)]),
        # a row above the budget gets a block alone
        ([3, 11, 2, 0, 8], [(0, 1), (1, 2), (2, 5)]),
        ([11, 0], [(0, 1), (1, 2)]),
    ],
)
def test_blocks_cut_at_the_budget(monkeypatch, cost, want):
    monkeypatch.setattr(bitset, "BLOCK_ENTRIES", 10)
    got = [(at.start, at.stop) for at in blocks(np.array(cost, dtype=np.int64))]
    assert got == want


def greedy_blocks(cost, budget):
    """Oracle for ``bitset.blocks``: take rows while their sum stays within
    the budget, and always the first row of a block."""
    out, lo, total = [], 0, 0
    for i, c in enumerate(cost):
        if i > lo and total + c > budget:
            out.append((lo, i))
            lo, total = i, 0
        total += c
    return out + [(lo, len(cost))] * (lo < len(cost))


@given(cost=st.lists(st.integers(0, 40), max_size=60), budget=st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_blocks_match_greedy_oracle(cost, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitset, "BLOCK_ENTRIES", budget)
        got = [(at.start, at.stop) for at in blocks(np.array(cost, dtype=np.int64))]
    assert got == greedy_blocks(cost, budget)


@pytest.mark.parametrize("width", [3, 64, 65, 128])
def test_packed_takes_any_layout(width):
    # widths that need no padding once failed on rows whose last axis is
    # not contiguous
    base = np.random.default_rng(width).random((2 * width, 80)) < 0.5
    views = {
        "transposed": base.T,
        "sliced": base[::2],
        "column slice": base.T[:, :width],
        "fancy columns": base[:width, np.arange(width) * 80 // width],
        "reversed": base[::-1, ::-1],
    }
    for name, rows in views.items():
        want = [mask_of(np.flatnonzero(row).tolist()) for row in rows]
        words = packed(rows)
        assert words.shape == (len(rows), (rows.shape[1] + 63) // 64), name
        assert [word_int(w) for w in words] == want, name


def _dihedral_by_involutions(n: int) -> GroupSpec:
    """D_n on n points, generated by the reflection i -> -i and its product
    with the rotation i -> i + 1; both have order 2, their product order n."""
    refl = tuple(-i % n for i in range(n))
    turned = tuple(refl[(i + 1) % n] for i in range(n))
    return GroupSpec(kind="perm", degree=n, generators=(refl, turned))


# Perm specs the tests build, each checked against its composition table.
PERM_SPECS = {
    "S4_by_transposition_and_4cycle": GroupSpec(
        kind="perm", degree=4, generators=((1, 0, 2, 3), (1, 2, 3, 0))
    ),
    "D5_by_involutions": _dihedral_by_involutions(5),
    "trivial_on_3_points": GroupSpec(kind="perm", degree=3, generators=()),
}
TABLE_GROUPS = {
    **cl.CATALOG,
    **{
        name: _resolve_spec(name)
        for name in ("D30", "A6", "S6", "S3xS3xC2", "A4xA4", "C2xC2xC2xC2xC2xC2")
    },
    **PERM_SPECS,
}


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_table_is_the_composition_table_and_a_group(name):
    # the closure's generator steps against every pair composed, and the
    # axiom check that load_group runs on cayley specs alone
    spec = TABLE_GROUPS[name]
    g = load_group(spec)
    assert g.np_table.dtype == g.inv.dtype == np.min_scalar_type(g.n)
    mul, inv = g.np_table.tolist(), g.inv.tolist()
    assert mul == composition_table(spec)
    _validate_table(g.np_table, g.label, 0)
    assert g.np_table[g.identity].tolist() == list(range(g.n))
    assert all(mul[x][inv[x]] == g.identity for x in range(g.n))


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(kind="named", name="C300"),
        GroupSpec(kind="cayley", order=300, table=tuple(map(tuple, _cyclic_table(300)))),
    ],
    ids=["named", "cayley"],
)
def test_negative_seed_refused(spec):
    with pytest.raises(BadInput, match="seed"):
        load_group(spec, seed=-1)


def test_catalog_names_are_family_tokens():
    for name in cl.CATALOG:
        assert cl.CATALOG[name] == spec_from_token(name) == _resolve_spec(name)
    assert spec_from_token("C2xE7") is None
    assert spec_hash(cl.CATALOG["S3xC2"]).startswith("176e1641f9d1bc7a")
    assert spec_hash(cl.CATALOG["Q8"]).startswith("fe703fff68b0c964")


def test_catalog_groups_are_labelled_by_their_names():
    for name, spec in cl.CATALOG.items():
        assert load_group(spec).label == name


def test_alternating_and_symmetric_orders():
    assert cl.load_catalog_group("A4").n == 12
    assert cl.load_catalog_group("A5").n == 60
    assert cl.load_catalog_group("S5").n == 120


def test_inverse_law_everywhere():
    for name in ("S4", "Q8", "D7", "C15"):
        g = cl.load_catalog_group(name)
        mul, inv = g.np_table.tolist(), g.inv.tolist()
        for x in range(g.n):
            assert mul[x][inv[x]] == g.identity
            assert mul[inv[x]][x] == g.identity


def test_perm_spec_closure():
    # (0 1) and the 4-cycle generate S4
    spec = cl.GroupSpec(
        kind="perm", degree=4, generators=((1, 0, 2, 3), (1, 2, 3, 0))
    )
    g = load_group(spec)
    assert g.n == 24


def test_perm_closure_order_cap():
    spec = cl.GroupSpec(
        kind="perm", degree=4, generators=((1, 0, 2, 3), (1, 2, 3, 0))
    )
    with pytest.raises(OrderCapExceeded):
        load_group(spec, 10)
    # S3 under cap 5: no element order passes the cap, the sixth element does
    s3 = cl.GroupSpec(kind="perm", degree=3, generators=((1, 0, 2), (1, 2, 0)))
    with pytest.raises(OrderCapExceeded, match="grew past 5 elements"):
        load_group(s3, 5)


@pytest.mark.parametrize(
    "generators, order",
    [
        # one generator of order 5, the cap
        (((1, 2, 3, 4, 0),), 5),
        # orders 2 and 3, whose product, of order 6, generates the group
        (((1, 0, 2, 3, 4), (0, 1, 3, 4, 2)), 6),
    ],
)
def test_perm_closure_admits_element_orders_at_the_cap(generators, order):
    spec = cl.GroupSpec(kind="perm", degree=5, generators=generators)
    assert load_group(spec, order).n == order
    with pytest.raises(OrderCapExceeded):
        load_group(spec, order - 1)


def test_perm_closure_memory_bound():
    # S6, order 720: the closure builds its columns, ranks and sorted table
    # in the table's own uint16, about 3.3 MB traced in all; an int64
    # 720 x 720 array alone is 4.1 MB, and int64 intermediates traced 12.1 MB
    tracemalloc.start()
    try:
        g = load_group(_resolve_spec("S6"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.np_table.dtype) == (720, np.uint16)
    assert peak < 4 * 2**20


def _traced_peak(fn, exc):
    """Peak traced allocation, in bytes, of ``fn()``, which must raise ``exc``."""
    tracemalloc.start()
    try:
        with pytest.raises(exc):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dihedral_order_cap_checked_before_building():
    # D5000 has order 10000; refusing it must not build 5000-point permutations
    spec = GroupSpec(kind="named", name="D5000")
    assert _traced_peak(lambda: load_group(spec), OrderCapExceeded) < 1_000_000


def test_product_of_generators_order_cap_checked_before_closure():
    # two involutions of degree 2500 generate D2500, of order 5000; their
    # product has order 2500, so the closure must not store 2500-point
    # permutations up to the cap first
    spec = _dihedral_by_involutions(2500)
    assert _traced_peak(lambda: load_group(spec), OrderCapExceeded) < 1_000_000


def test_perm_closure_stores_no_more_points_than_the_cap_allows():
    # a reflection, the identity and reflection*rotation of degree 10000
    # pass both order pre-checks; their group D10000 is refused once the
    # closure would hold more points than a 2000 x 2000 table has entries
    # (400 elements), not after 2000 elements of 10000 points each
    refl, turned = _dihedral_by_involutions(10_000).generators
    spec = GroupSpec(kind="perm", degree=10_000, generators=(refl, tuple(range(10_000)), turned))
    assert _traced_peak(lambda: load_group(spec), OrderCapExceeded) < 40 * 2**20


def test_perm_closure_point_bound_admits_the_cap_order():
    # D1000 on 1000 points: 2000 elements, 2M points, within the bound
    assert load_group(GroupSpec(kind="named", name="D1000")).n == 2000


def test_sampled_associativity_check_in_bounded_memory():
    # C600 is above the exhaustive cap, so 3.6M triples are sampled; they
    # are drawn and checked in blocks, not held at once
    spec = GroupSpec(kind="cayley", order=600, table=tuple(map(tuple, _cyclic_table(600))))
    tracemalloc.start()
    try:
        g = load_group(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 600
    assert peak < 64_000_000


def test_perm_spec_degree_mismatch_rejected_without_building_range():
    doc = {"format": "groupspec-v1", "kind": "perm", "degree": 10**7, "generators": [[1, 0]]}
    assert _traced_peak(lambda: GroupSpec.from_dict(doc), GroupSpecError) < 1_000_000


def test_perm_spec_without_generators_is_trivial_without_building_range():
    # the identity on a million points is not built to close no generators
    doc = {"format": "groupspec-v1", "kind": "perm", "degree": 10**6, "generators": []}
    tracemalloc.start()
    try:
        g = load_group(GroupSpec.from_dict(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.n, g.np_table.tolist(), g.label) == (1, [[0]], "perm1000000:1")
    assert peak < 1_000_000


def test_product_table_is_componentwise():
    # the pair (x, y) is x * |b| + y, multiplied factor by factor.  S5xC3
    # has order 360 from two uint8 tables: a product taken in the factors'
    # dtype wraps around past 255
    for factors in (("S3", "D4"), ("S5", "C3")):
        a, b = (load_group(GroupSpec(kind="named", name=f)) for f in factors)
        g = direct_product(a, b)
        mul, amul, bmul = g.np_table.tolist(), a.np_table.tolist(), b.np_table.tolist()
        nb = b.n
        for xa in range(a.n):
            for xb in range(nb):
                for ya in range(a.n):
                    for yb in range(nb):
                        want = amul[xa][ya] * nb + bmul[xb][yb]
                        assert mul[xa * nb + xb][ya * nb + yb] == want, factors


# C255 is the largest uint8 table, where the sentinel n is the dtype's
# maximum; D128 the smallest uint16 one; C15xC19, cyclic of order 285, a
# uint16 product of two uint8 tables.  Lattice sizes from the literature:
# tau(255) for C255, tau(128) + sigma(128) for D128, tau(285) for C15xC19.
@pytest.mark.parametrize(
    "token, dtype, count",
    [("C255", np.uint8, 8), ("D128", np.uint16, 263), ("C15xC19", np.uint16, 8)],
)
def test_compact_table_dtype(token, dtype, count):
    g = load_group(spec_from_token(token))
    assert g.np_table.dtype == np.min_scalar_type(g.n) == dtype
    assert isinstance(g.inv, np.ndarray) and g.inv.dtype == dtype
    assert not hasattr(g, "mul")
    _validate_table(g.np_table, token, 0)  # a wrapped product is no group
    assert len(cl.enumerate_subgroups(g)) == count


def test_product_order_cap_admits_the_cap_order():
    a, b = cl.load_catalog_group("S3"), cl.load_catalog_group("D4")
    assert direct_product(a, b, 48).n == 48
    with pytest.raises(OrderCapExceeded):
        direct_product(a, b, 47)


def test_cayley_order_cap():
    spec = cl.GroupSpec(kind="cayley", order=6, table=tuple(map(tuple, _cyclic_table(6))))
    with pytest.raises(OrderCapExceeded):
        load_group(spec, 5)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec(kind="cayley", order=2, table=((False, True), (True, False))),
        GroupSpec(kind="perm", degree=2, generators=((True, False),)),
    ],
    ids=["table", "generators"],
)
def test_spec_rejects_bool_entries(spec):
    # True == 1, so a bool table would build C2 under a second spec hash
    with pytest.raises(GroupSpecError):
        spec.validate()


def test_spec_roundtrip():
    spec = cl.catalog_spec("S3xC2")
    doc = spec.to_dict()
    assert doc["format"] == "groupspec-v1"
    back = cl.GroupSpec.from_dict(doc)
    assert back == spec
    assert back.canonical_json() == spec.canonical_json()


def test_spec_rejects_unknown_fields():
    with pytest.raises(GroupSpecError, match="unknown"):
        cl.GroupSpec.from_dict({"format": "groupspec-v1", "kind": "named", "name": "C4", "bogus": 1})


def test_spec_rejects_wrong_format():
    with pytest.raises(GroupSpecError, match="format"):
        cl.GroupSpec.from_dict({"format": "groupspec-v0", "kind": "named", "name": "C4"})


def test_unknown_family_strings():
    for bad in ("E8", "D2", "S9", "A0", "Q16", "C0", ""):
        with pytest.raises((UnknownFamily, GroupSpecError)):
            load_group(cl.GroupSpec(kind="named", name=bad))


@given(n=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_cyclic_subgroup_count_is_divisor_count(n):
    g = load_group(cl.GroupSpec(kind="cayley", order=n, table=tuple(map(tuple, _cyclic_table(n)))))
    assert len(cl.enumerate_subgroups(g)) == _num_divisors(n)


@given(
    n=st.integers(min_value=2, max_value=12),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_single_entry_corruption_rejected(n, data):
    rows = _cyclic_table(n)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    delta = data.draw(st.integers(1, n - 1))
    rows[i][j] = (rows[i][j] + delta) % n
    spec = cl.GroupSpec(kind="cayley", order=n, table=tuple(map(tuple, rows)))
    with pytest.raises(NotAGroup):
        load_group(spec)
