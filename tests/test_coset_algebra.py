from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetlab as cl
from cosetlab.bitset import bits_tuple, mask_of
from cosetlab.cosets import coset_mask

from helpers import (
    all_left_cosets,
    coset_set,
    cosets_of_k_in_product,
    exists_disjoint_coset_pair,
    full_mask,
    is_subgroup_set,
    product_elements,
    product_set,
    promote,
    touching_count,
)

SMALL = ["C6", "C12", "S3", "D4", "D6", "Q8", "A4", "C2xC2", "C2xC2xC2", "S3xC2"]


@pytest.mark.parametrize("name", SMALL)
def test_left_cosets_partition(lattice, name):
    g, subs = lattice(name)
    for s in subs:
        cosets = cl.left_cosets(s)
        assert len(cosets) == s.index
        seen = 0
        for c in cosets:
            assert seen & c == 0
            seen |= c
            assert bin(c).count("1") == s.order
        assert seen == full_mask(g.n)
        # labels index the set-oracle cosets, ordered by least element like left_cosets
        oracle = sorted(all_left_cosets(g, frozenset(s.elements)), key=min)
        assert [frozenset(bits_tuple(c)) for c in cosets] == oracle
        labels = cl.coset_labels(s)
        for x in range(g.n):
            assert labels[x] == next(i for i, c in enumerate(oracle) if x in c)


@pytest.mark.parametrize("name", ["S3", "Q8", "A4"])
def test_coset_of_agrees_with_set_oracle(lattice, name):
    g, subs = lattice(name)
    for s in subs:
        hs = frozenset(s.elements)
        for x in range(g.n):
            want = coset_set(g, hs, x)
            got = coset_mask(x, s)
            assert frozenset(bits_tuple(got)) == want
            # every member reproduces the same coset
            for y in want:
                assert coset_mask(y, s) == got


@pytest.mark.parametrize("name", SMALL)
def test_product_set_against_oracle(lattice, name):
    g, subs = lattice(name)
    for h, k in combinations(subs, 2):
        mask, is_subgroup = product_set(h, k)
        want = product_elements(g, frozenset(h.elements), frozenset(k.elements))
        assert frozenset(bits_tuple(mask)) == want
        # closure of the product agrees with the commutation criterion,
        # and both match the plain definition of "is a subgroup"
        assert is_subgroup == is_subgroup_set(g, want)


def test_product_set_c6_example(lattice):
    g, subs = lattice("C6")
    h2 = next(s for s in subs if s.order == 2)
    h3 = next(s for s in subs if s.order == 3)
    ps = product_set(h2, h3)
    assert ps == (full_mask(6), True)
    full = promote(g, ps)
    assert full.order == 6


def test_product_set_s3_not_subgroup(lattice):
    g, subs = lattice("S3")
    twos = [s for s in subs if s.order == 2]
    ps = product_set(twos[0], twos[1])
    assert not ps[1]
    with pytest.raises(ValueError):
        promote(g, ps)


@pytest.mark.parametrize("name", SMALL)
def test_product_coset_decomposition(lattice, name):
    # the product HK splits into exactly |H| / |H meet K| left cosets of K
    g, subs = lattice(name)
    for h, k in combinations(subs, 2):
        count = cosets_of_k_in_product(h, k)
        assert count == h.order // (h.mask & k.mask).bit_count()
        mask, _ = product_set(h, k)
        assert bin(mask).count("1") == count * k.order


@pytest.mark.parametrize("name", SMALL)
def test_disjointable_matches_scan(lattice, name):
    g, subs = lattice(name)
    for h in subs:
        for k in subs:
            assert cl.disjointable(h, k) == exists_disjoint_coset_pair(g, h, k)


@pytest.mark.parametrize("name", ["C6", "S3", "Q8", "A4"])
def test_touching_count_matches_scan(lattice, name):
    # cosets of H that intersect the subgroup K, versus a set-based scan
    g, subs = lattice(name)
    for h in subs:
        ks_cosets = all_left_cosets(g, frozenset(h.elements))
        for k in subs:
            kset = frozenset(k.elements)
            want = sum(1 for c in ks_cosets if c & kset)
            assert touching_count(h, k) == want


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_coset_translation_invariance(lattice, data):
    name = data.draw(st.sampled_from(SMALL))
    g, subs = lattice(name)
    s = subs[data.draw(st.integers(0, len(subs) - 1))]
    x = data.draw(st.integers(0, g.n - 1))
    y = data.draw(st.integers(0, g.n - 1))
    # translating a coset by any group element gives a coset of the
    # same subgroup with the expected mask
    mul = g.np_table.tolist()
    translated = mask_of(mul[y][e] for e in bits_tuple(coset_mask(x, s)))
    assert translated == coset_mask(mul[y][x], s)
    assert bin(translated).count("1") == s.order
