from __future__ import annotations

import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosetlab as cl
from cosetlab import bitset
from cosetlab.bitset import mask_of
from cosetlab.counting import DEFAULT_CENSUS_CAP, _checked, _meeting_pairs, triple_inequalities
from cosetlab.errors import ConsistencyError, CounterOverflow, ParentMismatch

from helpers import check_triple_inequalities, plant_enumeration_fault, triple_census_brute

CENSUS_GROUPS = ["C6", "C12", "S3", "Q8", "C2xC2", "D4", "A4", "S3xC2"]


def _by_order(subs, order):
    return next(s for s in subs if s.order == order)


def test_r_value_c12_pair(lattice):
    g, subs = lattice("C12")
    h4 = _by_order(subs, 4)  # index 3
    h6 = _by_order(subs, 6)  # index 2
    rv = cl.r_value([h4, h6])
    assert rv.indices == (3, 2)
    assert rv.lcm_index == 6
    assert rv.intersection_index == 6
    assert rv.r == 1


def test_r_value_klein_pair(lattice):
    g, subs = lattice("C2xC2")
    twos = [s for s in subs if s.order == 2]
    rv = cl.r_value(twos[:2])
    assert rv.indices == (2, 2)
    assert rv.intersection_index == 4
    assert rv.r == 2


def test_r_value_triple(lattice):
    g, subs = lattice("C6")
    h2 = _by_order(subs, 2)
    h3 = _by_order(subs, 3)
    rv = cl.r_value([h2, h2, h3])
    assert rv.indices == (3, 3, 2)
    assert rv.lcm_index == 6
    assert rv.intersection_index == 6
    assert rv.r == 1


def test_r_value_arity_and_parent_checks(lattice):
    _, subs6 = lattice("C6")
    _, subs12 = lattice("C12")
    with pytest.raises(ValueError):
        cl.r_value([subs6[0]])
    with pytest.raises(ValueError):
        cl.r_value(list(subs6[:2]) + list(subs6[:2]))
    with pytest.raises(ParentMismatch):
        cl.r_value([subs6[0], subs12[0]])


@pytest.mark.parametrize("name", CENSUS_GROUPS)
def test_census_matches_brute_force(lattice, name):
    g, subs = lattice(name)
    for i, j, k in combinations_with_replacement(range(len(subs)), 3):
        got = cl.census(subs[i], subs[j], subs[k])
        want = triple_census_brute(g, subs[i], subs[j], subs[k])
        assert got.enumerated
        assert got.total == want["total"]
        assert got.s_pair == want["s_pair"]
        assert got.s_pair_pair == want["s_pair_pair"]
        assert got.s_triple == want["s_triple"]
        assert got.meet_all == want["meet_all"]
        assert got.n_disjoint == want["n_disjoint"]


def test_census_whole_group_triple(lattice):
    g, subs = lattice("C6")
    full = _by_order(subs, 6)
    c = cl.census(full, full, full)
    assert c.total == 1
    assert c.s_pair == (1, 1, 1)
    assert c.s_triple == 1
    assert c.meet_all == 1
    assert c.n_disjoint == 0


def test_census_index_two_triple_has_no_disjoint(lattice):
    g, subs = lattice("S3")
    a3 = _by_order(subs, 3)
    c = cl.census(a3, a3, a3)
    assert c.total == 8
    assert c.n_disjoint == 0


def test_census_index_three_triple_disjoint_count(lattice):
    # three cosets of one index-3 subgroup: the 3! orderings are disjoint
    g, subs = lattice("C6")
    h2 = _by_order(subs, 2)
    c = cl.census(h2, h2, h2)
    assert c.total == 27
    assert c.n_disjoint == 6
    assert c.s_triple is not None and c.s_triple >= c.meet_all


def test_census_cap_skips_enumeration(lattice):
    g, subs = lattice("C6")
    h2 = _by_order(subs, 2)
    c = cl.census(h2, h2, h2, max_census=26)
    assert not c.enumerated
    assert c.s_triple is None
    assert c.n_disjoint is None
    # closed forms survive the skip
    full = cl.census(h2, h2, h2)
    assert c.total == full.total
    assert c.s_pair == full.s_pair
    assert c.s_pair_pair == full.s_pair_pair
    assert c.meet_all == full.meet_all


def test_census_memory_below_one_byte_per_triple(lattice):
    # The census works from three index x index meeting matrices, never
    # from an array over all coset triples.
    g, subs = lattice("S5")
    trivial = _by_order(subs, 1)
    cap = 2 * 10**6
    cl.census(trivial, trivial, trivial, max_census=cap)  # builds the coset labels
    tracemalloc.start()
    try:
        c = cl.census(trivial, trivial, trivial, max_census=cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.enumerated and c.total == 120**3
    assert peak < c.total


def test_pairwise_slack_occurs(lattice):
    # s_triple counts pairwise meets, meet_all common points; they can differ
    g, subs = lattice("C2xC2")
    twos = [s for s in subs if s.order == 2]
    c = cl.census(twos[0], twos[1], twos[2])
    assert c.s_triple == 8
    assert c.meet_all == 4
    assert c.s_triple > c.meet_all


def test_strict_upper_bound_values():
    # mixed pair values 1 and 2 pin the third strictly below 2
    assert cl.r_strict_upper(3, 1, 2, 1) == 2
    assert cl.r_strict_upper(3, 1, 2, 2) == 2
    assert cl.r_strict_upper(3, 2, 1, 2) == 2
    # equal pair values r give 3(r^2 - 3r + 3)
    assert cl.r_strict_upper(3, 1, 1, 1) == 3
    assert cl.r_strict_upper(3, 2, 2, 2) == 3
    assert cl.r_strict_upper(3, 3, 3, 3) == 9
    assert cl.r_strict_upper(3, 4, 4, 4) == 21


def test_strict_upper_bound_general_size():
    # d^2 - d(a+b+c) + (ab+ac+bc) at work for d other than 3
    assert cl.r_strict_upper(2, 1, 1, 1) == 2 * 2 - 2 * 3 + 3
    assert cl.r_strict_upper(4, 1, 1, 1) == 16 - 12 + 3
    assert cl.r_strict_upper(5, 2, 3, 4) == 25 - 5 * 9 + (6 + 8 + 12)


def test_strict_bound_instance_with_disjoint_triples(lattice):
    # a real triple below the strict bound: one index-3 subgroup thrice
    g, subs = lattice("C6")
    h2 = _by_order(subs, 2)
    diag = check_triple_inequalities(h2, h2, h2)
    assert diag.common_gcd == 3
    rs = tuple(rv.r for rv in diag.r_pair)
    assert rs == (1, 1, 1)
    c = cl.census(h2, h2, h2)
    assert c.n_disjoint and c.n_disjoint > 0
    assert diag.r_triple.r < cl.r_strict_upper(3, *rs)


@pytest.mark.parametrize("name", ["C12", "S3", "D6", "Q8", "A4"])
def test_triple_inequalities_hold(lattice, name):
    g, subs = lattice(name)
    for i, j, k in combinations_with_replacement(range(len(subs)), 3):
        diag = check_triple_inequalities(subs[i], subs[j], subs[k])
        assert diag.pivot_bounds_ok, (name, i, j, k)
        assert diag.divisibility_ok, (name, i, j, k)
        assert diag.scaled_divisibility_ok is not False, (name, i, j, k)


@pytest.mark.parametrize("name", ["S4", "D12", "A4", "C2xC2xC2", "C24"])
def test_triple_inequality_arrays_match_per_triple(lattice, name):
    # every field of the array route against check_triple_inequalities,
    # triple by triple, over all triples of the lattice
    g, subs = lattice(name)
    triples = np.array(list(combinations_with_replacement(range(len(subs)), 3)))
    ineq = triple_inequalities(subs.words, g.n, triples)
    assert ineq.integral.all()
    for p, (i, j, k) in enumerate(triples):
        diag = check_triple_inequalities(subs[i], subs[j], subs[k])
        rvs = (*diag.r_pair, diag.r_triple)
        assert ineq.index[:, p].tolist() == [rv.intersection_index for rv in rvs]
        assert ineq.lcm[:, p].tolist() == [rv.lcm_index for rv in rvs]
        assert ineq.r[:, p].tolist() == [rv.r for rv in rvs]
        assert ineq.pivot_bounds_ok[p] == diag.pivot_bounds_ok
        assert ineq.divisibility_ok[p] == diag.divisibility_ok
        assert ineq.common_gcd[p] == (diag.common_gcd or 0)
        assert ineq.scaled_divisibility_ok[p] == (diag.scaled_divisibility_ok is not False)
        if diag.common_gcd is not None:
            rs = [rv.r for rv in diag.r_pair]
            assert ineq.r_bound[p] == cl.r_strict_upper(diag.common_gcd, *rs)


def test_triple_inequality_integrality_error_text(lattice):
    # a triple whose lcm does not divide its index gets the text
    # the oracle check_triple_inequalities raises, naming the first such r-value
    g, subs = lattice("S3")
    ineq = triple_inequalities(subs.words, g.n, np.array([[0, 1, 2]]))
    bad = replace(ineq, lcm=ineq.lcm * np.array([[1], [1], [4], [5]]))
    assert not bad.integral[0]
    index, lcm = ineq.index[2, 0], ineq.lcm[2, 0] * 4
    assert index % lcm
    assert bad.integrality_error(0) == f"intersection index {index} not divisible by lcm {lcm}"


def test_counter_overflow_guard():
    _checked(2**64 - 1, "edge")
    with pytest.raises(CounterOverflow):
        _checked(2**64, "overflow")


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_census_counts_are_monotone(lattice, data):
    name = data.draw(st.sampled_from(CENSUS_GROUPS))
    g, subs = lattice(name)
    m = len(subs)
    i = data.draw(st.integers(0, m - 1))
    j = data.draw(st.integers(0, m - 1))
    k = data.draw(st.integers(0, m - 1))
    c = cl.census(subs[i], subs[j], subs[k])
    assert c.enumerated
    # every conjunction shrinks the count; common point implies pairwise
    s_ij, s_ik, s_jk = c.s_pair
    assert c.s_pair_pair[0] <= min(s_ij, s_ik)
    assert c.s_pair_pair[1] <= min(s_ij, s_jk)
    assert c.s_pair_pair[2] <= min(s_ik, s_jk)
    assert c.s_triple <= min(c.s_pair_pair)
    assert c.meet_all <= c.s_triple
    assert c.n_disjoint <= c.total
    assert c.total == subs[i].index * subs[j].index * subs[k].index


# Every catalog group of order <= 24, and A5.
ORACLE_GROUPS = [
    name for name in cl.catalog_names() if cl.load_catalog_group(name).n <= 24
] + ["A5"]


def _lattice_entries(subs, cap):
    """The lattice census, which must pass every check, as one TripleCensus
    per triple, in combinations_with_replacement order."""
    counts, errors = cl.lattice_census(subs, max_census=cap)
    assert errors == {}
    assert {len(v) for v in counts.values()} == {len(_triples(subs))}
    columns = {key: v.tolist() for key, v in counts.items()}
    out = []
    for t, exact in enumerate(columns["enumerated"]):
        out.append(
            cl.TripleCensus(
                total=columns["total"][t],
                s_pair=tuple(columns["s_pair"][t]),
                s_pair_pair=tuple(columns["s_pair_pair"][t]),
                s_triple=columns["s_triple"][t] if exact else None,
                meet_all=columns["meet_all"][t],
                n_disjoint=columns["n_disjoint"][t] if exact else None,
                enumerated=exact,
            )
        )
    return out


@pytest.mark.parametrize(
    "name,cap",
    [(name, cl.counting.DEFAULT_CENSUS_CAP) for name in ORACLE_GROUPS + ["S3xS3"]]
    + [("S4", 500), ("S4", 96)],
)
def test_lattice_census_matches_per_triple_census(lattice, name, cap):
    # census() is the independent per-triple route for the orbit route of
    # lattice_census; at a cap of 500 S4 mixes enumerated and capped
    # triples, and at 96 some triples' totals (24 x 4 x 1) equal the cap
    g, subs = lattice(name)
    got = _lattice_entries(subs, cap)
    want = [
        cl.census(subs[i], subs[j], subs[t], max_census=cap)
        for i, j, t in combinations_with_replacement(range(len(subs)), 3)
    ]
    assert got == want
    if cap == 500:
        assert 0 < sum(c.enumerated for c in got) < len(got)


def test_triple_census_matches_census_across_c(lattice):
    # rows that share the indices (a, b) of H_i and H_j but differ in the
    # index c of H_t, from 1 to 120 (S5's trivial subgroup), go through
    # one enumeration block with their cosets numbered row after row.
    # H_i and H_j are two conjugates of S4 or of the Frobenius group of
    # order 20, so some of their coset pairs do not meet and n_disjoint
    # counts the pairs outside both.  Of the rows (0, 0, 1) and (0, 0, 0),
    # the second is above the cap.
    g, subs = lattice("S5")
    s4 = [p for p, s in enumerate(subs) if s.index == 5][:2]
    f20 = [p for p, s in enumerate(subs) if s.index == 6][:2]
    triples = np.array(
        [(*pair, t) for pair in (s4, f20) for t in range(len(subs))] + [(0, 0, 1), (0, 0, 0)]
    )
    assert {subs[t].index for t in triples[:, 2]} >= {1, 2, 60, 120}
    labels = np.stack([cl.coset_labels(s) for s in subs])
    got, errors = cl.counting._orbit_census(
        labels, subs.words, triples, np.arange(len(triples)), DEFAULT_CENSUS_CAP
    )
    assert errors == {}
    want = [cl.census(*(subs[x] for x in t)) for t in triples.tolist()]
    assert got["enumerated"].tolist() == [c.enumerated for c in want]
    assert got["enumerated"][-2:].tolist() == [True, False]
    assert got["s_triple"].tolist() == [c.s_triple or 0 for c in want]
    assert got["n_disjoint"].tolist() == [c.n_disjoint or 0 for c in want]


def test_lattice_census_names_first_failing_triple(lattice, monkeypatch):
    # merging the trivial subgroup's cosets in pairs breaks the enumeration
    # of every triple through it: each is named, the first (0, 0, 0), and
    # the counts of every triple are returned
    g, subs = lattice("C6")
    clean, _ = cl.lattice_census(subs)
    true_labels = cl.Lattice.coset_labels

    def merged(lat, at):
        labels = true_labels(lat, at)
        return np.where(lat.order[at][:, None] == 1, labels // 2, labels)

    monkeypatch.setattr(cl.Lattice, "coset_labels", merged)
    counts, errors = cl.lattice_census(subs)
    triples = _triples(subs)
    assert list(errors) == [p for p, t in enumerate(triples) if 0 in t]
    assert errors[0].startswith("census triple (0, 0, 0) ")
    for p, text in errors.items():
        assert text.startswith(f"census triple {triples[p]} "), text
    assert counts.keys() == clean.keys()
    for name, v in counts.items():
        assert len(v) == len(triples), name
        assert np.array_equal(v[len(errors):], clean[name][len(errors):]), name


def _triples(subs):
    return list(combinations_with_replacement(range(len(subs)), 3))


def _census_key(message):
    """The census key that a ConsistencyError text of ``census`` names."""
    if message.startswith("census "):
        return message.removeprefix("census ").split(":")[0]
    return "s_triple" if "undercount" in message else "n_disjoint"


@pytest.mark.parametrize("name,plantings", [("S4", 57), ("A4", 18), ("D12", 63)])
def test_planted_label_faults_flag_what_census_raises_on(lattice, monkeypatch, name, plantings):
    # fault parity under label swaps: with the labels of two points in
    # different cosets of one subgroup swapped, once with point 0's coset
    # and once without, the batched enumeration must fail on exactly the
    # triples through that subgroup that census() raises on, with the same
    # key; every flag here comes from s_pair or meet_all, so the point-0 pin
    # of s_triple and n_disjoint decides none of them
    _, subs = lattice(name)
    true_labels = cl.counting.coset_labels
    w = subs.words
    triples = np.array(_triples(subs))
    planted_count = flagged = 0
    for h, sub in enumerate(subs):
        if sub.index < 2:
            continue
        labels = true_labels(sub)
        first = [int(np.argmax(labels == c)) for c in range(sub.index)]  # each coset's least point
        for p, q in [(0, first[-1])] + [(first[1], first[-1])] * (sub.index > 2):
            planted = labels.copy()
            planted[[p, q]] = planted[[q, p]]

            def swapped(s, sub=sub, planted=planted):
                return planted if s is sub else true_labels(s)

            monkeypatch.setattr(cl.cosets, "coset_labels", swapped)
            monkeypatch.setattr(cl.counting, "coset_labels", swapped)
            rows = triples[(triples == h).any(axis=1)]
            _, errors = cl.counting._orbit_census(
                np.stack([swapped(s) for s in subs]), w, rows, np.arange(len(rows)), DEFAULT_CENSUS_CAP
            )
            want = {}
            for r, t in enumerate(rows.tolist()):
                try:
                    cl.census(*(subs[x] for x in t))
                except ConsistencyError as exc:
                    want[r] = f"census triple {tuple(t)} {_census_key(str(exc))}"
            assert {r: text.split(":")[0] for r, text in errors.items()} == want, (h, p, q)
            planted_count += 1
            flagged += len(errors)
    assert planted_count == plantings
    assert flagged


def _representatives(orbits):
    return np.flatnonzero(orbits == np.arange(len(orbits)))


@pytest.mark.parametrize("name,count", [("S4", 592), ("A5", 906)])
def test_triple_orbit_counts_pinned(lattice, name, count):
    _, subs = lattice(name)
    reps = _representatives(cl.triple_orbits(subs))
    assert len(reps) == count
    # lattice_census flags the same representatives
    flags = cl.lattice_census(subs)[0]["representative"]
    assert len(flags) == len(_triples(subs))
    assert np.flatnonzero(flags).tolist() == reps.tolist()


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "S4", "S3xC2"])
def test_triple_orbits_match_conjugation_by_every_element(lattice, name):
    # the least triple among the conjugates by every x in g, with subgroups
    # conjugated through the multiplication table
    g, subs = lattice(name)
    position = {s.mask: p for p, s in enumerate(subs)}
    table = g.np_table
    conj = [
        np.array([position[mask_of(image[list(s.elements)].tolist())] for s in subs])
        for image in (table[table[g.inv[x]], x] for x in range(g.n))
    ]
    triples = _triples(subs)
    index = {t: p for p, t in enumerate(triples)}
    want = [min(index[tuple(sorted(perm[list(t)].tolist()))] for perm in conj) for t in triples]
    assert cl.triple_orbits(subs).tolist() == want


def _spy_members(monkeypatch):
    """Record the member flags of every block of rows lattice_census checks."""
    seen = []
    real = cl.counting._census_failures

    def spy(closed, got, member):
        seen.append(member.copy())
        return real(closed, got, member)

    monkeypatch.setattr(cl.counting, "_census_failures", spy)
    return seen


def test_abelian_census_enumerates_every_triple(lattice, monkeypatch):
    # an abelian group has no conjugation maps: every triple is its own
    # orbit and is checked against its own enumeration
    _, subs = lattice("C2xC2xC2")
    assert len(_representatives(cl.triple_orbits(subs))) == len(_triples(subs))
    seen = _spy_members(monkeypatch)
    got = _lattice_entries(subs, cl.counting.DEFAULT_CENSUS_CAP)
    assert all(c.enumerated for c in got)
    assert sum(map(len, seen)) == len(got)
    assert not any(m.any() for m in seen)


def test_orbit_census_checks_every_member(lattice, monkeypatch):
    _, subs = lattice("A5")
    seen = _spy_members(monkeypatch)
    got = _lattice_entries(subs, cl.counting.DEFAULT_CENSUS_CAP)
    member = np.concatenate(seen)
    assert len(member) == len(got)
    assert np.count_nonzero(~member) == 906


@pytest.mark.parametrize("key", ["total", "s_pair", "s_pair_pair", "meet_all"])
def test_lattice_census_names_failing_member(lattice, monkeypatch, key):
    # a fault in one member's closed form, not in its representative's, is
    # caught against the representative's enumeration and names the member
    # alone; every other count is returned as it is
    _, subs = lattice("S4")
    clean, _ = cl.lattice_census(subs)
    orbits = cl.triple_orbits(subs)
    members = np.flatnonzero(orbits != np.arange(len(orbits)))
    p = int(members[len(members) // 2])
    triples = _triples(subs)
    real = cl.counting._closed_census

    def planted(*args):
        closed = real(*args)
        closed[key][p] += 1
        return closed

    monkeypatch.setattr(cl.counting, "_closed_census", planted)
    counts, errors = cl.lattice_census(subs)
    assert list(errors) == [p]
    assert errors[p].startswith(f"census triple {triples[p]} (orbit of {triples[orbits[p]]}) {key}:")
    assert counts.keys() == clean.keys()
    counts[key][p] -= 1
    for name, v in counts.items():
        assert np.array_equal(v, clean[name]), name


def test_lattice_census_names_every_row_of_a_failing_orbit(lattice, monkeypatch):
    # one wrong count in one representative's enumeration: the
    # representative fails, and so does every member checked against it,
    # each named with the representative
    _, subs = lattice("S4")
    orbits = cl.triple_orbits(subs)
    triples = _triples(subs)
    rep = int(np.flatnonzero(np.bincount(orbits) > 2)[-1])
    plant_enumeration_fault(monkeypatch, triples[rep])
    _, errors = cl.lattice_census(subs)
    assert list(errors) == np.flatnonzero(orbits == rep).tolist()
    assert errors.pop(rep).startswith(f"census triple {triples[rep]} meet_all: closed form ")
    for p, text in errors.items():
        assert text.startswith(f"census triple {triples[p]} (orbit of {triples[rep]}) meet_all:")


def test_lattice_census_flags_a_non_integral_row_alone(lattice, monkeypatch):
    # an order of 7 for A4 in S4 makes its index 3, which does not divide the
    # pair-pair numerator 2 * 2 of the triple (A4, A4, A4): that row fails on
    # its own with that key and no other check, and no other row fails
    _, subs = lattice("S4")
    q = next(x for x, s in enumerate(subs) if s.order == 12)
    triples = _triples(subs)
    p = triples.index((q, q, q))
    real = cl.counting._orders

    def orders(w, rows):
        order, meet = real(w, rows)
        order[0][(rows == q).all(axis=1)] = 7
        return order, meet

    monkeypatch.setattr(cl.counting, "_orders", orders)
    counts, errors = cl.lattice_census(subs)
    assert errors == {
        p: f"census triple {(q, q, q)} s_pair_pair: pair-pair closed form is not integral"
    }
    assert len(counts["total"]) == len(triples)


def test_representative_pair_counts_compared_in_place(lattice, monkeypatch):
    # only a member's pair counts are compared as sorted triples: a
    # representative's must match its enumeration position by position
    _, subs = lattice("S4")
    reps = _representatives(cl.triple_orbits(subs))
    real = cl.counting._closed_census
    picked = []

    def swapped(*args):
        closed = real(*args)
        s_pair = closed["s_pair"]
        p = next(int(r) for r in reps if len(set(s_pair[r].tolist())) == 3)
        s_pair[p] = s_pair[p][::-1].copy()
        picked.append(p)
        return closed

    monkeypatch.setattr(cl.counting, "_closed_census", swapped)
    counts, errors = cl.lattice_census(subs)
    assert list(errors) == picked
    assert errors[picked[0]].startswith(f"census triple {_triples(subs)[picked[0]]} s_pair:")
    assert len(counts["total"]) == len(_triples(subs))


def test_lattice_census_parent_check(lattice):
    _, subs6 = lattice("C6")
    _, subs12 = lattice("C12")
    with pytest.raises(ParentMismatch):
        cl.lattice_census([subs6[0], subs12[0]])


def test_lattice_census_needs_a_list_closed_under_conjugation(lattice):
    # a non-abelian group's census labels triples by conjugation, so a list
    # missing a conjugate is refused
    _, subs = lattice("S4")
    picked = [s for s in subs if s.order == 2][:1] + [s for s in subs if s.order == 3][:1]
    with pytest.raises(cl.ConsistencyError, match="missing from its lattice"):
        cl.lattice_census(picked)
    # an abelian group's subgroups are their own conjugates: any list will do
    _, subs = lattice("C2xC2xC2")
    picked = subs[1:4]
    want = [cl.census(*(picked[x] for x in t)) for t in _triples(picked)]
    assert _lattice_entries(picked, cl.counting.DEFAULT_CENSUS_CAP) == want


def test_census_blocks_hold_a_small_budget(lattice, monkeypatch):
    # under a budget of 1,024 entries, the closed forms of A5's 35,990
    # triples and the enumeration of 3,000 triples over three subgroups of
    # S5 (120 labels per triple, three label rows) hold little beyond their
    # outputs (2.3 MB and 0.2 MB); with all of A5's triples in one block
    # the closed forms traced 7.7 MB, and enumeration blocks sized by the
    # label rows, not the labels per row, 8.8 MB
    _, a5 = lattice("A5")
    triples = cl.counting._triples(len(a5))
    _, s5 = lattice("S5")
    labels = s5.coset_labels(np.arange(3))
    drawn = np.sort(np.random.default_rng(0).integers(0, 3, size=(3000, 3)), axis=1)
    monkeypatch.setattr(bitset, "BLOCK_ENTRIES", 1 << 10)
    for run, bound in (
        (lambda: cl.counting._closed_census(a5.words, 60, triples), 4),
        (lambda: cl.counting._enumerate_rows(labels, s5.index[:3], drawn), 2),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_meeting_pairs_are_each_rows_distinct_label_pairs(data):
    # rows of label pairs, x below its row's width a and y below b, against
    # a set of pairs per row; the widths vary from row to row, so the key's
    # y field must hold the last row's numbering
    rows, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 8))
    widths = st.lists(st.integers(1, 40), min_size=rows, max_size=rows)
    a, b = np.array(data.draw(widths)), np.array(data.draw(widths))

    def labels(width):
        return np.array([data.draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n))
                         for w in width.tolist()])

    x, y = labels(a), labels(b)
    off_x, off_y = np.cumsum(a) - a, np.cumsum(b) - b
    r, u, v = _meeting_pairs(x, y, b, off_x, off_y)
    assert list(zip(r.tolist(), u.tolist(), v.tolist())) == [
        (i, int(off_x[i]) + p, int(off_y[i]) + q)
        for i in range(rows)
        for p, q in sorted(set(zip(x[i].tolist(), y[i].tolist())))
    ]
