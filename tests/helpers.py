"""Independent oracles for the test suite.

Everything here recomputes quantities with a deliberately different
algorithm from the library (plain sets and nested loops, no bitmasks, no
closed forms) so that agreement between the two is meaningful evidence.
The exceptions:

- The library's two previous lattice enumerators, kept on bitmasks so they
  can run on larger groups: ``reference_subgroups`` closes from the
  identity every time, ``cyclic_extension_subgroups`` extends every
  subgroup, not one per conjugacy class.
- ``recursive_cliques`` is the verifier's former clique enumerator, a
  depth-first recursion over int masks, which the level-wise enumeration
  is held to.
- ``int_coset_choices`` is the batched coset search's former choice list,
  built from each subgroup's int coset masks, which its word table is
  held to.
- ``row_sort_orbit_labels`` is ``subgroups.orbit_labels`` by its former
  route, each image row sorted on its own, where the library sorts the
  image columns with a compare-exchange network; rows are found in a dict
  and joined by union-find.
- ``composition_table`` lists a spec's elements in full and multiplies
  every pair, where the library follows generator steps along a spanning
  tree.
- ``small_products`` is the hypothesis strategy for random direct products.
- The per-item routes that the batched lemma suite replaced, which read
  masks and coset labels, not plain sets: ``product_set`` and ``promote``,
  ``cosets_of_k_in_product`` and ``touching_count`` on one pair of
  subgroups, ``check_triple_inequalities`` on one triple, and
  ``element_order`` on one element.
- ``per_triple_family``, ``per_pair_family`` and ``per_quadruple_family``
  are the lemma suite's three families as they ran before they were checked
  on whole arrays: ``census`` and ``check_triple_inequalities``, the coset
  routines above and per-subgroup meeting matrices, on one instance at a
  time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Optional, Sequence

import numpy as np
from hypothesis import strategies as st

import cosetlab.counting
from cosetlab import FiniteGroup, GroupSpec, RValue, Subgroup
from cosetlab.bitset import bits_tuple, lowest_bit, mask_of
from cosetlab.cosets import (
    _pair_parent,
    coset_labels,
    coset_mask,
    disjointable,
    double_coset_reps,
    left_cosets,
    meeting_matrix,
)
from cosetlab.counting import _meet_orders, _r_from_order, census, r_strict_upper
from cosetlab.errors import ConsistencyError
from cosetlab.subgroups import (
    _closed_under_mul,
    _is_prime_power,
    _subgroup_from_mask,
)
from cosetlab.verifier import MEET_ROWS

# Named groups with their orders, the factors of random direct products.
SMALL_FACTORS = {"C2": 2, "C3": 3, "C4": 4, "C5": 5, "S3": 6, "D4": 8, "Q8": 8, "A4": 12}


def small_products():
    """Hypothesis strategy: two or three factor names whose product has order <= 72."""
    return st.lists(st.sampled_from(sorted(SMALL_FACTORS)), min_size=2, max_size=3).filter(
        lambda fs: math.prod(SMALL_FACTORS[f] for f in fs) <= 72
    )


# Signed quaternion units, as ids 0..7 = +1, -1, +i, -i, +j, -j, +k, -k;
# the product of units u*v is UNIT_PRODUCT[u + v] with its sign.
QUATERNION_UNITS = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"), (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
UNIT_PRODUCT = {
    "11": (1, "1"), "1i": (1, "i"), "1j": (1, "j"), "1k": (1, "k"),
    "i1": (1, "i"), "ii": (-1, "1"), "ij": (1, "k"), "ik": (-1, "j"),
    "j1": (1, "j"), "ji": (-1, "k"), "jj": (-1, "1"), "jk": (1, "i"),
    "k1": (1, "k"), "ki": (1, "j"), "kj": (-1, "i"), "kk": (-1, "1"),
}


def _perm_table(elements: list[tuple[int, ...]]) -> list[list[int]]:
    """Sorted permutations, x*y applying y first: every pair composed."""
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(p[x] for x in q)] for q in elements] for p in elements]


def _is_even(p: tuple[int, ...]) -> bool:
    return sum(p[i] > p[j] for i, j in combinations(range(len(p)), 2)) % 2 == 0


def composition_table(spec: GroupSpec) -> list[list[int]]:
    """The Cayley table a spec denotes, with the library's element ids.

    A permutation group is listed in full and sorted (all of S_n, the even
    part of it for A_n, the n rotations and n reflections of an n-gon for
    D_n, a fixpoint of pairwise products for a perm spec), and every ordered
    pair is composed.  Q8 multiplies signed quaternion units, C_n adds
    mod n, and a product pairs (x, y) as x * |b| + y, folding from the left.
    """
    if spec.kind == "cayley":
        return [list(row) for row in spec.table]
    if spec.kind == "product":
        acc = composition_table(spec.factors[0])
        for factor in spec.factors[1:]:
            b = composition_table(factor)
            na, nb = len(acc), len(b)
            acc = [
                [acc[xa][ya] * nb + b[xb][yb] for ya in range(na) for yb in range(nb)]
                for xa in range(na)
                for xb in range(nb)
            ]
        return acc
    if spec.kind == "perm":
        elems = {tuple(range(spec.degree))} | set(spec.generators)
        while True:
            more = elems | {tuple(p[x] for x in q) for p in elems for q in elems}
            if more == elems:
                return _perm_table(list(elems))
            elems = more
    name = spec.name
    if name == "Q8":
        table = []
        for su, u in QUATERNION_UNITS:
            row = []
            for sv, v in QUATERNION_UNITS:
                sign, w = UNIT_PRODUCT[u + v]
                row.append(QUATERNION_UNITS.index((su * sv * sign, w)))
            table.append(row)
        return table
    fam, n = name[0], int(name[1:])
    if fam == "C":
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    if fam == "D":
        return _perm_table(
            [tuple((r + i) % n for i in range(n)) for r in range(n)]
            + [tuple((r - i) % n for i in range(n)) for r in range(n)]
        )
    every = list(permutations(range(n)))
    return _perm_table(every if fam == "S" else [p for p in every if _is_even(p)])


def linear_perm_spec(p: int, *, projective: bool) -> GroupSpec:
    """SL(2, p) on the nonzero vectors of F_p^2, or PSL(2, p) on its p + 1
    lines through 0 (each written with its first nonzero coordinate 1), as a
    perm spec generated by [[1, 1], [0, 1]] and [[0, -1], [1, 0]]."""
    if projective:
        points = [(1, b) for b in range(p)] + [(0, 1)]
    else:
        points = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}

    def point(a: int, b: int) -> int:
        if projective:
            scale = pow(a or b, -1, p)
            a, b = a * scale % p, b * scale % p
        return index[(a, b)]

    def perm(m: tuple[tuple[int, int], tuple[int, int]]) -> tuple[int, ...]:
        (a, b), (c, d) = m
        return tuple(point((a * x + b * y) % p, (c * x + d * y) % p) for x, y in points)

    return GroupSpec(
        kind="perm",
        degree=len(points),
        generators=(perm(((1, 1), (0, 1))), perm(((0, p - 1), (1, 0)))),
    )


def set_closure(g: FiniteGroup, seed: frozenset[int]) -> frozenset[int]:
    """Fixpoint of pairwise products, as a plain set computation."""
    mul = g.np_table.tolist()
    cur = set(seed) | {g.identity}
    while True:
        nxt = cur | {mul[a][b] for a in cur for b in cur}
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def is_subgroup_set(g: FiniteGroup, elems: frozenset[int]) -> bool:
    if g.identity not in elems:
        return False
    mul, inv = g.np_table.tolist(), g.inv.tolist()
    for a in elems:
        if inv[a] not in elems:
            return False
        for b in elems:
            if mul[a][b] not in elems:
                return False
    return True


def brute_subgroups(g: FiniteGroup) -> set[frozenset[int]]:
    """Every subgroup, found by closing every subset of size at most 3.

    Any subgroup of order m is generated by at most log2(m) elements, and
    log2 of anything we run this on is at most 4; three generators cover
    every group this oracle is pointed at (checked against the literature
    counts in the tests that use it).
    """
    found: set[frozenset[int]] = set()
    elems = list(range(g.n))
    for r in (1, 2, 3):
        for gens in combinations(elems, r):
            found.add(set_closure(g, frozenset(gens)))
    return found


def reference_subgroups(g: FiniteGroup) -> list[int]:
    """Every subgroup mask, sorted like ``enumerate_subgroups``'s output.

    The enumerator the library used before cyclic extension: seed with every
    cyclic subgroup, then close each known subgroup's generators together
    with each element outside it, re-closing from the identity every time,
    until no new element set appears.
    """

    mul = g.np_table.tolist()

    def close(gens: tuple[int, ...]) -> int:
        mask = 1 << g.identity
        frontier = [g.identity]
        while frontier:
            nxt = []
            for z in frontier:
                for q in gens:
                    w = mul[z][q]
                    if not mask >> w & 1:
                        mask |= 1 << w
                        nxt.append(w)
            frontier = nxt
        return mask

    found: dict[int, tuple[int, ...]] = {}
    for x in range(g.n):
        found.setdefault(close((x,)), (x,))
    queue = list(found)
    while queue:
        mask = queue.pop()
        gens = found[mask]
        for x in range(g.n):
            if mask >> x & 1:
                continue
            new = close(gens + (x,))
            if new not in found:
                found[new] = gens + (x,)
                queue.append(new)

    def key(mask: int) -> tuple[int, list[int]]:
        elems = [x for x in range(g.n) if mask >> x & 1]
        return len(elems), elems

    return sorted(found, key=key)


def full_mask(n: int) -> int:
    return (1 << n) - 1


@lru_cache(maxsize=1)
def table_lists(g: FiniteGroup) -> list[list[int]]:
    """g's Cayley table as nested lists, for an oracle that reads it entry
    by entry; kept for the last group read, since ``close_mask`` runs once
    per extension."""
    return g.np_table.tolist()


def close_mask(g: FiniteGroup, gens: Sequence[int], start: Optional[int] = None) -> int:
    """Int mask of the subgroup generated by ``gens`` together with the
    subgroup S whose mask is ``start`` (default: the trivial subgroup).

    Grown as a union of left cosets x S, each entering whole, until closed
    under right multiplication by the generators; such a union holds the
    identity, so it is the subgroup.  Past half of g it can only be g.
    """
    mul = table_lists(g)
    mask = 1 << g.identity if start is None else start
    base = bits_tuple(mask)
    size = len(base)
    stack = [mul[s][q] for s in base for q in gens]
    while stack:
        x = stack.pop()
        if mask >> x & 1:
            continue
        size += len(base)
        if 2 * size > g.n:
            return full_mask(g.n)
        for s in base:
            w = mul[x][s]
            mask |= 1 << w
            stack.extend(mul[w][q] for q in gens)
    return mask


def cyclic_extension_subgroups(g: FiniteGroup) -> list[int]:
    """Every subgroup mask, sorted like ``enumerate_subgroups``'s output.

    The library's enumerator before it went by conjugacy classes: cyclic
    extension of every subgroup found, not of one per class.  Seeds with
    every cyclic subgroup, then extends each known subgroup H to <H, y> for
    y in a list holding one generator of each cyclic subgroup of prime-power
    order, skipping y inside H or in the double coset H y' H of an earlier
    candidate y'.
    """
    found: dict[int, tuple[int, ...]] = {}  # mask -> generators
    queue: deque[int] = deque()

    def add(mask: int, gens: tuple[int, ...]) -> None:
        if mask in found:
            return
        found[mask] = gens
        queue.append(mask)

    prime_power_gens: list[int] = []
    for x in range(g.n):
        m = close_mask(g, (x,))
        if m not in found and _is_prime_power(m.bit_count()):
            prime_power_gens.append(x)
        add(m, (x,))

    mul = g.np_table.tolist()
    while queue:
        mask = queue.popleft()
        gens = found[mask]
        base = bits_tuple(mask)
        covered = mask  # H and the double cosets H y H of earlier candidates
        for y in prime_power_gens:
            if covered >> y & 1:
                continue
            # the left cosets x H of H y H, reached by left multiplication
            # with the generators of H
            stack = [y]
            while stack:
                x = stack.pop()
                if covered >> x & 1:
                    continue
                row = mul[x]
                for h in base:
                    covered |= 1 << row[h]
                for t in gens:
                    stack.append(mul[t][x])
            add(close_mask(g, (y,), mask), gens + (y,))

    return sorted(found, key=lambda m: (m.bit_count(), bits_tuple(m)))


def coset_set(g: FiniteGroup, sub: frozenset[int], x: int) -> frozenset[int]:
    row = g.np_table[x].tolist()
    return frozenset(row[h] for h in sub)


def all_left_cosets(g: FiniteGroup, sub: frozenset[int]) -> set[frozenset[int]]:
    return {coset_set(g, sub, x) for x in range(g.n)}


def product_elements(g: FiniteGroup, h: frozenset[int], k: frozenset[int]) -> frozenset[int]:
    mul = g.np_table.tolist()
    return frozenset(mul[a][b] for a in h for b in k)


def exists_disjoint_coset_pair(g: FiniteGroup, h: Subgroup, k: Subgroup) -> bool:
    """Scan every pair of left cosets for a disjoint one."""
    hs = frozenset(h.elements)
    ks = frozenset(k.elements)
    for ch, ck in product(all_left_cosets(g, hs), all_left_cosets(g, ks)):
        if not ch & ck:
            return True
    return False


def triple_census_brute(
    g: FiniteGroup, si: Subgroup, sj: Subgroup, sk: Subgroup
) -> dict:
    """Triple-coset counts by direct iteration over coset triples."""
    ci = sorted(all_left_cosets(g, frozenset(si.elements)))
    cj = sorted(all_left_cosets(g, frozenset(sj.elements)))
    ck = sorted(all_left_cosets(g, frozenset(sk.elements)))
    total = s_ij = s_ik = s_jk = 0
    s_ij_ik = s_ij_jk = s_ik_jk = 0
    s_all = meet_all = n_disjoint = 0
    for a in ci:
        for b in cj:
            ab = bool(a & b)
            for c in ck:
                ac = bool(a & c)
                bc = bool(b & c)
                total += 1
                s_ij += ab
                s_ik += ac
                s_jk += bc
                s_ij_ik += ab and ac
                s_ij_jk += ab and bc
                s_ik_jk += ac and bc
                s_all += ab and ac and bc
                meet_all += bool(a & b & c)
                n_disjoint += not (ab or ac or bc)
    return {
        "total": total,
        "s_pair": (s_ij, s_ik, s_jk),
        "s_pair_pair": (s_ij_ik, s_ij_jk, s_ik_jk),
        "s_triple": s_all,
        "meet_all": meet_all,
        "n_disjoint": n_disjoint,
    }


def pairwise_disjoint(sets: list[frozenset[int]]) -> bool:
    for a, b in combinations(sets, 2):
        if a & b:
            return False
    return True


def exists_disjoint_family(g: FiniteGroup, subs: list[Subgroup]) -> bool:
    """Whether some pairwise disjoint cosets exist, one per listed subgroup.

    Plain backtracking in the given slot order over every coset of every
    slot: no pinned slot, no double cosets, no reordering.
    """
    cosets = [sorted({coset_mask(x, s) for x in range(g.n)}) for s in subs]

    def place(slot: int, used: int) -> bool:
        if slot == len(subs):
            return True
        return any(not used & c and place(slot + 1, used | c) for c in cosets[slot])

    return place(0, 0)


def row_sort_orbit_labels(perms: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The least row index in the orbit of each row of ``rows`` (N x k
    sorted position tuples, closed under ``perms``): every image row sorted
    by ``np.sort`` along axis 1, looked up in a dict of the rows, and joined
    to its row by union-find with the least index as root."""
    position = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    root = list(range(len(rows)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for p in perms:
        for i, image in enumerate(map(tuple, np.sort(p[rows], axis=1).tolist())):
            a, b = find(i), find(position[image])
            root[max(a, b)] = min(a, b)
    return np.array([find(i) for i in range(len(rows))], dtype=np.int64)


def word_int(words: np.ndarray) -> int:
    """A row of little-endian 64-bit words read as one int mask."""
    return int.from_bytes(words.tobytes(), "little")


def bar_row(source, gcd_ok: np.ndarray, j: int) -> int:
    """Row j of ``source``, a ``PairRows``, at both pair bars, as an int
    mask: its disjointability row ANDed with the gcd row of its index
    class, ``gcd_ok`` being the words that ``source.rows(k)`` returns."""
    return word_int(source.disjoint_rows(j) & gcd_ok[source.index_class[j]])


def rows_built(source) -> int:
    """The disjointability rows that ``source``, a ``PairRows``, holds: the
    rows of its built blocks."""
    m = len(source.order)
    return sum(min(MEET_ROWS, m - b * MEET_ROWS) for b in np.flatnonzero(source._built).tolist())


def recursive_cliques(g: FiniteGroup, k: int, source) -> tuple[list[tuple[int, ...]], int]:
    """The candidate cliques of ``source``, a ``PairRows``, at k, and the
    prefixes visited, by the verifier's former depth-first recursion over
    int candidate masks; no cap.

    Each prefix's candidates are ANDed with row j at both pair bars
    (``bar_row``) one pick at a time, and the scan stops at the first j
    whose order, taken for every pick still to come, passes |G|.  A first
    pick that ``source.rows(k)`` lists as lone reads no row.
    """
    order = source.order.tolist()
    gcd_ok, lone = source.rows(k)
    rows: dict[int, int] = {}
    out = []
    visited = 0

    def extend(prefix: tuple[int, ...], osum: int, cand: int) -> None:
        nonlocal visited
        left = k - len(prefix)
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            if osum + order[j] * left > g.n:
                break
            visited += 1
            cur = prefix + (j,)
            if left == 1:
                out.append(cur)
            elif prefix or not lone[j]:
                if j not in rows:
                    rows[j] = bar_row(source, gcd_ok, j)
                extend(cur, osum + order[j], cand & rows[j])
            cand ^= low

    extend((), 0, full_mask(len(order)))
    return out, visited


def int_coset_choices(subs, clique) -> list[tuple[int, ...]]:
    """Per slot of ``clique`` (lattice positions, largest subgroup first,
    ties in clique order), the int coset masks that the verifier's search
    tries there, from the per-subgroup routes: the slot-0 subgroup itself,
    one coset per double coset H0 x H1 (``double_coset_reps``), and every
    left coset of a later slot (``left_cosets``)."""
    first, *rest = sorted((subs[p] for p in clique), key=lambda s: -s.order)
    choices = [(first.mask,)]
    choices += [double_coset_reps(first, rest[0])] if rest else []
    return choices + [left_cosets(s) for s in rest[1:]]


def element_order(g: FiniteGroup, x: int) -> int:
    """The least k >= 1 with x^k the identity, by repeated multiplication."""
    mul = g.np_table.tolist()
    k, y = 1, x
    while y != g.identity:
        y = mul[y][x]
        k += 1
    return k


def _product_row(h: Subgroup, k: Subgroup) -> np.ndarray:
    """Bool row of H*K: the |H| x |K| products h*k, gathered from the table at once."""
    row = np.zeros(h.parent.n, dtype=bool)
    row[h.parent.np_table[np.array(h.elements)[:, None], k.elements]] = True
    return row


# product_set's ConsistencyError text
CLOSURE_DISAGREES = "product-set closure test disagrees with the commutation test"


def product_set(h: Subgroup, k: Subgroup) -> tuple[int, bool]:
    """The mask of H*K and whether it is a subgroup.  Closure under
    multiplication must agree with H*K = K*H, or ConsistencyError."""
    parent = _pair_parent(h, k)
    hk = _product_row(h, k)
    closed = _closed_under_mul(parent, hk)
    if closed != (hk == _product_row(k, h)).all():
        raise ConsistencyError(CLOSURE_DISAGREES)
    return mask_of(np.flatnonzero(hk).tolist()), closed


def promote(g: FiniteGroup, p: tuple[int, bool]) -> Subgroup:
    """Turn a ``product_set`` result that is a subgroup into a Subgroup."""
    mask, is_subgroup = p
    if not is_subgroup:
        raise ValueError("product set is not a subgroup")
    return _subgroup_from_mask(g, mask)


def cosets_of_k_in_product(h: Subgroup, k: Subgroup) -> int:
    """How many left cosets of K tile H*K, counted over the products h*k."""
    parent = _pair_parent(h, k)
    products = parent.np_table[np.ix_(h.elements, k.elements)]
    return len(np.unique(coset_labels(k)[products]))


def touching_count(h: Subgroup, k: Subgroup) -> int:
    """How many cosets of H intersect K, counted over the elements of K."""
    _pair_parent(h, k)
    return len(np.unique(coset_labels(h)[list(k.elements)]))


@dataclass(frozen=True)
class TripleDiagnostics:
    """Inequality and divisibility checks for one subgroup triple."""

    indices: tuple[int, int, int]
    r_pair: tuple[RValue, RValue, RValue]
    r_triple: RValue
    pivot_bounds_ok: bool
    divisibility_ok: bool
    common_gcd: Optional[int]
    scaled_divisibility_ok: Optional[bool]


def check_triple_inequalities(gi: Subgroup, gj: Subgroup, gk: Subgroup) -> TripleDiagnostics:
    """``counting.TripleInequalities`` for one triple, from one set of
    intersection orders; raises ConsistencyError when an r-value is not
    integral.  ``common_gcd`` and ``scaled_divisibility_ok`` are None where
    the three pair gcds differ."""
    subs = (gi, gj, gk)
    n = gi.parent.n
    o_ij, o_ik, o_jk, o_all = _meet_orders(gi, gj, gk)
    # The order of the pair that leaves out position c, for c = 0, 1, 2.
    pair_without = (o_jk, o_ik, o_ij)

    pair_r = (
        _r_from_order((gi, gj), o_ij),
        _r_from_order((gi, gk), o_ik),
        _r_from_order((gj, gk), o_jk),
    )
    triple_r = _r_from_order(subs, o_all)

    bounds_ok = all(
        pair_without[c] // o_all <= subs[a].order // pair_without[b]
        for a, b, c in permutations(range(3))
    )
    div_ok = all(triple_r.intersection_index % (n // o) == 0 for o in pair_without)

    gcds = {math.gcd(subs[a].index, subs[b].index) for a, b in ((0, 1), (0, 2), (1, 2))}
    common = gcds.pop() if len(gcds) == 1 else None
    scaled_ok: Optional[bool] = None
    if common is not None:
        # pair_r runs ij, ik, jk, so pair_r[2 - c] is the pair without c.
        scaled_ok = all(
            (subs[c].index // common * triple_r.r) % pair_r[2 - c].r == 0 for c in range(3)
        )
    return TripleDiagnostics(
        indices=tuple(s.index for s in subs),
        r_pair=pair_r,
        r_triple=triple_r,
        pivot_bounds_ok=bounds_ok,
        divisibility_ok=div_ok,
        common_gcd=common,
        scaled_divisibility_ok=scaled_ok,
    )


def _check_triple(gi: Subgroup, gj: Subgroup, gk: Subgroup, stats: dict, census_cap: int) -> None:
    tag = f"{gi.parent.label}: orders ({gi.order},{gj.order},{gk.order})"
    try:
        cen = census(gi, gj, gk, max_census=census_cap)
    except ConsistencyError as exc:
        _record(stats["L3.2"], False, f"{tag}: {exc}")
        return
    if cen.enumerated:
        # The census already cross-checked the enumerated common-point count
        # against the intersection index, so reaching here means it held.
        _record(stats["L3.2"], True, tag)

    # check_triple_inequalities raises when an r-value is not integral.
    try:
        diag = check_triple_inequalities(gi, gj, gk)
    except ConsistencyError as exc:
        _record(stats["E3.4"], False, f"{tag}: {exc}")
        return
    _record(stats["E3.1"], diag.pivot_bounds_ok, tag)
    _record(
        stats["E3.4"], diag.divisibility_ok and diag.scaled_divisibility_ok in (None, True), tag
    )
    if (
        diag.common_gcd is not None
        and cen.enumerated
        and cen.n_disjoint is not None
        and cen.n_disjoint > 0
    ):
        rs = [rv.r for rv in diag.r_pair]
        bound = r_strict_upper(diag.common_gcd, rs[0], rs[1], rs[2])
        _record(
            stats["E3.2"],
            diag.r_triple.r < bound,
            f"{tag}: r={diag.r_triple.r} bound={bound}",
        )


def per_triple_family(lattice, labels, triples, orbits, stats, census_cap) -> None:
    """Drop-in for ``cosetlab.lemmas._check_triples``: L3.2, E3.1, E3.2 and
    E3.4 recorded one triple at a time, in order, from ``census`` and
    ``check_triple_inequalities`` on the lattice's items; ``labels`` and
    ``orbits`` are not read."""
    for i, j, k in triples:
        _check_triple(lattice[i], lattice[j], lattice[k], stats, census_cap)


def plant_enumeration_fault(monkeypatch, bad) -> None:
    """One wrong ``meet_all`` in the batched census enumeration of every row
    (i, j, t) equal to ``bad``."""
    real = cosetlab.counting._enumerate_rows

    def enumerate_rows(labels, index, rows):
        counts = real(labels, index, rows)
        counts["meet_all"][(rows == bad).all(axis=1)] += 1
        return counts

    monkeypatch.setattr(cosetlab.counting, "_enumerate_rows", enumerate_rows)


def check_pair(g: FiniteGroup, h: Subgroup, k: Subgroup, stats: dict) -> None:
    """L2.1.i-v, L3.2 and L3.3 on one pair (H, K), as the suite recorded them
    one pair at a time."""
    n = g.n
    overlap = (h.mask & k.mask).bit_count()
    tag = f"{g.label}: |H|={h.order} |K|={k.order}"

    # product_set raises when its closure test and HK = KH disagree.
    try:
        p = product_set(h, k)
        _record(stats["L2.1.i"], True, tag)
    except ConsistencyError as exc:
        p = None
        _record(stats["L2.1.i"], False, f"{tag}: {exc}")

    _record(stats["L2.1.ii"], cosets_of_k_in_product(h, k) == h.order // overlap, tag)

    if math.gcd(h.index, k.index) == 1:
        hk = p[0] if p is not None else mask_of(np.flatnonzero(_product_row(h, k)).tolist())
        _record(stats["L2.1.iii"], hk == full_mask(n), tag)

    meets = meeting_matrix(h, k)
    _record(stats["L2.1.iv"], disjointable(h, k) == (not meets.all()), tag)

    if p is not None and p[1]:
        # Cosets of M = HK either coincide or are disjoint, so aM and bM are
        # disjoint exactly when a and b carry different M-labels.
        m_labels = coset_labels(promote(g, p))
        h_reps = m_labels[[lowest_bit(c) for c in left_cosets(h)]]
        k_reps = m_labels[[lowest_bit(c) for c in left_cosets(k)]]
        separated = h_reps[:, None] != k_reps[None, :]
        _tally(stats["L2.1.v"], separated[~meets], tag)

    _record(stats["L3.2"], int(np.count_nonzero(meets)) == n // overlap, tag)

    _record(stats["L3.3"], touching_count(h, k) == k.order // overlap, tag)


def check_nested(
    g: FiniteGroup, g1: Subgroup, h1: Subgroup, g2: Subgroup, h2: Subgroup, stats: dict
) -> None:
    """R3.1 on one quadruple with H1 & H2 == G1 & G2: for distinct cosets
    A = a*H1 and B inside a single G1-coset and any b in B, A misses b*H2."""
    tag = f"{g.label}: |G1|={g1.order} |H1|={h1.order} |G2|={g2.order} |H2|={h2.order}"
    h1_labels = coset_labels(h1)
    g1_labels = coset_labels(g1)
    big_of = np.empty(h1.index, dtype=g1_labels.dtype)
    big_of[h1_labels] = g1_labels  # the G1-coset holding each H1-coset
    # Row A, column b: an instance when A lies in b's G1-coset but is not b*H1.
    instances = (big_of[:, None] == g1_labels) & (np.arange(h1.index)[:, None] != h1_labels)
    misses = ~meeting_matrix(h1, h2)[:, coset_labels(h2)]
    _tally(stats["R3.1"], misses[instances], tag)


def _tally(st, oks: np.ndarray, tag: str) -> None:
    """Record every entry of a 1-D boolean outcome array under one tag."""
    st.tally_at(np.ones(oks.shape, dtype=bool), oks, lambda p: tag)


def _record(st, ok: bool, tag: str) -> None:
    """Record one instance, failed unless ``ok``, under ``tag``."""
    _tally(st, np.array([ok], dtype=bool), tag)


def _subgroups_of(g: FiniteGroup, labels: np.ndarray) -> list[Subgroup]:
    """Fresh Subgroup objects for the rows of a coset-label matrix: each
    subgroup is the coset of the identity."""
    return [
        _subgroup_from_mask(g, mask_of(np.flatnonzero(row == row[g.identity]).tolist()))
        for row in labels
    ]


def per_pair_family(lattice, labels, pairs, stats) -> None:
    """Drop-in for ``cosetlab.lemmas._check_pairs``: every row (h, k) of
    ``pairs`` through ``check_pair``, in order; of ``lattice`` only the
    group is read."""
    g = lattice.parent
    subs = _subgroups_of(g, labels)
    for h, k in pairs:
        check_pair(g, subs[h], subs[k], stats)


def per_quadruple_family(lattice, labels, quadruples, stats) -> None:
    """Drop-in for ``cosetlab.lemmas._check_nested``: every row of
    ``quadruples`` through ``check_nested``, in order; of ``lattice`` only
    the group is read."""
    g = lattice.parent
    subs = _subgroups_of(g, labels)
    for g1, h1, g2, h2 in quadruples:
        check_nested(g, subs[g1], subs[h1], subs[g2], subs[h2], stats)
