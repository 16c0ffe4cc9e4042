"""Independent oracles for the test suite.

Everything here recomputes quantities with a deliberately different
algorithm from the library (plain sets and nested loops, no bitmasks, no
closed forms) so that agreement between the two is meaningful evidence.
The one exception is ``reference_subgroups``, the library's previous
lattice enumerator, kept on bitmasks so it can run on every catalog group.
``composition_table`` lists a spec's elements in full and multiplies every
pair, where the library follows generator steps along a spanning tree.
``small_products`` is the hypothesis strategy for random direct products.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from cosetlab import FiniteGroup, GroupSpec, Subgroup
from cosetlab.cosets import coset_mask

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


def set_closure(g: FiniteGroup, seed: frozenset[int]) -> frozenset[int]:
    """Fixpoint of pairwise products, as a plain set computation."""
    cur = set(seed) | {g.identity}
    while True:
        nxt = cur | {g.op(a, b) for a in cur for b in cur}
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def is_subgroup_set(g: FiniteGroup, elems: frozenset[int]) -> bool:
    if g.identity not in elems:
        return False
    for a in elems:
        if g.inverse(a) not in elems:
            return False
        for b in elems:
            if g.op(a, b) not in elems:
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

    def close(gens: tuple[int, ...]) -> int:
        mask = 1 << g.identity
        frontier = [g.identity]
        while frontier:
            nxt = []
            for z in frontier:
                for q in gens:
                    w = g.op(z, q)
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


def coset_set(g: FiniteGroup, sub: frozenset[int], x: int) -> frozenset[int]:
    return frozenset(g.op(x, h) for h in sub)


def all_left_cosets(g: FiniteGroup, sub: frozenset[int]) -> set[frozenset[int]]:
    return {coset_set(g, sub, x) for x in range(g.n)}


def product_elements(g: FiniteGroup, h: frozenset[int], k: frozenset[int]) -> frozenset[int]:
    return frozenset(g.op(a, b) for a in h for b in k)


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
