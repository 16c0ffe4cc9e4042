"""Independent oracles for the test suite.

Everything here recomputes quantities with a deliberately different
algorithm from the library (plain sets and nested loops, no bitmasks, no
closed forms) so that agreement between the two is meaningful evidence.
The one exception is ``reference_subgroups``, the library's previous
lattice enumerator, kept on bitmasks so it can run on every catalog group.
``small_products`` is the hypothesis strategy for random direct products.
"""

from __future__ import annotations

import math
from itertools import combinations, product

from hypothesis import strategies as st

from cosetlab import FiniteGroup, Subgroup
from cosetlab.cosets import coset_mask

# Named groups with their orders, the factors of random direct products.
SMALL_FACTORS = {"C2": 2, "C3": 3, "C4": 4, "C5": 5, "S3": 6, "D4": 8, "Q8": 8, "A4": 12}


def small_products():
    """Hypothesis strategy: two or three factor names whose product has order <= 72."""
    return st.lists(st.sampled_from(sorted(SMALL_FACTORS)), min_size=2, max_size=3).filter(
        lambda fs: math.prod(SMALL_FACTORS[f] for f in fs) <= 72
    )


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
