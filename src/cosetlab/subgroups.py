"""Subgroups of a finite group and lattice enumeration."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .bitset import bits_tuple, full_mask, mask_of, mask_rows, packed, row_masks, row_positions
from .errors import ConsistencyError, NotAGroup, SubgroupCountCapExceeded
from .groups import FiniteGroup

DEFAULT_SUBGROUP_CAP = 10_000


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of a fixed parent group, stored as an element bitmask."""

    parent: FiniteGroup
    mask: int
    elements: tuple[int, ...]
    order: int
    index: int
    # Coset labelling and coset list, each built at most once by cosetlab.cosets,
    # and its double-coset picks keyed by the mask of the acting subgroup.
    _coset_labels: Any = field(default=None, init=False, repr=False)
    _left_cosets: Any = field(default=None, init=False, repr=False)
    _double_coset_reps: Any = field(default=None, init=False, repr=False)

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.order, self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        return f"<Subgroup order {self.order} of {self.parent.label}>"


def _subgroup_from_mask(parent: FiniteGroup, mask: int) -> Subgroup:
    elems = bits_tuple(mask)
    return Subgroup(parent, mask, elems, len(elems), parent.n // len(elems))


def _closed_under_mul(parent: FiniteGroup, row: np.ndarray) -> bool:
    """Whether the element set whose bool row is ``row`` is closed under
    multiplication: every product of two of its elements, gathered from the
    table at once, is looked up in the row."""
    elems = np.flatnonzero(row)
    return bool(row[parent.np_table[elems[:, None], elems]].all())


def subgroup_from_elements(parent: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Wrap an element set as a Subgroup, after checking that it is one."""
    mask = mask_of(elements)
    if not mask >> parent.identity & 1:
        raise NotAGroup("subgroup candidate lacks the identity")
    row = np.zeros(parent.n, dtype=bool)
    row[list(bits_tuple(mask))] = True
    if not _closed_under_mul(parent, row):
        raise NotAGroup("set not closed under multiplication")
    if parent.n % mask.bit_count() != 0:
        raise NotAGroup("subgroup order does not divide the group order")
    return _subgroup_from_mask(parent, mask)


def membership(subs: Sequence[Subgroup]) -> np.ndarray:
    """The m x n bool rows of a lattice: entry (i, x) says element x lies in subs[i]."""
    rows = np.zeros((len(subs), subs[0].parent.n if subs else 0), dtype=bool)
    at = np.repeat(np.arange(len(subs)), [s.order for s in subs])
    rows[at, np.fromiter((e for s in subs for e in s.elements), dtype=np.int64)] = True
    return rows


def close_generators(
    g: FiniteGroup, generators: Iterable[int], start: Optional[int] = None
) -> int:
    """Bitmask of the subgroup generated by the given elements and ``start``.

    ``start`` is the mask of a subgroup S already known (default: the trivial
    subgroup).  The result is grown as a union of left cosets xS: each new
    coset enters whole, and its elements times each generator give the next
    coset representatives, beginning from s*q for s in S.  A union of left
    cosets of S that contains S and is closed under right multiplication by
    the generators is the subgroup they generate together with S, so S's own
    generators are never needed.  Once more than half of g is reached the
    result can only be g itself, which is returned at once.
    """
    mask = 1 << g.identity if start is None else start
    return _close(g, list(generators), mask, bits_tuple(mask))


def _close(g: FiniteGroup, gens: Sequence[int], mask: int, base: Sequence[int]) -> int:
    """``close_generators`` from the subgroup S whose mask is ``mask`` and
    whose elements are ``base``; the lattice passes the element tuple of a
    queued subgroup it already holds."""
    mul = g.mul
    size = len(base)
    frontier = [mul[s][q] for s in base for q in gens]
    while frontier:
        nxt = []
        for x in frontier:
            if mask >> x & 1:
                continue
            size += len(base)
            if 2 * size > g.n:
                # more than half the group: no proper subgroup is that large
                return full_mask(g.n)
            row = mul[x]
            for s in base:
                w = row[s]
                mask |= 1 << w
                wrow = mul[w]
                for q in gens:
                    nxt.append(wrow[q])
        frontier = nxt
    return mask


def _is_prime_power(k: int) -> bool:
    if k < 2:
        return False
    p = 2
    while k % p:
        p += 1
    while k % p == 0:
        k //= p
    return k == 1


def generating_set(g: FiniteGroup, start: Optional[int] = None) -> list[int]:
    """A small set of elements that generates g together with the subgroup
    whose mask is ``start`` (default: the trivial subgroup): element ids
    scanned upward, each kept when it lies outside the subgroup generated by
    ``start`` and those kept before it."""
    gens: list[int] = []
    mask = 1 << g.identity if start is None else start
    full = full_mask(g.n)
    for x in range(g.n):
        if mask == full:
            break
        if not mask >> x & 1:
            gens.append(x)
            mask = close_generators(g, (x,), mask)
    return gens


def conjugators(g: FiniteGroup) -> list[list[int]]:
    """The maps h -> x^-1 h x, as element lists, for x in a generating set of
    g modulo its center.  Conjugation by a central element is the identity,
    so these maps generate the whole conjugation action; an abelian group
    has none."""
    table = g.np_table
    center = mask_of(np.flatnonzero((table == table.T).all(axis=1)).tolist())
    return [table[table[g.inv[x]], x].tolist() for x in generating_set(g, center)]


def conjugation_action(
    g: FiniteGroup, subgroups: Sequence[Subgroup]
) -> list[np.ndarray]:
    """The action of g on lattice positions by conjugation, one permutation
    per map of ``conjugators(g)``, so none for an abelian group.

    For the map h -> x^-1 h x, entry i of its permutation is the position
    of x^-1 H_i x: the membership rows are moved along the map, packed and
    looked up among the packed rows of the lattice.  An image missing from
    the lattice, or found at a position of another order, raises
    ConsistencyError.
    """
    maps = conjugators(g)
    if not maps:
        return []
    member = membership(subgroups)
    position = row_positions(packed(member))
    order = np.array([s.order for s in subgroups], dtype=np.int64)
    perms = []
    for conj in maps:
        image = np.zeros_like(member)
        image[:, conj] = member
        try:
            perm = np.array([position[row.tobytes()] for row in packed(image)], np.int64)
        except KeyError:
            raise ConsistencyError(
                f"a conjugate of a subgroup of {g.label} is missing from its lattice"
            ) from None
        if (order[perm] != order).any():
            raise ConsistencyError("conjugation changed a subgroup order")
        perms.append(perm)
    return perms


def _prefix_keys(rows: np.ndarray, base: int) -> list[tuple[slice, np.ndarray]]:
    """Keys of the rows of a 2-D array with entries in [0, base) and rows in
    lexicographic order, one ascending int64 array per run of columns.

    Each run folds its columns in as key * base + column, starting from the
    position of the first row that agrees with this one before the run (0
    for the first run), and ends before the key could pass 2^62, so no
    lattice size overflows.  Keys of a run are equal exactly when the rows
    agree up to its end.
    """
    n, k = rows.shape
    runs = []
    first = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < k:
        key, hi, bound = first, lo, n
        while hi < k and (hi == lo or bound <= (1 << 62) // base):
            key = key * base + rows[:, hi]
            hi, bound = hi + 1, bound * base
        runs.append((slice(lo, hi), key))
        starts = np.diff(key, prepend=-1) != 0
        first = np.maximum.accumulate(np.where(starts, np.arange(n), 0))
        lo = hi
    return runs


def _find_rows(runs: Sequence[tuple[slice, np.ndarray]], base: int, rows: np.ndarray) -> np.ndarray:
    """The position of each row of ``rows`` among the distinct rows that
    ``runs`` (``_prefix_keys``) were taken from; a row that is not among
    them raises ConsistencyError."""
    at = np.zeros(len(rows), dtype=np.int64)
    for cols, key in runs:
        want = at
        for col in rows[:, cols].T:
            want = want * base + col
        at = np.minimum(np.searchsorted(key, want), len(key) - 1)
        if (key[at] != want).any():
            raise ConsistencyError("a conjugate of a position tuple is not among the rows")
    return at


def orbit_labels(perms: Sequence[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Orbit label of each row of ``rows`` under simultaneous conjugation.

    ``perms`` act on lattice positions (``conjugation_action``).  ``rows``
    is an N x k int array of position tuples, each sorted, all distinct, in
    lexicographic order and closed under the action: the verifier's
    candidate cliques, or every subgroup triple of the census.  Entry p is
    the least row index in the orbit of row p, so representatives are the p
    with label p, whatever generating set the perms come from; with no
    perms every row is its own orbit.  A conjugate of a row that is not a
    row raises ConsistencyError.
    """
    n, k = rows.shape
    if not perms or n == 0:
        return np.arange(n)
    # the rows are keyed once; per perm, the row index of the image of each row
    base = 1 + max(int(rows.max()), *(int(p.max()) for p in perms))
    runs = _prefix_keys(rows, base)
    steps = []
    for p in perms:
        image = p[rows]
        image.sort(axis=1)
        steps.append(_find_rows(runs, base, image))
    del runs, image
    # min-label propagation along both directions of every generator, then
    # pointer jumping, to a fixpoint: labels end constant on each orbit and
    # equal to an index in it that is its own label, so the least one
    label = np.arange(n)
    back = np.empty_like(label)
    while True:
        new = label
        for at in steps:
            back[at] = label  # the label of the preimage of each row
            new = np.minimum(new, np.minimum(label[at], back))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def enumerate_subgroups(
    g: FiniteGroup, *, max_subgroups: int = DEFAULT_SUBGROUP_CAP
) -> list[Subgroup]:
    """Every subgroup of g, sorted by (order, element tuple).

    Cyclic extension (Neubüser; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 9).  Every cyclic subgroup <x>
    is closed once, from its least generator x: the elements x^k with k
    prime to |<x>| generate it too, so they are skipped.  The least id of
    each cyclic subgroup of prime-power order goes on the list L of listed
    generators, ascending.  Every subgroup K is generated by its elements
    of prime-power order (x is a product of powers of itself of
    prime-power order), so by L & K.  Subgroups H are then extended to
    <H, y> for y in L, not closed from the identity.  Two rules decide
    which <H, y> are tried:

    - a non-abelian g goes by conjugacy classes (``_class_lattice``): one
      queued subgroup per class, one y per double coset H y H, each closed
      from H's mask by ``_close``;
    - an abelian g, the one case where ``conjugators(g)`` is empty, goes by
      canonical augmentation (``_canonical_lattice``): each subgroup is
      found once, from its canonical parent, a whole chain length at a
      time.

    More than ``max_subgroups`` subgroups raise SubgroupCountCapExceeded.
    """
    maps = conjugators(g)
    # each cyclic subgroup's mask -> its least generator; every cyclic
    # subgroup needs one, also one conjugate to an earlier cyclic subgroup
    seeds: dict[int, int] = {}
    known = bytearray(g.n)  # 1 at each generator of a cyclic subgroup seen
    mul = g.mul
    for x in range(g.n):
        if known[x]:
            continue
        mask = close_generators(g, (x,))
        seeds[mask] = x
        # x^k generates <x> for every k prime to its order
        d = mask.bit_count()
        power = x
        for k in range(1, d):
            if math.gcd(k, d) == 1:
                known[power] = 1
            power = mul[power][x]
    cyclic = {x: m for m, x in seeds.items() if _is_prime_power(m.bit_count())}
    if maps:
        found = _class_lattice(g, maps, seeds, list(cyclic), max_subgroups)
        subs = [_subgroup_from_mask(g, m) for m in found]
    else:
        subs = _subgroups_from_rows(g, _canonical_lattice(g, cyclic, max_subgroups))
    subs.sort(key=lambda s: s.sort_key)
    return subs


def _subgroups_from_rows(g: FiniteGroup, rows: np.ndarray) -> list[Subgroup]:
    """Wrap the subgroups whose bool rows (r x n) are ``rows``: elements
    from one ``nonzero`` split, masks from ``row_masks``."""
    elems = np.nonzero(rows)[1].tolist()
    ends = np.cumsum(rows.sum(axis=1)).tolist()
    subs = []
    start = 0
    for mask, end in zip(row_masks(rows), ends):
        order = end - start
        subs.append(Subgroup(g, mask, tuple(elems[start:end]), order, g.n // order))
        start = end
    return subs


def _class_lattice(
    g: FiniteGroup,
    maps: Sequence[Sequence[int]],
    seeds: dict[int, int],
    listed: Sequence[int],
    max_subgroups: int,
) -> set[int]:
    """The masks of every subgroup of g, one subgroup per conjugacy class
    extended.

    Seeds with every cyclic subgroup.  Each subgroup found enters with its
    whole conjugacy class, the closure of its mask under ``maps``
    (conjugation by the generators of g modulo its center), but only the
    subgroup itself is queued for extension.  y is skipped when it lies in
    H, or in the double coset H y' H of an earlier candidate y' for this H,
    because <H, h y' h'> = <H, y'>; so a queued H costs one closure per
    double coset that holds a listed generator.

    Complete for three reasons.  K is the end of the chain
    <y_1> <= <y_1, y_2> <= ... <= K over the listed y_1, ..., y_m in K.
    From a queued H the next group <H, y> is found: y is either inside H,
    or a candidate for H, or in the double coset of an earlier candidate for
    H, which gives the same <H, y>.  And from any found H' the next group is
    found too: H' = x^-1 H x for a queued H, and
    <H', y> = x^-1 <H, x y x^-1> x, where x y x^-1 generates a cyclic
    subgroup of prime-power order, so the same one as a listed y'; thus
    <H, x y x^-1> = <H, y'> is found from H, and its class with it.  The
    seed <y_1> is found, so by induction along the chain every K is.
    """
    found: set[int] = set()
    queue: deque[tuple[int, tuple[int, ...]]] = deque()  # (mask, generators)

    def add(mask: int, gens: tuple[int, ...]) -> None:
        if mask in found:
            return
        found.add(mask)
        queue.append((mask, gens))
        conjugates = [mask]
        for m in conjugates:  # grows to the conjugacy class of mask
            if len(found) > max_subgroups:
                raise SubgroupCountCapExceeded(
                    f"more than {max_subgroups} subgroups in {g.label}"
                )
            elems = bits_tuple(m)
            for conj in maps:
                image = mask_of(conj[h] for h in elems)
                if image not in found:
                    found.add(image)
                    conjugates.append(image)

    # a seed conjugate to an earlier one is already in ``found``
    for m, x in seeds.items():
        add(m, (x,))

    mul = g.mul
    while queue:
        mask, gens = queue.popleft()
        base = bits_tuple(mask)
        covered = mask  # H and the double cosets H y H of earlier candidates
        for y in listed:
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
            add(_close(g, (y,), mask, base), gens + (y,))
    return found


# entries of one block's coset gather (rows x n x largest order); bounds
# the canonical route's temporaries
CANONICAL_BLOCK = 1 << 16


def _canonical_lattice(
    g: FiniteGroup, cyclic: dict[int, int], max_subgroups: int
) -> np.ndarray:
    """The bool rows (m x n) of every subgroup of an abelian g, each found
    once.  ``cyclic`` maps each listed generator, ascending, to the mask of
    the cyclic subgroup it generates.

    Canonical augmentation (B. D. McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).  The canonical chain of a
    subgroup K is c_1 < c_2 < ..., where c_i is the least listed element of
    K outside P_(i-1), P_i = <P_(i-1), c_i> and P_0 = 1; it ends at
    P_j = K, since L & K generates K, and j is K's chain length.  K's
    canonical parent is P_(j-1) and its last generator is c_j.  Level 0 is
    the trivial subgroup, with no last generator.  Level j + 1 comes from
    level j: from H with last generator c, each listed y > c outside H that
    is the least listed element of its coset y H is tried, and K = <H, y>
    is accepted, with last generator y, exactly when no listed element of
    K outside H lies below y.  A y whose coset holds a listed y' < y is not
    tried: y' lies in K outside H, so K would fail the test.

    Unique: K is accepted from H with y only if H's chain followed by y is
    K's chain.  Chains ascend (c_(i+1) lies outside P_i, so differs from
    c_i, and is the least of a smaller set), so every c_i of H is below
    y, which is the least listed element of K outside H; then for i < j the
    least listed element of K outside P_(i-1) is H's c_i, and c_j = y.  So
    H = P_(j-1) and y = c_j, the one pair that K admits, at chain length
    j.  A subgroup accepted twice therefore means the rule is broken, and
    raises ConsistencyError.

    Complete: by induction on j, P_(j-1) is accepted at level j - 1 with
    last generator c_(j-1).  From it, c_j > c_(j-1) lies outside P_(j-1),
    no listed element of c_j P_(j-1) lies below c_j (it would be one of K
    outside P_(j-1)), and K = <P_(j-1), c_j> passes the test by the choice
    of c_j.  So every K is accepted, at level j.

    Each level is taken in blocks of rows.  One gather from the Cayley
    table over the block's elements, padded with the identity, gives per H
    and x the least element of x H, its coset id; the candidates are the
    first occurrences of the listed elements' coset ids (``np.unique``),
    and ``_join`` closes them all at once.  A block holds about
    ``CANONICAL_BLOCK`` gathered entries, or one row if a row holds more.
    More than ``max_subgroups`` subgroups raise SubgroupCountCapExceeded,
    checked once per block.
    """
    n = g.n
    table = g.np_table.astype(np.min_scalar_type(n))
    listed = np.fromiter(cyclic, dtype=np.int64, count=len(cyclic))
    seed = mask_rows(list(cyclic.values()), n)
    level = np.zeros((1, n), dtype=bool)
    level[0, g.identity] = True
    last = np.array([-1])
    levels = [level]
    seen = set(_row_keys(level))
    while len(level):
        order = level.sum(axis=1)
        step = max(1, CANONICAL_BLOCK // (n * int(order.max())))
        grown, grown_last = [], []
        for lo in range(0, len(level), step):
            rows, size = level[lo : lo + step], order[lo : lo + step]
            # the elements of each H, padded with the identity; g is
            # abelian, so table row h is x h over every x
            at, elems = np.nonzero(rows)
            base = np.full((len(rows), int(size.max())), g.identity)
            base[at, np.arange(len(at)) - np.repeat(np.cumsum(size) - size, size)] = elems
            coset = table[base].min(axis=1)
            # each coset's least listed element y, tried when y > c lies outside H
            key = np.arange(len(rows))[:, None] * n + coset[:, listed]
            _, first = np.unique(key, return_index=True)
            h, pos = np.divmod(first, len(listed))
            y = listed[pos]
            keep = (y > last[lo + h]) & ~rows[h, y]
            h, pos, y = h[keep], pos[keep], y[keep]
            k = _join(coset[h], seed[pos])
            # accepted: no listed element of K outside H below y
            below = np.arange(len(listed)) < pos[:, None]
            ok = ~(k[:, listed] & ~rows[h[:, None], listed] & below).any(axis=1)
            k, y = k[ok], y[ok]
            keys = _row_keys(k)
            fresh = set(keys)
            if len(fresh) < len(keys) or not seen.isdisjoint(fresh):
                raise ConsistencyError(
                    f"a subgroup of {g.label} was accepted from two canonical parents"
                )
            seen |= fresh
            if len(seen) > max_subgroups:
                raise SubgroupCountCapExceeded(
                    f"more than {max_subgroups} subgroups in {g.label}"
                )
            grown.append(k)
            grown_last.append(y)
        level = np.concatenate(grown)
        last = np.concatenate(grown_last)
        levels.append(level)
    return np.concatenate(levels)


def _join(coset: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Bool rows of <H, y> in an abelian group, one per row of ``coset``
    (per x, the least element of x H) and of ``seed`` (the row of <y>):
    H<y> is the union of the cosets of H that <y> meets."""
    at, z = np.nonzero(seed)
    met = np.zeros(seed.shape, dtype=bool)
    met[at, coset[at, z]] = True
    return np.take_along_axis(met, coset, axis=1)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Each bool row's ``packed`` words as one bytes key."""
    words = packed(rows)
    return words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel().tolist()
