"""Subgroups of a finite group and lattice enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import bitset
from .bitset import bits_tuple, mask_of, packed, row_positions
from .errors import ConsistencyError, NotAGroup, ParentMismatch, SubgroupCountCapExceeded
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


class Lattice(Sequence[Subgroup]):
    """Subgroups of one group as arrays: ``rows`` (m x n bool, (i, x) set when
    x lies in subgroup i), ``words`` (the rows ``packed``), int64 ``order``
    and ``index``, and ``action``, the conjugation action on the positions,
    built on first use.  Item i is the Subgroup of row i, built on its first
    read and kept, so readers of a position share one object and its coset
    caches, and a reader that names no elements builds none.  Whole
    lattices come sorted by ``Subgroup.sort_key``."""

    def __init__(self, parent: FiniteGroup, rows: np.ndarray):
        self.parent = parent
        self.rows = rows
        self.words = packed(rows)
        self.order = rows.sum(axis=1, dtype=np.int64)
        self.index = parent.n // self.order
        self._items: list[Optional[Subgroup]] = [None] * len(rows)

    @classmethod
    def of(cls, subgroups: Sequence[Subgroup]) -> "Lattice":
        """``subgroups`` if a Lattice, else a Lattice of them in their order,
        kept as its items; ParentMismatch if their parents differ."""
        if isinstance(subgroups, Lattice):
            return subgroups
        subs = list(subgroups)
        parent = subs[0].parent
        if any(s.parent is not parent for s in subs):
            raise ParentMismatch("subgroups belong to different groups")
        rows = np.zeros((len(subs), parent.n), dtype=bool)
        at = np.repeat(np.arange(len(subs)), [s.order for s in subs])
        rows[at, np.fromiter((e for s in subs for e in s.elements), dtype=np.int64)] = True
        lattice = cls(parent, rows)
        lattice._items = subs
        return lattice

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if self._items[i] is None:
            mask = int.from_bytes(self.words[i].tobytes(), "little")
            self._items[i] = _subgroup_from_mask(self.parent, mask)
        return self._items[i]

    @cached_property
    def action(self) -> list[np.ndarray]:
        return conjugation_action(self.parent, self)

    def coset_labels(self, at: Sequence[int]) -> np.ndarray:
        """The int64 coset labels (len(at) x n) of the positions ``at`` as
        ``cosets.coset_labels`` numbers them, from the rows (``_row_gathers``),
        building and keeping nothing; a coset count off the index raises."""
        g, at = self.parent, np.asarray(at, dtype=np.int64)
        # row h of the transposed table is x h over every x
        table = g.np_table.T.astype(np.min_scalar_type(g.n), order="C")
        out = np.empty((len(at), g.n), dtype=np.int64)
        for lo, hi, moved in _row_gathers(table, g.identity, self.rows[at], self.order[at]):
            # the least elements of the cosets, flagged where they occur
            mins, first = moved.min(axis=1), np.zeros((hi - lo, g.n), dtype=bool)
            np.put_along_axis(first, mins, True, axis=1)
            if (first.sum(axis=1) != self.index[at[lo:hi]]).any():
                raise ConsistencyError("coset count differs from the subgroup index")
            out[lo:hi] = np.take_along_axis(np.cumsum(first, axis=1) - 1, mins, axis=1)
        return out


def _sort_keys(rows: np.ndarray) -> np.ndarray:
    """Per bool row, bytes that ascend with ``Subgroup.sort_key``: the order,
    then the complemented row, element 0 first (of two sets of one size, the
    smaller tuple holds the least element of their symmetric difference)."""
    order = rows.sum(axis=1).astype(">u4").view(np.uint8).reshape(-1, 4)
    keys = np.concatenate([order, ~np.packbits(rows, axis=1)], axis=1)
    return keys.view(f"S{keys.shape[1]}").ravel()


def _is_prime_power(k: int) -> bool:
    if k < 2:
        return False
    p = 2
    while k % p:
        p += 1
    while k % p == 0:
        k //= p
    return k == 1


def generating_set(g: FiniteGroup, start: Optional[np.ndarray] = None) -> list[int]:
    """A small set of elements that generates g together with the subgroup
    whose bool row is ``start`` (default: the trivial subgroup): element ids
    scanned upward, each kept when it lies outside the subgroup generated by
    ``start`` and those kept before it, which ``_extend`` closes."""
    table = g.np_table  # row h is h x over every x
    row = np.zeros(g.n, dtype=bool) if start is None else start.copy()
    row[g.identity] = True
    gens: list[int] = []
    while not row.all():
        y = int(np.argmin(row))  # the least element outside
        gens.append(y)
        for _, _, moved in _row_gathers(table, g.identity, row[None], row.sum(keepdims=True)):
            row = _extend(moved.min(axis=1), table[g.inv[y]][None], row[None])[0]
    return gens


def conjugators(g: FiniteGroup) -> list[list[int]]:
    """The maps h -> x^-1 h x, as element lists, for x in a generating set of
    g modulo its center.  Conjugation by a central element is the identity,
    so these maps generate the whole conjugation action; an abelian group
    has none."""
    table = g.np_table
    center = (table == table.T).all(axis=1)
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
    lattice = Lattice.of(subgroups)
    position = row_positions(lattice.words)
    perms = []
    for conj in maps:
        image = np.zeros_like(lattice.rows)
        image[:, conj] = lattice.rows
        try:
            perm = np.array([position[row.tobytes()] for row in packed(image)], np.int64)
        except KeyError:
            raise ConsistencyError(
                f"a conjugate of a subgroup of {g.label} is missing from its lattice"
            ) from None
        if (lattice.order[perm] != lattice.order).any():
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
) -> Lattice:
    """Every subgroup of g as a Lattice, sorted by (order, element tuple).

    Cyclic extension (Neubüser; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, ch. 9).  Every cyclic subgroup comes
    from the powers of all elements at once (``_cyclic_seeds``), keyed by
    its least generator.  The least generators of the cyclic subgroups of
    prime-power order form the list L of listed generators, ascending.
    Every subgroup K is generated by its elements of prime-power order (x
    is a product of powers of itself of prime-power order), so by L & K.
    Subgroups H are then extended to <H, y> for y in L, not closed from the
    identity, all on bool rows.  Two rules decide which <H, y> are tried:

    - a non-abelian g goes by conjugacy classes (``_class_lattice``): one
      queued subgroup per class, one y per double coset H y H, each closed
      by ``_extend``, a level at a time;
    - an abelian g, the one case where ``conjugators(g)`` is empty, goes by
      canonical augmentation (``_canonical_lattice``): each subgroup is
      found once, from its canonical parent, a whole chain length at a
      time.

    More than ``max_subgroups`` subgroups raise SubgroupCountCapExceeded.
    """
    maps = conjugators(g)
    gens, seeds = _cyclic_seeds(g)
    prime = np.array([_is_prime_power(k) for k in seeds.sum(axis=1).tolist()], dtype=bool)
    if maps:
        rows = _class_lattice(g, maps, seeds, gens[prime], seeds[prime], max_subgroups)
    else:
        rows = _canonical_lattice(g, gens[prime], seeds[prime], max_subgroups)
    return Lattice(g, rows[np.argsort(_sort_keys(rows), kind="stable")])


def _cyclic_seeds(g: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The least generator x of every cyclic subgroup <x> of g, ascending,
    and the bool row of <x>, from the powers: column k - 1 holds x^k for
    every x, one gather from the column before, up to the largest element
    order.  x^k generates <x> when it has the order of x, and x is the
    least generator when no such x^k lies below it."""
    n, e = g.n, g.identity
    small = np.min_scalar_type(n)
    x = np.arange(n, dtype=small)
    cols, met = [x], x == e
    while not met.all():
        cols.append(g.np_table[cols[-1], x].astype(small))
        met |= cols[-1] == e
    powers = np.stack(cols, axis=1)
    order = np.argmax(powers == e, axis=1).astype(small)  # each order less one
    least = np.where(order[powers] == order[:, None], powers, n).min(axis=1)
    gens = np.flatnonzero(least == x)
    rows = np.zeros((len(gens), n), dtype=bool)
    np.put_along_axis(rows, powers[gens], True, axis=1)
    return gens, rows


def _class_lattice(
    g: FiniteGroup,
    maps: Sequence[Sequence[int]],
    seeds: np.ndarray,
    listed: np.ndarray,
    cyclic: np.ndarray,
    max_subgroups: int,
) -> np.ndarray:
    """The bool rows (m x n) of every subgroup of g, one subgroup per
    conjugacy class extended.  ``seeds`` holds the row of every cyclic
    subgroup, ``listed`` the listed generators, ascending, and ``cyclic``
    the row of the subgroup each generates.

    Level 0 is the seeds.  Each subgroup found enters with its whole
    conjugacy class (``_classes``: its row moved along ``maps``,
    conjugation by the generators of g modulo its center), but only one
    subgroup of the class is queued, on the next level.  A queued H tries
    one y per double coset H y H other than H (``_candidates``), the least
    listed element of it, because <H, h y' h'> = <H, y'>; so it costs one
    closure (``_extend``) per double coset that holds a listed generator.
    A level's closures are cut by ``bitset.blocks``, and the new ones
    among them, keyed by their packed bytes, make the next level's classes.

    Complete for three reasons.  K is the end of the chain
    <y_1> <= <y_1, y_2> <= ... <= K over the listed y_1, ..., y_m in K.
    From a queued H the next group <H, y> is found on the next level: y is
    either inside H, or a candidate for H, or in the double coset of a
    candidate for H, which gives the same <H, y>.  And from any found H'
    the next group is found too: H' = x^-1 H x for a queued H, and
    <H', y> = x^-1 <H, x y x^-1> x, where x y x^-1 generates a cyclic
    subgroup of prime-power order, so the same one as a listed y'; thus
    <H, x y x^-1> = <H, y'> is found from H, and its class with it.  The
    seed <y_1> is found, so by induction along the chain every K is.
    More than ``max_subgroups`` subgroups raise SubgroupCountCapExceeded.
    """
    n = g.n
    inverse = np.array(g.inv)[listed]
    moves = np.argsort(maps, axis=1)  # a conjugate's row is the row gathered here
    seen: set[bytes] = set()
    found: list[np.ndarray] = []

    def enter(rows: np.ndarray) -> np.ndarray:
        # the classes of the new rows; one row of each is queued, but not
        # the trivial subgroup, whose extensions are seeds, nor g
        found.extend(_classes(moves, rows, seen))
        if len(seen) > max_subgroups:
            raise SubgroupCountCapExceeded(f"more than {max_subgroups} subgroups in {g.label}")
        size = found[-1].sum(axis=1)
        return found[-1][(1 < size) & (size < n)]

    level = enter(seeds)
    while len(level):
        coset, h, pos = _candidates(g, level, listed)
        # n entries per candidate in each of its closure's rows
        level = np.concatenate([level[:0]] + [
            enter(_extend(coset[h[at]], g.np_table[inverse[pos[at]]], cyclic[pos[at]]))
            for at in bitset.blocks(np.full(len(h), n))
        ])
    return np.concatenate(found)


def _candidates(
    g: FiniteGroup, level: np.ndarray, listed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per queued row H of ``level``, the least element of H x for every x,
    and the candidates of every H: its row index and the position in
    ``listed`` of y, the least listed element of a double coset H y H
    other than H.  That coset's least element is the least of those of
    y h over h in H, and y h is the inverse of h^-1 y^-1, so one gather of
    the table at H's elements gives both."""
    n, size, small = g.n, level.sum(axis=1), np.min_scalar_type(g.n)
    coset, inv = np.empty(level.shape, dtype=small), np.array(g.inv, dtype=small)
    h, pos = [], []
    for lo, hi, moved in _row_gathers(g.np_table, g.identity, level, size):
        coset[lo:hi] = moved.min(axis=1)  # row h of the table is h x over every x
        right = inv[moved[:, :, inv[listed]]]  # y h, h running over H
        double = np.take_along_axis(coset[lo:hi, None, :], right, axis=2).min(axis=1)
        # first occurrences of (H, double coset) among the ascending listed y
        _, first = np.unique(np.arange(hi - lo)[:, None] * n + double, return_index=True)
        at, p = np.divmod(first, len(listed))
        keep = ~level[lo + at, listed[p]]  # y outside H
        h.append(lo + at[keep])
        pos.append(p[keep])
    return coset, np.concatenate(h), np.concatenate(pos)


def _classes(moves: np.ndarray, rows: np.ndarray, seen: set[bytes]) -> list[np.ndarray]:
    """The conjugacy classes of the rows of ``rows`` whose packed bytes are
    not in ``seen``, every row's bytes added to it, as blocks of rows, the
    last holding each class's first row in ``rows``.  A row's images under
    the generators of the action are the row gathered at each of
    ``moves``."""
    n, first, members = rows.shape[1], [], []

    def keys(block: np.ndarray) -> list[bytes]:
        return np.packbits(block, axis=1).view(f"S{-(-n // 8)}").ravel().tolist()

    for row, key in zip(rows, keys(rows)):
        if key in seen:
            continue
        seen.add(key)
        first.append(row)
        image = row[moves]
        while len(image):
            fresh = []
            for i, k in enumerate(keys(image)):
                if k not in seen:
                    seen.add(k)
                    fresh.append(i)
            members.append(image[fresh])
            image = members[-1][:, moves].reshape(-1, n)
    return [*members, np.array(first, dtype=bool).reshape(-1, n)]


def _extend(coset: np.ndarray, back: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Bool rows of <H, y>, one per row of ``coset`` (H's, per x the least
    element of H x), of ``back`` (per z, y^-1 z) and of ``start`` (a subset
    of <H, y> holding the identity, such as the row of <y>): the fixpoint
    of S -> H (S | y S) (``_join``) from S = H start, which is <H, y> since
    it holds the identity, lies inside <H, y> and is closed under left
    multiplication by y and H.  A row past half of g can only be g."""
    n = coset.shape[1]
    out = _join(coset, start)
    live = np.arange(len(out))
    while len(live):
        rows = out[live]
        moved = rows.ravel()[back[live] + (np.arange(len(live)) * n)[:, None]]
        step = _join(coset[live], rows | moved)
        size = step.sum(axis=1)
        full = 2 * size > n
        step[full] = True
        out[live] = step
        live = live[(size > rows.sum(axis=1)) & ~full]
    return out


def _row_gathers(
    table: np.ndarray, identity: int, rows: np.ndarray, size: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Per block [lo, hi) of the bool rows (r x n) of subgroups H, of orders
    ``size``, ``table`` gathered at each H's elements padded with the
    identity: (hi - lo) x largest order x table width, at most
    ``bitset.BLOCK_ENTRIES`` entries or one row.  The padding makes the
    cost of a block that of its largest order, so the cut is its own, not
    ``bitset.blocks``.  If table row h is x h over every x, the minimum over
    axis 1 is the least element of x H."""
    n, budget = rows.shape[1], bitset.BLOCK_ENTRIES
    lo = 0
    while lo < len(rows):
        ahead = size[lo : lo + budget // n]  # each row costs n or more
        cost = np.maximum.accumulate(ahead) * np.arange(1, len(ahead) + 1) * n
        hi = lo + max(1, int(np.searchsorted(cost, budget, "right")))
        s = size[lo:hi]
        at, elems = np.nonzero(rows[lo:hi])
        base = np.full((hi - lo, int(s.max())), identity)
        base[at, np.arange(len(at)) - np.repeat(np.cumsum(s) - s, s)] = elems
        yield lo, hi, table[base]
        lo = hi


def _canonical_lattice(
    g: FiniteGroup, listed: np.ndarray, cyclic: np.ndarray, max_subgroups: int
) -> np.ndarray:
    """The bool rows (m x n) of every subgroup of an abelian g, each found
    once.  ``listed`` holds the listed generators, ascending, and ``cyclic``
    the row of the subgroup each generates.

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

    Each level is taken in blocks of rows (``_row_gathers``; g is abelian,
    so table row h is x h over every x), which give per H and x the least
    element of x H, its coset id; the candidates are the first occurrences
    of the listed elements' coset ids (``np.unique``), and ``_join`` closes
    them all at once.  More than ``max_subgroups`` subgroups raise
    SubgroupCountCapExceeded, checked once per block.
    """
    n = g.n
    table = g.np_table.astype(np.min_scalar_type(n))
    level = np.zeros((1, n), dtype=bool)
    level[0, g.identity] = True
    last = np.array([-1])
    levels = [level]
    seen = set(_sort_keys(level).tolist())
    while len(level):
        grown, grown_last = [], []
        for lo, hi, moved in _row_gathers(table, g.identity, level, level.sum(axis=1)):
            rows, coset = level[lo:hi], moved.min(axis=1)
            # each coset's least listed element y, tried when y > c lies outside H
            key = np.arange(len(rows))[:, None] * n + coset[:, listed]
            _, first = np.unique(key, return_index=True)
            h, pos = np.divmod(first, len(listed))
            y = listed[pos]
            keep = (y > last[lo + h]) & ~rows[h, y]
            h, pos, y = h[keep], pos[keep], y[keep]
            k = _join(coset[h], cyclic[pos])
            # accepted: no listed element of K outside H below y
            below = np.arange(len(listed)) < pos[:, None]
            ok = ~(k[:, listed] & ~rows[h[:, None], listed] & below).any(axis=1)
            k, y = k[ok], y[ok]
            keys = _sort_keys(k).tolist()
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
    """Bool rows of H T, one per row of ``coset`` (H's, per x the least
    element of H x) and of ``seed`` (the row of T): the union of the cosets
    of H that T meets.  In an abelian group, T = <y> gives <H, y>."""
    flat = coset + (np.arange(len(coset)) * coset.shape[1])[:, None]
    met = np.zeros(seed.size, dtype=bool)
    met[flat[seed]] = True
    return met[flat]
