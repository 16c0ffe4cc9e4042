"""Search for pairwise disjoint coset families whose index gcds stay below k.

For k up to 4 no such family exists in any finite group, so every hit at
those sizes is treated as an implementation bug.  For k of 5 or more the
question is open and hits would be genuine discoveries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .bitset import (
    MEET_ROWS,
    lowest_bit,
    mask_words,
    meet_orders,
    packed,
    popcounts,
    row_masks,
    set_bits,
)
from .cosets import coset_mask, double_coset_reps, left_cosets
from .counting import BLOCK_ENTRIES
from .errors import CliqueCapExceeded, ConsistencyError, ParentMismatch
from .groups import FiniteGroup
from .subgroups import Lattice, Subgroup, orbit_labels

DEFAULT_CLIQUE_CAP = 10**6
K_MIN = 2
K_MAX = 6
OPEN_RANGE_NOTE = "conjecture open - absence of violations is evidence, not proof"


@dataclass(frozen=True)
class PairStats:
    """Compatibility facts for one unordered pair of lattice positions."""

    i: int
    j: int
    gcd_index: int
    disjointable: bool


@dataclass(frozen=True)
class Violation:
    """A family of pairwise disjoint cosets, one per listed subgroup."""

    k: int
    subgroup_elements: tuple[tuple[int, ...], ...]
    coset_reps: tuple[int, ...]
    gcd_matrix: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "subgroups": [list(t) for t in self.subgroup_elements],
            "coset_reps": list(self.coset_reps),
            "gcd_matrix": [list(r) for r in self.gcd_matrix],
        }


@dataclass
class VerificationReport:
    """Outcome of one exhaustive run at a fixed family size k."""

    group_label: str
    group_order: int
    k: int
    subgroup_count: int
    candidate_clique_count: int
    clique_orbits: int
    tuples_examined: int
    violations: list[Violation]
    note: Optional[str] = None

    @property
    def confirmed(self) -> bool:
        return not self.violations

    def stable_dict(self) -> dict:
        d = {
            "k": self.k,
            "group_label": self.group_label,
            "group_order": self.group_order,
            "subgroup_count": self.subgroup_count,
            "candidate_cliques": self.candidate_clique_count,
            "clique_orbits": self.clique_orbits,
            "tuples_examined": self.tuples_examined,
            "violations": [v.to_json_dict() for v in self.violations],
            "status": self.status,
        }
        if self.note is not None:
            d["note"] = self.note
        return d

    @property
    def status(self) -> str:
        if self.violations:
            return "violated" if self.k >= 5 else "violated (implementation bug suspected)"
        return "confirmed" if self.k <= 4 else "no violations found"


class PairRows:
    """The pair bars of a lattice, one bitmask row per position, built on demand.

    Holds the packed membership rows, the orders and a class id per distinct
    index, so its memory is O(m n) plus the rows built, not O(m^2).  The
    disjointability row of position j does not depend on k.  Its rule is
    that of ``cosets.disjointable``, |H||K| / |H&K| < |G|, in integer form
    |H||K| < |G| |H&K|, with the intersection orders from ``meet_orders``.
    It is built on the first lookup of any position in j's block of
    ``MEET_ROWS`` positions, for the whole block at once, and only over the
    positions from the block's start on: the clique search never reads a
    bit below j in row j.  ``rows(k)`` ANDs in the gcd bar, one mask per
    index class from the gcd table of the distinct indices.  ``subgroups``
    must ascend by order, as ``enumerate_subgroups`` lists them, or
    ValueError: ``candidate_cliques`` stops its order-sum bar at the first
    position too large.  A first pick that ``rows(k)`` lists as lone reads
    no row.  One source serves every k of a lattice; its ``lattice``
    (``Lattice.of(subgroups)``) gives the words, orders and indices, and
    the conjugation action.  Iterating yields the m(m+1)/2 unordered pairs
    i <= j as ``PairStats``.
    """

    def __init__(self, g: FiniteGroup, subgroups: Sequence[Subgroup]):
        self.lattice = Lattice.of(subgroups)
        self.n = g.n
        self.order = self.lattice.order
        if (np.diff(self.order) < 0).any():
            raise ValueError("subgroups must be sorted by non-decreasing order")
        self.indices, self.index_class = np.unique(self.lattice.index, return_inverse=True)
        # per index class: its order, descending, and the classes of the
        # same or larger order whose subgroups fit beside its own
        self._class_order = g.n // self.indices
        self._partner = np.tril(np.add.outer(self._class_order, self._class_order) <= g.n)
        self._disjoint: list[Optional[int]] = [None] * len(subgroups)

    def __len__(self) -> int:
        return len(self.order) * (len(self.order) + 1) // 2

    def __iter__(self) -> Iterator[PairStats]:
        m = len(self.order)
        gcd = np.gcd.outer(self.indices, self.indices)
        for i in range(m):
            gcds = gcd[self.index_class[i], self.index_class[i:]].tolist()
            row = self.disjoint_row(i) >> i
            bits = np.frombuffer(row.to_bytes(-(-(m - i) // 8), "little"), dtype=np.uint8)
            flags = np.unpackbits(bits, count=m - i, bitorder="little").astype(bool).tolist()
            for j, (d, ok) in enumerate(zip(gcds, flags), start=i):
                yield PairStats(i, j, d, ok)

    def disjoint_row(self, j: int) -> int:
        """Bit t set, for every t from j's block start on, when positions j
        and t are disjointable."""
        row = self._disjoint[j]
        if row is None:
            lo = j - j % MEET_ROWS
            hi = min(lo + MEET_ROWS, len(self.order))
            w = self.lattice.words
            ok = np.outer(self.order[lo:hi], self.order[lo:]) < (
                meet_orders(w[lo:hi], w[lo:]) * self.n
            )
            self._disjoint[lo:hi] = [mask << lo for mask in row_masks(ok)]
            row = self._disjoint[j]
        return row

    def rows(self, k: int) -> "_BarRows":
        """Row j at gcd bar k, on lookup: bit t set, for every t >= j, when
        positions j and t pass both pair bars; no bit is set below j's block
        start.  Also flags, in the bool array ``lone``, the positions that,
        as the first of k picks, no second pick can join within |G|.  One
        index class holds a run of positions, and every t >= j lies in j's
        class or in one of larger order, so the least order of a t >= j that
        passes j's gcd bar and fits beside H_j is found per class; j is lone
        when that order times k - 1 exceeds |G| - |H_j|.  A j whose least
        completion fills G exactly is kept, but heads no clique: the indices
        d_i of k <= K_MAX pairwise disjointable subgroups with gcds below k
        never have sum(1 / d_i) = 1, since each gcd lies in [2, k) (|H&K|
        divides |G| / lcm(d_i, d_j) and passes |G| / d_i d_j) and no such
        sum of k unit fractions exists (``test_no_clique_fills_the_group``)."""
        low = np.gcd.outer(self.indices, self.indices) < k
        reach = np.where(low & self._partner, self._class_order, self.n + 1).min(axis=1)
        lone = self._class_order + reach * (k - 1) > self.n
        return _BarRows(self, row_masks(low[:, self.index_class]), lone[self.index_class])


class _BarRows(dict):
    """The rows of one k, each built from its source on the first lookup."""

    def __init__(self, source: PairRows, gcd_ok: list[int], lone: np.ndarray):
        super().__init__()
        self.source = source
        self.gcd_ok = gcd_ok
        self.lone = lone

    def __missing__(self, j: int) -> int:
        row = self[j] = self.source.disjoint_row(j) & self.gcd_ok[self.source.index_class[j]]
        return row


def pair_table(g: FiniteGroup, subgroups: Sequence[Subgroup]) -> PairRows:
    """The pair bars of ``subgroups``, a lattice of g."""
    return PairRows(g, subgroups)


def _cuts(cost: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive runs [lo, hi) of rows whose costs sum to at most
    ``BLOCK_ENTRIES``, or one row alone when its own cost passes it."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < len(ends):
        budget = BLOCK_ENTRIES + (ends[lo - 1] if lo else 0)
        hi = max(lo + 1, int(np.searchsorted(ends, budget, side="right")))
        yield lo, hi
        lo = hi


def candidate_cliques(
    g: FiniteGroup,
    k: int,
    *,
    subgroups: Sequence[Subgroup],
    pair_stats: PairRows,
    max_cliques: int = DEFAULT_CLIQUE_CAP,
) -> np.ndarray:
    """Size-k subgroup multisets that pass the gcd bar and two disjointness bars.

    Every pair has index gcd < k, every pair is disjointable, and the orders
    sum to at most |G|.  The last two hold for any k pairwise disjoint
    cosets, one per subgroup, since such cosets are disjoint subsets of G;
    so no multiset left out can hold such a family.  Returned as an N x k
    int64 array of sorted lattice positions, rows in lexicographic order.
    Every multiset prefix that passes the order-sum bar counts against the
    cap, so the cap bounds work done, not only output size.  The pair bars
    and the orders come from ``pair_stats``, a ``PairRows`` source over
    ``subgroups``, whose positions ascend by order; so a prefix with order
    sum s and ``left`` picks to go extends by the candidates below the
    first position of order above (|G| - s) / left.  A source of another
    size raises ValueError.

    The prefixes grow one position per level, each with its candidate set
    as packed words: the positions compatible with every entry, none below
    the last.  A pick j ANDs in row j with its bits below j cleared; rows
    are read once per distinct j of a block, and a pick whose row is 0 (a
    lone first pick, or a row the bars empty) is dropped before any words
    are made, so it reads no disjointability row.  Blocks of prefixes go
    depth first, each holding about ``BLOCK_ENTRIES`` entries, so memory
    grows with the depth, not with the number of prefixes.
    """
    if len(pair_stats.order) != len(subgroups):
        raise ValueError(
            f"pair table covers {len(pair_stats.order)} subgroups, lattice has {len(subgroups)}"
        )
    order = pair_stats.order
    m = len(order)
    width = -(-m // 64)
    rows = pair_stats.rows(k)
    out: list[np.ndarray] = [np.empty((0, k), dtype=np.int64)]
    visited = 0

    def grow(prefix: np.ndarray, osum: np.ndarray, cand: np.ndarray) -> None:
        # prefix: S x d positions; osum: their order sums; cand: S x width words
        nonlocal visited
        left = k - prefix.shape[1]
        limit = np.searchsorted(order, (g.n - osum) // left, "right")
        # int64 entries per prefix: its words and at most its candidates'
        # positions and words
        for lo, hi in _cuts(popcounts(cand) * (k + width) + width):
            at, picks = set_bits(cand[lo:hi])
            at += lo
            # every later pick has order >= order[j], and so has every later j
            seen = picks < limit[at]
            at, picks = at[seen], picks[seen]
            visited += len(at)
            if visited > max_cliques:
                raise CliqueCapExceeded(
                    f"clique search in {g.label} passed {max_cliques} prefixes"
                )
            if left == 1:
                out.append(np.column_stack([prefix[at], picks]))
                continue
            if not prefix.shape[1]:
                # a lone first pick's next pick would break the order-sum bar
                # at once, so it reads no row
                live = ~rows.lone[picks]
                at, picks = at[live], picks[live]
            uniq, slot = np.unique(picks, return_inverse=True)
            masks = [rows[j] >> j << j for j in uniq.tolist()]
            # a pick whose row is 0 ends here, before any words are made
            kept = np.array([mask != 0 for mask in masks], dtype=bool)
            live = kept[slot]
            at, picks, slot = at[live], picks[live], (np.cumsum(kept) - 1)[slot[live]]
            nxt = cand[at] & mask_words([mask for mask in masks if mask], width)[slot]
            grow(np.column_stack([prefix[at], picks]), osum[at] + order[picks], nxt)

    everything = packed(np.ones((1, m), dtype=bool))
    grow(np.empty((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64), everything)
    return np.concatenate(out)


def search_disjoint_tuple(subgroups: Sequence[Subgroup]) -> Optional[Violation]:
    """Find any family of pairwise disjoint cosets, one per given subgroup.

    Slots are searched largest subgroup first (fewest cosets first), but the
    returned family is expressed in the caller's slot order: coset_reps[i]
    is a representative for subgroups[i].  The family is re-verified for
    pairwise disjointness before it is returned.  The caller decides what
    the find means; no gcd filtering happens here.
    """
    found, _ = _search_with_count(subgroups)
    return found


def _search_with_count(
    subgroups: Sequence[Subgroup],
) -> tuple[Optional[Violation], int]:
    """Backtracking over coset choices, with two slots normalized.

    Slots are filled largest subgroup first (ties in the caller's order),
    each coset mask goes into its caller's slot, and a family found is
    named by the least element of each coset.  Any disjoint family can be
    left-translated so its first coset contains the identity, so the first
    slot is pinned to its subgroup H0 itself.  Left multiplication by any h
    in H0 then still fixes that coset and maps the second slot's coset
    x H1 to h x H1, so the second slot tries one coset per double coset
    H0 x H1.  Neither pin loses a family.  Returns the family, if any, and
    the number of coset placements attempted.  ``_search_cliques`` runs
    this search on many cliques at once, and this one again on each clique
    it finds a family in.
    """
    if not subgroups:
        raise ValueError("search needs at least one subgroup")
    if any(s.parent is not subgroups[0].parent for s in subgroups):
        raise ParentMismatch("search subgroups belong to different groups")
    k = len(subgroups)
    slots = sorted(range(k), key=lambda t: -subgroups[t].order)
    first, *rest = (subgroups[t] for t in slots)
    choices = [double_coset_reps(first, rest[0])] if rest else []
    choices += [left_cosets(s) for s in rest[1:]]
    placed = [0] * k
    placed[slots[0]] = first.mask
    examined = 1  # the pinned slot

    def place(slot: int, used: int) -> bool:
        # used: union of the cosets placed in the slots before this one
        nonlocal examined
        for coset in choices[slot - 1]:
            examined += 1
            if used & coset:
                continue
            placed[slots[slot]] = coset
            if slot + 1 == k or place(slot + 1, used | coset):
                return True
        return False

    if k > 1 and not place(1, first.mask):
        return None, examined
    reps = [lowest_bit(mask) for mask in placed]
    masks = [coset_mask(rep, sub) for rep, sub in zip(reps, subgroups)]
    for a in range(k):
        for b in range(a + 1, k):
            if masks[a] & masks[b]:
                raise ConsistencyError("search returned a non-disjoint family")
    gcds = tuple(
        tuple(math.gcd(subgroups[a].index, subgroups[b].index) for b in range(k))
        for a in range(k)
    )
    violation = Violation(
        k=k,
        subgroup_elements=tuple(s.elements for s in subgroups),
        coset_reps=tuple(reps),
        gcd_matrix=gcds,
    )
    return violation, examined


def _search_cliques(
    subgroups: Sequence[Subgroup], cliques: np.ndarray
) -> tuple[dict[int, Violation], np.ndarray]:
    """Search every row of ``cliques`` (N x k positions) for a disjoint
    family, all rows together, one slot per level.

    Slots are ordered as in ``_search_with_count``, largest subgroup first
    and ties in clique order: slot 0 is pinned to H0, slot 1 tries one coset
    per double coset H0 x H1 and later slots every left coset.  A state is a
    row and the union of the cosets placed in its slots so far, as packed
    words; every live state tries every choice of its slot, and a try that
    misses the union is a live state of the next slot.  With no family the
    backtracking walks its whole tree, so the tries of a row are its count
    of coset placements.  A row with a state past its last slot holds a
    family, and ``_search_with_count`` searches it again: that names the
    family, gives the count of a search that stops at the find, and checks
    disjointness once more.  Returns the family of every row that has one,
    keyed by row, and the coset placements per row.  States go depth first
    in blocks of about ``BLOCK_ENTRIES`` entries.
    """
    n_rows, k = cliques.shape
    lattice = Lattice.of(subgroups)
    width = -(-lattice.parent.n // 64)
    slots = np.take_along_axis(
        cliques, np.argsort(-lattice.order[cliques], axis=1, kind="stable"), axis=1
    )
    # one table of coset words: per slot-0 position its subgroup, per pair
    # of slot-0 and slot-1 positions the double coset reps, per position in
    # a later slot its cosets; start and count give each row's choices
    heads, head_of = np.unique(slots[:, 0], return_inverse=True)
    pairs, pair_of = np.unique(slots[:, 0] * len(lattice) + slots[:, 1], return_inverse=True)
    tails, tail_of = np.unique(slots[:, 2:], return_inverse=True)
    choices = [(lattice[p].mask,) for p in heads.tolist()]
    choices += [
        double_coset_reps(lattice[p // len(lattice)], lattice[p % len(lattice)])
        for p in pairs.tolist()
    ]
    choices += [left_cosets(lattice[p]) for p in tails.tolist()]
    sizes = np.array([len(c) for c in choices], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    table = mask_words([mask for c in choices for mask in c], width)
    which = np.column_stack(
        [head_of, len(heads) + pair_of, len(heads) + len(pairs) + tail_of.reshape(n_rows, k - 2)]
    )
    start, count = starts[which], sizes[which]

    examined = np.zeros(n_rows, dtype=np.int64)
    hits: list[np.ndarray] = [np.empty(0, dtype=np.int64)]

    def place(slot: int, row: np.ndarray, used: np.ndarray) -> None:
        # row: the clique row of each state; used: its placed cosets' union
        if slot == k:
            hits.append(row)
            return
        tries = count[row, slot]
        np.add.at(examined, row, tries)
        # int64 entries per state: its tries' indices and their words
        for lo, hi in _cuts(tries * (2 + 3 * width)):
            t = tries[lo:hi]
            state = np.repeat(np.arange(lo, hi), t)
            first = start[row[lo:hi], slot] - np.cumsum(t) + t
            choice = np.arange(len(state)) + np.repeat(first, t)
            coset = table[choice]
            free = ~(used[state] & coset).any(axis=1)
            state = state[free]
            place(slot + 1, row[state], used[state] | coset[free])

    place(0, np.arange(n_rows), np.broadcast_to(np.zeros(width, np.uint64), (n_rows, width)))
    found = {}
    for r in np.unique(np.concatenate(hits)).tolist():
        found[r], examined[r] = _search_with_count([lattice[i] for i in cliques[r]])
        if found[r] is None:
            raise ConsistencyError("batched search found a family backtracking missed")
    return found, examined


def search_orbits(
    perms: Sequence[np.ndarray],
    subgroups: Sequence[Subgroup],
    cliques: np.ndarray,
) -> tuple[dict[int, Violation], int, int]:
    """Search one clique per conjugacy orbit; the orbit of a find in full.

    Conjugation by any x maps a disjoint family a_i H_i to the disjoint
    family (x a_i x^-1)(x H_i x^-1), so every clique in one orbit of g
    acting by simultaneous conjugation has the same verdict.  ``perms`` is
    that action on lattice positions (``conjugation_action``), and
    ``cliques`` an N x k array of sorted position rows in lexicographic
    order that is closed under it, as ``candidate_cliques`` returns.  The
    least clique of each orbit is searched, all of them in one batch by
    ``_search_cliques``.  When one yields a family, every other clique of
    its orbit is searched too, and must yield one.  Returns the family of
    every clique that has one, keyed by clique index in ascending order,
    exactly as a search of each clique gives it; the number of orbits; and
    the coset placements over the representatives.
    """
    labels = orbit_labels(perms, cliques)
    reps = np.flatnonzero(labels == np.arange(len(cliques)))
    families, examined = _search_cliques(subgroups, cliques[reps])
    found: dict[int, Violation] = {}
    for at, violation in families.items():
        r = int(reps[at])
        found[r] = violation
        for c in np.flatnonzero(labels == r).tolist()[1:]:
            member, _ = _search_with_count([subgroups[i] for i in cliques[c]])
            if member is None:
                raise ConsistencyError("conjugate cliques got different verdicts")
            found[c] = member
    return dict(sorted(found.items())), len(reps), int(examined.sum())


def verify_group(
    g: FiniteGroup,
    k: int,
    *,
    subgroups: Sequence[Subgroup],
    pair_stats: PairRows,
    max_cliques: int = DEFAULT_CLIQUE_CAP,
) -> VerificationReport:
    """Exhaustively search one group for disjoint k-families below the gcd bar.

    The clique list is deterministic and ``search_orbits`` returns the
    families in clique order, so equal inputs give equal reports.
    ``tuples_examined`` counts the coset placements over one
    clique per conjugacy orbit.  ``pair_stats`` is as in
    ``candidate_cliques``; one ``PairRows`` shares its rows across k, and
    its lattice the conjugation action (``Lattice.action``), which is
    built at the first k with cliques.
    """
    if not K_MIN <= k <= K_MAX:
        raise ValueError(f"k must lie in [{K_MIN}, {K_MAX}]")
    cliques = candidate_cliques(
        g, k, subgroups=subgroups, pair_stats=pair_stats, max_cliques=max_cliques
    )
    found, orbits, examined = (
        search_orbits(pair_stats.lattice.action, subgroups, cliques) if len(cliques) else ({}, 0, 0)
    )
    violations = list(found.values())
    for violation in violations:
        off_diag = [
            violation.gcd_matrix[a][b] for a in range(k) for b in range(k) if a != b
        ]
        if any(v >= k for v in off_diag):
            raise ConsistencyError(
                "candidate clique contained a pair at or above the gcd bar"
            )

    return VerificationReport(
        group_label=g.label,
        group_order=g.n,
        k=k,
        subgroup_count=len(subgroups),
        candidate_clique_count=len(cliques),
        clique_orbits=orbits,
        tuples_examined=examined,
        violations=violations,
        note=OPEN_RANGE_NOTE if k >= 5 and not violations else None,
    )
