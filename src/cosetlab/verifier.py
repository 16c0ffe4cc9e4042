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

from .bitset import blocks, lowest_bit, meet_orders, packed, popcounts, set_bits
from .cosets import coset_mask, double_coset_reps, left_cosets
from .errors import CliqueCapExceeded, ConsistencyError, ParentMismatch
from .groups import FiniteGroup
from .subgroups import Lattice, Subgroup, _row_gathers, orbit_labels

DEFAULT_CLIQUE_CAP = 10**6
K_MIN = 2
K_MAX = 6
OPEN_RANGE_NOTE = "conjecture open - absence of violations is evidence, not proof"
# positions per build unit of PairRows' disjointability rows
MEET_ROWS = 64


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
    """The pair bars of a lattice as rows of packed words, built on demand.

    The disjointability rows, one m x ceil(m / 64) word array, do not
    depend on k: |H||K| < |G| |H&K| (``cosets.disjointable``), with the
    intersection orders from ``meet_orders``, and no bit below j in row j,
    which the clique search never reads.  They are built one unit of
    ``MEET_ROWS`` positions at a time, on the first lookup of any of its
    positions.  ``rows(k)`` gives the gcd bar per index class.
    ``subgroups`` must ascend by order, as ``enumerate_subgroups`` lists
    them, or ValueError: ``candidate_cliques`` stops its order-sum bar at
    the first position too large.  One source serves every k of a lattice;
    its ``lattice`` (``Lattice.of(subgroups)``) gives the words, orders and
    indices, and the conjugation action.  Iterating yields the m(m+1)/2
    unordered pairs i <= j as ``PairStats``.
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
        m = len(subgroups)
        self._disjoint = np.zeros((m, -(-m // 64)), dtype=np.uint64)
        self._built = np.zeros(-(-m // MEET_ROWS), dtype=bool)

    def __len__(self) -> int:
        return len(self.order) * (len(self.order) + 1) // 2

    def __iter__(self) -> Iterator[PairStats]:
        m = len(self.order)
        gcd = np.gcd.outer(self.indices, self.indices)
        for i in range(m):
            gcds = gcd[self.index_class[i], self.index_class[i:]].tolist()
            bits = np.unpackbits(self.disjoint_rows(i).view(np.uint8), count=m, bitorder="little")
            for j, (d, ok) in enumerate(zip(gcds, bits[i:].astype(bool).tolist()), start=i):
                yield PairStats(i, j, d, ok)

    def disjoint_rows(self, at: int | np.ndarray) -> np.ndarray:
        """The words of row j for each j of ``at`` (an int or an array): bit t
        set, for t >= j, when j and t are disjointable; units are built first."""
        m = len(self.order)
        units = np.unique(np.asarray(at) // MEET_ROWS)
        for lo in (units[~self._built[units]] * MEET_ROWS).tolist():
            hi = min(lo + MEET_ROWS, m)
            meet = meet_orders(self.lattice.words[lo:hi], self.lattice.words[lo:])
            ok = np.zeros((hi - lo, m), dtype=bool)
            ok[:, lo:] = np.triu(np.outer(self.order[lo:hi], self.order[lo:]) < meet * self.n)
            self._disjoint[lo:hi] = packed(ok)
            self._built[lo // MEET_ROWS] = True
        return self._disjoint[at]

    def rows(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The gcd bar at k as words, row c with bit t set when t's index and
        those of class c have gcd below k, and the bool array ``lone``: the
        positions that, as the first of k picks, no second pick can join
        within |G|, so they read no row.  One index class holds a run of
        positions, and every t >= j lies in j's class or in one of larger
        order, so the least order of a t >= j that passes j's gcd bar and
        fits beside H_j is found per class; j is lone when that order times
        k - 1 exceeds |G| - |H_j|.  A j whose least completion fills G
        exactly is kept, but heads no clique: the indices d_i of k <= K_MAX
        pairwise disjointable subgroups with gcds below k never have
        sum(1 / d_i) = 1, since each gcd lies in [2, k) (|H&K| divides
        |G| / lcm(d_i, d_j) and passes |G| / d_i d_j) and no such sum of k
        unit fractions exists (``test_no_clique_fills_the_group``)."""
        low = np.gcd.outer(self.indices, self.indices) < k
        reach = np.where(low & self._partner, self._class_order, self.n + 1).min(axis=1)
        lone = self._class_order + reach * (k - 1) > self.n
        return packed(low[:, self.index_class]), lone[self.index_class]


def pair_table(g: FiniteGroup, subgroups: Sequence[Subgroup]) -> PairRows:
    """The pair bars of ``subgroups``, a lattice of g."""
    return PairRows(g, subgroups)


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
    the last.  A pick j ANDs in its disjointability row and its index
    class's gcd row; a lone first pick reads no row.  Blocks of prefixes go
    depth first, each cut by ``bitset.blocks``, so memory grows with the
    depth, not with the number of prefixes.
    """
    if len(pair_stats.order) != len(subgroups):
        raise ValueError(
            f"pair table covers {len(pair_stats.order)} subgroups, lattice has {len(subgroups)}"
        )
    order = pair_stats.order
    m = len(order)
    width = -(-m // 64)
    gcd_ok, lone = pair_stats.rows(k)
    out: list[np.ndarray] = [np.empty((0, k), dtype=np.int64)]
    visited = 0

    def grow(prefix: np.ndarray, osum: np.ndarray, cand: np.ndarray) -> None:
        # prefix: S x d positions; osum: their order sums; cand: S x width words
        nonlocal visited
        left = k - prefix.shape[1]
        limit = np.searchsorted(order, (g.n - osum) // left, "right")
        # int64 entries per prefix: its words and at most its candidates'
        # positions and words
        for block in blocks(popcounts(cand) * (k + width) + width):
            at, picks = set_bits(cand[block])
            at += block.start
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
                live = ~lone[picks]
                at, picks = at[live], picks[live]
            nxt = cand[at]
            nxt &= pair_stats.disjoint_rows(picks)
            nxt &= gcd_ok[pair_stats.index_class[picks]]
            grow(np.column_stack([prefix[at], picks]), osum[at] + order[picks], nxt)

    everything = packed(np.ones((1, m), dtype=bool))
    grow(np.empty((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64), everything)
    del grow  # its closure holds grow: unbound, what it reaches is freed on return
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
    H0 x H1.  Neither pin loses a family.  Its cosets are the int masks of
    ``cosets.left_cosets`` and ``cosets.double_coset_reps``.  Returns the
    family, if any, and the number of coset placements attempted.
    ``_search_cliques`` runs this search on many cliques at once, on words,
    and this one again on each clique it finds a family in.
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


def _coset_choices(
    lattice: Lattice, cliques: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cosets each row of ``cliques`` (N x k positions) tries per slot,
    as one table of packed words, and per row and slot the start and count
    of its choices.  Slots go largest subgroup first, ties in clique order:
    slot 0 tries H0, slot 1 one coset of H1 per double coset H0 x H1 and
    later slots every coset, each list by least element, as in
    ``_search_with_count``.  Left multiplication by H0 moves the coset of x
    to that of h x, and its orbits are the double cosets, so the coset of x
    is kept when its label (``Lattice.coset_labels``) is the least of h x's
    over h in H0."""
    g, m = lattice.parent, len(lattice)
    slots = np.take_along_axis(
        cliques, np.argsort(-lattice.order[cliques], axis=1, kind="stable"), axis=1
    )
    heads, head_of = np.unique(slots[:, :1], return_inverse=True)
    pairs, pair_of = np.unique(slots[:, :1] * m + slots[:, 1:2], return_inverse=True)
    tails, tail_of = np.unique(slots[:, 2:], return_inverse=True)
    at = np.concatenate([pairs % m, tails])  # the second of each pair, then the tails
    labels = lattice.coset_labels(at)
    keep = np.ones(labels.shape, dtype=bool)
    mul = g.np_table.astype(np.min_scalar_type(g.n))  # row h is h x over every x
    h0 = pairs // m
    for lo, hi, moved in _row_gathers(mul, g.identity, lattice.rows[h0], lattice.order[h0]):
        own = labels[lo:hi]
        keep[lo:hi] = np.take_along_axis(own[:, None, :], moved, axis=2).min(axis=1) == own
    # one bool row per coset: coset c of row i is c plus the cosets before i
    index = lattice.index[at]
    coset = (np.cumsum(index) - index)[:, None] + labels
    member = np.zeros((int(index.sum()), g.n), dtype=bool)
    member[coset, np.arange(g.n)] = True
    picked = np.isin(np.arange(len(member)), coset[keep])
    table = np.concatenate([lattice.words[heads], packed(member[picked])])
    sizes = np.concatenate([np.ones(len(heads), np.int64), keep.sum(axis=1) // lattice.order[at]])
    starts = np.cumsum(sizes) - sizes
    which = np.concatenate([head_of, len(heads) + pair_of, len(heads) + len(pairs) + tail_of], 1)
    return table, starts[which], sizes[which]


def _search_cliques(
    subgroups: Sequence[Subgroup], cliques: np.ndarray
) -> tuple[dict[int, Violation], np.ndarray]:
    """Search every row of ``cliques`` (N x k positions) for a disjoint
    family, all rows together, one slot per level, over the choices of
    ``_coset_choices``.  A state is a row and the union of the cosets
    placed in its slots so far, as packed words; every live state tries
    every choice of its slot, and a try that misses the union is a live
    state of the next slot.  With no family the backtracking walks its
    whole tree, so the tries of a row are its count of coset placements.  A
    row with a state past its last slot holds a family, and
    ``_search_with_count`` searches it again: that names the family, gives
    the count of a search that stops at the find, and checks disjointness
    once more.  Returns the family of every row that has one, keyed by row,
    and the coset placements per row.  States go depth first in blocks cut
    by ``bitset.blocks``.
    """
    n_rows, k = cliques.shape
    lattice = Lattice.of(subgroups)
    width = -(-lattice.parent.n // 64)
    table, start, count = _coset_choices(lattice, cliques)

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
        for block in blocks(tries * (2 + 3 * width)):
            t = tries[block]
            state = np.repeat(np.arange(block.start, block.stop), t)
            first = start[row[block], slot] - np.cumsum(t) + t
            choice = np.arange(len(state)) + np.repeat(first, t)
            coset = table[choice]
            free = ~(used[state] & coset).any(axis=1)
            state = state[free]
            place(slot + 1, row[state], used[state] | coset[free])

    place(0, np.arange(n_rows), np.broadcast_to(np.zeros(width, np.uint64), (n_rows, width)))
    del place  # as grow in candidate_cliques
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
    least clique of each orbit is searched, all in one ``_search_cliques``
    batch; every clique of an orbit with a find is searched in a second,
    and must yield one.  Returns the family of every clique that has one,
    keyed by clique index in ascending order, exactly as a search of each
    clique gives it; the number of orbits; and the coset placements over
    the representatives.
    """
    labels = orbit_labels(perms, cliques)
    reps = np.flatnonzero(labels == np.arange(len(cliques)))
    families, examined = _search_cliques(subgroups, cliques[reps])
    members = np.flatnonzero(np.isin(labels, reps[list(families)]))
    found = _search_cliques(subgroups, cliques[members])[0] if len(members) else {}
    if len(found) != len(members):
        raise ConsistencyError("conjugate cliques got different verdicts")
    return {int(members[r]): v for r, v in found.items()}, len(reps), int(examined.sum())


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
