"""Executable law suite over subgroup pairs, triples, and nested coset pairs.

Each law carries a stable string id that downstream reports key on.  The
suite runs exhaustively when the pair/triple spaces are small enough and
falls back to seeded sampling above the module's limits.  Each family
keeps its instances as one array of subgroup positions and checks them on
whole arrays, in blocks: from the lattice's coset-label matrix and its
packed membership rows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .bitset import MEET_ROWS, meet_orders, packed, popcounts, row_positions
from .cosets import coset_labels
from .counting import (
    BLOCK_ENTRIES,
    DEFAULT_CENSUS_CAP,
    _distinct_per_row,
    _orbit_census,
    _triples,
    triple_inequalities,
    triple_orbits,
)
from .groups import FiniteGroup
from .subgroups import Lattice, Subgroup

LEMMA_IDS = (
    "L2.1.i",
    "L2.1.ii",
    "L2.1.iii",
    "L2.1.iv",
    "L2.1.v",
    "L3.2",
    "L3.3",
    "R3.1",
    "E3.1",
    "E3.2",
    "E3.4",
)

# L2.1.i's failure texts, for an HK that is not a row of the subgroup list and one that is
NOT_LISTED = "HK is missing from the subgroup list, which disagrees with HK = KH"
LISTED = "HK is in the subgroup list, which disagrees with HK != KH"

PAIR_LIMIT = 1600
TRIPLE_LIMIT = 8000
NESTED_ORDER_LIMIT = 24
SAMPLE_TARGET = 2000


@dataclass
class LemmaStats:
    checked: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def record(self, ok: bool, desc: str = "") -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            self.examples += [desc][: 5 - len(self.examples)]

    def tally_at(
        self, checked: np.ndarray, oks: np.ndarray, describe: Callable[[int], str]
    ) -> None:
        """Record ``oks[p]`` at every position p where ``checked`` holds, in
        order; ``describe(p)`` names the failure at p."""
        self.tally_counts(checked, checked & ~oks, describe)

    def tally_counts(
        self, checked: np.ndarray, failed: np.ndarray, describe: Callable[[int], str]
    ) -> None:
        """Record ``checked[p]`` instances, ``failed[p]`` of them failed, at
        every position p, in order; ``describe(p)`` names each failure at p."""
        self.checked += int(np.sum(checked, dtype=np.int64))
        self.failed += int(np.sum(failed, dtype=np.int64))
        for p in np.flatnonzero(failed)[: 5 - len(self.examples)]:
            self.examples += [describe(int(p))] * min(int(failed[p]), 5 - len(self.examples))


@dataclass
class LemmaSuiteResult:
    group_label: str
    group_order: int
    subgroup_count: int
    pair_mode: str
    triple_mode: str
    nested_mode: str
    pairs_run: int
    triples_run: int
    nested_quadruples_run: int
    samples: int
    seed: int
    stats: dict[str, LemmaStats]

    @property
    def failures(self) -> int:
        return sum(s.failed for s in self.stats.values())

    def to_json_dict(self) -> dict:
        return {
            "group_label": self.group_label,
            "group_order": self.group_order,
            "subgroup_count": self.subgroup_count,
            "modes": {
                "pairs": self.pair_mode,
                "triples": self.triple_mode,
                "nested": self.nested_mode,
            },
            "counts": {
                "pairs": self.pairs_run,
                "triples": self.triples_run,
                "nested_quadruples": self.nested_quadruples_run,
                "samples": self.samples,
            },
            "seed": self.seed,
            "stats": {
                lid: {
                    "checked": st.checked,
                    "failed": st.failed,
                    "examples": list(st.examples),
                }
                for lid, st in self.stats.items()
            },
            "failures": self.failures,
        }


def _blocks(size: int, row_len: int) -> Iterator[slice]:
    """Slices over range(size) of BLOCK_ENTRIES // row_len rows, at least one."""
    step = max(1, BLOCK_ENTRIES // max(row_len, 1))
    return (slice(lo, lo + step) for lo in range(0, size, step))


def _meet_order(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|H_a & H_b| for the subgroup positions a, b: popcounts of ANDed words."""
    return popcounts(w[a] & w[b])


def _met_union(labels: np.ndarray, index: np.ndarray, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the union of the cosets (numbered by the row of ``labels``,
    ``index`` of them) that the set ``member`` meets, as a bool row, and how
    many cosets that is."""
    off = np.cumsum(index) - index
    glabels = labels + off[:, None]
    hit = np.zeros(int(index.sum()), dtype=bool)
    hit[glabels[member]] = True
    return hit[glabels], np.add.reduceat(hit, off, dtype=np.int64)


def _separation(
    labels: np.ndarray,
    lh: np.ndarray,
    lk: np.ndarray,
    m_at: np.ndarray,
    meets: np.ndarray,
    subgroup: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """L2.1.v per pair (H, K) where M = HK is a subgroup, the lattice's row
    ``m_at``: how many coset pairs (aH, bK) are disjoint, and how many of
    those lie in one coset of M; 0 and 0 on the other pairs.

    Cosets of M either coincide or are disjoint, so the law is that aM and
    bM differ.  H and K lie in M, so each of their cosets lies in one
    M-coset and carries the M-label of any of its points.  The coset pairs
    that share an M-label are counted per label, a product of two
    bincounts; a meeting pair shares the label of a common point, so the
    distinct meeting pairs are taken off.
    """
    n = lh.shape[1]
    index_h, index_k = lh.max(axis=1) + 1, lk.max(axis=1) + 1
    apart = np.where(subgroup, index_h * index_k - meets, 0)
    mixed = np.zeros_like(apart)
    p = np.flatnonzero(subgroup)
    rows = np.arange(len(p))[:, None]
    lm = labels[m_at[p]]
    per_label = []
    for lx, index in ((lh[p], index_h[p]), (lk[p], index_k[p])):
        m_of = np.zeros_like(lm)  # the M-label of each coset, past the index unread
        m_of[rows, lx] = lm
        keys = (rows * n + m_of)[np.arange(n) < index[:, None]]
        per_label.append(np.bincount(keys, minlength=len(p) * n).reshape(-1, n))
    mixed[p] = (per_label[0] * per_label[1]).sum(axis=1) - meets[p]
    return apart, mixed


def _check_pairs(
    g: FiniteGroup,
    labels: np.ndarray,
    member: np.ndarray,
    w: np.ndarray,
    pairs: np.ndarray,
    stats: dict[str, LemmaStats],
) -> None:
    """L2.1.i-v, L3.2 and L3.3 on every row (h, k) of ``pairs``, in order.

    HK is the union of the K-cosets that H meets, and KH the union of the
    H-cosets that K meets, so both rows come from label gathers, and the
    K-cosets in HK and the H-cosets meeting K are counted on the way.  As
    in the oracle ``tests/helpers.product_set``, HK must be a subgroup
    exactly when HK = KH, or L2.1.i fails; as the rows of ``w`` are the
    whole lattice, HK is a subgroup exactly when its words are one of them,
    one dict lookup per pair.  Coset pairs that meet are the distinct
    label pairs over the group's points.  A block holds B x n entries per
    array.
    """
    n = g.n
    order = member.sum(axis=1)
    index = n // order
    position = row_positions(w)
    for at in _blocks(len(pairs), n):
        h, k = pairs[at].T
        lh, lk, ih, ik, oh, ok = labels[h], labels[k], index[h], index[k], order[h], order[k]
        overlap = _meet_order(w, h, k)
        hk, k_cosets = _met_union(lk, ik, member[h])
        kh, h_cosets = _met_union(lh, ih, member[k])
        m_at = np.array([position.get(words.tobytes(), -1) for words in packed(hk)], dtype=np.intp)
        closed = m_at >= 0
        sound = closed == (hk == kh).all(axis=1)
        meets = _distinct_per_row(lh * ik[:, None] + lk)
        every = np.ones(len(h), dtype=bool)

        def tag(p: int) -> str:
            return f"{g.label}: |H|={oh[p]} |K|={ok[p]}"

        stats["L2.1.i"].tally_at(every, sound, lambda p: f"{tag(p)}: {LISTED if closed[p] else NOT_LISTED}")
        stats["L2.1.ii"].tally_at(every, k_cosets == oh // overlap, tag)
        stats["L2.1.iii"].tally_at(np.gcd(ih, ik) == 1, hk.all(axis=1), tag)
        stats["L2.1.iv"].tally_at(every, (oh * ok // overlap < n) == (meets < ih * ik), tag)
        stats["L2.1.v"].tally_counts(*_separation(labels, lh, lk, m_at, meets, sound & closed), tag)
        stats["L3.2"].tally_at(every, meets == n // overlap, tag)
        stats["L3.3"].tally_at(every, h_cosets == ok // overlap, tag)


def _check_triples(
    g: FiniteGroup,
    lattice: Lattice,
    labels: np.ndarray,
    w: np.ndarray,
    triples: np.ndarray,
    orbits: np.ndarray,
    stats: dict[str, LemmaStats],
    census_cap: int,
) -> None:
    """L3.2, E3.1, E3.2 and E3.4 on the rows (i, j, k) of ``triples``, in order.

    The census of every row comes from ``_orbit_census``, one enumeration
    per orbit of ``orbits``.  Per triple, as ``census`` and then the oracle
    ``tests/helpers.check_triple_inequalities`` would find it: a triple
    that fails a census check fails L3.2, named by its census text, and
    skips the rest; an enumerated one holds L3.2.  An r-value that is not
    integral fails E3.4 and skips E3.1 and E3.2.  E3.2 needs a common pair
    gcd and an enumerated census with a disjoint coset triple.
    """
    counts, errors = _orbit_census(labels, w, triples, orbits, census_cap)
    enumerated, n_disjoint = counts["enumerated"], counts["n_disjoint"]
    ineq = triple_inequalities(w, g.n, triples)
    census_ok = np.ones(len(triples), dtype=bool)
    census_ok[list(errors)] = False
    integral = census_ok & ineq.integral

    def tag(p: int) -> str:
        i, j, k = lattice.order[triples[p]].tolist()
        return f"{g.label}: orders ({i},{j},{k})"

    stats["L3.2"].tally_at(~census_ok | enumerated, census_ok, lambda p: f"{tag(p)}: {errors[p]}")
    stats["E3.4"].tally_at(
        census_ok,
        integral & ineq.divisibility_ok & ineq.scaled_divisibility_ok,
        lambda p: tag(p) if integral[p] else f"{tag(p)}: {ineq.integrality_error(p)}",
    )
    stats["E3.1"].tally_at(integral, ineq.pivot_bounds_ok, tag)
    r = ineq.r[3]
    stats["E3.2"].tally_at(
        integral & (ineq.common_gcd > 0) & enumerated & (n_disjoint > 0),
        r < ineq.r_bound,
        lambda p: f"{tag(p)}: r={r[p]} bound={ineq.r_bound[p]}",
    )


def _check_nested(
    g: FiniteGroup,
    labels: np.ndarray,
    order: np.ndarray,
    quadruples: np.ndarray,
    stats: dict[str, LemmaStats],
) -> None:
    """R3.1 on every row (G1, H1, G2, H2) of ``quadruples``, in order: for
    distinct cosets A and b*H1 inside one G1-coset, A misses b*H2.

    The rows must satisfy H1 & H2 == G1 & G2 (the caller filters).  An
    instance is a pair of an H1-coset A and a point b with A in b's
    G1-coset and A != b*H1; it fails when A meets b*H2.  Per point b, the
    instances are the H1-cosets of b's G1-coset but b's own, counted per
    G1-coset; the failures are the distinct H1-labels of the points that
    share b's G1- and H2-labels, but b's own, counted per run of one sort
    of each row's (G1, H2, H1) label keys.  B x n arrays.
    """
    n = g.n
    # about a dozen arrays of n entries per quadruple are live at once
    for at in _blocks(len(quadruples), 12 * n):
        g1, h1, g2, h2 = quadruples[at].T
        rows = np.arange(len(g1))[:, None]
        big, own, far = labels[g1], labels[h1], labels[h2]
        # the G1-coset holding each H1-coset, and n past the last H1-coset
        holder = np.full((len(g1), n), n)
        holder[rows, own] = big
        inside = holder[rows, own] == big  # b*H1 lies in b's G1-coset
        held = np.bincount((rows * (n + 1) + holder).ravel())
        checked = held[rows * (n + 1) + big] - inside
        keys = np.sort((big * n + far) * n + own, axis=1).ravel()
        # a new key, and a new (G1, H2) run; every row starts both
        new, run = np.ones((2, len(keys)), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        run[1:] = keys[1:] // n != keys[:-1] // n
        new[::n] = run[::n] = True
        starts = np.flatnonzero(run)
        per_run = np.diff(starts, append=len(keys)) * np.add.reduceat(new, starts, dtype=np.int64)
        failed = np.add.reduceat(per_run, np.flatnonzero(starts % n == 0)) - inside.sum(axis=1)

        def tag(p: int) -> str:
            o = [order[x[p]] for x in (g1, h1, g2, h2)]
            return f"{g.label}: |G1|={o[0]} |H1|={o[1]} |G2|={o[2]} |H2|={o[3]}"

        stats["R3.1"].tally_counts(checked.sum(axis=1), failed, tag)


def _instances(
    exhaustive: bool,
    every: Callable[[], np.ndarray],
    draw: Callable[[], Optional[tuple[int, ...]]],
    width: int,
) -> tuple[str, np.ndarray, int]:
    """The instances one law family runs on, rows of ``width`` subgroup
    positions, with its mode and draw count.

    Exhaustive families run on ``every()``; the others on ``SAMPLE_TARGET``
    calls of ``draw``, leaving out those that return None.
    """
    if exhaustive:
        return "exhaustive", every(), 0
    drawn = [x for x in (draw() for _ in range(SAMPLE_TARGET)) if x is not None]
    return "sampled", np.array(drawn, dtype=np.intp).reshape(-1, width), SAMPLE_TARGET


def _containments(rows: list[list[int]]) -> np.ndarray:
    """The pairs (i, j) with j in rows[i], in order, as an N x 2 array."""
    lens = [len(r) for r in rows]
    return np.stack(
        [np.repeat(np.arange(len(rows)), lens), np.array([j for r in rows for j in r], dtype=np.intp)],
        axis=1,
    ).reshape(-1, 2)

def run_lemma_suite(
    g: FiniteGroup,
    subgroups: Sequence[Subgroup],
    *,
    seed: int = 0,
    census_cap: int = DEFAULT_CENSUS_CAP,
) -> LemmaSuiteResult:
    """Run every law over one group and its lattice, exhaustively where affordable.

    Ordered pairs run exhaustively when their count is at most
    ``PAIR_LIMIT``; subgroup multisets of size three likewise against
    ``TRIPLE_LIMIT``; otherwise ``SAMPLE_TARGET`` seeded samples are drawn.
    The nested-coset law enumerates fully up to ``NESTED_ORDER_LIMIT``
    elements and samples above it.

    ``subgroups`` must be the whole lattice of ``g``: L2.1.i finds HK among
    its rows, so a pair whose product is a subgroup left out of the list
    fails L2.1.i and skips L2.1.v.
    """
    lattice = Lattice.of(subgroups)
    m = len(lattice)
    stats = {lid: LemmaStats() for lid in LEMMA_IDS}
    rng = random.Random(seed)
    member, order, w = lattice.rows, lattice.order, lattice.words
    labels = np.array([coset_labels(s) for s in lattice], dtype=np.intp).reshape(m, g.n)
    # contained[h]: positions of the subgroups K of H, proper[h]: those below |H|;
    # one block of rows at a time, so no m x m matrix is kept
    contained: list[list[int]] = []
    proper: list[list[int]] = []
    for lo in range(0, m, MEET_ROWS):
        inside = meet_orders(w[lo : lo + MEET_ROWS], w) == order  # |H & K| = |K|
        for row, o in zip(inside, order[lo : lo + MEET_ROWS]):
            contained.append(np.flatnonzero(row).tolist())
            proper.append(np.flatnonzero(row & (order < o)).tolist())

    def kept(quadruples: np.ndarray) -> np.ndarray:
        """Which rows (G1, H1, G2, H2) have H1 & H2 == G1 & G2 elementwise; as
        H1 & H2 lies in G1 & G2, that holds exactly when their orders agree."""
        g1, h1, g2, h2 = quadruples.T
        return _meet_order(w, h1, h2) == _meet_order(w, g1, g2)

    def every_nested() -> np.ndarray:
        """Every (G1, H1, G2, H2) with H1 < G1 and H2 <= G2 that ``kept`` keeps,
        in order, one block of (G1, H1) rows at a time."""
        outer, inner = _containments(proper), _containments(contained)
        parts = [np.zeros((0, 4), dtype=np.intp)]
        for at in _blocks(len(outer), 4 * len(inner)):
            block = outer[at]
            rows = np.concatenate(
                [np.repeat(block, len(inner), axis=0), np.tile(inner, (len(block), 1))], axis=1
            )
            parts.append(rows[kept(rows)])
        return np.concatenate(parts)

    def draw_nested() -> Optional[tuple[int, ...]]:
        i1 = rng.randrange(m)
        if not proper[i1]:
            return None
        j1 = rng.choice(proper[i1])
        i2 = rng.randrange(m)
        return i1, j1, i2, rng.choice(contained[i2])

    # One rng serves pairs, then triples, then nested quadruples, in that
    # order, so a seed names the same samples in every report.
    pair_mode, pairs, samples = _instances(
        m * m <= PAIR_LIMIT,
        lambda: np.stack(np.divmod(np.arange(m * m), m), axis=1),
        lambda: (rng.randrange(m), rng.randrange(m)),
        2,
    )
    _check_pairs(g, labels, member, w, pairs, stats)

    triple_mode, triples, drawn = _instances(
        math.comb(m + 2, 3) <= TRIPLE_LIMIT,
        lambda: _triples(m),
        lambda: tuple(sorted(rng.randrange(m) for _ in range(3))),
        3,
    )
    samples += drawn
    # exhaustive triples are the lattice's, in the order triple_orbits labels
    orbits = triple_orbits(lattice) if triple_mode == "exhaustive" else np.arange(len(triples))
    _check_triples(g, lattice, labels, w, triples, orbits, stats, census_cap)

    nested_mode, quadruples, drawn = _instances(
        g.n <= NESTED_ORDER_LIMIT, every_nested, draw_nested, 4
    )
    if nested_mode == "sampled":
        quadruples = quadruples[kept(quadruples)]
    samples += drawn
    _check_nested(g, labels, order, quadruples, stats)

    return LemmaSuiteResult(
        group_label=g.label,
        group_order=g.n,
        subgroup_count=m,
        pair_mode=pair_mode,
        triple_mode=triple_mode,
        nested_mode=nested_mode,
        pairs_run=len(pairs),
        triples_run=len(triples),
        nested_quadruples_run=len(quadruples),
        samples=samples,
        seed=seed,
        stats=stats,
    )
