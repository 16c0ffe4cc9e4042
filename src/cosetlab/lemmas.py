"""Executable law suite over subgroup pairs, triples, and nested coset pairs.

Each law carries a stable string id that downstream reports key on.  The
suite runs exhaustively when the pair/triple spaces are small enough and
falls back to seeded sampling above the configured limits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .bitset import MEET_ROWS, full_mask, meet_orders, packed
from .cosets import (
    _product_mask,
    coset_labels,
    cosets_of_k_in_product,
    disjointable,
    left_cosets,
    meeting_matrix,
    product_set,
    promote,
    touching_count,
)
from .counting import DEFAULT_CENSUS_CAP, census, lattice_census, triple_inequalities
from .errors import ConsistencyError
from .groups import FiniteGroup
from .subgroups import Subgroup, enumerate_subgroups, membership

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

DEFAULT_PAIR_LIMIT = 1600
DEFAULT_TRIPLE_LIMIT = 8000
DEFAULT_NESTED_ORDER_LIMIT = 24


@dataclass
class LemmaStats:
    checked: int = 0
    failed: int = 0
    examples: list[str] = field(default_factory=list)

    def record(self, ok: bool, desc: str = "") -> None:
        self._count(1, 0 if ok else 1, desc)

    def tally(self, oks: np.ndarray, desc: str = "") -> None:
        """Record every entry of a boolean outcome array under one tag."""
        self._count(oks.size, oks.size - int(np.count_nonzero(oks)), desc)

    def tally_at(
        self, checked: np.ndarray, oks: np.ndarray, describe: Callable[[int], str]
    ) -> None:
        """Record ``oks[p]`` at every position p where ``checked`` holds, in
        order; ``describe(p)`` names the failure at p."""
        bad = np.flatnonzero(checked & ~oks)
        self.checked += int(np.count_nonzero(checked))
        self.failed += bad.size
        self.examples += [describe(int(p)) for p in bad[: 5 - len(self.examples)]]

    def _count(self, checked: int, failed: int, desc: str) -> None:
        self.checked += checked
        self.failed += failed
        self.examples += [desc] * min(failed, 5 - len(self.examples))


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


def _check_pair(
    g: FiniteGroup, h: Subgroup, k: Subgroup, stats: dict[str, LemmaStats], full: int
) -> None:
    n = g.n
    overlap = (h.mask & k.mask).bit_count()
    tag = f"{g.label}: |H|={h.order} |K|={k.order}"

    # product_set raises when its closure test and HK = KH disagree.
    try:
        p = product_set(h, k)
        stats["L2.1.i"].record(True, tag)
    except ConsistencyError as exc:
        p = None
        stats["L2.1.i"].record(False, f"{tag}: {exc}")

    stats["L2.1.ii"].record(
        cosets_of_k_in_product(h, k) == h.order // overlap, tag
    )

    if math.gcd(h.index, k.index) == 1:
        hk = p.mask if p is not None else _product_mask(h, k)
        stats["L2.1.iii"].record(hk == full, tag)

    meets = meeting_matrix(h, k)
    stats["L2.1.iv"].record(disjointable(h, k) == (not meets.all()), tag)

    if p is not None and p.is_subgroup:
        # Cosets of M = HK either coincide or are disjoint, so aM and bM are
        # disjoint exactly when a and b carry different M-labels.
        m_labels = coset_labels(promote(p))
        h_reps = m_labels[[c.rep for c in left_cosets(h)]]
        k_reps = m_labels[[c.rep for c in left_cosets(k)]]
        separated = h_reps[:, None] != k_reps[None, :]
        stats["L2.1.v"].tally(separated[~meets], tag)

    stats["L3.2"].record(int(np.count_nonzero(meets)) == n // overlap, tag)

    stats["L3.3"].record(touching_count(h, k) == k.order // overlap, tag)


def _triple_census(
    subs: Sequence[Subgroup], triples: np.ndarray, census_cap: int, from_lattice: bool
) -> tuple[dict[int, str], np.ndarray, np.ndarray, Optional[str]]:
    """The census of each triple: the ConsistencyError text of those whose
    census raised, by position, and per triple whether it was enumerated and
    its ``n_disjoint`` (0 where not enumerated); last, the text of a
    ``lattice_census`` error that ``census`` did not reproduce, or None.

    With ``from_lattice`` the triples are all of them, in
    ``combinations_with_replacement`` order, and ``lattice_census`` gives
    them a pair at a time; a block it yields has passed every check of
    ``census``.  It raises at the first pair that fails, and the triples
    from that pair on go through ``census`` one at a time, as sampled
    triples do, so each failure is named as ``census`` names it.  If no
    triple of that pair fails there, the lattice census's error is returned.
    """
    size = len(triples)
    enumerated = np.zeros(size, dtype=bool)
    n_disjoint = np.zeros(size, dtype=np.int64)
    errors: dict[int, str] = {}
    lattice_error = None
    done = 0
    if from_lattice:
        try:
            for pc in lattice_census(subs, max_census=census_cap):
                end = done + len(pc.total)
                enumerated[done:end] = pc.enumerated
                n_disjoint[done:end] = pc.n_disjoint
                done = end
        except ConsistencyError as exc:
            lattice_error = str(exc)
    for p in range(done, size):
        i, j, t = triples[p]
        try:
            cen = census(subs[i], subs[j], subs[t], max_census=census_cap)
        except ConsistencyError as exc:
            errors[p] = str(exc)
            continue
        enumerated[p] = cen.enumerated
        n_disjoint[p] = cen.n_disjoint or 0
    if lattice_error is not None:
        # the pair (i, j) that raised holds the triples (i, j, t) for t >= j
        pair_end = done + len(subs) - triples[done, 1]
        if any(done <= p < pair_end for p in errors):
            lattice_error = None
    return errors, enumerated, n_disjoint, lattice_error


def _check_triples(
    g: FiniteGroup,
    subs: Sequence[Subgroup],
    w: np.ndarray,
    triples: np.ndarray,
    stats: dict[str, LemmaStats],
    census_cap: int,
    from_lattice: bool,
) -> None:
    """L3.2, E3.1, E3.2 and E3.4 on the rows (i, j, k) of ``triples``, in order.

    Per triple, as ``census`` and then ``check_triple_inequalities`` would
    find it: a census that raises fails L3.2 and skips the rest; an
    enumerated one holds L3.2.  An r-value that is not integral fails E3.4
    and skips E3.1 and E3.2.  E3.2 needs a common pair gcd and an
    enumerated census with a disjoint coset triple.  A ``lattice_census``
    error that ``census`` does not reproduce is one more L3.2 failure.
    """
    errors, enumerated, n_disjoint, lattice_error = _triple_census(
        subs, triples, census_cap, from_lattice
    )
    ineq = triple_inequalities(w, g.n, triples)
    census_ok = np.ones(len(triples), dtype=bool)
    census_ok[list(errors)] = False
    integral = census_ok & ineq.integral

    def tag(p: int) -> str:
        i, j, k = (subs[x].order for x in triples[p])
        return f"{g.label}: orders ({i},{j},{k})"

    stats["L3.2"].tally_at(~census_ok | enumerated, census_ok, lambda p: f"{tag(p)}: {errors[p]}")
    if lattice_error is not None:
        stats["L3.2"].record(False, f"{g.label}: lattice census: {lattice_error}")
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


def _nested_instances(
    g: FiniteGroup,
    g1: Subgroup,
    h1: Subgroup,
    g2: Subgroup,
    h2: Subgroup,
    stats: dict[str, LemmaStats],
) -> None:
    """Check separation of distinct H1-cosets inside one G1-coset against H2 cosets.

    Requires H1&H2 == G1&G2 elementwise (the caller filters).  For distinct
    cosets A = a*H1 and B inside a single G1-coset and any b in B, the claim
    is that A misses b*H2 entirely.
    """
    tag = f"{g.label}: |G1|={g1.order} |H1|={h1.order} |G2|={g2.order} |H2|={h2.order}"
    h1_labels = coset_labels(h1)
    g1_labels = coset_labels(g1)
    big_of = np.empty(h1.index, dtype=g1_labels.dtype)
    big_of[h1_labels] = g1_labels  # the G1-coset holding each H1-coset
    # Row A, column b: an instance when A lies in b's G1-coset but is not b*H1.
    instances = (big_of[:, None] == g1_labels) & (
        np.arange(h1.index)[:, None] != h1_labels
    )
    misses = ~meeting_matrix(h1, h2)[:, coset_labels(h2)]
    stats["R3.1"].tally(misses[instances], tag)


def _instances(
    exhaustive: bool, every: Iterable, draw: Callable[[], object], sample_target: int
) -> tuple[str, list, int]:
    """The instances one law family runs on, with its mode and draw count.

    Exhaustive families run on ``every``; the others on ``sample_target``
    calls of ``draw``.  Instances that are None are left out either way.
    """
    if exhaustive:
        return "exhaustive", [x for x in every if x is not None], 0
    drawn = (draw() for _ in range(sample_target))
    return "sampled", [x for x in drawn if x is not None], sample_target


def run_lemma_suite(
    g: FiniteGroup,
    subgroups: Optional[Sequence[Subgroup]] = None,
    *,
    seed: int = 0,
    sample_target: int = 2000,
    exhaustive_pair_limit: int = DEFAULT_PAIR_LIMIT,
    exhaustive_triple_limit: int = DEFAULT_TRIPLE_LIMIT,
    census_cap: int = DEFAULT_CENSUS_CAP,
    nested_order_limit: int = DEFAULT_NESTED_ORDER_LIMIT,
) -> LemmaSuiteResult:
    """Run every law over one group, exhaustively where affordable.

    Ordered pairs run exhaustively when their count is at most
    ``exhaustive_pair_limit``; subgroup multisets of size three likewise
    against ``exhaustive_triple_limit``; otherwise seeded samples of size
    ``sample_target`` are drawn.  The nested-coset law enumerates fully up
    to ``nested_order_limit`` elements and samples above it.
    """
    subs = list(subgroups) if subgroups is not None else enumerate_subgroups(g)
    m = len(subs)
    full = full_mask(g.n)
    stats = {lid: LemmaStats() for lid in LEMMA_IDS}
    rng = random.Random(seed)
    masks = [s.mask for s in subs]
    order = np.array([s.order for s in subs], dtype=np.int64)
    w = packed(membership(subs))
    # contained[h]: positions of the subgroups K of H, proper[h]: those below |H|;
    # one block of rows at a time, so no m x m matrix is kept
    contained: list[list[int]] = []
    proper: list[list[int]] = []
    for lo in range(0, m, MEET_ROWS):
        inside = meet_orders(w[lo : lo + MEET_ROWS], w) == order  # |H & K| = |K|
        for row, o in zip(inside, order[lo : lo + MEET_ROWS]):
            contained.append(np.flatnonzero(row).tolist())
            proper.append(np.flatnonzero(row & (order < o)).tolist())

    def nested(i1: int, j1: int, i2: int, j2: int) -> Optional[tuple[Subgroup, ...]]:
        """(G1, H1, G2, H2), or None unless H1 & H2 == G1 & G2 elementwise;
        as H1 & H2 lies in G1 & G2, that holds exactly when their orders agree."""
        if (masks[j1] & masks[j2]).bit_count() != (masks[i1] & masks[i2]).bit_count():
            return None
        return subs[i1], subs[j1], subs[i2], subs[j2]

    def draw_nested() -> Optional[tuple[Subgroup, ...]]:
        i1 = rng.randrange(m)
        if not proper[i1]:
            return None
        j1 = rng.choice(proper[i1])
        i2 = rng.randrange(m)
        return nested(i1, j1, i2, rng.choice(contained[i2]))

    # One rng serves pairs, then triples, then nested quadruples, in that
    # order, so a seed names the same samples in every report.
    pair_mode, pairs, samples = _instances(
        m * m <= exhaustive_pair_limit,
        product(subs, repeat=2),
        lambda: (subs[rng.randrange(m)], subs[rng.randrange(m)]),
        sample_target,
    )
    for h, k in pairs:
        _check_pair(g, h, k, stats, full)

    triple_mode, triples, drawn = _instances(
        math.comb(m + 2, 3) <= exhaustive_triple_limit,
        combinations_with_replacement(range(m), 3),
        lambda: sorted(rng.randrange(m) for _ in range(3)),
        sample_target,
    )
    samples += drawn
    _check_triples(
        g,
        subs,
        w,
        np.array(triples, dtype=np.intp).reshape(-1, 3),
        stats,
        census_cap,
        triple_mode == "exhaustive",
    )

    nested_mode, quadruples, drawn = _instances(
        g.n <= nested_order_limit,
        (
            nested(i1, j1, i2, j2)
            for i1 in range(m)
            for j1 in proper[i1]
            for i2 in range(m)
            for j2 in contained[i2]
        ),
        draw_nested,
        sample_target,
    )
    samples += drawn
    for g1, h1, g2, h2 in quadruples:
        _nested_instances(g, g1, h1, g2, h2, stats)

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
