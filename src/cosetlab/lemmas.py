"""Executable law suite over subgroup pairs, triples, and nested coset pairs.

Each law carries a stable string id that downstream reports key on.  The
suite runs exhaustively when the pair/triple spaces are small enough and
falls back to seeded sampling above the configured limits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .bitset import full_mask
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
from .counting import DEFAULT_CENSUS_CAP, census, check_triple_inequalities, r_strict_upper
from .errors import ConsistencyError
from .groups import FiniteGroup
from .subgroups import Subgroup, enumerate_subgroups

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
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(desc)


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
        for ok in separated[~meets].tolist():
            stats["L2.1.v"].record(ok, tag)

    stats["L3.2"].record(int(np.count_nonzero(meets)) == n // overlap, tag)

    stats["L3.3"].record(touching_count(h, k) == k.order // overlap, tag)


def _check_triple(
    gi: Subgroup,
    gj: Subgroup,
    gk: Subgroup,
    stats: dict[str, LemmaStats],
    census_cap: int,
) -> None:
    tag = f"{gi.parent.label}: orders ({gi.order},{gj.order},{gk.order})"
    try:
        cen = census(gi, gj, gk, max_census=census_cap)
    except ConsistencyError as exc:
        stats["L3.2"].record(False, f"{tag}: {exc}")
        return
    if cen.enumerated:
        # The census already cross-checked the enumerated common-point count
        # against the intersection index, so reaching here means it held.
        stats["L3.2"].record(True, tag)

    diag = check_triple_inequalities(gi, gj, gk)
    stats["E3.1"].record(diag.pivot_bounds_ok, tag)
    stats["E3.4"].record(
        diag.divisibility_ok and diag.scaled_divisibility_ok in (None, True), tag
    )
    if (
        diag.common_gcd is not None
        and cen.enumerated
        and cen.n_disjoint is not None
        and cen.n_disjoint > 0
    ):
        rs = [rv.r for rv in diag.r_pair]
        bound = r_strict_upper(diag.common_gcd, rs[0], rs[1], rs[2])
        stats["E3.2"].record(
            diag.r_triple.r < bound,
            f"{tag}: r={diag.r_triple.r} bound={bound}",
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
    for ok in misses[instances].tolist():
        stats["R3.1"].record(ok, tag)


def _containment_lists(subs: Sequence[Subgroup]) -> list[list[int]]:
    out: list[list[int]] = []
    for i, big in enumerate(subs):
        out.append(
            [j for j, small in enumerate(subs) if small.mask & ~big.mask == 0]
        )
    return out


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
    samples = 0

    if m * m <= exhaustive_pair_limit:
        pair_mode = "exhaustive"
        pairs_run = 0
        for h in subs:
            for k in subs:
                _check_pair(g, h, k, stats, full)
                pairs_run += 1
    else:
        pair_mode = "sampled"
        pairs_run = sample_target
        for _ in range(sample_target):
            h = subs[rng.randrange(m)]
            k = subs[rng.randrange(m)]
            _check_pair(g, h, k, stats, full)
            samples += 1

    triple_total = math.comb(m + 2, 3)
    if triple_total <= exhaustive_triple_limit:
        triple_mode = "exhaustive"
        triples_run = 0
        for i, j, t in combinations_with_replacement(range(m), 3):
            _check_triple(subs[i], subs[j], subs[t], stats, census_cap)
            triples_run += 1
    else:
        triple_mode = "sampled"
        triples_run = sample_target
        for _ in range(sample_target):
            i, j, t = sorted(rng.randrange(m) for _ in range(3))
            _check_triple(subs[i], subs[j], subs[t], stats, census_cap)
            samples += 1

    contained = _containment_lists(subs)
    nested_run = 0
    if g.n <= nested_order_limit:
        nested_mode = "exhaustive"
        for i1, g1 in enumerate(subs):
            proper = [j for j in contained[i1] if subs[j].order < g1.order]
            for j1 in proper:
                h1 = subs[j1]
                for i2, g2 in enumerate(subs):
                    need = g1.mask & g2.mask
                    for j2 in contained[i2]:
                        h2 = subs[j2]
                        if h1.mask & h2.mask != need:
                            continue
                        _nested_instances(g, g1, h1, g2, h2, stats)
                        nested_run += 1
    else:
        nested_mode = "sampled"
        for _ in range(sample_target):
            i1 = rng.randrange(m)
            g1 = subs[i1]
            proper = [j for j in contained[i1] if subs[j].order < g1.order]
            if not proper:
                samples += 1
                continue
            h1 = subs[rng.choice(proper)]
            i2 = rng.randrange(m)
            g2 = subs[i2]
            h2 = subs[rng.choice(contained[i2])]
            samples += 1
            if h1.mask & h2.mask != g1.mask & g2.mask:
                continue
            _nested_instances(g, g1, h1, g2, h2, stats)
            nested_run += 1

    return LemmaSuiteResult(
        group_label=g.label,
        group_order=g.n,
        subgroup_count=m,
        pair_mode=pair_mode,
        triple_mode=triple_mode,
        nested_mode=nested_mode,
        pairs_run=pairs_run,
        triples_run=triples_run,
        nested_quadruples_run=nested_run,
        samples=samples,
        seed=seed,
        stats=stats,
    )
