"""Counting layer: rescaled intersection indices and the coset-triple census."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cosets import coset_labels, meeting_matrix
from .errors import ConsistencyError, CounterOverflow, ParentMismatch
from .subgroups import Subgroup, intersect_all

DEFAULT_CENSUS_CAP = 10**6
_U64_MAX = 2**64 - 1


def _checked(value: int, what: str) -> int:
    if value > _U64_MAX:
        raise CounterOverflow(f"{what} = {value} exceeds the 64-bit counter range")
    return value


@dataclass(frozen=True)
class RValue:
    """Intersection index of a subgroup tuple divided by the lcm of the indices."""

    subgroups: tuple[Subgroup, ...]
    intersection_index: int
    lcm_index: int
    r: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.subgroups)


def r_value(subgroups: Sequence[Subgroup]) -> RValue:
    if len(subgroups) not in (2, 3):
        raise ValueError("r_value takes two or three subgroups")
    parent = subgroups[0].parent
    for s in subgroups[1:]:
        if s.parent is not parent:
            raise ParentMismatch("subgroups belong to different groups")
    meet = intersect_all(list(subgroups))
    lcm = math.lcm(*(s.index for s in subgroups))
    q, rem = divmod(meet.index, lcm)
    if rem:
        # Each index divides the intersection index, so the lcm must too.
        raise ConsistencyError(
            f"intersection index {meet.index} not divisible by lcm {lcm}"
        )
    return RValue(tuple(subgroups), meet.index, lcm, q)


@dataclass(frozen=True)
class TripleCensus:
    """Counts over all triples (C_i, C_j, C_k) of left cosets of three subgroups.

    ``s_pair`` holds the triples where the named pair of cosets meets, ordered
    (ij, ik, jk); ``s_pair_pair`` the triples where both named pairs meet,
    ordered (ij&ik, ij&jk, ik&jk); ``s_triple`` those where all three pairs
    meet; ``meet_all`` those with a common point.  ``s_triple`` and
    ``n_disjoint`` need the enumeration pass, so they are None when the cap
    forced that pass to be skipped.
    """

    total: int
    s_pair: tuple[int, int, int]
    s_pair_pair: tuple[int, int, int]
    s_triple: Optional[int]
    meet_all: int
    n_disjoint: Optional[int]
    enumerated: bool


def _closed_forms(gi: Subgroup, gj: Subgroup, gk: Subgroup) -> dict:
    n = gi.parent.n
    subs = (gi, gj, gk)
    idx = [s.index for s in subs]
    pair_idx = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        mask = subs[a].mask & subs[b].mask
        pair_idx[(a, b)] = n // mask.bit_count()
    meet_mask = gi.mask & gj.mask & gk.mask
    meet_index = n // meet_mask.bit_count()

    total = _checked(idx[0] * idx[1] * idx[2], "census total")
    s_pair = tuple(
        _checked(pair_idx[(a, b)] * idx[c], "pair slice")
        for (a, b), c in (((0, 1), 2), ((0, 2), 1), ((1, 2), 0))
    )
    # Pivot orders: share subgroup i, then j, then k.
    pp = []
    for (a, b), (c, d), pivot in (
        ((0, 1), (0, 2), 0),
        ((0, 1), (1, 2), 1),
        ((0, 2), (1, 2), 2),
    ):
        num = pair_idx[(a, b)] * pair_idx[(c, d)]
        q, rem = divmod(num, idx[pivot])
        if rem:
            raise ConsistencyError("pair-pair closed form is not integral")
        pp.append(_checked(q, "pair-pair slice"))
    return {
        "total": total,
        "s_pair": s_pair,
        "s_pair_pair": tuple(pp),
        "meet_all": _checked(meet_index, "common-point count"),
    }


def _enumerate_counts(gi: Subgroup, gj: Subgroup, gk: Subgroup) -> dict:
    mij = meeting_matrix(gi, gj)
    mik = meeting_matrix(gi, gk)
    mjk = meeting_matrix(gj, gk)
    shape = (gi.index, gj.index, gk.index)

    tij = np.broadcast_to(mij[:, :, None], shape)
    tik = np.broadcast_to(mik[:, None, :], shape)
    tjk = np.broadcast_to(mjk[None, :, :], shape)

    # A coset triple has a common point x exactly when it is x's label triple.
    li, lj, lk = coset_labels(gi), coset_labels(gj), coset_labels(gk)
    meet_all = len(np.unique((li * shape[1] + lj) * shape[2] + lk))

    return {
        "total": shape[0] * shape[1] * shape[2],
        "s_pair": (
            int(np.count_nonzero(tij)),
            int(np.count_nonzero(tik)),
            int(np.count_nonzero(tjk)),
        ),
        "s_pair_pair": (
            int(np.count_nonzero(tij & tik)),
            int(np.count_nonzero(tij & tjk)),
            int(np.count_nonzero(tik & tjk)),
        ),
        "s_triple": int(np.count_nonzero(tij & tik & tjk)),
        "meet_all": meet_all,
        "n_disjoint": int(np.count_nonzero(~tij & ~tik & ~tjk)),
    }


def census(
    gi: Subgroup,
    gj: Subgroup,
    gk: Subgroup,
    *,
    max_census: int = DEFAULT_CENSUS_CAP,
) -> TripleCensus:
    """Count coset triples by closed forms and, below the cap, by enumeration.

    The two routes must agree on every field both can produce; disagreement
    raises ConsistencyError because it can only mean a bug.
    """
    parent = gi.parent
    if gj.parent is not parent or gk.parent is not parent:
        raise ParentMismatch("census subgroups belong to different groups")
    closed = _closed_forms(gi, gj, gk)
    if closed["total"] > max_census:
        return TripleCensus(
            total=closed["total"],
            s_pair=closed["s_pair"],
            s_pair_pair=closed["s_pair_pair"],
            s_triple=None,
            meet_all=closed["meet_all"],
            n_disjoint=None,
            enumerated=False,
        )

    enum = _enumerate_counts(gi, gj, gk)
    for key in ("total", "s_pair", "s_pair_pair", "meet_all"):
        if closed[key] != enum[key]:
            raise ConsistencyError(
                f"census {key}: closed form {closed[key]} != enumeration {enum[key]}"
            )
    if enum["s_triple"] < enum["meet_all"]:
        raise ConsistencyError("three pairwise meets undercount the common points")
    incl_excl = (
        enum["total"]
        - sum(enum["s_pair"])
        + sum(enum["s_pair_pair"])
        - enum["s_triple"]
    )
    if incl_excl != enum["n_disjoint"]:
        raise ConsistencyError("inclusion-exclusion disagrees with the disjoint count")
    return TripleCensus(
        total=enum["total"],
        s_pair=enum["s_pair"],
        s_pair_pair=enum["s_pair_pair"],
        s_triple=enum["s_triple"],
        meet_all=enum["meet_all"],
        n_disjoint=enum["n_disjoint"],
        enumerated=True,
    )


def r_strict_upper(d: int, r_ij: int, r_ik: int, r_jk: int) -> int:
    """Strict upper bound for the triple r-value when all pair gcds equal d."""
    return d * d - d * (r_ij + r_ik + r_jk) + (r_ij * r_ik + r_ij * r_jk + r_ik * r_jk)


def rijk_strict_upper(r_ij: int, r_ik: int, r_jk: int) -> int:
    """The d = 3 case of r_strict_upper."""
    return r_strict_upper(3, r_ij, r_ik, r_jk)


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

    @property
    def all_ok(self) -> bool:
        return (
            self.pivot_bounds_ok
            and self.divisibility_ok
            and self.scaled_divisibility_ok in (None, True)
        )


def check_triple_inequalities(
    gi: Subgroup, gj: Subgroup, gk: Subgroup
) -> TripleDiagnostics:
    """Index-form pivot bounds and divisibility facts for one triple.

    Pivot bound: for each ordering (a, b, c) of the triple,
    [Ga&Gb : Ga&Gb&Gc] <= [Ga : Ga&Gc].  Divisibility: each pairwise
    intersection index divides the triple intersection index.  When the
    three pairwise index gcds agree, the rescaled form r_ab | q_c * r_abc
    is checked as well.
    """
    subs = (gi, gj, gk)
    parent = gi.parent
    if gj.parent is not parent or gk.parent is not parent:
        raise ParentMismatch("subgroups belong to different groups")
    n = parent.n
    triple_mask = gi.mask & gj.mask & gk.mask
    triple_order = triple_mask.bit_count()

    pair_r = (
        r_value((gi, gj)),
        r_value((gi, gk)),
        r_value((gj, gk)),
    )
    triple_r = r_value(subs)

    bounds_ok = True
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if len({a, b, c}) != 3:
                    continue
                ab = (subs[a].mask & subs[b].mask).bit_count()
                ac = (subs[a].mask & subs[c].mask).bit_count()
                left = ab // triple_order
                right = subs[a].order // ac
                if left > right:
                    bounds_ok = False

    div_ok = True
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pair_index = n // (subs[a].mask & subs[b].mask).bit_count()
        if triple_r.intersection_index % pair_index:
            div_ok = False

    g01 = math.gcd(subs[0].index, subs[1].index)
    g02 = math.gcd(subs[0].index, subs[2].index)
    g12 = math.gcd(subs[1].index, subs[2].index)
    common = g01 if g01 == g02 == g12 else None
    scaled_ok: Optional[bool] = None
    if common is not None:
        scaled_ok = True
        qs = tuple(s.index // common for s in subs)
        pair_by_other = {2: pair_r[0], 1: pair_r[1], 0: pair_r[2]}
        for other in (0, 1, 2):
            if (qs[other] * triple_r.r) % pair_by_other[other].r:
                scaled_ok = False
    return TripleDiagnostics(
        indices=tuple(s.index for s in subs),
        r_pair=pair_r,
        r_triple=triple_r,
        pivot_bounds_ok=bounds_ok,
        divisibility_ok=div_ok,
        common_gcd=common,
        scaled_divisibility_ok=scaled_ok,
    )
