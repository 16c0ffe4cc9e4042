"""Counting layer: rescaled intersection indices and the coset-triple census."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from .cosets import coset_labels, meeting_matrix
from .errors import ConsistencyError, CounterOverflow, ParentMismatch
from .subgroups import Subgroup

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


def _r_from_order(subgroups: Sequence[Subgroup], meet_order: int) -> RValue:
    """The r-value of a tuple whose intersection has ``meet_order`` elements."""
    index = subgroups[0].parent.n // meet_order
    lcm = math.lcm(*(s.index for s in subgroups))
    q, rem = divmod(index, lcm)
    if rem:
        # Each index divides the intersection index, so the lcm must too.
        raise ConsistencyError(f"intersection index {index} not divisible by lcm {lcm}")
    return RValue(tuple(subgroups), index, lcm, q)


def r_value(subgroups: Sequence[Subgroup]) -> RValue:
    if len(subgroups) not in (2, 3):
        raise ValueError("r_value takes two or three subgroups")
    parent = subgroups[0].parent
    meet = subgroups[0].mask
    for s in subgroups[1:]:
        if s.parent is not parent:
            raise ParentMismatch("subgroups belong to different groups")
        meet &= s.mask
    return _r_from_order(subgroups, meet.bit_count())


def _meet_orders(gi: Subgroup, gj: Subgroup, gk: Subgroup) -> tuple[int, int, int, int]:
    """|Gi&Gj|, |Gi&Gk|, |Gj&Gk| and |Gi&Gj&Gk|, each a popcount of ANDed masks."""
    ij, ik, jk = gi.mask & gj.mask, gi.mask & gk.mask, gj.mask & gk.mask
    return ij.bit_count(), ik.bit_count(), jk.bit_count(), (ij & gk.mask).bit_count()


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
    idx = (gi.index, gj.index, gk.index)
    o_ij, o_ik, o_jk, o_all = _meet_orders(gi, gj, gk)
    p_ij, p_ik, p_jk = n // o_ij, n // o_ik, n // o_jk

    total = _checked(idx[0] * idx[1] * idx[2], "census total")
    s_pair = tuple(
        _checked(v, "pair slice") for v in (p_ij * idx[2], p_ik * idx[1], p_jk * idx[0])
    )
    # Pivot orders: share subgroup i, then j, then k.
    pp = []
    for num, pivot in ((p_ij * p_ik, idx[0]), (p_ij * p_jk, idx[1]), (p_ik * p_jk, idx[2])):
        q, rem = divmod(num, pivot)
        if rem:
            raise ConsistencyError("pair-pair closed form is not integral")
        pp.append(_checked(q, "pair-pair slice"))
    return {
        "total": total,
        "s_pair": s_pair,
        "s_pair_pair": tuple(pp),
        "meet_all": _checked(n // o_all, "common-point count"),
    }


def _enumerate_counts(gi: Subgroup, gj: Subgroup, gk: Subgroup) -> dict:
    """Count the coset triples from the three meeting matrices.

    With 0/1 matrices Mij (a x b), Mik (a x c) and Mjk (b x c), the triples
    where ij and ik meet number rowsum(Mij) . rowsum(Mik), and those where
    all three pairs meet sum((Mij @ Mjk) * Mik); the disjoint count is the
    same product over the complements.  Integer matrices keep the products
    exact, and off the BLAS threads.
    """
    mij = meeting_matrix(gi, gj).astype(np.int64)
    mik = meeting_matrix(gi, gk).astype(np.int64)
    mjk = meeting_matrix(gj, gk).astype(np.int64)
    a, b, c = gi.index, gj.index, gk.index
    row_ij, col_ij = mij.sum(axis=1), mij.sum(axis=0)
    row_ik, col_ik = mik.sum(axis=1), mik.sum(axis=0)
    row_jk, col_jk = mjk.sum(axis=1), mjk.sum(axis=0)

    # A coset triple has a common point x exactly when it is x's label triple.
    li, lj, lk = coset_labels(gi), coset_labels(gj), coset_labels(gk)
    meet_all = len(np.unique((li * b + lj) * c + lk))

    return {
        "total": a * b * c,
        "s_pair": (int(row_ij.sum()) * c, int(row_ik.sum()) * b, int(row_jk.sum()) * a),
        "s_pair_pair": (
            int(row_ij @ row_ik),
            int(col_ij @ row_jk),
            int(col_ik @ col_jk),
        ),
        "s_triple": int(((mij @ mjk) * mik).sum()),
        "meet_all": meet_all,
        "n_disjoint": int((((1 - mij) @ (1 - mjk)) * (1 - mik)).sum()),
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
        return TripleCensus(**closed, s_triple=None, n_disjoint=None, enumerated=False)

    enum = _enumerate_counts(gi, gj, gk)
    for key in closed:
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
    return TripleCensus(**enum, enumerated=True)


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
    o_ij, o_ik, o_jk, o_all = _meet_orders(gi, gj, gk)
    # The order of the pair that leaves out position c, for c = 0, 1, 2.
    pair_without = (o_jk, o_ik, o_ij)

    pair_r = (
        _r_from_order((gi, gj), o_ij),
        _r_from_order((gi, gk), o_ik),
        _r_from_order((gj, gk), o_jk),
    )
    triple_r = _r_from_order(subs, o_all)

    bounds_ok = all(
        pair_without[c] // o_all <= subs[a].order // pair_without[b]
        for a, b, c in permutations(range(3))
    )
    div_ok = all(triple_r.intersection_index % (n // o) == 0 for o in pair_without)

    gcds = {math.gcd(subs[a].index, subs[b].index) for a, b in ((0, 1), (0, 2), (1, 2))}
    common = gcds.pop() if len(gcds) == 1 else None
    scaled_ok: Optional[bool] = None
    if common is not None:
        # pair_r runs ij, ik, jk, so pair_r[2 - c] is the pair without c.
        scaled_ok = all(
            (subs[c].index // common * triple_r.r) % pair_r[2 - c].r == 0 for c in range(3)
        )
    return TripleDiagnostics(
        indices=tuple(s.index for s in subs),
        r_pair=pair_r,
        r_triple=triple_r,
        pivot_bounds_ok=bounds_ok,
        divisibility_ok=div_ok,
        common_gcd=common,
        scaled_divisibility_ok=scaled_ok,
    )
