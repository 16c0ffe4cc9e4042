"""Counting layer: rescaled intersection indices and the coset-triple census."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from .bitset import blocks, popcounts
from .cosets import coset_labels, meeting_matrix
from .errors import ConsistencyError, CounterOverflow, ParentMismatch
from .subgroups import Lattice, Subgroup, orbit_labels

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
        raise ConsistencyError(_not_divisible(index, lcm))
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


def _triples(m: int) -> np.ndarray:
    """Every triple i <= j <= t of range(m), as an N x 3 int64 array in
    ``combinations_with_replacement`` order."""
    i, j = np.triu_indices(m)  # the pairs i <= j, in that order
    count = m - j  # t runs over j, ..., m-1
    t = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - j, count)
    return np.stack([np.repeat(i, count), np.repeat(j, count), t], axis=1)


def triple_orbits(subs: Sequence[Subgroup]) -> np.ndarray:
    """Orbit label of every subgroup triple of a lattice under its ``action``,
    in ``combinations_with_replacement`` order: the position of the least
    triple of its orbit (``subgroups.orbit_labels``)."""
    lattice = Lattice.of(subs)
    return orbit_labels(lattice.action, _triples(len(lattice)))


def _orders(w: np.ndarray, triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orders of H_i, H_j, H_t (3 x N) and of H_i&H_j, H_i&H_t, H_j&H_t,
    H_i&H_j&H_t (4 x N) for every row (i, j, t) of ``triples``: popcounts of
    the gathered membership words ``w`` and of their ANDs, int64."""
    rows = [w[triples[:, c]] for c in range(3)]
    ij = rows[0] & rows[1]
    meet = [ij, rows[0] & rows[2], rows[1] & rows[2], ij & rows[2]]
    return np.stack([popcounts(r) for r in rows]), np.stack([popcounts(x) for x in meet])


def _closed_census(w: np.ndarray, n: int, triples: np.ndarray) -> dict:
    """The closed forms of ``census`` for every row (i, j, t) of ``triples``.

    ``w`` holds the packed membership rows; subgroup, pair and triple orders
    are popcounts of the gathered rows and of their ANDs (``_orders``).  The
    work runs in blocks of triples (``bitset.blocks``), so besides the
    result only arrays of one block are held.  ``integral`` is False on the
    rows whose pair-pair closed form is not integral; their ``s_pair_pair``
    means nothing.
    """
    size = len(triples)
    out = {
        "total": np.empty(size, dtype=np.int64),
        "s_pair": np.empty((size, 3), dtype=np.int64),
        "s_pair_pair": np.empty((size, 3), dtype=np.int64),
        "meet_all": np.empty(size, dtype=np.int64),
        "integral": np.ones(size, dtype=bool),
    }
    # per triple, the words of its 3 gathered and 4 ANDed membership rows
    for at in blocks(np.full(size, 7 * w.shape[1])):
        order, meet = _orders(w, triples[at])
        idx = n // order
        p_ij, p_it, p_jt = n // meet[:3]
        out["total"][at] = idx[0] * idx[1] * idx[2]
        for c, (x, y) in enumerate(((p_ij, idx[2]), (p_it, idx[1]), (p_jt, idx[0]))):
            np.multiply(x, y, out=out["s_pair"][at, c])
        # Pivot orders: share subgroup i, then j, then t.
        for c, (x, y) in enumerate(((p_ij, p_it), (p_ij, p_jt), (p_it, p_jt))):
            num = x * y
            out["integral"][at] &= num % idx[c] == 0
            np.floor_divide(num, idx[c], out=out["s_pair_pair"][at, c])
        out["meet_all"][at] = n // meet[3]
    return out


def _census_failures(closed: dict, got: dict, member: np.ndarray) -> dict[int, tuple[str, str]]:
    """The checks of ``census`` on aligned rows of closed forms and counts.

    ``got`` holds each row's enumerated counts: its own for a representative,
    its representative's for a ``member``.  A member's ``s_pair`` and
    ``s_pair_pair`` are compared as sorted triples, because conjugation can
    swap positions of equal order, and its inclusion-exclusion uses its own
    closed pair counts.  Returns, by position, each failing row's first
    failing key and why.
    """
    fails = {}
    for key in closed:
        c, e = closed[key], got[key]
        if c.ndim == 2:
            c = np.where(member[:, None], np.sort(c, axis=1), c)
            e = np.where(member[:, None], np.sort(e, axis=1), e)
        fails[key] = (c != e).any(axis=1) if c.ndim == 2 else c != e
    fails["s_triple"] = got["s_triple"] < got["meet_all"]
    own = {
        key: np.where(member, closed[key].T, got[key].T)
        for key in ("total", "s_pair", "s_pair_pair")
    }
    incl_excl = (
        own["total"] - own["s_pair"].sum(axis=0) + own["s_pair_pair"].sum(axis=0) - got["s_triple"]
    )
    fails["n_disjoint"] = incl_excl != got["n_disjoint"]
    out = {}
    for p in np.flatnonzero(np.logical_or.reduce(list(fails.values()))).tolist():
        key = next(k for k, f in fails.items() if f[p])
        if key in closed:
            why = f"closed form {closed[key][p].tolist()} != enumeration {got[key][p].tolist()}"
        elif key == "s_triple":
            why = "three pairwise meets undercount the common points"
        else:
            why = "inclusion-exclusion disagrees with the disjoint count"
        out[p] = key, why
    return out


def _distinct_per_row(keys: np.ndarray) -> np.ndarray:
    """How many distinct values each row of ``keys`` (at least one column) holds."""
    return 1 + np.count_nonzero(np.diff(np.sort(keys, axis=1), axis=1), axis=1)


def _meeting_pairs(
    x: np.ndarray, y: np.ndarray, width: np.ndarray, off_x: np.ndarray, off_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct label pairs (x, y) of every row of the B x n label arrays
    ``x`` and ``y``, y below the row's ``width``: the row of each pair, and
    its x and y numbered through the block, a row's from ``off_x`` and
    ``off_y`` on, found from keys that pack them x above y, so rows share none."""
    shift = int(off_y[-1] + width[-1]).bit_length()
    flat = np.sort((off_x[:, None] + x) << shift | (off_y[:, None] + y), axis=1).ravel()
    new = np.ones(flat.shape, dtype=bool)
    new[1:] = flat[1:] != flat[:-1]
    pairs = np.compress(new, flat)
    r = np.repeat(np.arange(len(x)), np.count_nonzero(new.reshape(x.shape), axis=1))
    return r, pairs >> shift, pairs & ((1 << shift) - 1)


def _enumerate_rows(labels: np.ndarray, index: np.ndarray, triples: np.ndarray) -> dict:
    """``_enumerate_counts`` of every row (i, j, t) of ``triples``, on whole arrays.

    ``labels`` holds the lattice's coset labels, one row per subgroup, and
    ``index`` the subgroup indices, a, b and c for H_i, H_j and H_t.  The
    coset pairs that meet are a row's distinct label pairs
    (``_meeting_pairs``), with a block's cosets numbered row after row:
    pair counts are their numbers, pair-pair counts dot products of how
    many each coset meets.  Left
    multiplication permutes the cosets of H_i transitively and keeps every
    meet, so each lies in as many triples of each kind as H_i itself, the
    coset of point 0: ``s_triple`` is a times the meeting pairs of an
    H_j-coset and an H_t-coset that both meet H_i, and ``n_disjoint`` a
    times the pairs that do not meet of an H_j-coset and an H_t-coset that
    both miss H_i, counted directly, not by inclusion-exclusion.  Triples
    go in blocks cut by ``bitset.blocks``.
    """
    size, n = len(triples), labels.shape[1]
    out = {
        "total": np.empty(size, dtype=np.int64),
        "s_pair": np.empty((size, 3), dtype=np.int64),
        "s_pair_pair": np.empty((size, 3), dtype=np.int64),
        "s_triple": np.empty(size, dtype=np.int64),
        "meet_all": np.empty(size, dtype=np.int64),
        "n_disjoint": np.empty(size, dtype=np.int64),
    }
    # n labels per triple in each label array
    for at in blocks(np.full(size, n)):
        li, lj, lt = labels[triples[at]].transpose(1, 0, 2)
        a, b, c = index[triples[at]].T
        off_a, off_b, off_c = (np.cumsum(x) - x for x in (a, b, c))
        n_a, n_b, n_c = (int(x.sum()) for x in (a, b, c))
        r_ij, x_ij, y_ij = _meeting_pairs(li, lj, b, off_a, off_b)
        r_it, x_it, z_it = _meeting_pairs(li, lt, c, off_a, off_c)
        r_jt, y_jt, z_jt = _meeting_pairs(lj, lt, c, off_b, off_c)
        # how many cosets each numbered coset meets
        row_ij, col_ij = np.bincount(x_ij, minlength=n_a), np.bincount(y_ij, minlength=n_b)
        row_it, col_it = np.bincount(x_it, minlength=n_a), np.bincount(z_it, minlength=n_c)
        row_jt, col_jt = np.bincount(y_jt, minlength=n_b), np.bincount(z_jt, minlength=n_c)
        meets = [np.bincount(r, minlength=len(a)) for r in (r_ij, r_it, r_jt)]
        out["total"][at] = a * b * c
        out["s_pair"][at] = np.stack([meets[0] * c, meets[1] * b, meets[2] * a], axis=1)
        dots = ((row_ij * row_it, off_a), (col_ij * row_jt, off_b), (col_it * col_jt, off_c))
        out["s_pair_pair"][at] = np.stack([np.add.reduceat(v, o) for v, o in dots], axis=1)
        # A coset triple has a common point x exactly when it is x's label triple.
        out["meet_all"][at] = _distinct_per_row((li * b[:, None] + lj) * c[:, None] + lt)
        # the cosets of H_j and H_t that meet H_i, the coset of point 0
        near_y, near_z = np.zeros(n_b, dtype=bool), np.zeros(n_c, dtype=bool)
        near_y[(lj + off_b[:, None])[li == 0]] = near_z[(lt + off_c[:, None])[li == 0]] = True
        y_in, z_in = near_y[y_jt], near_z[z_jt]
        far = (b - row_ij[off_a]) * (c - row_it[off_a])  # pairs of cosets that both miss H_i
        out["s_triple"][at] = a * np.bincount(r_jt[y_in & z_in], minlength=len(a))
        out["n_disjoint"][at] = a * (far - np.bincount(r_jt[~y_in & ~z_in], minlength=len(a)))
    return out


def _orbit_census(
    labels: np.ndarray,
    w: np.ndarray,
    triples: np.ndarray,
    orbits: np.ndarray,
    max_census: int,
) -> tuple[dict[str, np.ndarray], dict[int, str]]:
    """``census`` of every row (i, j, t) of ``triples``, one enumeration per orbit.

    ``labels`` holds the lattice's coset labels, one row per subgroup
    (``Lattice.coset_labels``), ``w`` its packed membership rows, and
    ``orbits`` the orbit label of each row: the position of the least row of
    its orbit, so ``np.arange`` makes every row its own orbit.  Closed forms
    come from ``_closed_census``; the rows within ``max_census`` that are
    their own label are enumerated (``_enumerate_rows``).  Then every
    enumerated row is checked against its representative's enumeration,
    in blocks of rows (``_census_failures``), and takes its
    ``s_triple`` and ``n_disjoint``.  A row whose pair-pair closed form is
    not integral fails on that alone; its other checks are skipped.

    Returns ``total``, ``s_pair``, ``s_pair_pair``, ``s_triple``,
    ``meet_all``, ``n_disjoint`` and ``enumerated``, one entry per row
    (``s_triple`` and ``n_disjoint`` are 0 where not enumerated or failed),
    and the ConsistencyError text of every failing row, by position in
    ascending order; the text names the row's orbit's least row when that
    is another one.
    """
    n = labels.shape[1]
    if n**3 > np.iinfo(np.int64).max:
        raise CounterOverflow(f"census counts of a group of order {n} exceed int64")
    closed = _closed_census(w, n, triples)
    integral = closed.pop("integral")
    enumerated = closed["total"] <= max_census
    # a member's total is its representative's, so the representative of
    # every enumerated row is enumerated too
    reps = np.flatnonzero((orbits == np.arange(len(orbits))) & enumerated)
    index = n // popcounts(w)
    rep_got = _enumerate_rows(labels, index, triples[reps])
    got = {key: np.zeros(len(triples), dtype=np.int64) for key in ("s_triple", "n_disjoint")}
    not_integral = ("s_pair_pair", "pair-pair closed form is not integral")
    failures = {p: not_integral for p in np.flatnonzero(~integral).tolist()}
    checked = np.flatnonzero(enumerated & integral)
    # per row, the 10 counts of its representative's enumeration, gathered
    for at in blocks(np.full(len(checked), 10)):
        part = checked[at]
        slot = np.searchsorted(reps, orbits[part])
        part_got = {key: v[slot] for key, v in rep_got.items()}
        for key in got:
            got[key][part] = part_got[key]
        found = _census_failures(
            {key: v[part] for key, v in closed.items()}, part_got, orbits[part] != part
        )
        failures.update((int(part[p]), f) for p, f in found.items())
    errors = {}
    for p in sorted(failures):
        at, rep = tuple(triples[p].tolist()), tuple(triples[orbits[p]].tolist())
        whose = "" if orbits[p] == p else f" (orbit of {rep})"
        key, why = failures[p]
        errors[p] = f"census triple {at}{whose} {key}: {why}"
    return {**closed, **got, "enumerated": enumerated}, errors


def lattice_census(
    subs: Sequence[Subgroup],
    *,
    max_census: int = DEFAULT_CENSUS_CAP,
) -> tuple[dict[str, np.ndarray], dict[int, str]]:
    """The census of every subgroup triple of a lattice, on whole arrays.

    The triples (i, j, t), i <= j <= t, are one N x 3 array in
    ``combinations_with_replacement`` order (``_triples``).  Conjugation by
    x maps the coset triples of (H_i, H_j, H_t) one to one onto those of the
    conjugate triple and keeps every meet, so every count is constant on an
    orbit of triples (``triple_orbits``).  The triples go through
    ``_orbit_census`` with those orbits: only the least triple of each orbit
    is enumerated, and the others, the members, are checked against its
    enumeration.  An abelian group has no conjugation, and every triple is
    enumerated.  Otherwise ``subs`` must be closed under conjugation, as a
    whole lattice is; a conjugate missing from it raises ConsistencyError.

    Returns what ``_orbit_census`` returns: one entry per triple, and the
    ConsistencyError text of every triple that fails a check, by position;
    ``representative`` is True where the triple is the least of its orbit,
    so its sum is the number of orbits, and ``subgroup_orders`` holds the
    triple's three subgroup orders.  Counts are int64, so the group order
    must stay below 2**21.
    """
    lat = Lattice.of(subs)
    labels = lat.coset_labels(np.arange(len(lat)))
    triples = _triples(len(lat))
    orbits = orbit_labels(lat.action, triples)
    counts, errors = _orbit_census(labels, lat.words, triples, orbits, max_census)
    counts["representative"] = orbits == np.arange(len(orbits))
    counts["subgroup_orders"] = lat.order[triples]
    return counts, errors


def r_strict_upper(d: int, r_ij: int, r_ik: int, r_jk: int) -> int:
    """Strict upper bound for the triple r-value when all pair gcds equal d."""
    return d * d - d * (r_ij + r_ik + r_jk) + (r_ij * r_ik + r_ij * r_jk + r_ik * r_jk)


@dataclass(frozen=True)
class TripleInequalities:
    """Index-form pivot bounds and divisibility facts for N triples, one
    entry per triple.

    Pivot bound: for each ordering (a, b, c) of a triple,
    [Ga&Gb : Ga&Gb&Gc] <= [Ga : Ga&Gc].  Divisibility: each pairwise
    intersection index divides the triple intersection index.  Where the
    three pairwise index gcds agree, the rescaled form r_ab | q_c * r_abc
    is checked as well.  The tests hold every field to the per-triple
    oracle ``tests/helpers.check_triple_inequalities``.

    ``index``, ``lcm`` and ``r`` are 4 x N, for the pairs ij, ik, jk and then
    the triple: the intersection index, the lcm of the subgroup indices, and
    their quotient.  The other fields mean nothing on a triple that is not
    ``integral``.  ``common_gcd`` is 0 where the three pair gcds differ, and
    ``scaled_divisibility_ok`` is True there; ``r_bound`` is
    ``r_strict_upper`` of the common gcd and the pair r-values.
    """

    index: np.ndarray
    lcm: np.ndarray
    r: np.ndarray
    pivot_bounds_ok: np.ndarray
    divisibility_ok: np.ndarray
    common_gcd: np.ndarray
    scaled_divisibility_ok: np.ndarray
    r_bound: np.ndarray

    @property
    def integral(self) -> np.ndarray:
        return (self.index % self.lcm == 0).all(axis=0)

    def integrality_error(self, p: int) -> str:
        """The ConsistencyError text of triple p's first r-value that is not
        integral, as ``r_value`` words it."""
        q = int(np.argmax(self.index[:, p] % self.lcm[:, p] != 0))
        return _not_divisible(int(self.index[q, p]), int(self.lcm[q, p]))


def _not_divisible(index: int, lcm: int) -> str:
    return f"intersection index {index} not divisible by lcm {lcm}"


def triple_inequalities(w: np.ndarray, n: int, triples: np.ndarray) -> TripleInequalities:
    """The checks of ``TripleInequalities`` on every row (i, j, k) of ``triples``.

    ``w`` holds the lattice's packed membership rows, ``n`` is the group
    order.  Subgroup, pair and triple orders are popcounts of the rows and
    of their ANDs, gathered per triple, so no lattice x lattice matrix is
    built.  All arithmetic is exact int64.
    """
    o, meet = _orders(w, triples)
    idx = n // o
    pairs = ((0, 1), (0, 2), (1, 2))
    index = n // meet
    lcm = np.stack([np.lcm(idx[a], idx[b]) for a, b in pairs] + [np.lcm.reduce(idx)])
    r = index // lcm
    # The order of the pair that leaves out position c, for c = 0, 1, 2.
    pair_without = meet[2::-1]
    bounds_ok = np.logical_and.reduce(
        [pair_without[c] // meet[3] <= o[a] // pair_without[b] for a, b, c in permutations(range(3))]
    )
    div_ok = np.logical_and.reduce([index[3] % (n // x) == 0 for x in pair_without])

    g_ij, g_ik, g_jk = (np.gcd(idx[a], idx[b]) for a, b in pairs)
    common = np.where((g_ij == g_ik) & (g_ik == g_jk), g_ij, 0)
    # r[2 - c] is the pair without c; an r-value is 0 only off the integral triples
    scaled_ok = (common == 0) | np.logical_and.reduce(
        [
            (idx[c] // np.maximum(common, 1) * r[3]) % np.maximum(r[2 - c], 1) == 0
            for c in range(3)
        ]
    )
    return TripleInequalities(
        index=index,
        lcm=lcm,
        r=r,
        pivot_bounds_ok=bounds_ok,
        divisibility_ok=div_ok,
        common_gcd=common,
        scaled_divisibility_ok=scaled_ok,
        r_bound=r_strict_upper(common, r[0], r[1], r[2]),
    )
