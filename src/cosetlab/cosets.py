"""Left cosets, product sets, and the operations the counting layer builds on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bitset import lowest_bit, row_mask
from .errors import ConsistencyError, EmptyCosetList, ParentMismatch
from .subgroups import Subgroup, _closed_under_mul, _subgroup_from_mask, intersect_all


# product_set's ConsistencyError text
CLOSURE_DISAGREES = "product-set closure test disagrees with the commutation test"


@dataclass(frozen=True, eq=False)
class LeftCoset:
    """A left coset x*H, canonically represented by its minimal element."""

    subgroup: Subgroup
    rep: int
    mask: int

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LeftCoset)
            and other.subgroup == self.subgroup
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.subgroup.parent), self.subgroup.mask, self.mask))

    def __repr__(self) -> str:
        return f"<LeftCoset rep {self.rep} of {self.subgroup!r}>"


@dataclass(frozen=True, eq=False)
class ProductSet:
    """The element set H*K for two subgroups of the same parent."""

    left: Subgroup
    right: Subgroup
    mask: int
    is_subgroup: bool


def coset_mask(x: int, h: Subgroup) -> int:
    row = h.parent.mul[x]
    m = 0
    for e in h.elements:
        m |= 1 << row[e]
    return m


def coset_of(x: int, h: Subgroup) -> LeftCoset:
    if not 0 <= x < h.parent.n:
        raise ValueError(f"element {x} outside 0..{h.parent.n - 1}")
    m = coset_mask(x, h)
    return LeftCoset(h, lowest_bit(m), m)


def coset_labels(h: Subgroup) -> np.ndarray:
    """Read-only array whose entry x is the position of x*H in left_cosets(h).

    Cosets are numbered by their minimal element, which for x*H is the
    smallest entry of row x of the Cayley table over the columns of H.
    Built once per subgroup.
    """
    if h._coset_labels is None:
        mins = h.parent.np_table[:, h.elements].min(axis=1)
        reps, labels = np.unique(mins, return_inverse=True)
        if len(reps) != h.index:
            raise ConsistencyError("coset count differs from the subgroup index")
        labels.flags.writeable = False
        object.__setattr__(h, "_coset_labels", labels)
    return h._coset_labels


def left_cosets(h: Subgroup) -> tuple[LeftCoset, ...]:
    """The coset partition of the parent group, sorted by representative.

    Built once per subgroup from its coset labelling.
    """
    if h._left_cosets is None:
        masks = [0] * h.index
        for x, c in enumerate(coset_labels(h).tolist()):
            masks[c] |= 1 << x
        cosets = tuple(LeftCoset(h, lowest_bit(m), m) for m in masks)
        object.__setattr__(h, "_left_cosets", cosets)
    return h._left_cosets


def double_coset_reps(h: Subgroup, k: Subgroup) -> tuple[LeftCoset, ...]:
    """One left coset of K per double coset H x K: the one holding its least element.

    Left multiplication by H permutes the left cosets of K, and its orbits
    are the double cosets.  Cosets are numbered by their least element, so
    an orbit's least label, taken over the products h*r for h in H and r a
    coset representative, marks the coset kept.  Built once per pair and
    kept on K.
    """
    _pair_parent(h, k)
    if k._double_coset_reps is None:
        object.__setattr__(k, "_double_coset_reps", {})
    memo = k._double_coset_reps
    if h.mask not in memo:
        cosets = left_cosets(k)
        moved = h.parent.np_table[np.ix_(h.elements, [c.rep for c in cosets])]
        orbit_min = coset_labels(k)[moved].min(axis=0).tolist()
        memo[h.mask] = tuple(c for i, c in enumerate(cosets) if orbit_min[i] == i)
    return memo[h.mask]


def meeting_matrix(h: Subgroup, k: Subgroup) -> np.ndarray:
    """Boolean matrix whose entry (a, b) says the a-th coset of H meets the b-th of K."""
    _pair_parent(h, k)
    out = np.zeros((h.index, k.index), dtype=bool)
    out[coset_labels(h), coset_labels(k)] = True
    return out


def _pair_parent(h: Subgroup, k: Subgroup):
    if h.parent is not k.parent:
        raise ParentMismatch("subgroups belong to different groups")
    return h.parent


def _product_row(h: Subgroup, k: Subgroup) -> np.ndarray:
    """Bool row of H*K: the |H| x |K| products h*k, gathered from the table at once."""
    row = np.zeros(h.parent.n, dtype=bool)
    row[h.parent.np_table[np.array(h.elements)[:, None], k.elements]] = True
    return row


def product_set(h: Subgroup, k: Subgroup) -> ProductSet:
    """Materialize H*K.  Closure under multiplication must agree with H*K = K*H."""
    parent = _pair_parent(h, k)
    hk = _product_row(h, k)
    kh = _product_row(k, h)
    closed = _closed_under_mul(parent, hk)
    if closed != (hk == kh).all():
        raise ConsistencyError(CLOSURE_DISAGREES)
    return ProductSet(h, k, row_mask(hk), closed)


def promote(p: ProductSet) -> Subgroup:
    """Turn a product set that is a subgroup into a Subgroup."""
    if not p.is_subgroup:
        raise ValueError("product set is not a subgroup")
    return _subgroup_from_mask(p.left.parent, p.mask)


def cosets_of_k_in_product(h: Subgroup, k: Subgroup) -> int:
    """How many left cosets of K tile H*K, counted over the products h*k."""
    parent = _pair_parent(h, k)
    products = parent.np_table[np.ix_(h.elements, k.elements)]
    return len(np.unique(coset_labels(k)[products]))


def disjointable(h: Subgroup, k: Subgroup) -> bool:
    """Whether some left coset of H misses some left coset of K.

    Decided by |H*K| < |G|; the size comes from |H||K| / |H&K|, which the
    test suite cross-checks against the materialized product set.
    """
    parent = _pair_parent(h, k)
    overlap = (h.mask & k.mask).bit_count()
    return h.order * k.order // overlap < parent.n


def coset_meet(cosets: Sequence[LeftCoset]) -> Optional[LeftCoset]:
    """Intersection of finitely many cosets: empty or a coset of the meet subgroup."""
    if not cosets:
        raise EmptyCosetList("coset_meet needs at least one coset")
    parent = cosets[0].subgroup.parent
    for c in cosets[1:]:
        if c.subgroup.parent is not parent:
            raise ParentMismatch("cosets belong to different groups")
    m = cosets[0].mask
    for c in cosets[1:]:
        m &= c.mask
    if m == 0:
        return None
    meet_sub = intersect_all([c.subgroup for c in cosets])
    if m.bit_count() != meet_sub.order:
        raise ConsistencyError("nonempty coset meet is not a coset of the meet subgroup")
    return LeftCoset(meet_sub, lowest_bit(m), m)


def touching_count(h: Subgroup, k: Subgroup) -> int:
    """How many cosets of H intersect K, counted over the elements of K."""
    _pair_parent(h, k)
    return len(np.unique(coset_labels(h)[list(k.elements)]))
