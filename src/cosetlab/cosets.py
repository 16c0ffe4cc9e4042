"""Left cosets, coset labels and meeting matrices of one Subgroup: the
per-item routes and oracle; the batched census, lemma suite and coset
search read ``Lattice.coset_labels`` instead.

The per-pair routes that only the tests read (product sets, the cosets of
K in HK, the cosets of H that K touches) live in ``tests/helpers.py``.
"""

from __future__ import annotations

import numpy as np

from .bitset import lowest_bit
from .errors import ConsistencyError, ParentMismatch
from .subgroups import Subgroup


def coset_mask(x: int, h: Subgroup) -> int:
    row = h.parent.mul[x]
    m = 0
    for e in h.elements:
        m |= 1 << row[e]
    return m


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


def left_cosets(h: Subgroup) -> tuple[int, ...]:
    """The masks of the left cosets of H, sorted by least element.

    Built once per subgroup from its coset labelling.
    """
    if h._left_cosets is None:
        masks = [0] * h.index
        for x, c in enumerate(coset_labels(h).tolist()):
            masks[c] |= 1 << x
        object.__setattr__(h, "_left_cosets", tuple(masks))
    return h._left_cosets


def double_coset_reps(h: Subgroup, k: Subgroup) -> tuple[int, ...]:
    """The mask of one left coset of K per double coset H x K: the one
    holding its least element.

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
        moved = h.parent.np_table[np.ix_(h.elements, [lowest_bit(c) for c in cosets])]
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


def disjointable(h: Subgroup, k: Subgroup) -> bool:
    """Whether some left coset of H misses some left coset of K.

    Decided by |H*K| < |G|; the size comes from |H||K| / |H&K|, which the
    test suite cross-checks against the materialized product set
    (``tests/helpers.product_set``).
    """
    parent = _pair_parent(h, k)
    overlap = (h.mask & k.mask).bit_count()
    return h.order * k.order // overlap < parent.n
