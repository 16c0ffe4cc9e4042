"""Subgroups of a finite group and lattice enumeration."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .bitset import bits_tuple, mask_of
from .errors import NotAGroup, ParentMismatch, SubgroupCountCapExceeded
from .groups import FiniteGroup

DEFAULT_SUBGROUP_CAP = 10_000


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of a fixed parent group, stored as an element bitmask."""

    parent: FiniteGroup
    mask: int
    elements: tuple[int, ...]
    order: int
    index: int
    # Coset labelling and coset list, each built at most once by cosetlab.cosets.
    _coset_labels: Any = field(default=None, init=False, repr=False)
    _left_cosets: Any = field(default=None, init=False, repr=False)

    def contains(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.mask & ~other.mask == 0

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.order, self.elements)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.mask))

    def __repr__(self) -> str:
        return f"<Subgroup order {self.order} of {self.parent.label}>"


def _subgroup_from_mask(parent: FiniteGroup, mask: int) -> Subgroup:
    elems = bits_tuple(mask)
    return Subgroup(parent, mask, elems, len(elems), parent.n // len(elems))


def subgroup_from_elements(
    parent: FiniteGroup, elements: Iterable[int], *, validate: bool = True
) -> Subgroup:
    """Wrap an element set as a Subgroup, checking closure unless told not to."""
    mask = mask_of(elements)
    if validate:
        if not mask >> parent.identity & 1:
            raise NotAGroup("subgroup candidate lacks the identity")
        mul = parent.mul
        elems = bits_tuple(mask)
        for a in elems:
            row = mul[a]
            for b in elems:
                if not mask >> row[b] & 1:
                    raise NotAGroup(f"set not closed: {a}*{b} escapes")
        if parent.n % len(elems) != 0:
            raise NotAGroup("subgroup order does not divide the group order")
    return _subgroup_from_mask(parent, mask)


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return _subgroup_from_mask(g, 1 << g.identity)


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return _subgroup_from_mask(g, (1 << g.n) - 1)


def intersect(h: Subgroup, k: Subgroup) -> Subgroup:
    if h.parent is not k.parent:
        raise ParentMismatch("cannot intersect subgroups of different groups")
    return _subgroup_from_mask(h.parent, h.mask & k.mask)


def intersect_all(subgroups: Sequence[Subgroup]) -> Subgroup:
    acc = subgroups[0]
    for s in subgroups[1:]:
        acc = intersect(acc, s)
    return acc


def close_generators(g: FiniteGroup, generators: Iterable[int]) -> int:
    """Bitmask of the subgroup generated by the given elements."""
    mul = g.mul
    mask = 1 << g.identity
    frontier = [g.identity]
    gens = list(generators)
    while frontier:
        nxt = []
        for z in frontier:
            row = mul[z]
            for q in gens:
                w = row[q]
                if not mask >> w & 1:
                    mask |= 1 << w
                    nxt.append(w)
        frontier = nxt
    return mask


def _cyclic_mask(g: FiniteGroup, x: int) -> int:
    mul = g.mul
    mask = 1 << g.identity
    y = x
    while not mask >> y & 1:
        mask |= 1 << y
        y = mul[y][x]
    return mask


def enumerate_subgroups(
    g: FiniteGroup, *, max_subgroups: int = DEFAULT_SUBGROUP_CAP
) -> list[Subgroup]:
    """Every subgroup of g, sorted by (order, element tuple).

    Seeds with all cyclic subgroups, then repeatedly closes each known
    subgroup together with one extra element until no new element set
    appears.  Each subgroup keeps the short generator list it was first
    reached by, so the closure work stays near |H| * |gens| per attempt.
    """
    n = g.n
    found: dict[int, tuple[int, ...]] = {}
    queue: deque[int] = deque()

    for x in range(n):
        m = _cyclic_mask(g, x)
        if m not in found:
            found[m] = (x,)
            queue.append(m)
            if len(found) > max_subgroups:
                raise SubgroupCountCapExceeded(
                    f"more than {max_subgroups} subgroups in {g.label}"
                )

    while queue:
        mask = queue.popleft()
        gens = found[mask]
        for x in range(n):
            if mask >> x & 1:
                continue
            new_mask = close_generators(g, gens + (x,))
            if new_mask not in found:
                found[new_mask] = gens + (x,)
                queue.append(new_mask)
                if len(found) > max_subgroups:
                    raise SubgroupCountCapExceeded(
                        f"more than {max_subgroups} subgroups in {g.label}"
                    )

    subs = [_subgroup_from_mask(g, m) for m in found]
    subs.sort(key=lambda s: s.sort_key)
    return subs
