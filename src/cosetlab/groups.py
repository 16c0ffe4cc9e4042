"""Finite groups as dense multiplication tables over element ids 0..n-1."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    GroupSpecError,
    NotAGroup,
    OrderCapExceeded,
    UnknownFamily,
)

DEFAULT_ORDER_CAP = 2000
ASSOC_EXHAUSTIVE_CAP = 256
ASSOC_SAMPLES_PER_N2 = 10
ASSOC_SAMPLE_BLOCK = 1 << 18
GROUPSPEC_FORMAT = "groupspec-v1"

_NAMED_RE = re.compile(r"^([ACDS])([0-9]+)$")
_SPEC_KINDS = ("cayley", "perm", "named", "product")
_SPEC_FIELDS = ("kind", "order", "table", "degree", "generators", "name", "factors")


def _is_int(v: object) -> bool:
    # bool is a subclass of int, but true and false are no sizes or element ids
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class GroupSpec:
    """Declarative recipe for building a finite group.

    Exactly one kind is populated per spec: a full Cayley table, permutation
    generators on a fixed degree, a named family string, or a list of factor
    specs for a direct product.
    """

    kind: str
    order: Optional[int] = None
    table: Optional[tuple[tuple[int, ...], ...]] = None
    degree: Optional[int] = None
    generators: Optional[tuple[tuple[int, ...], ...]] = None
    name: Optional[str] = None
    factors: Optional[tuple["GroupSpec", ...]] = None

    def validate(self) -> None:
        """Structural checks only; group axioms are checked by load_group."""
        if self.kind not in _SPEC_KINDS:
            raise GroupSpecError(f"unknown spec kind {self.kind!r}")
        for key in ("order", "degree"):
            v = getattr(self, key)
            if v is not None and not _is_int(v):
                raise GroupSpecError(f"{key} must be an integer, got {v!r}")
        if self.name is not None and not isinstance(self.name, str):
            raise GroupSpecError(f"name must be a string, got {self.name!r}")
        if self.kind == "cayley":
            if self.order is None or self.table is None:
                raise GroupSpecError("cayley spec needs order and table")
            n = self.order
            if n < 1:
                raise GroupSpecError("order must be positive")
            if len(self.table) != n or any(len(row) != n for row in self.table):
                raise GroupSpecError("table must be order x order")
            for row in self.table:
                for v in row:
                    if not _is_int(v) or not 0 <= v < n:
                        raise GroupSpecError(f"table entry {v!r} outside [0, {n})")
        elif self.kind == "perm":
            if self.degree is None or self.generators is None:
                raise GroupSpecError("perm spec needs degree and generators")
            if self.degree < 1:
                raise GroupSpecError("degree must be positive")
            for p in self.generators:
                # the length test first: a huge degree must not build a huge range
                if (
                    len(p) != self.degree
                    or not all(map(_is_int, p))
                    or sorted(p) != list(range(self.degree))
                ):
                    raise GroupSpecError(f"{p!r} is not a permutation of degree {self.degree}")
        elif self.kind == "named":
            if not self.name:
                raise GroupSpecError("named spec needs a name")
            _parse_family(self.name)
        elif self.kind == "product":
            if not self.factors or len(self.factors) < 2:
                raise GroupSpecError("product spec needs at least two factors")
            for f in self.factors:
                f.validate()

    def to_dict(self, top: bool = True) -> dict:
        d: dict = {}
        if top:
            d["format"] = GROUPSPEC_FORMAT
        d["kind"] = self.kind
        if self.order is not None:
            d["order"] = self.order
        if self.table is not None:
            d["table"] = [list(row) for row in self.table]
        if self.degree is not None:
            d["degree"] = self.degree
        if self.generators is not None:
            d["generators"] = [list(p) for p in self.generators]
        if self.name is not None:
            d["name"] = self.name
        if self.factors is not None:
            d["factors"] = [f.to_dict(top=False) for f in self.factors]
        return d

    @classmethod
    def from_dict(cls, d: object, top: bool = True) -> "GroupSpec":
        if not isinstance(d, dict):
            raise GroupSpecError("group spec must be a JSON object")
        d = dict(d)
        if top:
            fmt = d.pop("format", None)
            if fmt != GROUPSPEC_FORMAT:
                raise GroupSpecError(f"expected format {GROUPSPEC_FORMAT!r}, got {fmt!r}")
        else:
            d.pop("format", None)
        unknown = set(d) - set(_SPEC_FIELDS)
        if unknown:
            raise GroupSpecError(f"unknown spec fields {sorted(unknown)!r}")
        kind = d.get("kind")
        if not isinstance(kind, str):
            raise GroupSpecError("spec kind must be a string")

        def _rows(key: str) -> Optional[tuple[tuple[int, ...], ...]]:
            v = d.get(key)
            if v is None:
                return None
            if not isinstance(v, (list, tuple)):
                raise GroupSpecError(f"{key} must be a list of lists")
            out = []
            for row in v:
                if not isinstance(row, (list, tuple)) or not all(map(_is_int, row)):
                    raise GroupSpecError(f"{key} must be a list of integer lists")
                out.append(tuple(row))
            return tuple(out)

        factors = None
        if d.get("factors") is not None:
            if not isinstance(d["factors"], (list, tuple)):
                raise GroupSpecError("factors must be a list")
            factors = tuple(cls.from_dict(f, top=False) for f in d["factors"])
        spec = cls(
            kind=kind,
            order=d.get("order"),
            table=_rows("table"),
            degree=d.get("degree"),
            generators=_rows("generators"),
            name=d.get("name"),
            factors=factors,
        )
        spec.validate()
        return spec

    def canonical_json(self) -> str:
        """Sorted keys, no whitespace; stable input for cache hashing."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class FiniteGroup:
    """Immutable group on elements 0..n-1 with a dense Cayley table.

    ``mul[a][b]`` is the product a*b, ``inv[a]`` the two-sided inverse.
    """

    __slots__ = ("n", "mul", "identity", "inv", "label", "spec", "_np_table")

    def __init__(
        self,
        n: int,
        mul: list[list[int]],
        identity: int,
        inv: list[int],
        label: str,
        spec: Optional[GroupSpec] = None,
    ):
        self.n = n
        self.mul = mul
        self.identity = identity
        self.inv = inv
        self.label = label
        self.spec = spec
        self._np_table: Optional[np.ndarray] = None

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    @property
    def np_table(self) -> np.ndarray:
        if self._np_table is None:
            self._np_table = np.asarray(self.mul, dtype=np.int64)
        return self._np_table

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul[y][x]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order {self.n}>"

    def __getstate__(self):
        return (self.n, self.mul, self.identity, self.inv, self.label, self.spec)

    def __setstate__(self, state):
        self.n, self.mul, self.identity, self.inv, self.label, self.spec = state
        self._np_table = None


def _validate_table(arr: np.ndarray, label: str, seed: int) -> tuple[int, list[int]]:
    """Check the group axioms on a candidate table; return (identity, inverses)."""
    n = arr.shape[0]
    rng = np.arange(n)
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup(f"{label}: table entries outside [0, {n})")
    if not (np.sort(arr, axis=1) == rng).all():
        raise NotAGroup(f"{label}: some row is not a permutation")
    if not (np.sort(arr, axis=0) == rng[:, None]).all():
        raise NotAGroup(f"{label}: some column is not a permutation")

    row_ids = np.nonzero((arr == rng).all(axis=1))[0]
    ident = -1
    for e in row_ids:
        if (arr[:, e] == rng).all():
            ident = int(e)
            break
    if ident < 0:
        raise NotAGroup(f"{label}: no two-sided identity")

    # Latin rows guarantee one right inverse per element; demand it works on the left too.
    inv_vec = np.argmax(arr == ident, axis=1)
    if not (arr[inv_vec, rng] == ident).all():
        bad = int(np.nonzero(arr[inv_vec, rng] != ident)[0][0])
        raise NotAGroup(f"{label}: element {bad} has no two-sided inverse")

    if n <= ASSOC_EXHAUSTIVE_CAP:
        block = max(1, (1 << 21) // max(1, n * n))
        for lo in range(0, n, block):
            rows = arr[lo : lo + block]
            left = arr[rows]  # left[a,b,c] = (a*b)*c
            right = rows[:, arr.reshape(-1)].reshape(rows.shape[0], n, n)
            if not (left == right).all():
                a, b, c = (int(v[0]) for v in np.nonzero(left != right))
                raise NotAGroup(
                    f"{label}: associativity fails at ({a + lo}, {b}, {c})"
                )
    else:
        # drawn and checked a block at a time, so memory stays flat in n
        gen = np.random.Generator(np.random.PCG64(seed))
        total = ASSOC_SAMPLES_PER_N2 * n * n
        for lo in range(0, total, ASSOC_SAMPLE_BLOCK):
            size = min(ASSOC_SAMPLE_BLOCK, total - lo)
            a, b, c = gen.integers(0, n, size=(size, 3)).T
            bad = np.flatnonzero(arr[arr[a, b], c] != arr[a, arr[b, c]])
            if len(bad):
                t = bad[0]
                raise NotAGroup(
                    f"{label}: associativity fails at sampled triple "
                    f"({int(a[t])}, {int(b[t])}, {int(c[t])})"
                )
    return ident, [int(v) for v in inv_vec]


def _finish_group(
    mul: list[list[int]], label: str, spec: Optional[GroupSpec], seed: int
) -> FiniteGroup:
    arr = np.asarray(mul, dtype=np.int64)
    ident, inv = _validate_table(arr, label, seed)
    g = FiniteGroup(len(mul), mul, ident, inv, label, spec)
    g._np_table = arr
    return g


def _cyclic_rows(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Function composition: apply q first, then p."""
    return tuple(p[x] for x in q)


def _perm_order(p: tuple[int, ...]) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def _perm_closure(
    degree: int, generators: Sequence[tuple[int, ...]], order_cap: int
) -> list[tuple[int, ...]]:
    gens = [tuple(p) for p in generators]
    # a group is at least as large as any element's order, so a generator of
    # large order is refused before any degree-point permutation is stored
    for q in gens:
        if _perm_order(q) > order_cap:
            raise OrderCapExceeded(f"a generator has order above cap {order_cap}")
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = _compose(p, q)
                if r not in seen:
                    if len(seen) >= order_cap:
                        raise OrderCapExceeded(
                            f"perm closure grew past order cap {order_cap}"
                        )
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen)


def _rows_from_perms(elements: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(elements)}
    return [[index[_compose(p, q)] for q in elements] for p in elements]


def _parse_family(name: str) -> tuple[str, int]:
    if name == "Q8":
        return ("Q", 8)
    m = _NAMED_RE.match(name)
    if not m:
        raise UnknownFamily(f"unknown family name {name!r}")
    fam, num = m.group(1), int(m.group(2))
    if fam == "C" and num >= 1:
        return (fam, num)
    if fam == "D" and num >= 3:
        return (fam, num)
    if fam in ("S", "A") and 1 <= num <= 7:
        return (fam, num)
    raise UnknownFamily(f"{name!r}: unsupported member of family {fam!r}")


def _named_rows(
    fam: str, num: int, order_cap: int
) -> tuple[list[list[int]], int]:
    if fam == "C":
        if num > order_cap:
            raise OrderCapExceeded(f"C{num} exceeds order cap {order_cap}")
        return _cyclic_rows(num), num
    if fam == "Q":
        # Elements 0..7 are +1, -1, +i, -i, +j, -j, +k, -k, generated by left
        # multiplication with +i and with +j.  Each left multiplication maps
        # +1 to its own element, so the sorted closure keeps these ids.
        by_i, by_j = (2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)
        return _rows_from_perms(_perm_closure(8, [by_i, by_j], order_cap)), 8
    if fam == "D":
        if 2 * num > order_cap:
            raise OrderCapExceeded(f"D{num} has order {2 * num} > cap {order_cap}")
        rot = tuple((i + 1) % num for i in range(num))
        refl = tuple((num - i) % num for i in range(num))
        elems = _perm_closure(num, [rot, refl], order_cap)
        return _rows_from_perms(elems), len(elems)
    if fam == "S":
        if num == 1:
            gens: list[tuple[int, ...]] = []
        else:
            gens = [
                tuple([1, 0] + list(range(2, num))),
                tuple(list(range(1, num)) + [0]),
            ]
        elems = _perm_closure(max(num, 1), gens, order_cap)
        return _rows_from_perms(elems), len(elems)
    if fam == "A":
        if num <= 2:
            gens = []
        else:
            three = [1, 2, 0] + list(range(3, num))
            if num % 2 == 1:
                cyc = list(range(1, num)) + [0]
            else:
                cyc = [0] + list(range(2, num)) + [1]
            gens = [tuple(three), tuple(cyc)]
        elems = _perm_closure(max(num, 1), gens, order_cap)
        return _rows_from_perms(elems), len(elems)
    raise UnknownFamily(f"unknown family {fam!r}")


def _product_rows(a: FiniteGroup, b: FiniteGroup) -> list[list[int]]:
    # Element id of the pair (x, y) is x * |b| + y.
    nb = b.n
    rows = a.np_table[:, None, :, None] * nb + b.np_table[None, :, None, :]
    return rows.reshape(a.n * nb, a.n * nb).tolist()


def direct_product(
    a: FiniteGroup,
    b: FiniteGroup,
    order_cap: int = DEFAULT_ORDER_CAP,
    *,
    seed: int = 0,
) -> FiniteGroup:
    """Componentwise product with pair (x, y) encoded as x * |b| + y."""
    if a.n * b.n > order_cap:
        raise OrderCapExceeded(
            f"product order {a.n * b.n} exceeds order cap {order_cap}"
        )
    spec = None
    if a.spec is not None and b.spec is not None:
        fa = a.spec.factors if a.spec.kind == "product" else (a.spec,)
        fb = b.spec.factors if b.spec.kind == "product" else (b.spec,)
        spec = GroupSpec(kind="product", factors=fa + fb)
    label = f"{a.label}x{b.label}"
    return _finish_group(_product_rows(a, b), label, spec, seed)


def load_group(
    spec: GroupSpec,
    order_cap: int = DEFAULT_ORDER_CAP,
    *,
    seed: int = 0,
) -> FiniteGroup:
    """Build and validate the group a spec describes.

    Associativity is checked exhaustively up to ``ASSOC_EXHAUSTIVE_CAP``
    elements and on 10*n^2 seeded random triples above that.
    """
    spec.validate()
    if spec.kind == "cayley":
        if spec.order > order_cap:  # type: ignore[operator]
            raise OrderCapExceeded(f"order {spec.order} exceeds cap {order_cap}")
        rows = [list(r) for r in spec.table]  # type: ignore[union-attr]
        return _finish_group(rows, f"cayley{spec.order}", spec, seed)
    if spec.kind == "perm":
        elems = _perm_closure(spec.degree, spec.generators, order_cap)  # type: ignore[arg-type]
        rows = _rows_from_perms(elems)
        return _finish_group(rows, f"perm{spec.degree}:{len(elems)}", spec, seed)
    if spec.kind == "named":
        fam, num = _parse_family(spec.name)  # type: ignore[arg-type]
        rows, n = _named_rows(fam, num, order_cap)
        if n > order_cap:
            raise OrderCapExceeded(f"{spec.name} has order {n} > cap {order_cap}")
        return _finish_group(rows, spec.name, spec, seed)
    if spec.kind == "product":
        parts = [
            load_group(f, order_cap, seed=seed)
            for f in spec.factors  # type: ignore[union-attr]
        ]
        acc = parts[0]
        for part in parts[1:]:
            acc = direct_product(acc, part, order_cap, seed=seed)
        return acc
    raise GroupSpecError(f"unknown spec kind {spec.kind!r}")
