"""Finite groups as dense multiplication tables over element ids 0..n-1."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadInput,
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
        """Structural checks only; load_group checks a cayley table's axioms."""
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

    ``np_table[a, b]`` is the product a*b and ``inv[a]`` the two-sided
    inverse, both of the least unsigned dtype that holds n, so also the
    one-past-the-end sentinel n.  Identity and inverses are read off the
    table.
    """

    __slots__ = ("n", "np_table", "identity", "inv", "label", "spec")

    def __init__(self, table: np.ndarray, label: str, spec: Optional[GroupSpec] = None):
        self.n = len(table)
        self.np_table = table.astype(np.min_scalar_type(self.n))
        self.identity, inv = _identity_and_inverses(self.np_table)
        self.inv = inv.astype(self.np_table.dtype)
        self.label = label
        self.spec = spec

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.label} order {self.n}>"


def _identity_and_inverses(table: np.ndarray) -> tuple[int, np.ndarray]:
    """In a group e*0 = 0 holds for e the identity alone, and a*b = e for b
    the inverse of a alone; in a Latin table each is the one candidate."""
    ident = int(np.argmax(table[:, 0] == 0))
    return ident, np.argmax(table == ident, axis=1)


def _validate_table(arr: np.ndarray, label: str, seed: int) -> None:
    """Check the group axioms on a table from outside the program."""
    n = arr.shape[0]
    rng = np.arange(n)
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup(f"{label}: table entries outside [0, {n})")
    if not (np.sort(arr, axis=1) == rng).all():
        raise NotAGroup(f"{label}: some row is not a permutation")
    if not (np.sort(arr, axis=0) == rng[:, None]).all():
        raise NotAGroup(f"{label}: some column is not a permutation")

    ident, inv_vec = _identity_and_inverses(arr)
    if not ((arr[ident] == rng).all() and (arr[:, ident] == rng).all()):
        raise NotAGroup(f"{label}: no two-sided identity")
    # Latin rows guarantee one right inverse per element; demand it works on the left too.
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
) -> np.ndarray:
    """Cayley table of the group the permutations generate.

    Element ids follow the lexicographic order of the one-line permutations,
    and x*y is ``_compose(x, y)``.  The closure multiplies each element by
    each generator once, on the right; the table then follows from those
    steps along the spanning tree they form.  It stores no more points
    (elements times degree) than an ``order_cap`` x ``order_cap`` table.
    """
    gens = [tuple(p) for p in generators]
    if not gens:
        # no generator: the trivial group, without a degree-point identity
        return np.zeros((1, 1), dtype=np.int64)
    # a group is at least as large as any element's order, so a generator, or
    # the product of a generator and the next, of large order is refused
    # before any degree-point permutation is stored; neighbours only, so the
    # check stays linear in the spec's size
    for q in gens:
        if _perm_order(q) > order_cap:
            raise OrderCapExceeded(f"a generator has order above cap {order_cap}")
    for p, q in zip(gens, gens[1:]):
        if _perm_order(_compose(p, q)) > order_cap:
            raise OrderCapExceeded(
                f"a product of two generators has order above cap {order_cap}"
            )
    limit = min(order_cap, order_cap * order_cap // degree)
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    parent, via = [0], [0]
    steps: list[list[int]] = [[] for _ in gens]  # steps[s][x] is the id of x*gens[s]
    # elems grows while it is walked, so every new element gets its own steps
    for x, p in enumerate(elems):
        for s, q in enumerate(gens):
            r = _compose(p, q)
            y = index.get(r)
            if y is None:
                if len(elems) >= limit:
                    raise OrderCapExceeded(
                        f"perm closure of degree {degree} grew past {limit} elements"
                        f" (order cap {order_cap})"
                    )
                y = index[r] = len(elems)
                elems.append(r)
                parent.append(x)
                via.append(s)
            steps[s].append(y)

    # Column b of the table lists a*b for every a.  With b = parent(b) * s,
    # a*b = (a * parent(b)) * s, so the column is step s read at the parent's
    # column; cols[b] holds column b.
    n = len(elems)
    ids = np.min_scalar_type(n)  # as FiniteGroup keeps its table
    right = np.array(steps, dtype=ids)
    cols = np.empty((n, n), dtype=ids)
    cols[0] = np.arange(n)
    for b in range(1, n):
        cols[b] = right[via[b]][cols[parent[b]]]
    order = sorted(range(n), key=elems.__getitem__)
    rank = np.empty(n, dtype=ids)
    rank[order] = np.arange(n)
    return rank[cols.T[np.ix_(order, order)]]


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


def spec_from_token(token: str) -> Optional[GroupSpec]:
    """The spec of a family name or an x-joined product of them, such as C30,
    Q8 or S3xC2; None when some factor is not a family name."""
    names = token.split("x")
    try:
        for name in names:
            _parse_family(name)
    except UnknownFamily:
        return None
    factors = tuple(GroupSpec(kind="named", name=name) for name in names)
    return factors[0] if len(factors) == 1 else GroupSpec(kind="product", factors=factors)


def _named_table(fam: str, num: int, order_cap: int) -> np.ndarray:
    if fam == "C":
        if num > order_cap:
            raise OrderCapExceeded(f"C{num} exceeds order cap {order_cap}")
        r = np.arange(num)
        return np.add.outer(r, r) % num
    if fam == "Q":
        # Elements 0..7 are +1, -1, +i, -i, +j, -j, +k, -k, generated by left
        # multiplication with +i and with +j.  Each left multiplication maps
        # +1 to its own element, so the sorted closure keeps these ids.
        by_i, by_j = (2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)
        return _perm_closure(8, [by_i, by_j], order_cap)
    if fam == "D":
        if 2 * num > order_cap:
            raise OrderCapExceeded(f"D{num} has order {2 * num} > cap {order_cap}")
        rot = tuple((i + 1) % num for i in range(num))
        refl = tuple((num - i) % num for i in range(num))
        return _perm_closure(num, [rot, refl], order_cap)
    if fam == "S":
        if num == 1:
            gens: list[tuple[int, ...]] = []
        else:
            gens = [
                tuple([1, 0] + list(range(2, num))),
                tuple(list(range(1, num)) + [0]),
            ]
        return _perm_closure(num, gens, order_cap)
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
        return _perm_closure(num, gens, order_cap)
    raise UnknownFamily(f"unknown family {fam!r}")


def direct_product(
    a: FiniteGroup, b: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
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
    n = a.n * b.n
    # widened first: a compact factor table times b.n would wrap around
    table = a.np_table[:, None, :, None].astype(np.int64) * b.n + b.np_table[None, :, None, :]
    return FiniteGroup(table.reshape(n, n), f"{a.label}x{b.label}", spec)


def load_group(
    spec: GroupSpec,
    order_cap: int = DEFAULT_ORDER_CAP,
    *,
    seed: int = 0,
) -> FiniteGroup:
    """Build the group a spec describes.

    Only a ``cayley`` table comes from outside the program, so only its
    axioms are checked: associativity exhaustively up to
    ``ASSOC_EXHAUSTIVE_CAP`` elements and on 10*n^2 seeded random triples
    above that.  Permutation closures, named families and direct products
    are groups by construction.
    """
    if seed < 0:
        raise BadInput(f"seed must be at least 0, got {seed}")
    spec.validate()
    if spec.kind == "cayley":
        if spec.order > order_cap:  # type: ignore[operator]
            raise OrderCapExceeded(f"order {spec.order} exceeds cap {order_cap}")
        table = np.array(spec.table, dtype=np.int64)
        label = f"cayley{spec.order}"
        _validate_table(table, label, seed)
        return FiniteGroup(table, label, spec)
    if spec.kind == "perm":
        table = _perm_closure(spec.degree, spec.generators, order_cap)  # type: ignore[arg-type]
        return FiniteGroup(table, f"perm{spec.degree}:{len(table)}", spec)
    if spec.kind == "named":
        fam, num = _parse_family(spec.name)  # type: ignore[arg-type]
        return FiniteGroup(_named_table(fam, num, order_cap), spec.name, spec)  # type: ignore[arg-type]
    if spec.kind == "product":
        parts = [
            load_group(f, order_cap, seed=seed)
            for f in spec.factors  # type: ignore[union-attr]
        ]
        acc = parts[0]
        for part in parts[1:]:
            acc = direct_product(acc, part, order_cap)
        return acc
    raise GroupSpecError(f"unknown spec kind {spec.kind!r}")
