"""Disk cache for subgroup lattices, keyed by a hash of the group spec."""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import CacheCorrupt, CacheStale
from .groups import FiniteGroup, GroupSpec
from .subgroups import Lattice, Subgroup, _sort_keys, enumerate_subgroups

# Names the enumeration algorithm and the file layout too: a file written
# under another tag is discarded and recomputed, never trusted.
LATTICE_FORMAT = "cosetlab-lattice-v7"
DEFAULT_CACHE_DIR = ".cosetlab-cache"

log = logging.getLogger("cosetlab.cache")


@dataclass(frozen=True)
class CacheRecord:
    path: Path
    spec_hash: str
    status: str  # "cold" when computed this run, "warm" when read back
    subgroup_count: int


def spec_hash(spec: GroupSpec) -> str:
    return hashlib.sha256(spec.canonical_json().encode("utf-8")).hexdigest()


def lattice_path(cache_dir: Path | str, digest: str) -> Path:
    return Path(cache_dir) / f"lattice-{digest}.json"


def _require_spec(g: FiniteGroup) -> GroupSpec:
    if g.spec is None:
        raise ValueError(f"group {g.label} carries no spec and cannot be cached")
    return g.spec


def _checksum(digest: object, order: object, orders: np.ndarray, elements: np.ndarray) -> str:
    """sha256 of the header fields and the int64 bytes of both lists."""
    h = hashlib.sha256(f"{LATTICE_FORMAT}:{digest}:{order}:{len(orders)}:".encode("utf-8"))
    h.update(orders.astype("<i8").tobytes())
    h.update(elements.astype("<i8").tobytes())
    return h.hexdigest()


def store_lattice(g: FiniteGroup, subgroups: Sequence[Subgroup], cache_dir: Path | str) -> Path:
    """Write the lattice's orders and one flat list of its elements, row by row."""
    digest = spec_hash(_require_spec(g))
    lattice = Lattice.of(subgroups)
    elements = np.nonzero(lattice.rows)[1]
    payload = {
        "format": LATTICE_FORMAT,
        "spec_hash": digest,
        "order": g.n,
        "orders": lattice.order.tolist(),
        "elements": elements.tolist(),
        "checksum": _checksum(digest, g.n, lattice.order, elements),
    }
    path = lattice_path(cache_dir, digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Written beside the target and renamed over it, so a failed write never
    # leaves a truncated lattice behind.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # compact, so the json module's C encoder runs
        tmp.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_lattice(g: FiniteGroup, cache_dir: Path | str) -> Optional[Lattice]:
    """Read a cached lattice back; None when absent, CacheCorrupt when damaged.

    An intact file under another format tag raises CacheStale, a
    CacheCorrupt.  The lists are checked on whole arrays (closure is not:
    it would cost more than the rest of the load): orders that divide |G|
    and sum to the element count, elements in [0, |G|), each subgroup's
    distinct and holding the identity, subgroups strictly ascending by
    ``Subgroup.sort_key`` as ``enumerate_subgroups`` lists them."""
    digest = spec_hash(_require_spec(g))
    path = lattice_path(cache_dir, digest)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheCorrupt(f"{path}: unreadable ({exc})") from exc
    if not isinstance(payload, dict) or "format" not in payload:
        raise CacheCorrupt(f"{path}: no format tag")
    if payload["format"] != LATTICE_FORMAT:
        raise CacheStale(
            f"{path}: format tag {payload['format']!r}, expected {LATTICE_FORMAT!r}"
        )
    malformed = CacheCorrupt(f"{path}: subgroup lists malformed")
    try:
        orders, elements = (np.asarray(payload.get(key)) for key in ("orders", "elements"))
    except ValueError:  # a ragged nesting
        raise malformed from None
    if any(a.ndim != 1 or not len(a) or a.dtype.kind != "i" for a in (orders, elements)):
        raise malformed
    checksum = _checksum(payload.get("spec_hash"), payload.get("order"), orders, elements)
    if checksum != payload.get("checksum"):
        raise CacheCorrupt(f"{path}: checksum mismatch")
    if payload.get("order") != g.n or payload.get("spec_hash") != digest:
        raise CacheCorrupt(f"{path}: cached for a different group")
    if orders.min() < 1 or (g.n % orders).any() or orders.sum() != len(elements):
        raise malformed
    if elements.min() < 0 or elements.max() >= g.n:
        raise malformed
    rows = np.zeros((len(orders), g.n), dtype=bool)
    rows[np.repeat(np.arange(len(orders)), orders), elements] = True
    if (rows.sum(axis=1) != orders).any() or not rows[:, g.identity].all():
        raise malformed
    keys = _sort_keys(rows)
    if (keys[1:] <= keys[:-1]).any():
        raise CacheCorrupt(f"{path}: subgroup lists out of order or repeated")
    return Lattice(g, rows)


def cached_subgroups(g: FiniteGroup, cache_dir: Path | str) -> tuple[Lattice, str]:
    """Lattice from cache when intact, else recomputed and stored.

    Stale and corrupt cache entries are logged and replaced; they never fail
    the caller.
    """
    try:
        cached = load_lattice(g, cache_dir)
    except CacheStale as exc:
        log.info("recomputing lattice cached under another format: %s", exc)
        cached = None
    except CacheCorrupt as exc:
        log.warning("discarding corrupt lattice cache: %s", exc)
        cached = None
    if cached is not None:
        return cached, "warm"
    subs = enumerate_subgroups(g)
    store_lattice(g, subs, cache_dir)
    return subs, "cold"


def cache_lattice(g: FiniteGroup, cache_dir: Path | str) -> CacheRecord:
    """Ensure the lattice for this group is cached; report what happened."""
    subs, status = cached_subgroups(g, cache_dir)
    digest = spec_hash(_require_spec(g))
    return CacheRecord(
        path=lattice_path(cache_dir, digest),
        spec_hash=digest,
        status=status,
        subgroup_count=len(subs),
    )
