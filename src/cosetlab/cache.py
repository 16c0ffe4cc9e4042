"""Disk cache for subgroup lattices, keyed by a hash of the group spec."""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .bitset import mask_of
from .errors import CacheCorrupt, CacheStale
from .groups import FiniteGroup, GroupSpec
from .subgroups import Subgroup, _subgroup_from_mask, enumerate_subgroups

# Names the enumeration algorithm too: a file written under another tag is
# discarded and recomputed, never trusted.
LATTICE_FORMAT = "cosetlab-lattice-v5"
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


def _compact(payload: dict) -> str:
    # no indent, so the json module's C encoder runs
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _payload_checksum(payload: dict) -> str:
    return hashlib.sha256(_compact(payload).encode("utf-8")).hexdigest()


def store_lattice(g: FiniteGroup, subgroups: list[Subgroup], cache_dir: Path | str) -> Path:
    digest = spec_hash(_require_spec(g))
    payload = {
        "format": LATTICE_FORMAT,
        "spec_hash": digest,
        "order": g.n,
        "subgroups": [list(s.elements) for s in subgroups],
    }
    payload["checksum"] = _payload_checksum(
        {k: payload[k] for k in ("format", "spec_hash", "order", "subgroups")}
    )
    path = lattice_path(cache_dir, digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Written beside the target and renamed over it, so a failed write never
    # leaves a truncated lattice behind.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(_compact(payload) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_lattice(g: FiniteGroup, cache_dir: Path | str) -> Optional[list[Subgroup]]:
    """Read a cached lattice back; None when absent, CacheCorrupt when damaged.

    An intact file under another format tag raises CacheStale, a CacheCorrupt.
    So do subgroup lists that do not strictly ascend by ``Subgroup.sort_key``,
    as ``enumerate_subgroups`` lists them: the pair rows rely on that order.
    """
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
    expected = payload.get("checksum")
    body = {k: payload.get(k) for k in ("format", "spec_hash", "order", "subgroups")}
    if _payload_checksum(body) != expected:
        raise CacheCorrupt(f"{path}: checksum mismatch")
    if payload.get("order") != g.n or payload.get("spec_hash") != digest:
        raise CacheCorrupt(f"{path}: cached for a different group")
    lists = payload.get("subgroups")
    subs = [_cached_subgroup(g, elems) for elems in lists] if isinstance(lists, list) else []
    if not subs or None in subs:
        raise CacheCorrupt(f"{path}: subgroup lists malformed")
    if any(a.sort_key >= b.sort_key for a, b in zip(subs, subs[1:])):
        raise CacheCorrupt(f"{path}: subgroup lists out of order or repeated")
    return subs


def _cached_subgroup(g: FiniteGroup, elems: object) -> Optional[Subgroup]:
    """A cached entry as a Subgroup, or None unless it is strictly ascending
    ints in [0, n) that hold the identity, of a length that divides n.
    Closure is not re-checked: it would cost more than the rest of the load."""
    try:
        if not (isinstance(elems, list) and elems and 0 <= min(elems) and max(elems) < g.n):
            return None
        s = _subgroup_from_mask(g, mask_of(elems))
    except TypeError:
        return None
    # the elements of s ascend, so this leaves out duplicates and disorder too
    if list(s.elements) != elems or not s.mask >> g.identity & 1 or g.n % s.order:
        return None
    return s


def cached_subgroups(g: FiniteGroup, cache_dir: Path | str) -> tuple[list[Subgroup], str]:
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
