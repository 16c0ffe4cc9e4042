"""The benchmark's workloads: which CLI commands run, on which groups.

Each workload is one client in a closed loop: its commands run one after
another through ``cosetlab.cli.main`` with the default ``--jobs 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Groups outside the catalog that only a groupspec-v1 file can name today:
# product tokens such as "C3xC3" exit 2 (see NOTES.md).
PRODUCTS: dict[str, tuple[str, ...]] = {
    "C2^6": ("C2",) * 6,
    "S3xS3xC2": ("S3", "S3", "C2"),
    "A4xA4": ("A4", "A4"),
}

# Subgroup counts from the literature; other groups are checked by digest.
LITERATURE_SUBGROUP_COUNTS: dict[str, int] = {
    "S4": 30,
    "S5": 156,
    "A5": 59,
    "A6": 501,
    "C2^6": 2825,
    "D30": 80,  # D_n has tau(n) + sigma(n) subgroups
}


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload."""

    command: str  # verify | census | lemmas
    group: str  # catalog or family name, or a key of PRODUCTS
    k: Optional[str] = None  # verify --k value
    lemma_mode: Optional[str] = None  # expected mode of every lemma family

    @property
    def label(self) -> str:
        return f"{self.command} {self.group}" + (f" k={self.k}" if self.k else "")

    @property
    def k_range(self) -> tuple[int, int]:
        assert self.k is not None
        lo, _, hi = self.k.partition("..")
        return int(lo), int(hi or lo)


@dataclass(frozen=True)
class Workload:
    warm: bool  # lattices are cached during set-up, else every round starts cold
    ops: tuple[Op, ...]

    @property
    def groups(self) -> list[str]:
        return list(dict.fromkeys(op.group for op in self.ops))


WORKLOADS: dict[str, Workload] = {
    # A user's first verdict on a new group: the A6 lattice, then the C2^6
    # pair table; k=2 has no cliques, so no tuple search.
    "structure_cold": Workload(
        warm=False,
        ops=(Op("verify", "A6", "2"), Op("verify", "C2^6", "2"), Op("verify", "S5", "2")),
    ),
    # Groups beyond the catalog up to k=5, the open range, where tuple
    # search dominates; lattices come from the cache filled in set-up.
    "verify_open": Workload(
        warm=True,
        ops=(
            Op("verify", "D30", "2..5"),
            Op("verify", "S3xS3xC2", "2..5"),
            Op("verify", "A4xA4", "2..5"),
        ),
    ),
    # Counting laws without the verifier: census, lemma checks and report
    # serialization, in sampled (S5) and exhaustive (S4) lemma modes.
    "counting_laws": Workload(
        warm=True,
        ops=(
            Op("census", "A5"),
            Op("lemmas", "S5", lemma_mode="sampled"),
            Op("lemmas", "S4", lemma_mode="exhaustive"),
        ),
    ),
}


def spec_file(spec_dir: Path, group: str) -> Path:
    return spec_dir / ("".join(c if c.isalnum() else "_" for c in group) + ".json")


def write_spec_files(spec_dir: Path, groups: list[str]) -> None:
    """Write a groupspec-v1 file for each product group in ``groups``."""
    from cosetlab.groups import GroupSpec

    for group in groups:
        if group in PRODUCTS:
            spec = GroupSpec(
                kind="product",
                factors=tuple(GroupSpec(kind="named", name=n) for n in PRODUCTS[group]),
            )
            spec_file(spec_dir, group).write_text(json.dumps(spec.to_dict()))


def group_token(spec_dir: Path, group: str) -> str:
    """What the CLI's --group receives for this group."""
    return str(spec_file(spec_dir, group)) if group in PRODUCTS else group


def group_spec(spec_dir: Path, group: str):
    """The GroupSpec the CLI resolves ``group_token`` to."""
    from cosetlab.catalog import CATALOG
    from cosetlab.groups import GroupSpec

    if group in PRODUCTS:
        return GroupSpec.from_dict(json.loads(spec_file(spec_dir, group).read_text()))
    if group in CATALOG:
        return CATALOG[group]
    return GroupSpec(kind="named", name=group)


def argv(op: Op, spec_dir: Path, cache_dir: Path, seed: int) -> list[str]:
    out = [
        op.command,
        "--group", group_token(spec_dir, op.group),
        "--seed", str(seed),
        "--cache-dir", str(cache_dir),
    ]
    if op.k is not None:
        out += ["--k", op.k]
    return out
