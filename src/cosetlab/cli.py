"""Command line front end.

Exit codes: 0 clean, 1 finding (disjoint family at k <= 4, or a failed law),
2 bad input (unknown group, malformed spec, table not a group, a --cache-dir
or --report path that cannot be written), 3 resource cap hit (order, subgroup
count, clique count, census size).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Optional, Sequence

from .cache import DEFAULT_CACHE_DIR, cached_subgroups, spec_hash
from .catalog import CATALOG, catalog_names, catalog_spec, load_catalog_group
from .counting import DEFAULT_CENSUS_CAP, census
from .errors import (
    CliqueCapExceeded,
    CounterOverflow,
    GroupSpecError,
    NotAGroup,
    OrderCapExceeded,
    SubgroupCountCapExceeded,
    UnknownFamily,
)
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupSpec, _parse_family, load_group
from .lemmas import run_lemma_suite
from .report import build_report, canonical_json
from .subgroups import Subgroup, enumerate_subgroups
from .verifier import DEFAULT_CLIQUE_CAP, K_MAX, K_MIN, pair_table, verify_group

DEFAULT_K_RANGE = (2, 4)
CACHE_OFF = "off"


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, with the volatile knobs kept separate.

    jobs, cache_dir and report_path cannot change any computed number, so
    echo_dict leaves them out of the report's config block; they surface in
    the runtime block instead.
    """

    command: str
    group: str
    k_min: int = DEFAULT_K_RANGE[0]
    k_max: int = DEFAULT_K_RANGE[1]
    seed: int = 0
    max_order: int = DEFAULT_ORDER_CAP
    max_cliques: int = DEFAULT_CLIQUE_CAP
    max_census: int = DEFAULT_CENSUS_CAP
    jobs: int = 1
    cache_dir: str = DEFAULT_CACHE_DIR
    report_path: Optional[str] = None

    def echo_dict(self) -> dict:
        return {
            "command": self.command,
            "group": self.group,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "seed": self.seed,
            "max_order": self.max_order,
            "max_cliques": self.max_cliques,
            "max_census": self.max_census,
        }


def _parse_k_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k range {text!r}; use N or MIN..MAX")
    if not K_MIN <= lo <= hi <= K_MAX:
        raise argparse.ArgumentTypeError(
            f"k range must satisfy {K_MIN} <= min <= max <= {K_MAX}"
        )
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not at least 1")
    return value


def _resolve_spec(token: str) -> GroupSpec:
    """Catalog name, then a family string or product of them, then a spec file."""
    if token in CATALOG:
        return catalog_spec(token)
    # family strings reach beyond the bundled catalog, e.g. C30, D15 or C3xC3
    names = token.split("x")
    try:
        for name in names:
            _parse_family(name)
    except UnknownFamily:
        pass
    else:
        factors = tuple(GroupSpec(kind="named", name=name) for name in names)
        if len(factors) == 1:
            return factors[0]
        return GroupSpec(kind="product", factors=factors)
    path = Path(token)
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise GroupSpecError(f"{token}: unreadable spec file ({exc})") from exc
        return GroupSpec.from_dict(doc)
    raise GroupSpecError(
        f"{token!r} is neither a catalog name, a family name, nor a spec file"
    )


def _load_group(cfg: RunConfig) -> FiniteGroup:
    spec = _resolve_spec(cfg.group)
    g = load_group(spec, cfg.max_order, seed=cfg.seed)
    if cfg.group in CATALOG:
        g = FiniteGroup(g.n, g.mul, g.identity, g.inv, cfg.group, g.spec)
    return g


def _subgroups(g: FiniteGroup, cache_dir: str) -> tuple[list[Subgroup], str]:
    """The lattice and its cache status; ``--cache-dir off`` reads and writes nothing."""
    if cache_dir == CACHE_OFF:
        return enumerate_subgroups(g), CACHE_OFF
    return cached_subgroups(g, cache_dir)


def _prepare(cfg: RunConfig) -> tuple[FiniteGroup, list[Subgroup], str, str]:
    g = _load_group(cfg)
    assert g.spec is not None
    digest = spec_hash(g.spec)
    subs, cache_status = _subgroups(g, cfg.cache_dir)
    return g, subs, digest, cache_status


def _group_block(g: FiniteGroup, digest: str, subgroup_count: int) -> dict:
    return {
        "label": g.label,
        "order": g.n,
        "spec_hash": digest,
        "subgroup_count": subgroup_count,
    }


def _runtime_block(cfg: RunConfig, cache_status: str, t0: float) -> dict:
    return {
        "elapsed_seconds": round(time.perf_counter() - t0, 6),
        "cache_status": cache_status,
        "cache_dir": cfg.cache_dir,
        "jobs": cfg.jobs,
        "report_path": cfg.report_path,
    }


def _emit(doc: dict, cfg: RunConfig) -> None:
    text = canonical_json(doc)
    if cfg.report_path:
        Path(cfg.report_path).write_text(text)
        print(f"report written to {cfg.report_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g, subs, digest, cache_status = _prepare(cfg)
    stats = pair_table(g, subs)
    reports = []
    for k in range(cfg.k_min, cfg.k_max + 1):
        rep = verify_group(
            g,
            k,
            subgroups=subs,
            pair_stats=stats,
            max_cliques=cfg.max_cliques,
            jobs=cfg.jobs,
            cache_status=cache_status,
        )
        reports.append(rep)
        print(
            f"{g.label} k={rep.k}: {rep.status}"
            f" ({rep.candidate_clique_count} candidate cliques,"
            f" {rep.tuples_examined} tuples examined)",
            file=sys.stderr,
        )
    doc = build_report(
        config=cfg.echo_dict(),
        group=_group_block(g, digest, len(subs)),
        verifications=[r.stable_dict() for r in reports],
        runtime=_runtime_block(cfg, cache_status, t0),
    )
    _emit(doc, cfg)
    return 1 if any(r.violations and r.k <= 4 for r in reports) else 0


def cmd_lemmas(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g, subs, digest, cache_status = _prepare(cfg)
    result = run_lemma_suite(g, subs, seed=cfg.seed, census_cap=cfg.max_census)
    for lid, st in result.stats.items():
        if st.failed:
            print(f"{g.label} {lid}: {st.failed}/{st.checked} FAILED", file=sys.stderr)
    print(
        f"{g.label}: {result.failures} failures across"
        f" {len(result.stats)} laws"
        f" ({result.pairs_run} pairs, {result.triples_run} triples,"
        f" {result.nested_quadruples_run} nested instances)",
        file=sys.stderr,
    )
    doc = build_report(
        config=cfg.echo_dict(),
        group=_group_block(g, digest, len(subs)),
        lemmas=result.to_json_dict(),
        runtime=_runtime_block(cfg, cache_status, t0),
    )
    _emit(doc, cfg)
    return 1 if result.failures else 0


def cmd_census(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g, subs, digest, cache_status = _prepare(cfg)
    m = len(subs)
    n_triples = math.comb(m + 2, 3)
    if n_triples > cfg.max_census:
        print(
            f"{g.label}: {n_triples} subgroup triples exceed"
            f" --max-census {cfg.max_census}",
            file=sys.stderr,
        )
        return 3
    entries = []
    enumerated = 0
    for i, j, t in combinations_with_replacement(range(m), 3):
        c = census(subs[i], subs[j], subs[t], max_census=cfg.max_census)
        enumerated += c.enumerated
        entries.append(
            {
                "subgroup_orders": [subs[i].order, subs[j].order, subs[t].order],
                "total": c.total,
                "s_pair": list(c.s_pair),
                "s_pair_pair": list(c.s_pair_pair),
                "s_triple": c.s_triple,
                "meet_all": c.meet_all,
                "n_disjoint": c.n_disjoint,
                "enumerated": c.enumerated,
            }
        )
    print(
        f"{g.label}: {len(entries)} subgroup triples censused,"
        f" {enumerated} enumerated exactly",
        file=sys.stderr,
    )
    doc = build_report(
        config=cfg.echo_dict(),
        group=_group_block(g, digest, len(subs)),
        census=entries,
        runtime=_runtime_block(cfg, cache_status, t0),
    )
    _emit(doc, cfg)
    return 0


def cmd_subgroups(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    g, subs, digest, cache_status = _prepare(cfg)
    print(f"{g.label}: {len(subs)} subgroups", file=sys.stderr)
    doc = build_report(
        config=cfg.echo_dict(),
        group=_group_block(g, digest, len(subs)),
        subgroups=[list(s.elements) for s in subs],
        runtime=_runtime_block(cfg, cache_status, t0),
    )
    _emit(doc, cfg)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    print(f"{'name':<12} {'order':>5} {'subgroups':>9}")
    for name in catalog_names():
        g = load_catalog_group(name, args.max_order)
        subs, _ = _subgroups(g, args.cache_dir)
        print(f"{name:<12} {g.n:>5} {len(subs):>9}")
    return 0


def _path_problem(args: argparse.Namespace) -> Optional[str]:
    """Why --cache-dir or --report cannot be written, found before any work."""
    if args.cache_dir != CACHE_OFF:
        # the cache directory is created on demand, so the nearest part of
        # the path that exists must be a directory
        cache = Path(args.cache_dir)
        nearest = next((p for p in (cache, *cache.parents) if p.exists()), None)
        if nearest is not None and not nearest.is_dir():
            return f"--cache-dir {args.cache_dir}: {nearest} is not a directory"
    report = getattr(args, "report", None)
    if report is not None:
        target = Path(report)
        parent = target.parent
        if target.is_dir():
            return f"--report {report}: is a directory"
        if not parent.is_dir():
            return f"--report {report}: no directory {parent}"
        if not os.access(parent, os.W_OK):
            return f"--report {report}: directory {parent} is not writable"
    return None


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--group",
        required=True,
        help="catalog name, family name (e.g. D15 or C3xC3), or path to a groupspec-v1 file",
    )
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--max-order", type=_positive_int, default=DEFAULT_ORDER_CAP)
    sp.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    sp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    sp.add_argument(
        "--report", default=None, help="write the JSON report here instead of stdout"
    )
    sp.add_argument("--max-cliques", type=_positive_int, default=DEFAULT_CLIQUE_CAP)
    sp.add_argument("--max-census", type=_positive_int, default=DEFAULT_CENSUS_CAP)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosetlab",
        description="coset counting laws and disjoint-family searches on finite groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="exhaustive disjoint-coset-family search")
    _add_common(v)
    v.add_argument(
        "--k",
        type=_parse_k_range,
        default=DEFAULT_K_RANGE,
        metavar="MIN..MAX",
        help=f"family sizes to check, within [{K_MIN}, {K_MAX}] (default 2..4)",
    )

    le = sub.add_parser("lemmas", help="run every counting law on one group")
    _add_common(le)

    ce = sub.add_parser("census", help="triple censuses over the subgroup lattice")
    _add_common(ce)

    sg = sub.add_parser("subgroups", help="list the subgroup lattice")
    _add_common(sg)

    cat = sub.add_parser("catalog", help="bundled groups with orders and lattice sizes")
    cat.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    cat.add_argument("--max-order", type=_positive_int, default=DEFAULT_ORDER_CAP)
    return p


_HANDLERS = {
    "verify": cmd_verify,
    "lemmas": cmd_lemmas,
    "census": cmd_census,
    "subgroups": cmd_subgroups,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _path_problem(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        cfg = RunConfig(
            command=args.command,
            group=args.group,
            k_min=args.k[0] if hasattr(args, "k") else DEFAULT_K_RANGE[0],
            k_max=args.k[1] if hasattr(args, "k") else DEFAULT_K_RANGE[1],
            seed=args.seed,
            max_order=args.max_order,
            max_cliques=args.max_cliques,
            max_census=args.max_census,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            report_path=args.report,
        )
        return _HANDLERS[args.command](cfg)
    except (GroupSpecError, UnknownFamily, NotAGroup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        OrderCapExceeded,
        SubgroupCountCapExceeded,
        CliqueCapExceeded,
        CounterOverflow,
    ) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
