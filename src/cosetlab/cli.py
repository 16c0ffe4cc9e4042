"""Command line front end.

Exit codes: 0 clean, 1 finding (disjoint family at k <= 4, a failed law, or
a failed consistency check), 2 bad input (unknown group, malformed spec, table
not a group, a --cache-dir or --report path that cannot be written), 3
resource cap hit (order, subgroup count, clique count, census size).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .cache import DEFAULT_CACHE_DIR, cached_subgroups, spec_hash
from .catalog import catalog_names, load_catalog_group
from .counting import DEFAULT_CENSUS_CAP, _triples, lattice_census
from .errors import BadInput, CensusCapExceeded, ConsistencyError, GroupSpecError, ResourceLimit
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupSpec, load_group, spec_from_token
from .lemmas import run_lemma_suite
from .report import CensusRows, build_report, report_chunks
from .subgroups import Lattice, enumerate_subgroups
from .verifier import DEFAULT_CLIQUE_CAP, K_MAX, K_MIN, PairRows, verify_group

DEFAULT_K_RANGE = (2, 4)
CACHE_OFF = "off"
ORDER_HELP = f"largest group order built; a larger one exits 3 (default {DEFAULT_ORDER_CAP})"
CACHE_HELP = f"lattice cache directory, or {CACHE_OFF} to read and write none (default {DEFAULT_CACHE_DIR})"


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


def _int_from(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < low:
        raise argparse.ArgumentTypeError(f"{value} is not at least {low}")
    return value


def _positive_int(text: str) -> int:
    return _int_from(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_from(text, 0)


def _resolve_spec(token: str) -> GroupSpec:
    """A family string or product of them, such as a catalog name, D15 or
    C3xC3, then a spec file."""
    spec = spec_from_token(token)
    if spec is not None:
        return spec
    path = Path(token)
    if path.is_file():
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise GroupSpecError(f"{token}: unreadable spec file ({exc})") from exc
        return GroupSpec.from_dict(doc)
    raise GroupSpecError(
        f"{token!r} is neither a catalog name, a family name, nor a spec file"
    )


def _subgroups(g: FiniteGroup, cache_dir: str) -> tuple[Lattice, str]:
    """The lattice and its cache status; ``--cache-dir off`` reads and writes nothing."""
    if cache_dir == CACHE_OFF:
        return enumerate_subgroups(g), CACHE_OFF
    return cached_subgroups(g, cache_dir)


def cmd_verify(
    args: argparse.Namespace, g: FiniteGroup, subs: Lattice
) -> tuple[dict, int]:
    stats = PairRows(g, subs)
    reports = []
    for k in range(args.k[0], args.k[1] + 1):
        rep = verify_group(
            g,
            k,
            subgroups=subs,
            pair_stats=stats,
            max_cliques=args.max_cliques,
        )
        reports.append(rep)
        print(
            f"{g.label} k={rep.k}: {rep.status}"
            f" ({rep.candidate_clique_count} candidate cliques"
            f" in {rep.clique_orbits} orbits,"
            f" {rep.tuples_examined} tuples examined)",
            file=sys.stderr,
        )
    code = 1 if any(r.violations and r.k <= 4 for r in reports) else 0
    return {"verifications": [r.stable_dict() for r in reports]}, code


def cmd_lemmas(
    args: argparse.Namespace, g: FiniteGroup, subs: Lattice
) -> tuple[dict, int]:
    result = run_lemma_suite(g, subs, seed=args.seed, census_cap=args.max_census)
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
    return {"lemmas": result.to_json_dict()}, 1 if result.failures else 0


def cmd_census(
    args: argparse.Namespace, g: FiniteGroup, subs: Lattice
) -> tuple[dict, int]:
    m = len(subs)
    n_triples = math.comb(m + 2, 3)
    if n_triples > args.max_census:
        raise CensusCapExceeded(
            f"{g.label}: {n_triples} subgroup triples exceed"
            f" --max-census {args.max_census}"
        )
    counts, errors = lattice_census(subs, max_census=args.max_census)
    if errors:
        raise ConsistencyError(errors[min(errors)])
    rows = CensusRows({**counts, "subgroup_orders": subs.order[_triples(m)]}, counts["enumerated"])
    print(
        f"{g.label}: {n_triples} subgroup triples censused"
        f" in {np.count_nonzero(counts['representative'])} orbits,"
        f" {np.count_nonzero(rows.enumerated)} enumerated exactly",
        file=sys.stderr,
    )
    return {"census": rows}, 0


def cmd_subgroups(
    args: argparse.Namespace, g: FiniteGroup, subs: Lattice
) -> tuple[dict, int]:
    print(f"{g.label}: {len(subs)} subgroups", file=sys.stderr)
    return {"subgroups": [list(s.elements) for s in subs]}, 0


def _run(args: argparse.Namespace) -> int:
    """Load the group and its lattice, run the command's work, write the report.

    ``args.work`` is a cmd_* function above; it returns its report blocks and
    exit code.  config echoes the command, the group token and every k, seed
    and cap value, the defaults of flags the command does not take included,
    so all reports have the same keys; cache dir, report path and the seconds
    of each phase (load, lattice, then the command's work) go to the volatile
    runtime block.
    """
    t0 = time.perf_counter()
    marks = [0.0]

    def mark() -> None:
        marks.append(round(time.perf_counter() - t0, 6))

    g = load_group(_resolve_spec(args.group), args.max_order, seed=args.seed)
    mark()
    subs, cache_status = _subgroups(g, args.cache_dir)
    mark()
    blocks, code = args.work(args, g, subs)
    mark()
    doc = build_report(
        config={
            "command": args.command,
            "group": args.group,
            "k_min": args.k[0],
            "k_max": args.k[1],
            "seed": args.seed,
            "max_order": args.max_order,
            "max_cliques": args.max_cliques,
            "max_census": args.max_census,
        },
        group={
            "label": g.label,
            "order": g.n,
            "spec_hash": spec_hash(g.spec),
            "subgroup_count": len(subs),
        },
        runtime={
            "elapsed_seconds": round(time.perf_counter() - t0, 6),
            # differences of rounded marks, so they add up to the last mark
            "phases": {
                name: round(b - a, 6)
                for name, a, b in zip(("load", "lattice", args.command), marks, marks[1:])
            },
            "cache_status": cache_status,
            "cache_dir": args.cache_dir,
            "report_path": args.report,
        },
        **blocks,
    )
    if args.report:
        with open(args.report, "w") as out:
            out.writelines(report_chunks(doc))
        print(f"report written to {args.report}", file=sys.stderr)
    else:
        sys.stdout.writelines(report_chunks(doc))
    return code


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


def _add_common(
    sp: argparse.ArgumentParser, work: Callable[..., tuple[dict, int]]
) -> None:
    """The flags every work command reads, and the defaults of all the rest.

    A flag only some commands take is added after this call without its own
    default, so argparse copies it from here; the commands without the flag
    echo the same default, and every report keeps the same keys.
    """
    sp.set_defaults(
        work=work,
        k=DEFAULT_K_RANGE,
        max_cliques=DEFAULT_CLIQUE_CAP,
        max_census=DEFAULT_CENSUS_CAP,
    )
    sp.add_argument(
        "--group",
        required=True,
        help="catalog name, family name (e.g. D15 or C3xC3), or path to a groupspec-v1 file",
    )
    sp.add_argument(
        "--seed", type=_non_negative_int, default=0, help="seed for sampled checks"
    )
    sp.add_argument("--max-order", type=_positive_int, default=DEFAULT_ORDER_CAP, help=ORDER_HELP)
    sp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, help=CACHE_HELP)
    sp.add_argument(
        "--report", default=None, help="write the JSON report here instead of stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosetlab",
        description="coset counting laws and disjoint-family searches on finite groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="exhaustive disjoint-coset-family search")
    _add_common(v, cmd_verify)
    v.add_argument(
        "--k",
        type=_parse_k_range,
        metavar="MIN..MAX",
        help=f"family sizes to check, within [{K_MIN}, {K_MAX}] (default 2..4)",
    )
    v.add_argument(
        "--max-cliques",
        type=_positive_int,
        help=f"most clique prefixes searched per k; more exit 3 (default {DEFAULT_CLIQUE_CAP})",
    )

    per_triple = "coset triples enumerated per subgroup triple (closed forms only above it)"
    for name, help_text, work, cap_help in (
        ("lemmas", "run every counting law on one group", cmd_lemmas, f"most {per_triple}"),
        ("census", "triple censuses over the subgroup lattice", cmd_census,
         f"most subgroup triples (more exit 3), and most {per_triple}"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, work)
        sp.add_argument(
            "--max-census", type=_positive_int, help=f"{cap_help} (default {DEFAULT_CENSUS_CAP})"
        )

    sg = sub.add_parser("subgroups", help="list the subgroup lattice")
    _add_common(sg, cmd_subgroups)

    cat = sub.add_parser("catalog", help="bundled groups with orders and lattice sizes")
    cat.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, help=CACHE_HELP)
    cat.add_argument("--max-order", type=_positive_int, default=DEFAULT_ORDER_CAP, help=ORDER_HELP)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = _path_problem(args)
        if problem is not None:
            raise BadInput(problem)
        if args.command == "catalog":
            return cmd_catalog(args)
        return _run(args)
    except (BadInput, OSError) as exc:
        # OSError: a --cache-dir or --report path the checks let through
        # that the system still refuses, such as a name too long
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
