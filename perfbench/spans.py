"""Traced replay: each command re-run as the public calls the CLI makes.

Spans are recorded around calls into each module from outside it, kept in
memory, and written out once at the end.  A span is (id, name, start, end,
parent id, op id); a layer's self time is its spans' durations minus the
parts covered by their child spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from cosetlab.cache import load_lattice, store_lattice
from cosetlab.counting import census
from cosetlab.groups import load_group
from cosetlab.lemmas import run_lemma_suite
from cosetlab.report import build_report, canonical_json
from cosetlab.subgroups import enumerate_subgroups
from cosetlab.verifier import candidate_cliques, pair_table, search_disjoint_tuple

from workloads import Op, group_spec

# Span names of the layers, in pipeline order; metric "<name>_s" is the self time.
LAYERS = (
    "groups.load",
    "cache.load",
    "subgroups.enumerate",
    "cache.store",
    "verifier.pair_table",
    "verifier.cliques",
    "verifier.search",
    "counting.census",
    "lemmas.suite",
    "report.serialize",
)

COUNTS = (
    "subgroups.count",
    "cache.bytes",
    "verifier.pairs",
    "verifier.disjointable_pairs",
    "verifier.cliques",
    "verifier.tuples_examined",
    "counting.census_calls",
    "counting.coset_triples",
    "lemmas.checks",
    "report.bytes",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, Optional[int], int]] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self._op))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def op(self, op_id: int, name: str) -> Iterator[None]:
        self._op = op_id
        with self.span(name):
            yield

    def self_times(self) -> dict[str, float]:
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            out[name] += end - start - covered[sid]
        return out

    def write(self, path: Path, t0: float, ops: list[str]) -> None:
        spans = sorted(self.spans, key=lambda s: s[2])
        doc = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "ops": ops,
            "spans": [[sid, n, s - t0, e - t0, p, o] for sid, n, s, e, p, o in spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def replay_op(
    tr: Tracer,
    op_id: int,
    op: Op,
    report: dict,
    spec_dir: Path,
    cache_dir: Path,
    seed: int,
    counts: Counter,
) -> dict:
    """Replay one command; returns what it observed, for comparison with the
    untraced report once tracing is over.

    Blocks the replay cannot rebuild from public return values (the
    verification dicts, config, group and runtime) are taken from the
    untraced report, so the serialized document has the same size.
    """
    seen: dict = {}
    with tr.op(op_id, f"cli.{op.command}"):
        spec = group_spec(spec_dir, op.group)
        g = tr.call("groups.load", load_group, spec, seed=seed)
        subs = tr.call("cache.load", load_lattice, g, cache_dir)
        if subs is None:
            subs = tr.call("subgroups.enumerate", enumerate_subgroups, g)
            path = tr.call("cache.store", store_lattice, g, subs, cache_dir)
            counts["cache.bytes"] += path.stat().st_size
        counts["subgroups.count"] += len(subs)
        seen["subgroup_count"] = len(subs)

        blocks: dict = {}
        if op.command == "verify":
            stats = tr.call("verifier.pair_table", pair_table, g, subs)
            counts["verifier.pairs"] += len(stats)
            counts["verifier.disjointable_pairs"] += sum(st.disjointable for st in stats)
            lo, hi = op.k_range
            for k in range(lo, hi + 1):
                cliques = tr.call(
                    "verifier.cliques", candidate_cliques, g, k, subgroups=subs, pair_stats=stats
                )
                found = 0
                for clique in cliques:
                    family = [subs[i] for i in clique]
                    if tr.call("verifier.search", search_disjoint_tuple, family) is not None:
                        found += 1
                counts["verifier.cliques"] += len(cliques)
                seen[f"k={k}"] = (len(cliques), found)
            blocks["verifications"] = report["verifications"]
        elif op.command == "census":
            entries = []
            for i, j, t in combinations_with_replacement(range(len(subs)), 3):
                c = tr.call("counting.census", census, subs[i], subs[j], subs[t])
                counts["counting.census_calls"] += 1
                counts["counting.coset_triples"] += c.total
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
            blocks["census"] = seen["census"] = entries
        elif op.command == "lemmas":
            result = tr.call("lemmas.suite", run_lemma_suite, g, subs, seed=seed)
            counts["lemmas.checks"] += sum(st.checked for st in result.stats.values())
            blocks["lemmas"] = seen["lemmas"] = result.to_json_dict()

        with tr.span("report.serialize"):
            text = canonical_json(
                build_report(
                    config=report["config"],
                    group=report["group"],
                    runtime=report["runtime"],
                    **blocks,
                )
            )
        counts["report.bytes"] += len(text)
    return seen


def replay_problems(op: Op, seen: dict, report: dict) -> list[str]:
    """Where the replay disagrees with the untraced command's report."""
    problems = []
    if seen["subgroup_count"] != report["group"]["subgroup_count"]:
        problems.append("replayed lattice size differs from the report")
    if op.command == "verify":
        for v in report["verifications"]:
            if seen[f"k={v['k']}"] != (v["candidate_cliques"], len(v["violations"])):
                problems.append(f"k={v['k']}: replayed cliques or finds differ from the report")
    elif seen[op.command] != report[op.command]:
        problems.append(f"replayed {op.command} block differs from the report")
    return problems
