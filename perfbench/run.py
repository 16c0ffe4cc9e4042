"""cosetlab benchmark: time until a correct verdict, on three workloads.

Run from the root of a checkout (it imports ``src/cosetlab`` from there):

    python3 perfbench/run.py --workload structure_cold --seed 0 --seconds 20 --trace 0

Each run is one fresh process and one client in a closed loop: the
workload's CLI commands go through ``cosetlab.cli.main`` one after another,
and whole rounds of them repeat while another round fits in ``--seconds``
(at least one round).  Every report passes the correctness gate in
``gate.py`` before it counts.  Times are in reference seconds
(``refclock.py``), which cancel the drift a shared host adds; raw seconds
go to standard error.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then replays its commands as traced calls into each module
(``spans.py``) and prints the per-layer metrics; the spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --freeze

re-derives ``perfbench/digests.json``, the frozen answers the gate compares
against.  Run it only at a commit whose answers are known to be right.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import TYPE_CHECKING, Callable, Optional

from refclock import RefClock
from workloads import WORKLOADS, Op, Workload, argv, group_spec, write_spec_files

if TYPE_CHECKING:
    from gate import Gate

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3


@dataclass
class OpRun:
    rc: object
    text: str
    seconds: float
    cache_dir: Path

    def report(self) -> Optional[dict]:
        try:
            return json.loads(self.text)
        except json.JSONDecodeError:
            return None


@dataclass
class Bench:
    """State of one benchmark run over one workload."""

    main: Callable
    clock: RefClock
    workload: Workload
    seed: int
    work: Path
    gate: Gate
    spec_dir: Path = Path()
    warm_cache: Optional[Path] = None
    groups: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def set_up(self) -> float:
        """Spec files, and for warm workloads a filled lattice cache.

        Repeated in fresh directories; the last one is used and the median
        time returned.
        """
        from cosetlab.cache import cache_lattice
        from cosetlab.groups import load_group

        times = []
        for rep in range(SETUP_REPEATS):
            spec_dir = self.work / f"setup{rep}"
            t0 = self.clock()
            spec_dir.mkdir()
            write_spec_files(spec_dir, self.workload.groups)
            groups = {}
            if self.workload.warm:
                for name in self.workload.groups:
                    groups[name] = load_group(group_spec(spec_dir, name), seed=self.seed)
                    cache_lattice(groups[name], spec_dir / "cache")
            times.append(self.clock() - t0)
        self.spec_dir, self.groups = spec_dir, groups
        if self.workload.warm:
            self.warm_cache = spec_dir / "cache"
        return statistics.median(times)

    def cache_dir(self, tag: str) -> Path:
        """The warm cache, or a new empty directory for a cold round."""
        return self.warm_cache or self.work / f"cold-{tag}"

    def run_op(self, op: Op, cache_dir: Path) -> OpRun:
        args = argv(op, self.spec_dir, cache_dir, self.seed)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = self.clock()
            try:
                rc: object = self.main(args)
            except Exception as exc:  # an op that crashes fails; the run goes on
                rc = f"{type(exc).__name__}: {exc}"
            seconds = self.clock() - t0
        return OpRun(rc, out.getvalue(), seconds, cache_dir)

    def lattice(self, group: str, cache_dir: Path) -> Optional[list]:
        from cosetlab.cache import load_lattice
        from cosetlab.errors import CacheCorrupt
        from cosetlab.groups import load_group

        if group not in self.groups:
            self.groups[group] = load_group(group_spec(self.spec_dir, group), seed=self.seed)
        try:
            subs = load_lattice(self.groups[group], cache_dir)
        except CacheCorrupt:
            return None
        return None if subs is None else [s.elements for s in subs]

    def check(self, op: Op, run: OpRun) -> Optional[dict]:
        """Gate one op; returns its report when it passed."""
        doc = run.report()
        problems = self.gate.check(op, run.rc, doc, self.lattice(op.group, run.cache_dir))
        return doc if self.tally(op, problems) else None

    def tally(self, op: Op, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {op.label}: {p}", file=sys.stderr)
        return not problems

    def round(self, tag: str) -> tuple[dict, list[Optional[dict]]]:
        """One untraced round; its timings and each op's report (None if it failed)."""
        cache_dir = self.cache_dir(tag)
        gc.collect()
        spent0, cpu0, raw0, t0 = self.clock.spent, process_time(), perf_counter(), self.clock()
        runs = [self.run_op(op, cache_dir) for op in self.workload.ops]
        wall = self.clock() - t0
        raw = perf_counter() - raw0
        spent = self.clock.spent - spent0
        # CPU seconds scaled like the wall clock, without the calibration handler
        cpu = (process_time() - cpu0 - spent) * wall / (raw - spent)
        timing = {
            "wall": wall,
            "raw": raw,
            "cpu": cpu,
            "max_op": max(r.seconds for r in runs),
            # before the gate parses and validates reports, which take memory too
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        docs = [self.check(op, r) for op, r in zip(self.workload.ops, runs)]
        return timing, docs


def tree_digest(path: Path) -> dict[str, str]:
    if not path.is_dir():
        return {}
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced rounds while another one fits in ``seconds``; end-to-end metrics."""
    timings = []
    t0 = perf_counter()
    while True:
        timing, _ = bench.round(str(len(timings)))
        timings.append(timing)
        typical = statistics.median(t["raw"] for t in timings)
        if perf_counter() - t0 + typical > seconds:
            break
    walls = ", ".join(f"{t['wall']:.3f} ({t['raw']:.3f} raw)" for t in timings)
    print(f"{len(timings)} rounds, wall s: {walls}", file=sys.stderr)
    return {
        "wall_s": (statistics.median(t["wall"] for t in timings), "s"),
        "max_op_s": (statistics.median(t["max_op"] for t in timings), "s"),
        "cpu_s": (statistics.median(t["cpu"] for t in timings), "s"),
        "peak_rss_mb": (timings[0]["rss_mb"], "MB"),
    }


def traced(bench: Bench, name: str) -> dict:
    """One untraced round, then its traced replay; per-layer metrics."""
    from spans import COUNTS, LAYERS, Tracer, replay_op, replay_problems

    timing, docs = bench.round("untraced")
    ops = [(i, op, doc) for i, (op, doc) in enumerate(zip(bench.workload.ops, docs)) if doc]
    cache_dir = bench.cache_dir("traced")
    tracer, counts = Tracer(bench.clock), Counter()
    gc.collect()
    t0 = bench.clock()
    seen = [
        replay_op(tracer, i, op, doc, bench.spec_dir, cache_dir, bench.seed, counts)
        for i, op, doc in ops
    ]
    traced_wall = bench.clock() - t0
    for (_, op, doc), obs in zip(ops, seen):
        bench.tally(op, replay_problems(op, obs, doc))
    if bench.failed:
        # tuples_examined comes from the reports, so a failed op leaves gaps
        print("per-layer numbers omit failed ops", file=sys.stderr)
    for doc in filter(None, docs):
        for v in doc.get("verifications", []):
            counts["verifier.tuples_examined"] += v["tuples_examined"]

    out_dir = HERE / "out"
    tracer.write(
        out_dir / f"trace-{name}-seed{bench.seed}.json", t0, [op.label for _, op, _ in ops]
    )
    self_times = tracer.self_times()
    metrics = {f"{layer}_s": (self_times.get(layer, 0.0), "s") for layer in LAYERS}
    layer_total = sum(v for v, _ in metrics.values())
    metrics["cli.self_s"] = (traced_wall - layer_total, "s")
    metrics["trace.overhead_s"] = (traced_wall - timing["wall"], "s")
    for key in COUNTS:
        metrics[key] = (counts[key], "bytes" if key.endswith("bytes") else "count")
    cliques = counts["verifier.cliques"]
    metrics["verifier.tuples_per_clique"] = (
        counts["verifier.tuples_examined"] / cliques if cliques else 0.0,
        "tuples/clique",
    )
    print(f"traced {traced_wall:.3f} s, untraced {timing['wall']:.3f} s", file=sys.stderr)
    for layer in (*LAYERS, "cli.self"):
        share = metrics[f"{layer}_s"][0] / traced_wall
        print(f"  {layer:<22} {metrics[f'{layer}_s'][0]:9.3f} s  {share:6.1%}", file=sys.stderr)
    return metrics


def freeze(main: Callable, clock: RefClock) -> int:
    """Run every workload once on seed 0 and freeze its answers."""
    from gate import Gate

    gate = Gate(frozen=None)
    failed = 0
    for name, wl in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE / "out") as work:
            bench = Bench(main, clock, wl, 0, Path(work), gate)
            bench.set_up()
            bench.round("freeze")
            failed += bench.failed
            passed = bench.attempted - bench.failed
            print(f"{name}: {passed}/{bench.attempted} ops passed", file=sys.stderr)
    if failed:
        print("not freezing: some ops failed their invariants", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(gate.answers, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(gate.answers)} digests to {DIGESTS}", file=sys.stderr)
    return 0


def run(args: argparse.Namespace, clock: RefClock) -> int:
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "cosetlab" / "__init__.py").is_file():
        print(f"error: no src/cosetlab under {root}; run from a checkout root", file=sys.stderr)
        return 2
    t0 = clock()
    sys.path.insert(0, str(src))
    import cosetlab.cli

    import_s = clock() - t0
    if not Path(cosetlab.cli.__file__).resolve().is_relative_to(src):
        print(f"error: cosetlab imported from {cosetlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from gate import Gate

    (HERE / "out").mkdir(exist_ok=True)
    if args.freeze:
        return freeze(cosetlab.cli.main, clock)
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not DIGESTS.is_file():
        print(f"error: {DIGESTS} is missing", file=sys.stderr)
        return 2

    repo_cache = root / ".cosetlab-cache"
    repo_cache_before = tree_digest(repo_cache)
    gate = Gate(frozen=json.loads(DIGESTS.read_text()))
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "out"))
    try:
        bench = Bench(cosetlab.cli.main, clock, WORKLOADS[args.workload], args.seed, work, gate)
        setup_s = import_s + bench.set_up()
        if args.trace:
            metrics = traced(bench, args.workload)
        else:
            metrics = measure(bench, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bench.failed == 0
    if tree_digest(repo_cache) != repo_cache_before:
        print(f"FAILED: the run changed {repo_cache}", file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--freeze", action="store_true", help="rewrite digests.json, then exit")
    args = p.parse_args()
    clock = RefClock()
    clock.start()
    try:
        return run(args, clock)
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
