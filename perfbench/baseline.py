"""Record a baseline: repeated untraced runs per workload, one traced run each.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --first-seed 0 --out perfbench/BASELINE.json

Run i of a workload uses seed first-seed + i.  For each end-to-end metric
the output holds the values, their median, their quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance between
the quartiles as a share of the median, next to the metric's bound.  The
traced run (on the first seed) gives each layer's self time and its share
of the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    doc: dict = {"run_seconds": BENCH["run_seconds"], "runs": args.runs, "workloads": {}}
    for name in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(name, seed, 0) for seed in seeds]
        entry: dict = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric in BENCH["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summarize(values, metric["bound"])
            entry["end_to_end"][metric["name"]] = s
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(
                f"{name:<15} {metric['name']:<12} median {s['median']:10.4f}"
                f"  spread {s['spread']:.4f} (bound {metric['bound']}){flag}",
                flush=True,
            )

        traced = run_once(name, args.first_seed, 1)["metrics"]
        layer_names = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "s"]
        traced_wall = sum(traced[n]["value"] for n in layer_names if n != "trace.overhead_s")
        entry["traced"] = {
            "wall_s": traced_wall,
            "overhead_s": traced["trace.overhead_s"]["value"],
            "layers": {
                n[:-2]: {"self_s": traced[n]["value"], "share": traced[n]["value"] / traced_wall}
                for n in layer_names
                if n != "trace.overhead_s"
            },
            "counts": {n: v["value"] for n, v in traced.items() if v["unit"] != "s"},
        }
        top = max(entry["traced"]["layers"].items(), key=lambda kv: kv[1]["share"])
        print(f"{name:<15} largest layer {top[0]} ({top[1]['share']:.1%})", flush=True)
        doc["workloads"][name] = entry

    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
