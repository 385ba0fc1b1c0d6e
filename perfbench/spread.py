"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload sweep-mix --seeds 1,2,3,4,5 [--trace 1] [--json out.json]

Runs are made one after another, never in parallel. For each metric it
prints the median, the quartiles from statistics.quantiles(values, n=4)
and the spread (q3 - q1) / median; for end-to-end metrics it also
prints a third of the metric's bound from BENCHMARK.json, the spread a
steady benchmark should stay under.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma list of seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    runs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
        runs.append({"seed": seed, "env": env, "result": result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in list(result["metrics"].items())[:4]), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {name: summarize(v) for name, v in values.items()}
    for name, s in summary.items():
        limit = f"  (bound/3 {bounds[name] / 3:.3f})" if bounds.get(name) else ""
        print(f"{name:<40} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.3f}{limit}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "seconds": seconds,
             "metrics": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
