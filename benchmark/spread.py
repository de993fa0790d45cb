"""Run the untraced benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py --workload relu100-boundary --seeds 1-10 [--json out.json]

For every metric this prints the median of the runs, their first and third
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median.  End-to-end
metrics are steady enough when each spread stays below its bound in
``BENCHMARK.json``.  Runs go one after another, in separate processes, as
the benchmark is meant to be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--json", help="also write the runs and summary to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        environment = json.loads(lines[-2].removeprefix("environment "))
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "environment": environment, "result": result})
        values = "  ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()) if k in bounds)
        print(f"seed {seed}: attempted {result['attempted']}  {values}", flush=True)

    summary = {}
    reported = {name: [r["result"]["metrics"][name]["value"] for r in runs] for name in runs[0]["result"]["metrics"]}
    raw = {f"raw {name}": [r["environment"]["raw"][name] for r in runs] for name in runs[0]["environment"]["raw"]}
    raw["reference_pass_ms"] = [r["environment"]["reference_pass_ms"] for r in runs]
    for name, values in sorted(reported.items()) + sorted(raw.items()):
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
        mark = ""
        if name in bounds:
            mark = "  within bound/3" if spread < bounds[name] / 3 else ("  within bound" if spread <= bounds[name] else "  OVER BOUND")
        print(f"{name:<48} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}{mark}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
