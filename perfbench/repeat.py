"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload run-cold --seeds 1-10 [--trace 0]

For each metric it prints the median, the quartiles of the per-run values and
the spread, the distance between the quartiles as a share of the median, next
to a third of the metric's bound from BENCHMARK.json. Pass seeds not used while
writing a change (say --seeds 101-110) to check a claim on fresh inputs.
Every run measures for the manifest's run_seconds, as the gated runs do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}

    runs = []
    for seed in args.seeds:
        cmd = manifest["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(manifest["run_seconds"]),
                                     "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # every printed "name value unit" line, gated or not
        shown = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3 and parts[0][0].isalpha():
                try:
                    shown[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
                except ValueError:
                    pass
        runs.append({"seed": seed, **result, "shown": shown})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                          if k in bounds or args.trace)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} {values if not args.trace else ''}", flush=True)

    print(f"\n{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound/3':>8s}")
    for name in {**runs[0]["shown"], **runs[0]["metrics"]}:
        values = [r["metrics"].get(name, r["shown"].get(name, {})).get("value")
                  for r in runs]
        if None in values:
            continue
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:8.3f}" if bound else ""
        flag = " OVER" if bound and spread > bound / 3 else ""
        print(f"{name:36s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {third}{flag}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
