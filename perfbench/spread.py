"""Run the benchmark over several seeds and print, per workload and
metric, the median, the quartiles and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads drain,paced,train --seeds 1-10 \\
        [--trace 0|1] [--out results.json]

Run from the repository root. Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="drain,paced,train")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="write every run's result here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_list(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=took,
                          notes=[ln[2:] for ln in lines if ln.startswith("# ")])
            runs[workload].append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} in {took:.1f} s",
                  flush=True)
        print(f"\n{workload}: {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs[workload]
                      if m["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of bound"
            print(f"{workload}: {m['name']:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} {m['unit']}{flag}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), "utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
