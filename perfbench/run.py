"""Benchmark entry point.

    python3 perfbench/run.py --workload drain|paced|train --seed N \\
        --seconds S --trace 0|1

Run from the repository root. It imports the program from ``src/``,
generates every input from the seed, measures for about ``--seconds``
seconds, checks the outputs, prints each metric with its unit, and ends
with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run. Exits 2, printing no result,
when the program's source is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["drain", "paced", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "ideation_stream"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ideation_stream

    if Path(ideation_stream.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported {ideation_stream.__file__}, not {package}",
              file=sys.stderr)
        return 2
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"  # byte-reproducible .isp files

    import workloads

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(run_dir)  # `serve` and `report` write their manifests to the cwd
    try:
        trace_path = WORK / f"trace-{args.workload}.jsonl" if args.trace else None
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, run_dir,
                                                    trace_path)
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        units = declared_units("per_layer")
        metrics = {name: result.metrics.get(name, 0.0) for name in units}
    else:
        units = declared_units("end_to_end")
        metrics = dict(result.metrics)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for note in result.notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    missing = sorted(set(units) - set(metrics))
    correct = result.failed == 0 and result.attempted > 0 and not missing
    if missing:
        print(f"# missing metrics: {missing}")
    print(json.dumps({"correct": correct, "attempted": max(result.attempted, 1),
                      "failed": result.failed,
                      "metrics": {name: {"value": float(value), "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
