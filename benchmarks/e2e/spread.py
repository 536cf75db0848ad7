"""Repeatability across seeds: ``spread.py [--runs 10] [--first-seed 1]``.

Runs every workload ``--runs`` times, each time with another seed, as the
acceptance procedure does, and prints for each end-to-end metric the
median and the quartile spread — the distance between the first and the
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median — next to its bound.  Exit status 1 when a spread other than
``setup_s``'s exceeds its bound.  About four minutes per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from harness import HERE, REPO, WORKLOADS, median, quartile_spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    report: dict = {"first_seed": args.first_seed, "runs": args.runs,
                    "workloads": {}}
    over = 0
    for name in names:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            process = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed)],
                cwd=REPO, capture_output=True, text=True)
            walls.append(time.perf_counter() - started)
            last = json.loads(process.stdout.strip().splitlines()[-1])
            if process.returncode != 0 or not last["correct"]:
                print(f"{name} seed {seed}: FAILED\n{process.stdout[-2000:]}",
                      file=sys.stderr)
                return 1
            for metric, entry in last["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"== {name}: run wall median {median(walls):.1f}s, "
              f"max {max(walls):.1f}s")
        report["workloads"][name] = {"walls_s": walls, "metrics": {}}
        for metric, series in values.items():
            spread = quartile_spread(series)
            exceeded = metric != "setup_s" and spread > bounds[metric]
            over += exceeded
            report["workloads"][name]["metrics"][metric] = {
                "values": series, "median": median(series), "spread": spread}
            print(f"  {metric:14s} median {median(series):12.4f}  "
                  f"spread {spread:.3f}  bound {bounds[metric]:.2f}"
                  f"{'  EXCEEDED' if exceeded else ''}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
