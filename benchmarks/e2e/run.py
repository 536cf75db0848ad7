"""The repo's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--repeat R] [--out FILE]
                                  [--smoke]

For each workload: generate (or reuse) its input files from the seed, run
it in fresh processes on those files, check its outputs, and print every
metric by name with its unit.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` (default) is the untraced run: three fresh processes per
workload, each measuring a third of ``--seconds``; samples are pooled,
``setup_s`` and ``peak_rss_mb`` are medians over the processes.  It
reports the end-to-end metrics.  ``--trace 1`` is the traced run: one
process, harness-side spans around every call into a library layer,
written to ``results/trace-<workload>.jsonl``; it reports the per-layer
metrics.  Exit status is non-zero when any operation or check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from harness import (HERE, PROCESSES, REPO, WORKLOADS, median,
                     quartile_spread)

#: A workload process that runs longer than this is killed.
PROCESS_TIMEOUT_S = 170


def load_catalog() -> dict:
    """BENCHMARK.json's metric lists plus the named per-workload metrics."""
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    return {"benchmark": benchmark, "named": named["end_to_end"]}


def run_process(workload: str, inputs: Path, seconds: float, trace: int,
                part: int, parts: int) -> dict | None:
    """Run one workload process to completion; None when it crashed."""
    work = HERE / "work" / f"{workload}-{os.getpid()}-{part}"
    result_path = work.with_suffix(".json")
    work.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--inputs", str(inputs), "--work", str(work),
        "--result", str(result_path), "--seconds", str(seconds),
        "--trace", str(trace), "--part", str(part), "--parts", str(parts),
        "--spawned-at", repr(time.time()),
    ]
    try:
        # run() kills the process and waits for it when the timeout expires.
        code = subprocess.run(command, cwd=REPO,
                              timeout=PROCESS_TIMEOUT_S).returncode
        if code == 0:
            return json.loads(result_path.read_text(encoding="utf-8"))
        print(f"{workload}: workload process exited {code}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"{workload}: workload process timed out", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result_path.unlink(missing_ok=True)
    return None


def generate_inputs(name: str, args) -> tuple[Path, dict]:
    """Run ``gen.py`` for one workload; returns (inputs dir, manifest).

    In a process of its own: this one stays free of the library and of
    generated graphs, because a child's ``ru_maxrss`` starts from the
    size its parent had at ``fork``.
    """
    from gen import inputs_dir

    command = [sys.executable, str(HERE / "gen.py"), "--seed", str(args.seed),
               "--workload", name] + (["--smoke"] if args.smoke else [])
    subprocess.run(command, cwd=REPO, check=True, stdout=subprocess.DEVNULL,
                   timeout=PROCESS_TIMEOUT_S)
    inputs = inputs_dir(args.seed, args.smoke) / name
    return inputs, json.loads(
        (inputs / "manifest.json").read_text(encoding="utf-8"))


def run_workload(name: str, args, catalog: dict) -> dict:
    """Generate inputs, run the processes, pool, summarize, check."""
    from workloads import CLASSES

    inputs, manifest = generate_inputs(name, args)
    parts = 1 if args.trace else PROCESSES
    runs = [run_process(name, inputs, args.seconds / parts, args.trace,
                        part, parts) for part in range(parts)]
    crashed = sum(run is None for run in runs)
    runs = [run for run in runs if run is not None]
    document = {
        "manifest": manifest,
        "processes": parts,
        "attempted": sum(run["attempted"] for run in runs) + crashed,
        "failed": sum(run["failed"] for run in runs) + crashed,
        "failures": [f for run in runs for f in run["failures"]]
        + ["workload process crashed"] * crashed,
        "end_to_end": {}, "named": {}, "per_layer": {}, "omitted": {},
        "counts": {},
    }
    if not runs:
        return document
    samples: dict[str, list] = {}
    for run in runs:
        for key, values in run["samples"].items():
            samples.setdefault(key, []).extend(values)
    facts = runs[0]["facts"]
    document["facts"] = facts
    document["counts"] = {
        key: len(values) for key, values in samples.items()
        if not key.startswith("stmt/")
    }
    document["counts"]["rounds"] = sum(r["facts"].get("rounds", 0) for r in runs)

    if args.trace:
        layer = dict(runs[0]["layer"])
        layer["datasets.generate_s"] = manifest["generate_s"]
        document["omitted"] = runs[0]["omitted"]
        for metric in catalog["benchmark"]["per_layer"]:
            # A layer this workload does not enter did no work: 0.
            document["per_layer"][metric["name"]] = {
                "value": layer.pop(metric["name"], 0), "unit": metric["unit"]}
        document["per_layer_other"] = layer  # e.g. per-statement medians
        document["spans"] = runs[0]["spans"]
        return document

    values = CLASSES[name].summarize(samples, facts)
    values["setup_s"] = median(run["setup_s"] for run in runs)
    values["peak_rss_mb"] = median(run["peak_rss_mb"] for run in runs)
    values["failed_share"] = document["failed"] / document["attempted"]
    for metric in catalog["benchmark"]["end_to_end"]:
        if metric["name"] in values:
            document["end_to_end"][metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"]}
        else:
            document["failed"] += 1
            document["failures"].append(f"metric {metric['name']} not produced")
    for metric in catalog["named"]:
        if name in metric["workloads"] and metric["name"] in values:
            document["named"][metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"]}
    return document


def merge_repeats(documents: list[dict]) -> dict:
    """One document for ``--repeat`` runs: medians, values, their spread."""
    merged = documents[-1]
    if len(documents) > 1:
        for key in ("attempted", "failed", "failures"):
            merged[key] = sum((d[key] for d in documents), type(merged[key])())
        for section in ("end_to_end", "named", "per_layer"):
            for metric, entry in merged[section].items():
                values = [d[section][metric]["value"] for d in documents
                          if metric in d[section]]
                entry.update(value=median(values), values=values,
                             spread=quartile_spread(values))
    return merged


def metadata(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeat": args.repeat,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "load_avg_start": os.getloadavg()[0],
    }


def print_metrics(name: str, document: dict) -> None:
    print(f"== {name}: attempted {document['attempted']}, "
          f"failed {document['failed']}")
    for section in ("end_to_end", "named", "per_layer"):
        for metric, entry in document[section].items():
            print(f"{name:13s} {section:10s} {metric:42s} "
                  f"{entry['value']:>14.4f} {entry['unit']}")
    for metric, reason in document["omitted"].items():
        print(f"{name:13s} omitted    {metric}: {reason}")
    for failure in document["failures"]:
        print(f"{name:13s} FAILED     {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; the result records the "
                             "median, every value and their quartile spread")
    parser.add_argument("--out", type=Path, help="write the full result JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-scale inputs, two rounds: a self-test")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print("run.py: src/repro not found: nothing to benchmark",
              file=sys.stderr)
        return 2
    from gen import DEFAULT_SEED

    catalog = load_catalog()
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(
            catalog["benchmark"]["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    result = {"schema_version": 1, "meta": metadata(args), "workloads": {}}
    # Repeats go round the workloads, not workload by workload: a noisy
    # minute on a shared machine then costs each workload one repeat, not
    # one workload all of its repeats.
    documents: dict[str, list] = {name: [] for name in names}
    for _ in range(args.repeat):
        for name in names:
            documents[name].append(run_workload(name, args, catalog))
    for name in names:
        result["workloads"][name] = merge_repeats(documents[name])
        print_metrics(name, result["workloads"][name])
    meta = result["meta"]
    meta["load_avg_end"] = os.getloadavg()[0]
    meta["noisy"] = max(meta["load_avg_start"], meta["load_avg_end"]) > (
        meta["nproc"] or 1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n",
                            encoding="utf-8")

    attempted = sum(d["attempted"] for d in result["workloads"].values())
    failed = sum(d["failed"] for d in result["workloads"].values())
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, document in result["workloads"].items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, entry in document[section].items():
            metrics[prefix + metric] = entry
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
