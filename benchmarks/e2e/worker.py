"""One workload in one fresh process.  Started by ``run.py``, not by hand.

Reads the generated input files, runs ``setup -> measure -> finish``
(``-> extras`` when traced) and writes raw samples, facts, op counts and
per-layer numbers as one JSON document to ``--result``.  ``repro.obs``
stays off: no tracer, recorder or workload tracker is installed, so the
untraced numbers are what a plain library user gets.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from harness import HERE, REPO, NullTracer, Ops, Tracer, peak_rss_mb

sys.path.insert(0, str(REPO / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the parent spawned us")
    args = parser.parse_args(argv)

    from workloads import CLASSES

    tracer = Tracer() if args.trace else NullTracer()
    ops = Ops()
    args.work.mkdir(parents=True, exist_ok=True)
    workload = CLASSES[args.workload](args.inputs, args.work, tracer, ops,
                                      args.part, args.parts)
    workload.setup()
    # Process start -> first timed operation, interpreter start-up and
    # imports included: what a cold start of this workload costs.
    setup_s = time.time() - args.spawned_at
    workload.measure(args.seconds)
    workload.finish()
    if args.trace:
        workload.extras()
        tracer.write_jsonl(HERE / "results" / f"trace-{args.workload}.jsonl",
                           args.workload)
    args.result.write_text(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "samples": workload.samples,
        "facts": workload.facts,
        "layer": workload.layer,
        "omitted": workload.omitted,
        "spans": len(getattr(tracer, "spans", ())),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
