"""Compare two result files: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) present in both files: A's and
B's value (the median over the file's repeats), the ratio B/A — A is the
base — the metric's regression bound, and a verdict:

* ``worse`` / ``better`` — B is beyond the bound on that side of A;
* ``within-bound`` — the difference is inside the bound;
* ``unresolved`` — the spread recorded in either file (interquartile
  distance over its repeats, as a share of the median) exceeds the bound,
  so the difference cannot be told from noise.

Refuses files that ran different input bytes (manifest hashes), scales,
seeds or run lengths.  Exit status: 0 when no row is ``worse``, 1 when
one is, 2 when the files are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import load_catalog


def comparable(a: dict, b: dict) -> list[str]:
    """Reasons the two result documents must not be compared."""
    reasons = []
    for key in ("seed", "smoke", "seconds", "trace"):
        if a["meta"][key] != b["meta"][key]:
            reasons.append(f"{key}: {a['meta'][key]!r} vs {b['meta'][key]!r}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma, mb = (d["workloads"][name]["manifest"] for d in (a, b))
        for key in ("dataset", "scale", "gen_version"):
            if ma[key] != mb[key]:
                reasons.append(f"{name} {key}: {ma[key]!r} vs {mb[key]!r}")
        hashes = [{f: meta["sha256"] for f, meta in m["files"].items()}
                  for m in (ma, mb)]
        if hashes[0] != hashes[1]:
            reasons.append(f"{name}: input files differ (manifest SHA-256)")
    if not set(a["workloads"]) & set(b["workloads"]):
        reasons.append("no workload in common")
    return reasons


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return "unresolved"
    base = a["value"]
    if base == 0:
        worse_by = b["value"] - base
    elif better == "lower":
        worse_by = (b["value"] - base) / base
    else:
        worse_by = (base - b["value"]) / base
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within-bound"


def compare(a: dict, b: dict, catalog: dict) -> list[dict]:
    specs = {m["name"]: m
             for m in catalog["benchmark"]["end_to_end"] + catalog["named"]}
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for section in ("end_to_end", "named"):
            sa, sb = (d["workloads"][name][section] for d in (a, b))
            for metric in sa:
                if metric not in sb:
                    continue
                spec, va, vb = specs[metric], sa[metric], sb[metric]
                rows.append({
                    "workload": name, "metric": metric, "unit": spec["unit"],
                    "a": va["value"], "b": vb["value"],
                    "ratio": vb["value"] / va["value"] if va["value"] else None,
                    "spread_a": va.get("spread"), "spread_b": vb.get("spread"),
                    "bound": spec["bound"], "better": spec["better"],
                    "verdict": verdict(va, vb, spec["better"], spec["bound"]),
                })
    return rows


def render(rows: list[dict]) -> str:
    def share(value):
        return "   -  " if value is None else f"{value:6.3f}"

    lines = [f"{'workload':13s} {'metric':20s} {'A':>12s} {'B':>12s} "
             f"{'B/A':>6s} {'sprA':>6s} {'sprB':>6s} {'bound':>5s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:13s} {row['metric']:20s} {row['a']:12.4f} "
            f"{row['b']:12.4f} {share(row['ratio'])} {share(row['spread_a'])} "
            f"{share(row['spread_b'])} {row['bound']:5.2f}  {row['verdict']}"
            f" ({row['unit']}, {row['better']} is better)")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    reasons = comparable(a, b)
    if reasons:
        print("not comparable:\n  " + "\n  ".join(reasons), file=sys.stderr)
        return 2
    rows = compare(a, b, load_catalog())
    print(f"A = {argv[0]} ({a['meta']['git_sha'][:12]}), "
          f"B = {argv[1]} ({b['meta']['git_sha'][:12]}); ratios are B/A")
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
