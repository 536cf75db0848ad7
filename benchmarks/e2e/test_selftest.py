"""Self-test of the end-to-end benchmark (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e/test_selftest.py -q

Runs every workload through ``run.py --smoke`` (tenth-scale inputs, the
minimum number of rounds), untraced and traced, and checks that the
result documents match ``schema.json``, that every metric BENCHMARK.json
and ``metrics.json`` name is emitted for the workloads they list, and
that ``compare.py`` accepts equal inputs and refuses different ones.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

from harness import WORKLOADS, validate  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
SCHEMA = json.loads((HERE / "schema.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=REPO,
        capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """Untraced and traced smoke runs over all workloads, timed."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {}
    for trace in ("0", "1"):
        started = time.perf_counter()
        process = run("--smoke", "--trace", trace,
                      "--out", str(out / f"smoke-{trace}.json"))
        runs[trace] = {
            "process": process,
            "seconds": time.perf_counter() - started,
            "path": out / f"smoke-{trace}.json",
            "last": json.loads(process.stdout.strip().splitlines()[-1]),
            "document": json.loads(
                (out / f"smoke-{trace}.json").read_text(encoding="utf-8")),
        }
    return runs


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCHMARK["workloads"])
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in BENCHMARK["per_layer"])
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert (REPO / BENCHMARK["command"][1]).is_file()


def test_smoke_is_green_and_quick(smoke):
    for trace, entry in smoke.items():
        assert entry["process"].returncode == 0, entry["process"].stdout[-3000:]
        assert entry["last"]["correct"] and entry["last"]["failed"] == 0
        assert entry["seconds"] < 60, f"--trace {trace}: {entry['seconds']:.0f}s"


def test_result_documents_match_schema(smoke):
    for entry in smoke.values():
        assert validate(entry["document"], SCHEMA) == []
        assert set(entry["document"]["workloads"]) == set(WORKLOADS)


def test_every_named_metric_is_emitted(smoke):
    untraced = smoke["0"]["document"]["workloads"]
    traced = smoke["1"]["document"]["workloads"]
    for name in WORKLOADS:
        assert set(untraced[name]["end_to_end"]) == {
            m["name"] for m in BENCHMARK["end_to_end"]}
        assert all(entry["value"] != 0
                   for entry in untraced[name]["end_to_end"].values())
        assert set(traced[name]["per_layer"]) == {
            m["name"] for m in BENCHMARK["per_layer"]}
        expected = {m["name"] for m in NAMED["end_to_end"]
                    if name in m["workloads"]}
        # A smoke stream is too short for a p95 (ten samples beyond it).
        assert set(untraced[name]["named"]) == expected - {"cdc_apply_p95_ms"}
        assert untraced[name]["named"]["failed_share"]["value"] == 0
    # Every per-layer metric is produced by at least one workload.
    for metric in BENCHMARK["per_layer"]:
        assert any(traced[name]["per_layer"][metric["name"]]["value"] != 0
                   or metric["name"] in traced[name]["omitted"]
                   for name in WORKLOADS), metric["name"]
    # The driver's last line, one workload at a time, has bare names.
    single = run("--smoke", "--workload", "query_join")
    last = json.loads(single.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_compare_accepts_same_inputs_and_refuses_others(smoke, tmp_path):
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        compare + [str(smoke["0"]["path"])] * 2, cwd=REPO,
        capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "within-bound" in same.stdout and "worse" not in same.stdout
    other = tmp_path / "other-seed.json"
    assert run("--smoke", "--workload", "query_join", "--seed", "7",
               "--out", str(other)).returncode == 0
    refused = subprocess.run(
        compare + [str(smoke["0"]["path"]), str(other)], cwd=REPO,
        capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2 and "seed" in refused.stderr
