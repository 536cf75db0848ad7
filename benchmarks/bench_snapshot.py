"""Snapshot save/load vs a cold N-Triples parse.

The storage substrate's claim: opening a binary snapshot does constant
work per index bucket (mmap + zero-copy posting views, lazy term
decode), so loading should beat re-parsing the N-Triples source by a
wide margin.  This bench times both paths over the same graph, checks
the loaded graph is *usable* (a full scan plus a counter probe, so lazy
materialization cannot hide in the load number) and equal to the
original, and persists the ratio.  It asserts identity, never the
ratio: wall-clock ratios are not stable on shared runners.

``REPRO_BENCH_QUICK=1`` shrinks the dataset for CI smoke runs.
"""

from __future__ import annotations

import contextlib
import gc
import os
import time

from conftest import write_json_result, write_result

from repro.eval import load_dataset, render_table
from repro.rdf.ntriples import parse_ntriples, write_ntriples
from repro.storage import load_snapshot, save_snapshot, snapshot_info

BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Dataset scale: small in quick mode, meaty otherwise.
SCALE = 0.25 if BENCH_QUICK else 2.0


def _timed(fn) -> float:
    with _gc_paused():
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start


@contextlib.contextmanager
def _gc_paused():
    """Cyclic GC off for a timed section (applied to parse and load alike).

    The bench process keeps several full graphs alive, so allocation
    bursts trigger gen-2 collections that scan the whole heap — noise a
    real cold-start load (or parse) in a fresh process never pays.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_snapshot_load_vs_parse(benchmark, tmp_path):
    graph = load_dataset("dbpedia2022", scale=SCALE).graph
    nt_path = tmp_path / "data.nt"
    snap_path = tmp_path / "data.snap"
    write_ntriples(sorted(graph, key=str), nt_path)
    nt_text = nt_path.read_text(encoding="utf-8")

    start = time.perf_counter()
    snap_bytes = save_snapshot(graph, snap_path)
    save_s = time.perf_counter() - start

    with _gc_paused():
        start = time.perf_counter()
        parsed = parse_ntriples(nt_text)
        parse_s = time.perf_counter() - start
    assert len(parsed) == len(graph)
    del parsed

    def load_once():
        with _gc_paused():
            return load_snapshot(snap_path)

    loaded = benchmark.pedantic(load_once, rounds=3, iterations=1)
    load_s = min(
        _timed(lambda: load_snapshot(snap_path)) for _ in range(3)
    )

    # Correctness: the loaded graph answers like the original.
    assert len(loaded) == len(graph)
    assert loaded == graph
    assert loaded.stats() == graph.stats()
    start = time.perf_counter()
    scanned = sum(1 for _ in loaded.triples())
    scan_s = time.perf_counter() - start
    assert scanned == len(graph)

    info = snapshot_info(snap_path)
    assert info["n_triples"] == len(graph)

    speedup = parse_s / load_s if load_s else float("inf")
    rows = [
        {"metric": "triples", "value": len(graph)},
        {"metric": "nt_bytes", "value": nt_path.stat().st_size},
        {"metric": "snap_bytes", "value": snap_bytes},
        {"metric": "parse_s", "value": round(parse_s, 4)},
        {"metric": "save_s", "value": round(save_s, 4)},
        {"metric": "load_s", "value": round(load_s, 4)},
        {"metric": "full_scan_s", "value": round(scan_s, 4)},
        {"metric": "load_speedup_vs_parse", "value": round(speedup, 1)},
        {"metric": "loaded_equals_graph", "value": loaded == graph},
    ]
    write_result(
        "snapshot.txt",
        render_table(rows, title="Snapshot load vs N-Triples parse"),
    )
    write_json_result(
        "snapshot",
        {row["metric"]: row["value"] for row in rows},
        quick=BENCH_QUICK, scale=SCALE,
    )
