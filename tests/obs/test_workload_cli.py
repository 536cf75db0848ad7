"""The workload surfaces: ``repro query --repeat`` and the ops routes.

Drives the real ``repro`` CLI (``cli.main``) and scrapes the
``/debug/statements`` and ``/healthz`` routes of a live
:class:`~repro.obs.OpsServer`.

``golden/statements.json`` pins the ``/debug/statements`` payload
(timings are volatile, so every float is masked to ``#`` before
comparison; the statement list is re-sorted by ``(lang, fingerprint)``
because the natural heaviest-first order depends on wall time).

Regenerate with ``PYTHONPATH=src python tests/obs/test_workload_cli.py``.
"""

from __future__ import annotations

import json
import re
import urllib.request
from pathlib import Path

import pytest

from repro import cli, obs
from repro.core.pipeline import S3PG
from repro.datasets.university import university_graph, university_shapes
from repro.pg.store import PropertyGraphStore
from repro.query.cypher.evaluator import CypherEngine
from repro.query.sparql.evaluator import SparqlEngine
from repro.rdf.ntriples import write_ntriples

GOLDEN_DIR = Path(__file__).parent / "golden"
UNI = "http://example.org/university#"

_FLOAT_RE = re.compile(r"-?\d+\.\d+")


def _mask(text: str) -> str:
    """Replace every float (timings, q-errors) with ``#``."""
    return _FLOAT_RE.sub("#", text)


def _run_reference_workload():
    """A fixed query sequence over the Figure 2 graph (both engines).

    Returns the engines — the plan-cache registry holds weak
    references, so a caller inspecting ``/healthz`` must keep them
    alive past the scrape.
    """
    graph = university_graph()
    result = S3PG().transform(graph, university_shapes())
    store = PropertyGraphStore(result.graph)
    sparql = SparqlEngine(graph)
    cypher = CypherEngine(store)
    name_query = f"SELECT ?s ?n WHERE {{ ?s <{UNI}name> ?n }}"
    sparql.query(name_query)
    sparql.query(name_query)  # plan-cache hit
    sparql.query(
        f'SELECT ?s WHERE {{ ?s <{UNI}name> "Emma" }}'
    )
    sparql.query(
        f'SELECT ?s WHERE {{ ?s <{UNI}name> "Bob" }}'
    )  # literal twin: same fingerprint as the Emma query
    cypher.query("MATCH (p:uni_Professor) RETURN p.iri AS iri")
    return sparql, cypher


# --------------------------------------------------------------------- #
# CLI: `repro query --repeat --warmup`
# --------------------------------------------------------------------- #

@pytest.fixture()
def uni_nt(tmp_path):
    path = tmp_path / "uni.nt"
    write_ntriples(university_graph(), path)
    return str(path)


def test_query_repeat_and_warmup(uni_nt, capsys):
    rc = cli.main([
        "query", uni_nt,
        f"SELECT ?s ?n WHERE {{ ?s <{UNI}name> ?n }}",
        "--repeat", "3", "--warmup", "1", "--limit", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean latency" in out
    assert "over 3 run(s) (1 warm-up)" in out
    assert obs.get_workload() is None  # the CLI installs no tracker


# --------------------------------------------------------------------- #
# Ops routes
# --------------------------------------------------------------------- #

def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, json.loads(response.read())


@pytest.fixture()
def server():
    instance = obs.OpsServer(port=0)
    instance.start()
    yield instance
    instance.stop()


def test_debug_statements_route(server):
    obs.install_workload()
    _run_reference_workload()
    status, payload = _get_json(server.url + "/debug/statements")
    assert status == 200
    assert len(payload) == 3
    status, top1 = _get_json(server.url + "/debug/statements?top=1")
    assert len(top1) == 1
    status, cypher_only = _get_json(
        server.url + "/debug/statements?lang=cypher"
    )
    assert [s["lang"] for s in cypher_only] == ["cypher"]

    for bad in ("?top=x", "?lang=sql"):
        try:
            urllib.request.urlopen(
                server.url + "/debug/statements" + bad, timeout=5.0
            )
        except urllib.error.HTTPError as error:
            assert error.code == 400
        else:  # pragma: no cover
            pytest.fail("expected a 400")


def test_healthz_reports_plan_cache_store_and_statements(server):
    obs.install_workload()
    engines = _run_reference_workload()  # noqa: F841 (weakly registered)
    registry = obs.get_metrics()
    registry.gauge("repro_store_nodes").set(7)
    registry.gauge("repro_store_edges").set(9)
    registry.gauge("repro_graph_triples").set(40)
    status, payload = _get_json(server.url + "/healthz")
    assert status == 200
    assert payload["store"] == {"nodes": 7, "edges": 9, "triples": 40}
    assert payload["statements"]["statements"] == 3
    caches = payload["plan_cache"]
    assert caches["sparql"]["hits"] >= 1
    assert 0.0 <= caches["sparql"]["occupancy"] <= 1.0
    assert "cypher" in caches


# --------------------------------------------------------------------- #
# Goldens
# --------------------------------------------------------------------- #

def _statements_payload(server) -> str:
    obs.install_workload()
    _run_reference_workload()
    _status, payload = _get_json(server.url + "/debug/statements")
    payload.sort(key=lambda s: (s["lang"], s["fingerprint"]))
    return _mask(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_debug_statements_matches_golden(server):
    expected = (GOLDEN_DIR / "statements.json").read_text(encoding="utf-8")
    assert _statements_payload(server) == expected


def _regenerate() -> None:  # pragma: no cover
    """Rewrite the golden file (run this module as a script)."""
    server = obs.OpsServer(port=0)
    server.start()
    try:
        (GOLDEN_DIR / "statements.json").write_text(
            _statements_payload(server), encoding="utf-8"
        )
    finally:
        server.stop()
        obs.uninstall_workload()
    print(f"regenerated {GOLDEN_DIR / 'statements.json'}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
