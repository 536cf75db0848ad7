"""The HTTP ops endpoint: routes, payloads, and a live end-to-end scrape.

The first half exercises :class:`~repro.obs.OpsServer` directly on an
ephemeral port; the second drives the real ``repro serve`` CLI with
``--ops-port`` in a background thread and scrapes ``/metrics`` and
``/debug/slow`` while the process holds its post-replay grace period —
the same sequence the CI smoke job runs against a delta log.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import cli, obs
from repro.cdc.changefeed import Delta, write_delta_log
from repro.datasets.university import university_graph
from repro.rdf.ntriples import write_ntriples


def _get(url: str, timeout: float = 5.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:  # non-2xx still has a body
        return error.code, dict(error.headers), error.read()


def _get_json(url: str):
    status, _headers, body = _get(url)
    return status, json.loads(body)


@pytest.fixture()
def server():
    instance = obs.OpsServer(port=0)  # ephemeral port
    instance.start()
    yield instance
    instance.stop()


# --------------------------------------------------------------------- #
# Direct route tests
# --------------------------------------------------------------------- #

def test_metrics_route_serves_prometheus_text(server):
    obs.get_metrics().counter("repro_test_total", help="x").inc(3)
    status, headers, body = _get(server.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    text = body.decode()
    assert "# TYPE repro_test_total counter" in text
    assert "repro_test_total 3" in text


def test_healthz_reports_recorder_and_custom_health(server):
    obs.install_recorder(span_capacity=16)
    server.health = lambda: {"watermark": 42}
    status, document = _get_json(server.url + "/healthz")
    assert status == 200
    assert document["status"] == "ok"
    assert document["watermark"] == 42
    assert document["recorder"]["span_capacity"] == 16


def test_healthz_degrades_on_health_callback_failure(server):
    server.health = lambda: 1 / 0
    status, document = _get_json(server.url + "/healthz")
    assert status == 200  # liveness still answers
    assert document["status"] == "degraded"
    assert document["health_error"].startswith("ZeroDivisionError")


def test_debug_slow_and_trace_routes(server):
    obs.install_recorder(slow_threshold_ms=0.0)
    with obs.span("unit.op"):
        pass
    obs.report_query("sparql", "SELECT 1", None, 0.01, rows=2,
                     plan=lambda: {"op": "Scan"})
    status, slow = _get_json(server.url + "/debug/slow")
    assert status == 200
    assert len(slow) == 1
    assert slow[0]["kind"] == "query" and slow[0]["plan"] == {"op": "Scan"}
    status, trace = _get_json(server.url + "/debug/trace?limit=10")
    assert status == 200
    assert [record["name"] for record in trace] == ["unit.op"]
    status, _ = _get_json(server.url + "/debug/trace?limit=nope")
    assert status == 400


def test_debug_routes_empty_without_recorder(server):
    assert _get_json(server.url + "/debug/slow") == (200, [])
    assert _get_json(server.url + "/debug/trace") == (200, [])


def test_root_index_and_404(server):
    status, document = _get_json(server.url + "/")
    assert status == 200
    assert "/metrics" in document["routes"]
    status, document = _get_json(server.url + "/nope")
    assert status == 404


def test_quitquitquit_sets_shutdown_event(server):
    assert not server.shutdown_requested.is_set()
    status, document = _get_json(server.url + "/quitquitquit")
    assert status == 200 and document["shutdown"] is True
    assert server.wait(timeout=1.0)


# --------------------------------------------------------------------- #
# Live end-to-end scrape through the CLI
# --------------------------------------------------------------------- #

def _write_cdc_fixture(tmp_path):
    """Base graph + a held-back tail replayed as a delta log."""
    triples = sorted(university_graph(), key=lambda t: t.n3())
    base, held = triples[:-6], triples[-6:]
    base_path = tmp_path / "base.nt"
    write_ntriples(base, base_path)
    deltas = [
        Delta(seq=i, added=(triple,)) for i, triple in enumerate(held, 1)
    ]
    log_path = tmp_path / "deltas.jsonl"
    write_delta_log(deltas, log_path)
    return base_path, log_path, len(deltas)


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_serve_once_scrapes_live(tmp_path, capsys):
    base_path, log_path, n_deltas = _write_cdc_fixture(tmp_path)
    port = _free_port()
    base_url = f"http://127.0.0.1:{port}"
    exit_code = {}
    argv = [
        "serve", "--source", str(log_path), "--data", str(base_path),
        "--once", "--ops-port", str(port), "--slow-ms", "0",
        "--ops-grace-s", "60",
    ]

    def run():
        exit_code["value"] = cli.main(argv)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        # Poll /healthz until the replay has applied every delta (the
        # grace period keeps the endpoint up after the log hits EOF).
        document = None
        for _ in range(200):
            try:
                _status, document = _get_json(base_url + "/healthz")
                if document.get("watermark") == n_deltas:
                    break
            except (urllib.error.URLError, ConnectionError):
                pass
            thread.join(0.05)
        assert document is not None, "ops endpoint never came up"
        assert document["status"] == "ok"
        assert document["watermark"] == n_deltas
        assert document["deltas_applied"] == n_deltas
        assert document["recorder"]["slow_captured"] >= 1

        status, _headers, body = _get(base_url + "/metrics")
        assert status == 200
        exposition = body.decode()
        for family in (
            "repro_cdc_deltas_total",
            "repro_cdc_delta_latency_seconds",
            "repro_cdc_batch_seconds",
            "repro_cdc_staleness_seconds",
            "repro_cdc_queue_depth",
            "repro_query_latency_seconds",
            "repro_plan_q_error",
            "repro_slow_ops_total",
        ):
            assert f"# TYPE {family}" in exposition, family
        assert f'repro_cdc_deltas_total{{status="applied"}} {n_deltas}' \
            in exposition

        _status, slow = _get_json(base_url + "/debug/slow")
        assert any(record["kind"] == "cdc.batch" for record in slow)

        status, document = _get_json(base_url + "/quitquitquit")
        assert status == 200 and document["shutdown"] is True
    finally:
        # Unblock the grace period even on assertion failure.
        try:
            urllib.request.urlopen(base_url + "/quitquitquit", timeout=1.0)
        except (urllib.error.URLError, ConnectionError):
            pass
        thread.join(timeout=15.0)

    assert not thread.is_alive(), "serve did not exit after /quitquitquit"
    assert exit_code.get("value") == 0
    assert obs.get_recorder() is None  # serve uninstalled its recorder
    output = capsys.readouterr().out
    assert f"applied {n_deltas} delta(s)" in output
    assert "holding ops endpoint" in output
