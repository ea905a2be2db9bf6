"""The served sweep: LiveStore, the HTTP endpoints, and `sweep --port`."""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.obs.metrics import MetricsRegistry
from repro.telemetry import (LiveStore, parse_exposition, read_records,
                             render_exposition, replay, serving)


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def test_live_store_merges_in_seed_order():
    store = LiveStore()
    a, b = MetricsRegistry(), MetricsRegistry()
    a.set_gauge("g", 1.0)
    b.set_gauge("g", 2.0)
    # updates arrive out of seed order; merge must still be seed-ordered
    store.update(1, 1001, b.snapshot())
    store.update(0, 1000, a.snapshot())
    assert store.merged().get("g").value == 2.0  # seed 1001 is later
    store.update(0, 1000, a.snapshot())          # refresh changes nothing
    assert store.merged().get("g").value == 2.0
    assert len(store) == 2


def test_ephemeral_port_allocation():
    with serving(LiveStore(), port=0) as server:
        assert server.server_address[1] > 0


def test_serving_renders_the_store_live():
    store = LiveStore()
    registry = MetricsRegistry()
    registry.incr("attack.netsed.rewrites", 2)
    with serving(store) as server:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        assert _get(url + "/healthz") == "ok\n"
        assert _get(url + "/metrics") == ""  # no trial finished yet
        store.update(0, 1000, registry.snapshot())
        assert _get(url + "/metrics") == render_exposition(registry)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url + "/nope")
        assert excinfo.value.code == 404


def _scrape_until_done(port_file, metrics_file, seen: dict) -> None:
    """Scrape the served sweep until it has written its metrics file,
    take one last scrape of the final view, then send SIGINT."""
    deadline = time.monotonic() + 120
    while not port_file.exists() or not port_file.read_text().strip():
        if time.monotonic() > deadline:
            return  # never served: main() has returned on its own
        time.sleep(0.05)
    try:
        url = f"http://127.0.0.1:{int(port_file.read_text())}"
        seen["health"] = _get(url + "/healthz")
        try:
            _get(url + "/nope")
        except urllib.error.HTTPError as exc:
            seen["not_found"] = exc.code
        while time.monotonic() < deadline:
            try:
                json.loads(metrics_file.read_text())
                done = True
            except (OSError, ValueError):
                done = False  # not written yet, or half written
            seen.setdefault("scrapes", []).append(_get(url + "/metrics"))
            if done:
                break
            time.sleep(0.05)
    finally:
        os.kill(os.getpid(), signal.SIGINT)


def test_sweep_serves_and_streams_the_merged_registry(tmp_path, capsys):
    stream, metrics = tmp_path / "s.jsonl", tmp_path / "m.json"
    served_json, plain_json = tmp_path / "j.json", tmp_path / "plain.json"
    port_file = tmp_path / "port"
    seen: dict = {}
    scraper = threading.Thread(
        target=_scrape_until_done, args=(port_file, metrics, seen),
        daemon=True)
    scraper.start()
    assert main(["sweep", "FIG2", "--trials", "3", "--workers", "2",
                 "--port", "0", "--port-file", str(port_file),
                 "--jsonl", str(stream), "--metrics", str(metrics),
                 "--json", str(served_json)]) == 0
    scraper.join(timeout=30)
    assert "serving the merged registry on http://" in capsys.readouterr().out

    assert seen["health"] == "ok\n"
    assert seen["not_found"] == 404
    for text in seen["scrapes"]:
        parse_exposition(text)  # every scrape is valid exposition text
    merged = json.loads(metrics.read_text())["metrics"]
    assert seen["scrapes"][-1] == render_exposition(merged)
    families = parse_exposition(seen["scrapes"][-1])
    rewrites = families["repro_attack_netsed_rewrites_total"]["samples"]
    assert rewrites[0][2] > 0

    records = list(read_records(str(stream)))
    assert [r["kind"] for r in records] \
        == ["meta", "snapshot", "snapshot", "snapshot", "final"]
    assert sorted(r["seed"] for r in records[1:-1]) == [1000, 1001, 1002]
    assert replay(str(stream)).snapshot() == merged == records[-1]["metrics"]

    # serving and streaming leave the experiment's results alone
    assert main(["sweep", "FIG2", "--trials", "3",
                 "--json", str(plain_json)]) == 0
    assert json.loads(served_json.read_text())["results"] \
        == json.loads(plain_json.read_text())["results"]
