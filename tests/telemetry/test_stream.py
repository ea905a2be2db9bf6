"""JSON-lines stream: record grammar, replay == in-process merge."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.telemetry.stream import JsonlWriter, read_records, replay


def _reg(n: int) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.incr("telemetry.sessions.completed", n)
    reg.set_gauge("telemetry.sessions.active", n * 0.5)
    reg.observe("telemetry.session.latency_s", float(n), lo=0.0, hi=40.0,
                bins=160)
    return reg


def test_writer_emits_one_json_object_per_line(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with JsonlWriter(path) as writer:
        writer.write_meta(shards=2)
        writer.write_snapshot(0, 1000, _reg(1).snapshot())
        writer.write_final(_reg(1).snapshot())
    lines = open(path).read().splitlines()
    assert len(lines) == 3
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds == ["meta", "snapshot", "final"]
    meta = json.loads(lines[0])
    assert meta["version"] == 1 and meta["shards"] == 2


def test_writer_appends_and_seq_increases(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with JsonlWriter(path) as writer:
        writer.write_snapshot(0, 1000, {})
    with JsonlWriter(path) as writer:
        writer.write_snapshot(1, 1001, {})
    records = list(read_records(path))
    assert [r["index"] for r in records] == [0, 1]


def test_read_records_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"kind": "meta"}\nnot json\n')
    with pytest.raises(ValueError, match="bad JSON"):
        list(read_records(path))
    with open(path, "w") as fh:
        fh.write('{"no_kind": 1}\n')
    with pytest.raises(ValueError, match="without a kind"):
        list(read_records(path))


def test_replay_keeps_last_snapshot_per_index_and_merges_in_seed_order(
        tmp_path):
    path = str(tmp_path / "t.jsonl")
    with JsonlWriter(path) as writer:
        writer.write_meta()
        # interleaved cumulative snapshots, shard 1 arrives before shard 0
        writer.write_snapshot(1, 1001, _reg(2).snapshot())
        writer.write_snapshot(0, 1000, _reg(1).snapshot())
        writer.write_snapshot(1, 1001, _reg(5).snapshot())   # supersedes
        writer.write_snapshot(0, 1000, _reg(3).snapshot())   # supersedes
    expected = MetricsRegistry()
    expected.merge(_reg(3)).merge(_reg(5))  # last per shard, seed order
    assert replay(path).snapshot() == expected.snapshot()


def test_replay_of_partial_stream_is_consistent_not_torn(tmp_path):
    # Dropping a prefix of snapshots loses staleness, not correctness:
    # the replayed registry is exactly the last-cumulative-per-shard merge.
    path = str(tmp_path / "t.jsonl")
    with JsonlWriter(path) as writer:
        writer.write_snapshot(0, 1000, _reg(9).snapshot())
    assert replay(path).snapshot() == _reg(9).snapshot()


def _write_campaign(path: str, sizes) -> MetricsRegistry:
    """Append one campaign (one trial per size) and return its merge."""
    merged = MetricsRegistry()
    with JsonlWriter(path) as writer:
        writer.write_meta(trials=len(sizes))
        for index, n in enumerate(sizes):
            writer.write_snapshot(index, 1000 + index, _reg(n).snapshot())
            merged.merge(_reg(n))
        writer.write_final(merged.snapshot())
    return merged


def test_replay_of_appended_stream_folds_only_the_last_campaign(tmp_path):
    # The writer appends, so a second, smaller campaign written to the
    # same path must not pick up the first campaign's trials 2-3.
    path = str(tmp_path / "t.jsonl")
    _write_campaign(path, [1, 2, 3, 4])
    second = _write_campaign(path, [5, 6])
    assert replay(path).snapshot() == second.snapshot()
    assert list(read_records(path))[-1]["metrics"] == second.snapshot()


def test_writer_accepts_file_object():
    import io

    buffer = io.StringIO()
    writer = JsonlWriter(buffer)
    writer.write_meta(note="x")
    writer.close()  # must not close a sink it does not own
    assert json.loads(buffer.getvalue())["note"] == "x"
