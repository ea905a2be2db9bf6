"""The `python -m repro` CLI and the experiment registry."""

import json

import pytest

from repro.__main__ import main
from repro.core.registry import (EXPERIMENTS, SeededExperiment,
                                 get_experiment, render_result,
                                 spec_accepts_seed)
from repro.telemetry import read_records, replay


def test_registry_covers_design_index():
    ids = {s.exp_id for s in EXPERIMENTS}
    paper = {"FIG1", "FIG2", "FIG3", "E-WEP", "E-MAC", "E-FMS",
             "E-DEAUTH", "E-NETSED", "E-WIRED", "E-VPNOH",
             "E-DETECT", "E-PROM", "E-CNN", "E-8021X"}
    extensions = {"X-PATH", "X-CONTAIN", "E-WIDS",
                  "E-DOWNGRADE", "E-CSA", "E-PMF"}
    assert ids == paper | extensions


def test_registry_every_spec_has_claims():
    from repro.core.claims import claim_count

    for spec in EXPERIMENTS:
        assert claim_count(spec.claims) > 0, spec.exp_id


def test_get_experiment_case_insensitive():
    assert get_experiment("fig2").exp_id == "FIG2"
    with pytest.raises(KeyError):
        get_experiment("E-NOPE")


def test_render_result_tables_and_scalars():
    out = render_result({"rows": [{"a": 1, "b": True}, {"a": 2, "c": "x"}],
                         "note": "hello"})
    assert "a" in out and "b" in out and "c" in out
    assert "note = hello" in out


def test_render_result_nested_dicts_become_titled_blocks():
    result = {"worlds": {"naive": {"alerts": [{"detector": "seqctl", "t": 4.1}],
                                   "alert_count": 1, "first": None},
                         "benign": {"alerts": [], "alert_count": 0}},
              "scorecard": {"roc": {"seqctl": [{"fpr": "lo", "tpr": "hi"}]},
                            "auc": {"seqctl": 1.0}},
              "empty": {}, "ok": True}
    blocks = render_result(result).split("\n\n")
    assert blocks[0].splitlines()[:2] == ["worlds.naive.alerts",
                                          "detector | t  "]
    assert blocks[1:] == [
        "worlds.naive.alert_count = 1\nworlds.naive.first = None",
        "worlds.benign.alerts = []\nworlds.benign.alert_count = 0",
        "scorecard.roc.seqctl\nfpr | tpr\n----+----\nlo  | hi ",
        "scorecard.auc.seqctl = 1.0",
        "empty = {}\nok = True"]


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "FIG1" in out and "E-8021X" in out


def test_cli_threats(capsys):
    assert main(["threats"]) == 0
    out = capsys.readouterr().out
    assert "rogue-access-point" in out
    assert "not simulated" in out


def test_cli_run_fast_experiment(capsys):
    assert main(["run", "E-8021X"]) == 0
    out = capsys.readouterr().out
    assert "ROGUE" in out and "completed in" in out


def test_cli_run_unknown(capsys):
    assert main(["run", "E-NOPE"]) == 2


def test_cli_run_fig2(capsys):
    assert main(["run", "FIG2"]) == 0
    out = capsys.readouterr().out
    assert "rogue + netsed" in out and "completed in" in out


def test_cli_sweep_json_parallel(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "E-8021X", "--trials", "3", "--workers", "2",
                 "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "Sweep E-8021X" in out and "1002" in out
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "E-8021X"
    assert payload["trials"] == 3 and payload["workers"] == 2
    assert payload["failures"] == []
    assert [r["seed"] for r in payload["results"]] == [1000, 1001, 1002]
    for entry in payload["results"]:
        assert entry["value"]["rows"]  # each per-seed result carries its tables


def test_cli_sweep_json_top_level_keys(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "FIG1", "--trials", "2",
                 "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert set(payload) == {"experiment", "title", "trials", "seed_base",
                            "workers", "elapsed_s", "ok", "results",
                            "failures", "metrics", "lineages"}


def test_cli_sweep_unknown_experiment(capsys):
    assert main(["sweep", "E-NOPE"]) == 2


def test_cli_sweep_streams_the_merged_registry(tmp_path, capsys):
    stream, metrics = tmp_path / "s.jsonl", tmp_path / "m.json"
    streamed_json, plain_json = tmp_path / "j.json", tmp_path / "plain.json"
    assert main(["sweep", "FIG2", "--trials", "3", "--workers", "2",
                 "--jsonl", str(stream), "--metrics", str(metrics),
                 "--json", str(streamed_json)]) == 0

    records = list(read_records(str(stream)))
    assert [r["kind"] for r in records] \
        == ["meta", "snapshot", "snapshot", "snapshot", "final"]
    assert sorted(r["seed"] for r in records[1:-1]) == [1000, 1001, 1002]
    merged = json.loads(metrics.read_text())["metrics"]
    assert replay(str(stream)).snapshot() == merged == records[-1]["metrics"]

    # streaming leaves the experiment's results alone
    assert main(["sweep", "FIG2", "--trials", "3",
                 "--json", str(plain_json)]) == 0
    assert json.loads(streamed_json.read_text())["results"] \
        == json.loads(plain_json.read_text())["results"]


def test_cli_sweep_custom_seed_base(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "E-8021X", "--trials", "2", "--seed-base", "7",
                 "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert [r["seed"] for r in payload["results"]] == [7, 8]


def _raises_on_seed_1001(seed):
    if seed == 1001:
        raise KeyError("no station for seed 1001")
    return {"rows": [{"seed": seed}]}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_exits_1_when_a_trial_fails(workers, tmp_path,
                                              monkeypatch, capsys):
    """One failing seed fails the sweep; --json keeps its traceback."""
    import repro.core.registry as registry
    from repro.core.registry import ExperimentSpec

    spec = ExperimentSpec("STUB", "raises on one seed", "-",
                          _raises_on_seed_1001, lambda result: [])
    monkeypatch.setattr(registry, "EXPERIMENTS",
                        [*registry.EXPERIMENTS, spec])
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "STUB", "--trials", "3", "--workers", workers,
                 "--json", str(out_file)]) == 1
    captured = capsys.readouterr()
    assert "1 of 3 trial(s) failed" in captured.err
    assert "FAILED" in captured.out
    assert "KeyError: 'no station for seed 1001'" in captured.out
    payload = json.loads(out_file.read_text())
    assert payload["ok"] == 2
    [failure] = payload["failures"]
    assert (failure["seed"], failure["kind"]) == (1001, "error")
    assert failure["message"].startswith("Traceback")
    assert "_raises_on_seed_1001" in failure["message"]


def test_seeded_experiment_adapter():
    adapter = SeededExperiment("e-8021x")  # case-insensitive, normalized
    assert adapter.exp_id == "E-8021X"
    result = adapter(seed=3)
    assert result["rows"]
    with pytest.raises(KeyError):
        SeededExperiment("E-NOPE")


def test_spec_accepts_seed_distinguishes_runner_shapes():
    assert spec_accepts_seed(get_experiment("FIG2"))          # runner(seed=...)
    assert not spec_accepts_seed(get_experiment("E-NETSED"))  # runner(trials=...)


def test_cli_profile_prints_breakdown_and_metrics(capsys):
    assert main(["run", "FIG1", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "profiling FIG1" in out
    # the per-category wall-clock breakdown table
    assert "category" in out and "calls" in out
    assert "total_ms" in out and "share" in out
    assert "kernel." in out  # event-dispatch spans by module
    # the metrics registry listing
    assert "counter" in out


def test_cli_profile_unknown_experiment(capsys):
    assert main(["run", "E-NOPE", "--profile"]) == 2
    assert "E-NOPE" in capsys.readouterr().err


def test_cli_profile_json_snapshot(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    assert main(["run", "FIG1", "--profile", "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "FIG1"
    assert payload["elapsed_s"] > 0
    assert any(cat.startswith("kernel.") for cat in payload["profile"])
    for acc in payload["profile"].values():
        assert set(acc) == {"kind", "count", "total_s", "min_s", "max_s"}
        assert acc["kind"] == "timer"
    for metric in payload["metrics"].values():
        assert metric["kind"] in {"counter", "gauge", "timer", "histogram"}


def test_cli_profile_malformed_json_path(tmp_path, capsys):
    bad = tmp_path / "not-a-dir" / "profile.json"
    assert main(["run", "E-8021X", "--profile", "--json", str(bad)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_cli_sweep_metrics_json_schema(tmp_path, capsys):
    out_file = tmp_path / "metrics.json"
    assert main(["sweep", "FIG2", "--trials", "2", "--workers", "2",
                 "--metrics", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "FIG2"
    assert payload["trials"] == 2
    names = set(payload["metrics"])
    # the acceptance families: radio, tcp, netfilter, and attack counters
    for family in ("radio.", "tcp.", "netfilter.", "attack."):
        assert any(n.startswith(family) for n in names), family
    for metric in payload["metrics"].values():
        assert metric["kind"] in {"counter", "gauge", "timer", "histogram"}
    # counters aggregated across both trials are positive
    assert payload["metrics"]["radio.deliveries"]["value"] > 0


def test_cli_sweep_metrics_malformed_path(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "metrics.json"
    assert main(["sweep", "E-8021X", "--trials", "2",
                 "--metrics", str(bad)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_cli_sweep_without_metrics_flag_ships_none(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "E-8021X", "--trials", "2",
                 "--json", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["metrics"] is None  # collection off => nothing shipped


def test_cli_trace_fig2_reconstructs_the_mitm_path(tmp_path, capsys):
    pcap = tmp_path / "frames.pcap"
    chrome = tmp_path / "trace.json"
    assert main(["run", "FIG2", "--trace", "--pcap", str(pcap),
                 "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    # the hop-by-hop Fig-2 path: victim, rogue bridge, rewrite, upstream
    assert "MITM path" in out
    assert "netsed.rewrite@rogue-gw" in out
    assert "nic.deliver@rogue-gw:eth1" in out
    assert "nic.deliver@victim:wlan0" in out
    # before/after payload diff around the rewrite
    assert "href=file.tgz" in out
    assert "href=http:%2f%2f198.51.100.66" in out
    # sim-trace corroboration via Trace.between/matching
    assert "netsed.* event(s)" in out
    # exports landed and announced themselves
    assert "linktype 105" in out and "Perfetto" in out
    assert pcap.read_bytes()[:4] == b"\xd4\xc3\xb2\xa1"  # LE pcap magic
    assert json.loads(chrome.read_text())["traceEvents"]


def test_cli_trace_follow_prints_one_lineage(capsys):
    assert main(["run", "FIG2", "--trace", "--follow", "2"]) == 0
    out = capsys.readouterr().out
    assert "#2 in full" in out


def test_cli_trace_follow_unknown_id(capsys):
    assert main(["run", "E-8021X", "--trace", "--follow",
                 "999999"]) == 1
    assert "not in the ring buffer" in capsys.readouterr().err


def test_cli_trace_unknown_experiment(capsys):
    assert main(["run", "E-NOPE", "--trace"]) == 2
    assert "E-NOPE" in capsys.readouterr().err


def test_cli_trace_without_rewrite_falls_back_to_longest_chain(capsys):
    assert main(["run", "E-DETECT", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "no netsed rewrite recorded" in out
    assert "longest causal chain" in out


@pytest.fixture
def frameless_experiment(monkeypatch):
    """`run` resolves any id to a stub experiment that builds no medium
    (E-FMS is the only registered one, and it takes seconds)."""
    import repro.__main__ as cli
    from repro.core.registry import ExperimentSpec

    spec = ExperimentSpec("STUB", "frameless", "-",
                          lambda: {"rows": [{"transmitted": False}]},
                          lambda result: [])
    monkeypatch.setattr(cli, "get_experiment", lambda exp_id: spec)


def test_cli_trace_frameless_experiment(frameless_experiment, capsys):
    assert main(["run", "STUB", "--trace"]) == 0
    assert "no frames recorded" in capsys.readouterr().out


def test_cli_run_exits_1_on_a_failing_claim(tmp_path, monkeypatch, capsys):
    """A failed claim is printed, recorded in --json and fails the run."""
    import repro.__main__ as cli
    from repro.core.claims import Claim
    from repro.core.registry import ExperimentSpec

    spec = ExperimentSpec(
        "STUB", "one claim holds, one fails", "-", lambda: {"n": 1},
        lambda result: [Claim("n is one", result["n"] == 1, "n=1"),
                        Claim("n is two", result["n"] == 2, "n=1")])
    monkeypatch.setattr(cli, "get_experiment", lambda exp_id: spec)
    out_file = tmp_path / "run.json"
    assert main(["run", "STUB", "--json", str(out_file)]) == 1
    out = capsys.readouterr().out
    assert "claims: 1/2 hold" in out
    assert "[ok] n is one" in out and "[FAIL] n is two" in out
    assert json.loads(out_file.read_text())["claims"] == [
        {"name": "n is one", "ok": True, "detail": "n=1"},
        {"name": "n is two", "ok": False, "detail": "n=1"}]


def test_cli_sweep_flight_recorder_ships_lineage_samples(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    assert main(["sweep", "FIG2", "--trials", "2", "--workers", "2",
                 "--flight-recorder", "8", "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "lineage sample(s)" in out and "merged in seed order" in out
    payload = json.loads(out_file.read_text())
    lineages = payload["lineages"]
    assert lineages and {ln["seed"] for ln in lineages} == {1000, 1001}
    for ln in lineages:
        assert {"trace_id", "kind", "origin", "t0", "hops"} <= set(ln)
    # without the flag nothing ships
    assert main(["sweep", "E-8021X", "--trials", "2",
                 "--json", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["lineages"] is None


def test_cli_wids_e_wids_timeline_and_scorecard(tmp_path, capsys):
    out_file = tmp_path / "scorecard.json"
    assert main(["run", "E-WIDS", "--wids", "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "wids-watching E-WIDS" in out
    assert "alert timeline" in out
    # the ambient watch hears the rogue worlds' cloned identity
    assert "fingerprint" in out and "multichannel" in out
    # the E-WIDS runner recorded wids.eval.* metrics -> scorecard table
    assert "WIDS evaluation scorecard" in out
    assert "mean_ttd_s" in out
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "E-WIDS"
    assert payload["alerts"], "ambient watch produced no alerts"
    for alert in payload["alerts"]:
        assert {"detector", "subject", "t", "score", "severity"} <= set(alert)
    assert payload["scorecard"]["rows"]
    # alerts carry flight-recorder lineage ids (the watch ran under
    # recording()), so `run --trace --follow` can chase any of them
    assert any(alert["trace_ids"] for alert in payload["alerts"])


def test_cli_wids_frameless_experiment(frameless_experiment, capsys):
    assert main(["run", "STUB", "--wids"]) == 0
    out = capsys.readouterr().out
    assert "no alerts" in out


def test_cli_wids_unknown_experiment(capsys):
    assert main(["run", "E-NOPE", "--wids"]) == 2
    assert "E-NOPE" in capsys.readouterr().err


def test_cli_wids_malformed_json_path(tmp_path, capsys):
    bad = tmp_path / "not-a-dir" / "scorecard.json"
    assert main(["run", "E-8021X", "--wids", "--json", str(bad)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_cli_sweep_wids_merged_scorecard(tmp_path, capsys):
    out_file = tmp_path / "wids.json"
    assert main(["sweep", "E-WIDS", "--trials", "2", "--workers", "2",
                 "--wids", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "Merged WIDS scorecard" in out
    payload = json.loads(out_file.read_text())
    assert payload["experiment"] == "E-WIDS"
    assert payload["trials"] == 2
    rows = payload["scorecard"]["rows"]
    assert rows
    # two trials, four worlds each: every cell row sums to 8 worlds
    for row in rows:
        assert row["tp"] + row["fp"] + row["fn"] + row["tn"] == 8
        assert row["fp"] == 0  # zero false positives across the sweep


def test_cli_sweep_wids_on_experiment_without_eval(tmp_path, capsys):
    out_file = tmp_path / "wids.json"
    assert main(["sweep", "E-8021X", "--trials", "2",
                 "--wids", str(out_file)]) == 0
    err = capsys.readouterr().err
    assert "no wids.eval." in err
    payload = json.loads(out_file.read_text())
    assert payload["scorecard"]["rows"] == []


def test_cli_report_writes_markdown(tmp_path, monkeypatch, capsys):
    """`run all --markdown` runs the registry and writes a markdown file
    (patched down to one fast experiment to keep the test quick)."""
    import repro.__main__ as cli
    from repro.core import claims
    from repro.core.registry import ExperimentSpec
    from repro.core.experiments import exp_dot1x_wpa_gap

    fast = [ExperimentSpec("E-8021X", "gap", "§2.2", exp_dot1x_wpa_gap,
                           claims.dot1x_wpa_gap)]
    monkeypatch.setattr(cli, "EXPERIMENTS", fast)
    out_file = tmp_path / "report.md"
    assert cli.main(["run", "all", "--markdown", str(out_file)]) == 0
    text = out_file.read_text()
    assert "# Reproduction report" in text
    assert "## E-8021X" in text
    assert "ROGUE" in text
    assert "claims 5/5 hold" in text


def test_cli_run_profile_trace_wids_in_one_pass(tmp_path, monkeypatch, capsys):
    """Every observer rides one call of the runner and prints its section."""
    import dataclasses

    import repro.__main__ as cli

    fig2 = get_experiment("FIG2")
    calls = []

    def counting_runner():
        calls.append(1)
        return fig2.runner()

    spec = dataclasses.replace(fig2, runner=counting_runner)
    monkeypatch.setattr(cli, "get_experiment", lambda exp_id: spec)
    out_file = tmp_path / "fig2.json"
    assert cli.main(["run", "FIG2", "--profile", "--trace", "--wids",
                     "--json", str(out_file)]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "profiling FIG2" in out and "total_ms" in out
    assert "tracing FIG2" in out and "netsed.rewrite@rogue-gw" in out
    assert "wids-watching FIG2" in out and "alert timeline" in out
    payload = json.loads(out_file.read_text())
    assert {"profile", "metrics", "alerts", "scorecard"} <= set(payload)
    assert any(alert["trace_ids"] for alert in payload["alerts"])


@pytest.mark.parametrize("flag", [["--pcap", "f.pcap"],
                                  ["--chrome", "f.json"],
                                  ["--follow", "1"]])
def test_cli_run_all_rejects_single_run_exports(flag, capsys):
    assert main(["run", "all", *flag]) == 2
    assert "one experiment" in capsys.readouterr().err


def test_cli_run_unknown_experiment_with_every_flag(capsys):
    assert main(["run", "E-NOPE", "--profile", "--trace", "--wids"]) == 2
    assert "E-NOPE" in capsys.readouterr().err


def test_cli_help_lists_one_run_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    commands = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert commands == ["list", "run", "threats", "sweep", "bench"]
