"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list                 # index of experiments
    python -m repro run FIG2             # run one and print its tables
    python -m repro run all --markdown out.md
                                         # run everything (slow) and
                                         # write a markdown report
    python -m repro run FIG2 --profile --trace --wids --json out.json
                                         # one pass under every observer:
                                         # per-category self time +
                                         # metrics, the reconstructed
                                         # MITM path, the live alert
                                         # timeline + detector scorecard
    python -m repro run FIG2 --trace --pcap f.pcap --chrome f.json
                                         # export the flight recorder as
                                         # pcap + Perfetto trace events
    python -m repro threats              # the §1–3 threat taxonomy
    python -m repro sweep FIG2 --trials 32 --workers 4 --json out.json
                                         # multi-seed parallel campaign
    python -m repro sweep E-WIDS --trials 8 --wids scorecard.json
                                         # merged fleet-wide scorecard
    python -m repro sweep FIG2 --trials 32 --jsonl s.jsonl
                                         # one JSON line per finished
                                         # trial (follow it with tail -f),
                                         # then the merged registry
    python -m repro bench --check        # run the perf suite, diff
                                         # against the committed
                                         # BENCH_<area>.json baselines
    python -m repro bench --update       # intentional re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack, nullcontext

from repro.core.claims import claim_count
from repro.core.registry import (EXPERIMENTS, SeededExperiment,
                                 get_experiment, render_result,
                                 spec_accepts_seed)
from repro.core.report import format_table
from repro.core.threatmodel import threat_taxonomy

#: Flight-recorder ring size for ``run --trace``/``--wids``.  Trace ids
#: are assigned in sequence whatever the capacity, so alert ``trace_ids``
#: do not depend on it.
RECORDER_CAPACITY = 8192


def _write(path: str, text: str) -> int:
    """Write ``text`` to ``path``: 0 on success, 1 (reported) on failure."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


def _write_json(path: str, payload: dict) -> int:
    return _write(path, json.dumps(payload, indent=2))


def _jsonable(value):
    """Coerce an experiment payload into JSON-serializable primitives."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def cmd_list(args: argparse.Namespace) -> int:
    rows = [[s.exp_id, s.title, s.paper_anchor, claim_count(s.claims)]
            for s in EXPERIMENTS]
    print(format_table(["id", "title", "paper", "claims"], rows,
                       title="Experiments (see DESIGN.md §4)"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (or ``all``) under the observers the flags ask for.

    Every observer is installed through the one ambient instrumentation
    context around a single call of the runner, so any mix of
    ``--profile``, ``--trace`` and ``--wids`` costs one pass:

    * ``--profile``: the per-category self-time breakdown and the
      metrics registry the run accumulated;
    * ``--trace`` (implied by ``--pcap``/``--chrome``/``--follow``): the
      flight recorder's causal chain to the netsed rewrite (or the
      ``--follow`` lineage), plus pcap / Chrome trace-event exports;
    * ``--wids``: the ambient WIDS watch's alert timeline, each alert
      linked to the lineage ``trace_id``\\ s of its frames, and the
      detector scorecard when the run recorded ``wids.eval.*`` metrics.

    Every run prints the experiment's claims and exits 1 when one of
    them fails.  ``--json`` writes the claims and every requested
    section; with ``all`` it writes one such record per experiment
    under ``runs``.  ``--markdown`` writes the rendered tables and the
    claims as a report.
    """
    trace = (args.trace or args.pcap_path or args.chrome_path
             or args.follow is not None)
    run_all = args.experiment.lower() == "all"
    if run_all and (args.pcap_path or args.chrome_path
                    or args.follow is not None):
        print("--pcap, --chrome and --follow need one experiment, not 'all'",
              file=sys.stderr)
        return 2
    specs = EXPERIMENTS if run_all else [get_experiment(args.experiment)]
    status, runs = 0, []
    markdown = ["# Reproduction report", "",
                f"Generated by `python -m repro run {args.experiment} "
                f"--markdown`.  One section per experiment of DESIGN.md §4;",
                "compare against EXPERIMENTS.md.", ""]
    for spec in specs:
        print(f"\n=== {spec.exp_id}: {spec.title}  ({spec.paper_anchor}) ===")
        with ExitStack() as stack:
            col = rec = watch = None
            if args.profile or args.wids:
                from repro.obs import collecting
                col = stack.enter_context(collecting(profile=args.profile))
            if trace or args.wids:
                # The recorder also gives frames the trace_ids each alert
                # links to, so `--trace --follow` can chase any of them.
                from repro.obs.lineage import recording
                rec = stack.enter_context(recording(RECORDER_CAPACITY))
            if args.wids:
                from repro.wids import wids_watch
                watch = stack.enter_context(wids_watch())
            start = time.perf_counter()
            result = spec.runner()
            elapsed = time.perf_counter() - start
        rendered = render_result(result)
        print(rendered)
        print(f"[{spec.exp_id} completed in {elapsed:.1f}s]")
        claims = spec.claims(result)
        held = sum(c.ok for c in claims)
        claim_lines = [f"[{'ok' if c.ok else 'FAIL'}] {c.name} — {c.detail}"
                       for c in claims]
        print(f"\nclaims: {held}/{len(claims)} hold")
        for line in claim_lines:
            print(f"  {line}")
        if held < len(claims):
            status = max(status, 1)
        record = {"experiment": spec.exp_id, "title": spec.title,
                  "elapsed_s": elapsed,
                  "claims": [c._asdict() for c in claims]}
        if args.profile:
            print(f"\nprofiling {spec.exp_id}: self time by category, "
                  f"then the metrics registry")
            print(col.profiler.report())
            print()
            print(col.registry.report())
            record["profile"] = col.profiler.to_dict()
        if col is not None:
            record["metrics"] = col.snapshot()
        if trace:
            status = max(status, _trace_section(spec, rec, args))
        if watch is not None:
            record.update(_wids_section(spec, watch, col))
        runs.append(record)
        markdown += [f"## {spec.exp_id} — {spec.title}", "",
                     f"Paper anchor: {spec.paper_anchor}; runtime "
                     f"{elapsed:.1f}s; claims {held}/{len(claims)} hold.",
                     "", "```", rendered, "```", "",
                     *(f"- {line}" for line in claim_lines), ""]
    if args.json_path:
        payload = {"runs": runs} if run_all else runs[0]
        status = max(status, _write_json(args.json_path, payload))
    if args.markdown_path:
        status = max(status, _write(args.markdown_path, "\n".join(markdown)))
    return status


def _hop_line(hop) -> str:
    """One printable line per lineage hop (payload excerpts elided)."""
    where = f"@{hop.host}" if hop.host else ""
    skip = {"before", "after", "rules"}
    detail = " ".join(f"{k}={v}" for k, v in hop.detail.items()
                      if k not in skip)
    return f"    t={hop.t:10.6f}  {hop.layer}.{hop.action}{where}" \
           + (f"  [{detail}]" if detail else "")


def _print_lineage(ln, *, verbose: bool = True) -> None:
    parent = f" parent=#{ln.parent}" if ln.parent is not None else ""
    raw = f" raw={len(ln.raw)}B" if ln.raw is not None else ""
    dropped = f" (+{ln.hops_dropped} hops dropped)" if ln.hops_dropped else ""
    print(f"  #{ln.trace_id}  {ln.kind}  origin={ln.origin}  "
          f"t0={ln.t0:.6f}{parent}{raw}  {len(ln.hops)} hops{dropped}")
    if not verbose:
        path = " -> ".join(f"{h.layer}.{h.action}" for h in ln.hops[:8])
        if len(ln.hops) > 8:
            path += f" -> ... ({len(ln.hops) - 8} more)"
        print(f"    {path}")
        return
    for hop in ln.hops:
        print(_hop_line(hop))
        if hop.layer == "netsed" and hop.action == "rewrite":
            for rule in hop.detail.get("rules", []):
                print(f"      rule: {rule}")
            print(f"      - {hop.detail.get('before', '')}")
            print(f"      + {hop.detail.get('after', '')}")


def _trace_section(spec, rec, args: argparse.Namespace) -> int:
    """Reconstruct frame paths from the flight recorder and export it.

    The default view finds the netsed rewrite (the Fig. 2 MITM moment)
    and prints the causal chain: every ancestor frame back to the
    victim's first transmission, the rewritten frame itself with a
    before/after payload diff, and the descendant frame that delivered
    the tampered bytes to the victim's NIC.  ``--follow`` pins a
    specific trace_id instead; ``--pcap``/``--chrome`` export the whole
    ring buffer.  Returns 1 when the followed id is not retained.
    """
    from repro.obs.export import write_chrome_trace, write_pcap

    status = 0
    s = rec.summary()
    kinds = ", ".join(f"{v} {k}" for k, v in sorted(s["by_kind"].items()))
    print(f"\ntracing {spec.exp_id}: flight recorder: {s['lineages']} "
          f"lineages ({kinds}), {s['hops']} hops, {s['evicted']} evicted")
    follow = args.follow
    if follow is not None and rec.get(follow) is None:
        print(f"trace_id {follow} not in the ring buffer "
              f"(retained: 1..{s['lineages']}; older ids may have been "
              f"evicted)", file=sys.stderr)
        status = 1
    elif follow is not None:
        chain = rec.ancestors(follow)
        print(f"\nancestors (root -> #{follow}):")
        for ln in chain[:-1]:
            _print_lineage(ln, verbose=False)
        print(f"\n#{follow} in full:")
        _print_lineage(chain[-1], verbose=True)
        kids = rec.descendants(follow)
        if kids:
            print(f"\ndescendants ({len(kids)}):")
            for ln in kids:
                _print_lineage(ln, verbose=False)
    elif rewrites := list(rec.find_hops("netsed", "rewrite")):
        ln, hop = rewrites[0]
        chain = rec.ancestors(ln.trace_id)
        print(f"\n=== MITM path: {len(chain)}-frame causal chain to the "
              f"netsed rewrite (Fig. 2) ===")
        print("upstream (root -> rewrite):")
        for anc in chain[:-1]:
            _print_lineage(anc, verbose=False)
        print("\nthe rewritten flow:")
        _print_lineage(ln, verbose=True)
        victims = [d for d in rec.descendants(ln.trace_id)
                   if any(h.layer == "nic" and h.action == "deliver"
                          for h in d.hops)]
        if victims:
            print("\ndelivery of the tampered payload:")
            for d in victims:
                _print_lineage(d, verbose=True)
        # Corroborate against the simulator's own event trace using the
        # Trace.between/matching query helpers.
        for sim_trace in rec.sim_traces:
            events = list(sim_trace.matching("netsed."))
            if not events:
                continue
            window = list(sim_trace.between(hop.t - 0.5, hop.t + 0.5,
                                            category="netsed."))
            print(f"\nsim-trace corroboration: {len(events)} netsed.* "
                  f"event(s), {len(window)} within +/-0.5s of the rewrite:")
            for ev in window:
                detail = " ".join(f"{k}={v}" for k, v in ev.detail.items())
                print(f"    t={ev.time:10.6f}  {ev.category}  "
                      f"{ev.source}  {detail}")
    elif (best := max(rec.lineages(), default=None,
                      key=lambda l: len(rec.ancestors(l.trace_id)))) \
            is not None:
        # No rewrite in this experiment: show the longest causal chain.
        chain = rec.ancestors(best.trace_id)
        print(f"\nno netsed rewrite recorded; longest causal chain "
              f"({len(chain)} frames):")
        for anc in chain[:-1]:
            _print_lineage(anc, verbose=False)
        _print_lineage(chain[-1], verbose=True)
    else:
        print("\nno frames recorded (this experiment transmits nothing "
              "through the radio/wire layers)")
    if args.pcap_path:
        n = write_pcap(args.pcap_path, rec)
        print(f"\nwrote {args.pcap_path}: {n} IEEE 802.11 frames "
              f"(linktype {105})")
    if args.chrome_path:
        n = write_chrome_trace(args.chrome_path, rec)
        print(f"wrote {args.chrome_path}: {n} trace events "
              f"(load in Perfetto / chrome://tracing)")
    return status


def _wids_section(spec, watch, col) -> dict:
    """Print the ambient watch's alert timeline and detector scorecard.

    The radio layer offers every completed transmission to the watch
    (before any receiver work — observation cannot perturb the world),
    so this works for *any* registered experiment, not just E-WIDS.
    The scorecard is printed when the run recorded ``wids.eval.*``
    metrics (E-WIDS does).  Returns the section's JSON fields.
    """
    from repro.wids import Scorecard

    alerts = watch.alerts()
    print(f"\nwids-watching {spec.exp_id}: ambient watch: "
          f"{watch.frames_seen()} frames over {len(watch.feeds())} "
          f"medium(s), {len(alerts)} alert(s)")
    if alerts:
        print("\nalert timeline (threshold-crossing order):")
        for a in alerts:
            traces = ",".join(f"#{t}" for t in a.trace_ids)
            print(f"  t={a.t:10.6f}  [{a.severity:8s}]  {a.detector:13s} "
                  f"{a.subject}  score={a.score:g} x{a.count}"
                  + (f"  traces={traces}" if traces else ""))
            if a.reason:
                print(f"      {a.reason}")
    else:
        print("\nno alerts (a benign world, or nothing transmitted)")
    card = Scorecard.from_registry(col.registry)
    if card.rows():
        print()
        print(card.report())
    return {"frames_seen": watch.frames_seen(),
            "alerts": [a.to_dict() for a in alerts],
            "scorecard": card.to_json_dict()}


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a registered experiment as a parallel multi-seed campaign.

    ``--jsonl`` appends a ``meta`` record, one ``snapshot`` per finished
    trial and a ``final`` record with the merged registry, flushed per
    line so ``tail -f`` follows the sweep live.
    """
    from repro.fleet import run_campaign
    from repro.telemetry import JsonlWriter

    spec = get_experiment(args.experiment)
    if not spec_accepts_seed(spec):
        print(f"note: {spec.exp_id}'s runner loops seeds internally; "
              f"every sweep seed reproduces the same tables", file=sys.stderr)
    trials, seed_base = args.trials, args.seed_base
    stream = JsonlWriter(args.jsonl_path) if args.jsonl_path \
        else nullcontext()
    with stream as writer:
        if writer is not None:
            writer.write_meta(experiment=spec.exp_id, trials=trials,
                              seed_base=seed_base, workers=args.workers)

        def deliver(index: int, snapshot: dict) -> None:
            writer.write_snapshot(index, seed_base + index, snapshot)

        result = run_campaign(trials, SeededExperiment(spec.exp_id),
                              seed_base=seed_base, workers=args.workers,
                              timeout=args.timeout,
                              collect_metrics=(writer is not None
                                               or args.metrics_path is not None
                                               or args.wids_path is not None),
                              flight_recorder=args.flight_recorder,
                              on_snapshot=(deliver if writer is not None
                                           else None))
        if writer is not None:
            merged = result.merged_metrics
            writer.write_final(merged.snapshot() if merged is not None else {})
    return _report_sweep(spec, args, result)


def _report_sweep(spec, args: argparse.Namespace, result) -> int:
    """Print the per-seed table and write the requested output files."""
    trials, seed_base = args.trials, args.seed_base
    rows = [[f.seed, "FAILED",
             f"{f.kind}: {f.message.strip().splitlines()[-1]}"]
            for f in result.failures]
    rows += [[seed, "ok", f"{len(value.get('rows', []))} rows"
              if isinstance(value, dict) else repr(value)]
             for seed, value in result.per_seed.items()]
    rows.sort(key=lambda r: r[0])
    print(format_table(
        ["seed", "status", "result"], rows,
        title=f"Sweep {spec.exp_id}: {trials} trials, {result.workers} "
              f"worker(s), {result.elapsed_s:.1f}s "
              f"({result.throughput:.1f} trials/s)"))
    if args.flight_recorder:
        merged = result.merged_lineages
        hops = sum(len(ln.get("hops", [])) for ln in merged)
        print(f"flight recorder: {len(merged)} lineage sample(s) "
              f"({hops} hops) from {len(result.lineages)} seed(s), "
              f"<= {args.flight_recorder} per seed, merged in seed order")
    status = 0
    if args.json_path:
        status = max(status, _write_json(args.json_path, {
            "experiment": spec.exp_id, "title": spec.title,
            **_jsonable(result.to_json_dict())}))
    merged = result.merged_metrics
    if args.metrics_path:
        status = max(status, _write_json(args.metrics_path, {
            "experiment": spec.exp_id,
            "trials": trials,
            "seed_base": seed_base,
            "metrics": merged.snapshot() if merged is not None else {},
        }))
    if args.wids_path:
        from repro.wids import Scorecard

        card = Scorecard.from_registry(merged) if merged is not None \
            else Scorecard([], {})
        if card.rows():
            print()
            print(card.report(
                title=f"Merged WIDS scorecard: {trials} trials, "
                      f"seed-order merge (serial == parallel)"))
        else:
            print(f"note: {spec.exp_id} recorded no wids.eval.* metrics; "
                  f"the scorecard is empty (use E-WIDS)", file=sys.stderr)
        status = max(status, _write_json(args.wids_path, {
            "experiment": spec.exp_id,
            "trials": trials,
            "seed_base": seed_base,
            "workers": result.workers,
            "scorecard": card.to_json_dict(),
        }))
    if result.failures:
        print(f"{len(result.failures)} of {trials} trial(s) failed",
              file=sys.stderr)
        return 1
    return status


def cmd_threats(args: argparse.Namespace) -> int:
    rows = [[t.name, t.wired.value, t.wireless.value, t.paper_anchor,
             t.demonstrated_by or "not simulated"]
            for t in threat_taxonomy()]
    print(format_table(
        ["threat", "wired", "wireless", "paper", "demonstrated by"], rows,
        title="Threat taxonomy (§1–§3): every threat is amplified on wireless"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import cmd_bench as run_bench

    return run_bench(args.area, args.repeat, args.smoke, args.json_path,
                     args.check, args.update)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Countering Rogues in Wireless Networks' "
                    "(ICPP 2003)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="index the experiments").set_defaults(
        func=cmd_list)
    run = sub.add_parser(
        "run", help="run one experiment (or 'all'), optionally under the "
                    "profiler, the flight recorder and the WIDS watch")
    run.set_defaults(func=cmd_run)
    run.add_argument("experiment", help="experiment id, e.g. FIG2, E-NETSED, all")
    run.add_argument("--profile", action="store_true",
                     help="print the per-category self-time breakdown and "
                          "the metrics registry")
    run.add_argument("--trace", action="store_true",
                     help="run under the flight recorder and reconstruct "
                          "the frame-lineage path")
    run.add_argument("--pcap", dest="pcap_path", default=None,
                     help="export captured 802.11 frames as a pcap file "
                          "(implies --trace)")
    run.add_argument("--chrome", dest="chrome_path", default=None,
                     help="export the lineage timeline as Chrome "
                          "trace-event JSON for Perfetto (implies --trace)")
    run.add_argument("--follow", type=int, default=None, metavar="ID",
                     help="print ancestors/descendants of one trace_id "
                          "instead of the default MITM-path view "
                          "(implies --trace)")
    run.add_argument("--wids", action="store_true",
                     help="run under the ambient WIDS watch, print the "
                          "alert timeline + detector scorecard")
    run.add_argument("--json", dest="json_path", default=None,
                     help="write the elapsed time and every requested "
                          "section as JSON")
    run.add_argument("--markdown", dest="markdown_path", default=None,
                     metavar="PATH",
                     help="write the result tables as a markdown report")
    sub.add_parser("threats", help="print the threat taxonomy").set_defaults(
        func=cmd_threats)
    sweep = sub.add_parser(
        "sweep", help="run one experiment as a parallel multi-seed campaign")
    sweep.set_defaults(func=cmd_sweep)
    sweep.add_argument("experiment", help="experiment id, e.g. FIG2")
    sweep.add_argument("--trials", type=int, default=8,
                       help="number of seeds to sweep (default 8)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    sweep.add_argument("--seed-base", type=int, default=1000,
                       help="first seed; trial i uses seed-base + i")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-trial timeout in seconds")
    sweep.add_argument("--json", dest="json_path", default=None,
                       help="write per-seed results as JSON to this path")
    sweep.add_argument("--metrics", dest="metrics_path", default=None,
                       help="collect per-trial metrics and write the "
                            "seed-order merged registry as JSON")
    sweep.add_argument("--flight-recorder", dest="flight_recorder",
                       type=int, nargs="?", const=256, default=0,
                       metavar="N",
                       help="run each trial under a flight recorder and "
                            "ship its newest N lineages (default 256) "
                            "to the parent, merged in seed order")
    sweep.add_argument("--wids", dest="wids_path", default=None,
                       metavar="PATH",
                       help="collect per-trial wids.eval.* metrics, print "
                            "the seed-order merged detector scorecard and "
                            "write it as JSON to PATH")
    sweep.add_argument("--jsonl", dest="jsonl_path", default=None,
                       metavar="PATH",
                       help="append a meta record, one snapshot per "
                            "finished trial and the final merged registry "
                            "to this JSON-lines file")
    from repro.bench.cli import add_bench_parser
    add_bench_parser(sub)
    sub.choices["bench"].set_defaults(func=cmd_bench)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:  # an unknown experiment id or bench area
        print(exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
