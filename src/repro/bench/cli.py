"""``python -m repro bench`` — run, check, and update perf baselines.

Options (composable); every run is the full workload the committed
baselines describe::

    python -m repro bench                     # run, print the table
    python -m repro bench --repeat 5          # median of 5 (default 3)
    python -m repro bench --area wire radio   # subset of areas
    python -m repro bench --json out.json     # combined machine output
    python -m repro bench --check [DIR]       # diff vs BENCH_*.json,
                                              # exit 1 on regression
    python -m repro bench --update [DIR]      # rewrite the baselines
                                              # (the intentional
                                              # re-baseline workflow)

``--check`` and ``--update`` default to the current directory — the
repository root, where the committed ``BENCH_<area>.json`` files live.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from repro.bench.diff import diff_baselines
from repro.bench.registry import all_specs
from repro.bench.runner import load_baselines, run_suite, write_baselines

__all__ = ["add_bench_parser", "cmd_bench"]


def add_bench_parser(sub) -> None:
    """Attach the ``bench`` subcommand to ``python -m repro``'s parser."""
    bench = sub.add_parser(
        "bench", help="run the perf benchmark suite; check or update "
                      "the committed BENCH_<area>.json baselines")
    bench.add_argument("--area", nargs="*", default=None,
                       help="restrict to these areas (default: all)")
    bench.add_argument("--repeat", type=int, default=3,
                       help="median-of-k repetitions (default 3)")
    bench.add_argument("--json", dest="json_path", default=None,
                       help="write the combined run as one JSON file")
    bench.add_argument("--check", nargs="?", const=".", default=None,
                       metavar="DIR",
                       help="diff against BENCH_*.json in DIR (default .); "
                            "exit 1 on regression or missing metric")
    bench.add_argument("--update", nargs="?", const=".", default=None,
                       metavar="DIR",
                       help="write/overwrite BENCH_<area>.json in DIR "
                            "(default .) from this run")


def _print_run_table(docs: dict) -> None:
    from repro.core.report import format_table

    rows = []
    for area in sorted(docs):
        for metric, entry in sorted(docs[area]["metrics"].items()):
            direction = "higher" if entry["higher_is_better"] else "lower"
            rows.append([area, metric, f"{entry['value']:g}", entry["unit"],
                         direction, f"{entry['tolerance']:.0%}",
                         entry["repeat"]])
    print(format_table(
        ["area", "metric", "value", "unit", "better", "tolerance", "k"],
        rows, title="repro.bench suite"))


def cmd_bench(areas: Optional[list], repeat: int,
              json_path: Optional[str], check_dir: Optional[str],
              update_dir: Optional[str]) -> int:
    specs = all_specs(areas)  # KeyError -> exit 2, handled by main()
    print(f"running {len(specs)} benchmark(s) across "
          f"{len({s.area for s in specs})} area(s)")
    docs = run_suite(area_filter=areas, repeat=repeat,
                     progress=lambda msg: print(f"  {msg}", flush=True))
    print()
    _print_run_table(docs)

    if json_path:
        try:
            with open(json_path, "w") as fh:
                json.dump({"schema": 1, "areas": docs}, fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"cannot write {json_path}: {exc}", file=sys.stderr)
            return 1
        print(f"\nwrote {json_path}")

    if update_dir is not None:
        paths = write_baselines(docs, update_dir)
        for path in paths:
            print(f"wrote {path}")
        print(f"re-baselined {len(paths)} area(s); commit the BENCH_*.json "
              f"files with a note on why the numbers moved")

    if check_dir is not None:
        baselines = load_baselines(check_dir, area_filter=areas)
        if not baselines:
            print(f"no BENCH_*.json baselines under {check_dir!r} — run "
                  f"`python -m repro bench --update` first", file=sys.stderr)
            return 1
        report = diff_baselines(baselines, docs)
        print()
        print(report.report())
        if not report.ok():
            print("\nbench gate: FAIL (regression beyond tolerance or "
                  "missing metric; re-baseline intentionally with "
                  "`python -m repro bench --update`)", file=sys.stderr)
            return 1
        print("\nbench gate: ok")
    return 0
