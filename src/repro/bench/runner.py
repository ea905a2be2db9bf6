"""Benchmark execution and ``BENCH_<area>.json`` emission.

The runner's contract:

* each registered benchmark runs its one fixed workload ``repeat``
  times, so a fresh run and a committed baseline measure the same
  work; the recorded value is the **median** of the samples (robust to
  one noisy run, cheap enough to commit to);
* every emitted document carries an environment capture — Python
  version, platform, ``PYTHONHASHSEED``, commit, usable cores — so a
  baseline read six PRs later says *where* its numbers came from;
* emission is deterministic: sorted keys, fixed float rounding, one
  file per area named ``BENCH_<area>.json``.

The committed baselines live at the repository root; ``--update``
rewrites them, ``--check`` diffs a fresh run against them (see
:mod:`repro.bench.diff`).
"""

from __future__ import annotations

import glob
import json
import os
import platform
import statistics
import subprocess
from typing import Callable, Dict, List, Optional

from repro.bench.registry import BenchSample, BenchSpec, all_specs

__all__ = ["baseline_path", "capture_environment", "load_baselines",
           "run_spec", "run_suite", "write_baselines"]

SCHEMA_VERSION = 1


def capture_environment() -> dict:
    """Where these numbers came from — recorded in every emitted doc."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "usable_cores": cores,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "commit": commit,
    }


def _round(value: float) -> float:
    """Fixed rounding so emitted docs diff cleanly across runs."""
    if value == 0 or not (value == value):  # 0 or NaN
        return value
    return float(f"{value:.6g}")


def run_spec(spec: BenchSpec, *, repeat: int = 3) -> dict:
    """Run one benchmark ``repeat`` times; return its metric entry.

    The value is the median of the samples.  The payload is taken from
    the first run — the determinism test pins that every run's payload
    is identical, so which one we keep is immaterial.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    samples: List[BenchSample] = [spec.run() for _ in range(repeat)]
    values = [s.value for s in samples]
    return {
        "value": _round(statistics.median(values)),
        "unit": spec.unit,
        "higher_is_better": spec.higher_is_better,
        "tolerance": spec.tolerance,
        "repeat": repeat,
        "samples": [_round(v) for v in values],
        "payload": samples[0].payload,
    }


def run_suite(*, area_filter: "list[str] | None" = None, repeat: int = 3,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, dict]:
    """Run the registered suite; return ``{area: BENCH document}``."""
    env = capture_environment()
    docs: Dict[str, dict] = {}
    for spec in all_specs(area_filter):
        if progress is not None:
            progress(f"bench {spec.area}/{spec.metric} (x{repeat}) ...")
        doc = docs.setdefault(spec.area, {
            "schema": SCHEMA_VERSION,
            "area": spec.area,
            "environment": env,
            "metrics": {},
        })
        doc["metrics"][spec.metric] = run_spec(spec, repeat=repeat)
    return docs


def baseline_path(directory: str, area: str) -> str:
    return os.path.join(directory, f"BENCH_{area}.json")


def write_baselines(docs: Dict[str, dict], directory: str) -> List[str]:
    """Write one ``BENCH_<area>.json`` per area; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for area in sorted(docs):
        path = baseline_path(directory, area)
        with open(path, "w") as fh:
            json.dump(docs[area], fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def load_baselines(directory: str,
                   area_filter: "list[str] | None" = None
                   ) -> Dict[str, dict]:
    """Read every ``BENCH_*.json`` under ``directory`` into ``{area: doc}``.

    Files that fail to parse raise — a corrupt committed baseline must
    fail the gate loudly, not vanish from the diff.
    """
    docs: Dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        area = doc.get("area")
        if not area:
            name = os.path.basename(path)
            area = name[len("BENCH_"):-len(".json")]
        if area_filter and area not in area_filter:
            continue
        docs[area] = doc
    return docs
