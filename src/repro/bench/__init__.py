"""``repro.bench`` — the performance-regression harness.

Five PRs of perf-relevant work (encode caching, zero-copy decode,
streaming checksums, trace-overhead bounds, fleet scaling) shipped
before this subsystem existed, so every speed claim in the repo was
anecdotal: printed once, committed nowhere, gated by nothing.  This
package turns those claims into a *trajectory*:

* :mod:`repro.bench.registry` — a declarative benchmark registry.
  ``@register(area, metric, unit=..., higher_is_better=...)`` marks a
  function as the producer of one named metric; the function returns a
  :class:`~repro.bench.registry.BenchSample` (the measured value plus
  a deterministic, timing-free payload).
* :mod:`repro.bench.runner` — executes each registered benchmark with
  median-of-k repetition, captures the environment (Python, platform,
  ``PYTHONHASHSEED``, commit), and emits one machine-readable
  ``BENCH_<area>.json`` document per area.
* :mod:`repro.bench.diff` — the noise-tolerant baseline differ:
  per-metric relative tolerance, explicit ``new``/``missing``
  classification, and a hard rule that improvements are never flagged.
* :mod:`repro.bench.suite` — the registered benchmarks themselves:
  radio fan-out frames/sec, ``repro.wire`` checksum MB/s and
  encode-cache hit rate, fleet scaling, WIDS evaluation throughput,
  flight-recorder overhead ratio, and the sim/crypto/netstack hot
  loops under them.

The committed ``BENCH_<area>.json`` files at the repo root are the
baselines; ``python -m repro bench --check`` diffs a fresh run against
them and CI's ``bench-gate`` job fails on any regression beyond
tolerance.  Re-baseline intentionally with
``python -m repro bench --update``.  See DESIGN.md §12.
"""

from repro.bench.diff import DiffReport, MetricDelta, diff_baselines
from repro.bench.registry import (BenchSample, BenchSpec, all_specs, areas,
                                  get_area, register)
from repro.bench.runner import (baseline_path, capture_environment,
                                load_baselines, run_spec, run_suite,
                                write_baselines)

__all__ = [
    "BenchSample",
    "BenchSpec",
    "DiffReport",
    "MetricDelta",
    "all_specs",
    "areas",
    "baseline_path",
    "capture_environment",
    "diff_baselines",
    "get_area",
    "load_baselines",
    "register",
    "run_spec",
    "run_suite",
    "write_baselines",
]
