"""The declarative benchmark registry.

A benchmark is a function that measures **one named metric** and
returns a :class:`BenchSample`: the measured value plus a *payload* of
deterministic, timing-free facts about the run (counters, table rows,
hit rates).  The split matters — the runner repeats the function and
takes the median of the values (timing is noisy), while the payload
must be bit-identical across repeats (that invariant is pinned by
``tests/bench/test_determinism.py``).

Registration is declarative::

    @register("wire", "checksum_mb_per_s", unit="MB/s",
              higher_is_better=True, tolerance=0.8)
    def checksum_throughput(scale: float = 1.0) -> BenchSample:
        ...

* ``area`` groups metrics into one ``BENCH_<area>.json`` baseline.
* ``tolerance`` is the allowed *relative worsening* before the differ
  flags a regression (0.8 means "fails only when >5x worse" — generous
  on purpose: the gate exists to catch algorithmic regressions such as
  losing the ~144x encode cache, not scheduler noise).  Deterministic
  metrics (hit rates, counts) register tight tolerances instead.
* ``scale`` lets the runner shrink the workload for ``--smoke`` runs;
  implementations apply floors so tiny scales stay meaningful.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

__all__ = ["BenchSample", "BenchSpec", "all_specs", "areas", "get_area",
           "register"]

#: Default allowed relative worsening for wall-clock metrics.  Timing
#: on shared CI runners is noisy and baselines travel across machines;
#: the gate's job is catching order-of-magnitude algorithmic
#: regressions, which survive any realistic hardware gap.
DEFAULT_TOLERANCE = 0.8


@dataclass(frozen=True)
class BenchSample:
    """One benchmark execution: the metric value + deterministic facts.

    ``payload`` must not contain timing — it is compared for equality
    across repeat runs by the determinism test.
    """

    value: float
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: the producer of one named metric."""

    area: str
    metric: str
    unit: str
    higher_is_better: bool
    tolerance: float
    fn: Callable[..., BenchSample]
    doc: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.area, self.metric)

    def run(self, scale: float = 1.0) -> BenchSample:
        sample = self.fn(scale=scale)
        if not isinstance(sample, BenchSample):
            raise TypeError(
                f"benchmark {self.area}/{self.metric} returned "
                f"{type(sample).__name__}, expected BenchSample")
        return sample


_REGISTRY: Dict[Tuple[str, str], BenchSpec] = {}


def register(area: str, metric: str, *, unit: str, higher_is_better: bool,
             tolerance: float = DEFAULT_TOLERANCE):
    """Class the decorated function as the producer of ``area/metric``."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")

    def deco(fn: Callable[..., BenchSample]) -> Callable[..., BenchSample]:
        spec = BenchSpec(area=area, metric=metric, unit=unit,
                         higher_is_better=higher_is_better,
                         tolerance=tolerance, fn=fn,
                         doc=(fn.__doc__ or "").strip().splitlines()[0]
                         if fn.__doc__ else "")
        if spec.key in _REGISTRY:
            raise ValueError(f"duplicate benchmark registration: "
                             f"{area}/{metric}")
        _REGISTRY[spec.key] = spec
        return fn

    return deco


def _ensure_suite_loaded() -> None:
    # The built-in suite registers itself on import; anything else
    # (tests registering synthetic specs) just adds to the same table.
    importlib.import_module("repro.bench.suite")


def all_specs(area_filter: "list[str] | None" = None) -> List[BenchSpec]:
    """Every registered spec, in registration order, optionally filtered."""
    _ensure_suite_loaded()
    specs = list(_REGISTRY.values())
    if area_filter:
        wanted = set(area_filter)
        unknown = wanted - {s.area for s in specs}
        if unknown:
            raise KeyError(f"unknown benchmark area(s): {sorted(unknown)}; "
                           f"known: {sorted({s.area for s in specs})}")
        specs = [s for s in specs if s.area in wanted]
    return specs


def areas() -> List[str]:
    """Distinct areas in first-registration order."""
    seen: Dict[str, None] = {}
    for spec in all_specs():
        seen.setdefault(spec.area, None)
    return list(seen)


def get_area(area: str) -> List[BenchSpec]:
    """Every spec registered under one area (KeyError if none)."""
    specs = all_specs([area])
    return specs
