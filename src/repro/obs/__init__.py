"""Simulation-wide observability: metrics, profiling spans, tracing, export.

Four pieces (see DESIGN.md §8–§9):

* :mod:`repro.obs.metrics` — a hierarchical :class:`MetricsRegistry`
  of mergeable counters/gauges/timers/histograms, instrumented at the
  hot points of the radio, netstack, dot11, hosts, attack, and defense
  layers;
* :mod:`repro.obs.profiler` — wall-clock :class:`Profiler` spans around
  kernel event dispatch and the known hot paths (radio fan-out,
  RC4/FMS, the frame codec);
* :mod:`repro.obs.runtime` — the one ambient :class:`Instrumentation`
  record (metrics, profiler, recorder, WIDS watch),
  read with :func:`instruments` and replaced field by field with
  :func:`installed`; :func:`collecting` installs a registry and
  optionally a profiler.  A field left ``None`` is an observer that is
  off, every hook short-circuits on it, and the hard invariant holds:
  simulated results are bit-for-bit identical with observability
  enabled, disabled, or absent.
* :mod:`repro.obs.lineage` + :mod:`repro.obs.export` — the causal
  frame-lineage :class:`FlightRecorder` (per-frame ``trace_id``, hop
  records, parent/child span links, last-N ring buffer) installed with
  :func:`recording`, exportable as pcap (``LINKTYPE_IEEE802_11``) or
  Chrome trace-event JSON (``python -m repro run EXP --trace``).

The registry obeys the ``merge()`` law of :mod:`repro.obs.metrics`, so
:mod:`repro.fleet` ships one snapshot per trial and reduces them in
seed order (``python -m repro sweep --metrics out.json``); a one-shot
profile of any registered experiment is
``python -m repro run EXP --profile``.
"""

from repro.obs.export import (LINKTYPE_IEEE802_11, chrome_trace_dict,
                              pcap_bytes, write_chrome_trace, write_pcap)
from repro.obs.lineage import FlightRecorder, Hop, Lineage, recording
from repro.obs.metrics import (CounterMetric, GaugeMetric, HistogramMetric,
                               MetricsRegistry, TimerMetric)
from repro.obs.profiler import Profiler
from repro.obs.runtime import (Collection, Instrumentation, collecting,
                               installed, instruments)

__all__ = [
    "Collection",
    "CounterMetric",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "Hop",
    "Instrumentation",
    "LINKTYPE_IEEE802_11",
    "Lineage",
    "MetricsRegistry",
    "Profiler",
    "TimerMetric",
    "chrome_trace_dict",
    "collecting",
    "installed",
    "instruments",
    "pcap_bytes",
    "recording",
    "write_chrome_trace",
    "write_pcap",
]
