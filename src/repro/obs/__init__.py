"""Simulation-wide observability: metrics, profiling spans, tracing, export.

Four pieces (see DESIGN.md §8–§9):

* :mod:`repro.obs.metrics` — a hierarchical :class:`MetricsRegistry`
  of mergeable counters/gauges/timers/histograms, instrumented at the
  hot points of the radio, netstack, dot11, hosts, attack, and defense
  layers;
* :mod:`repro.obs.profiler` — wall-clock :class:`Profiler` spans around
  kernel event dispatch and the known hot paths (radio fan-out,
  RC4/FMS, the frame codec);
* :mod:`repro.obs.runtime` — the ambient :func:`collecting` context
  that turns the instrumentation on.  When no context is active every
  hook short-circuits, and the hard invariant holds: simulated results
  are bit-for-bit identical with observability enabled, disabled, or
  absent.
* :mod:`repro.obs.lineage` + :mod:`repro.obs.export` — the causal
  frame-lineage :class:`FlightRecorder` (per-frame ``trace_id``, hop
  records, parent/child span links, last-N ring buffer) installed with
  :func:`recording`, exportable as pcap (``LINKTYPE_IEEE802_11``) or
  Chrome trace-event JSON (``python -m repro trace EXP``).

The registry obeys the ``merge()`` law of :mod:`repro.obs.metrics`, so
:mod:`repro.fleet` ships one snapshot per trial and reduces them in
seed order (``python -m repro sweep --metrics out.json``); a one-shot
profile of any registered experiment is ``python -m repro profile EXP``.
"""

from repro.obs.export import (LINKTYPE_IEEE802_11, chrome_trace_dict,
                              pcap_bytes, write_chrome_trace, write_pcap)
from repro.obs.lineage import (FlightRecorder, Hop, Lineage, flight_recorder,
                               recording)
from repro.obs.metrics import (CounterMetric, GaugeMetric, HistogramMetric,
                               MetricsRegistry, TimerMetric)
from repro.obs.profiler import Profiler
from repro.obs.runtime import (Collection, active_profiler, collecting,
                               obs_metrics)

__all__ = [
    "Collection",
    "CounterMetric",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "Hop",
    "LINKTYPE_IEEE802_11",
    "Lineage",
    "MetricsRegistry",
    "Profiler",
    "TimerMetric",
    "active_profiler",
    "chrome_trace_dict",
    "collecting",
    "flight_recorder",
    "obs_metrics",
    "pcap_bytes",
    "recording",
    "write_chrome_trace",
    "write_pcap",
]
