"""Prometheus text-exposition rendering for :mod:`repro.obs` registries.

Stdlib-only translation of a :class:`~repro.obs.metrics.MetricsRegistry`
(or its plain ``snapshot()`` dict) into the Prometheus text exposition
format, version 0.0.4 — the format every Prometheus server scrapes and
``promtool`` checks.  Naming rules, applied deterministically:

* every family is prefixed ``repro_`` and dotted metric names are
  flattened with ``_`` (``attack.netsed.rewrites`` →
  ``repro_attack_netsed_rewrites``); any character outside
  ``[a-zA-Z0-9_]`` sanitizes to ``_``;
* counters gain the conventional ``_total`` suffix;
* timers render as summaries in seconds: ``<name>_seconds_sum`` /
  ``<name>_seconds_count``;
* histograms render cumulative ``<name>_bucket{le="<edge>"}`` series
  (underflow folds into every finite bucket, since those observations
  are ``<= edge`` for all edges), a ``+Inf`` bucket equal to the total
  observation count, ``_count``, and a midpoint-estimated ``_sum``
  (the registry's histogram stores bins, not exact totals; the estimate
  is deterministic and documented here so dashboards know its nature);
* gauges that were never set are omitted (Prometheus has no "unset").

:func:`parse_exposition` is the matching strict reader used by tests
and the CI smoke job: it validates comment/sample line grammar, TYPE
declarations, and suffix discipline, and returns the samples so
assertions can check values — a self-contained stand-in for
``promtool check metrics``.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple, Union

from repro.obs.metrics import MetricsRegistry

__all__ = ["render_exposition", "parse_exposition", "metric_family_name"]

_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$")
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>[^"]*)"$')


def metric_family_name(dotted: str, kind: str) -> str:
    """The exposition family name for a registry metric name."""
    base = "repro_" + _SANITIZE.sub("_", dotted)
    if kind == "counter":
        return base + "_total"
    if kind == "timer":
        return base + "_seconds"
    return base


def _fmt(value: float) -> str:
    """Float → exposition text (integers render without a decimal)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _histogram_lines(family: str, data: dict, out: List[str]) -> None:
    lo, hi, bins = float(data["lo"]), float(data["hi"]), int(data["bins"])
    counts = data["counts"]
    underflow, overflow = int(data["underflow"]), int(data["overflow"])
    width = (hi - lo) / bins
    total = sum(counts) + underflow + overflow
    cumulative = underflow
    estimated_sum = underflow * lo + overflow * hi
    for i, c in enumerate(counts):
        cumulative += c
        edge = lo + (i + 1) * width
        estimated_sum += c * (lo + (i + 0.5) * width)
        out.append(f'{family}_bucket{{le="{_fmt(edge)}"}} {cumulative}')
    out.append(f'{family}_bucket{{le="+Inf"}} {total}')
    out.append(f"{family}_sum {_fmt(estimated_sum)}")
    out.append(f"{family}_count {total}")


def render_exposition(
        registry: Union[MetricsRegistry, dict]) -> str:
    """Render a registry (or its ``snapshot()`` dict) as exposition text.

    Output is deterministic: families appear in sorted registry-name
    order, one ``# HELP``/``# TYPE`` pair per family.
    """
    snapshot = (registry.snapshot()
                if isinstance(registry, MetricsRegistry) else registry)
    out: List[str] = []
    for dotted in sorted(snapshot):
        data = snapshot[dotted]
        kind = data["kind"]
        family = metric_family_name(dotted, kind)
        if kind == "counter":
            out.append(f"# HELP {family} Counter {dotted!r} from repro.obs.")
            out.append(f"# TYPE {family} counter")
            out.append(f"{family} {int(data['value'])}")
        elif kind == "gauge":
            if data.get("value") is None:
                continue  # never set: Prometheus has no unset gauge
            out.append(f"# HELP {family} Gauge {dotted!r} from repro.obs.")
            out.append(f"# TYPE {family} gauge")
            out.append(f"{family} {_fmt(float(data['value']))}")
        elif kind == "timer":
            out.append(f"# HELP {family} Timer {dotted!r} from repro.obs.")
            out.append(f"# TYPE {family} summary")
            out.append(f"{family}_sum {_fmt(float(data['total_s']))}")
            out.append(f"{family}_count {int(data['count'])}")
        elif kind == "histogram":
            out.append(f"# HELP {family} Histogram {dotted!r} from repro.obs.")
            out.append(f"# TYPE {family} histogram")
            _histogram_lines(family, data, out)
        else:
            raise ValueError(f"unknown metric kind {kind!r} for {dotted!r}")
    return "\n".join(out) + "\n" if out else ""


#: Sample-name suffixes each declared TYPE may emit (beyond the bare name).
_TYPE_SUFFIXES = {
    "counter": ("",),
    "gauge": ("",),
    "summary": ("_sum", "_count"),
    "histogram": ("_bucket", "_sum", "_count"),
}


def parse_exposition(text: str) -> Dict[str, dict]:
    """Strictly parse exposition text; raise ``ValueError`` on violations.

    Returns ``{family: {"type": str, "help": str, "samples":
    [(name, labels_dict, value), ...]}}``.  Checks the grammar of every
    line, that each sample belongs to a previously declared family with
    a legal suffix for its type, that histogram ``_bucket`` series are
    cumulative and end with ``+Inf`` equal to ``_count``, and that
    counter values are finite and non-negative.
    """
    families: Dict[str, dict] = {}
    order: List[str] = []  # declaration order, for suffix matching
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            raise ValueError(f"line {lineno}: blank line in exposition")
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ValueError(f"line {lineno}: malformed HELP")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3]
            if parts[2] not in order:
                order.append(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in _TYPE_SUFFIXES:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            family = families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []})
            if family["type"] is not None:
                raise ValueError(f"line {lineno}: duplicate TYPE {parts[2]}")
            family["type"] = parts[3]
            if parts[2] not in order:
                order.append(parts[2])
            continue
        if line.startswith("#"):
            continue  # plain comment
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        if match.group("labels"):
            for pair in match.group("labels").split(","):
                lm = _LABEL.match(pair)
                if lm is None:
                    raise ValueError(f"line {lineno}: malformed label {pair!r}")
                labels[lm.group("key")] = lm.group("val")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}")
        owner = _owning_family(name, families, order)
        if owner is None:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE")
        families[owner]["samples"].append((name, labels, value))
        if families[owner]["type"] == "counter" and not value >= 0:
            raise ValueError(f"line {lineno}: negative counter {name!r}")
    for family, info in families.items():
        if info["type"] == "histogram":
            _check_histogram(family, info["samples"])
    return families


def _owning_family(sample_name: str, families: Dict[str, dict],
                   order: List[str]) -> Union[str, None]:
    # Longest declared family name wins, so repro_x_sum cannot be
    # claimed by a family repro_x declared after repro_x_sum's own.
    best = None
    for family in order:
        info = families[family]
        if info["type"] is None:
            continue
        for suffix in _TYPE_SUFFIXES[info["type"]]:
            if sample_name == family + suffix:
                if best is None or len(family) > len(best):
                    best = family
    return best


def _check_histogram(family: str,
                     samples: List[Tuple[str, dict, float]]) -> None:
    buckets = [(labels.get("le"), value) for name, labels, value in samples
               if name == family + "_bucket"]
    counts = [value for name, _labels, value in samples
              if name == family + "_count"]
    if not buckets or not counts:
        raise ValueError(f"histogram {family}: missing _bucket or _count")
    if buckets[-1][0] != "+Inf":
        raise ValueError(f"histogram {family}: last bucket must be +Inf")
    previous = 0.0
    for le, value in buckets:
        if le is None:
            raise ValueError(f"histogram {family}: bucket without le label")
        if value < previous:
            raise ValueError(f"histogram {family}: non-cumulative buckets")
        previous = value
    if buckets[-1][1] != counts[0]:
        raise ValueError(f"histogram {family}: +Inf bucket != _count")
