"""Causal frame-lineage tracing: the flight recorder.

The third observability pillar (after metrics and profiling, DESIGN.md
§8): a distributed-tracing view of individual frames.  Every frame put
on the air (or wire) while a recorder is installed gets a stable
``trace_id`` at origin and accumulates :class:`Hop` records —
``(time, host, layer, action, detail)`` — as it crosses the radio,
codec, NIC/AP, netstack, attack, and defense layers.  Frames *derived*
from another frame (an AP relaying a client's frame, the rogue bridge
re-emitting a rewritten download, a VPN tunnel re-encapsulating an
inner packet) are linked to their cause with parent/child span links,
so the full Fig-2 MITM path — server → rogue bridge → netsed rewrite →
victim NIC — reconstructs as a chain of lineages.

Propagation mechanics
---------------------
The simulator delivers the *same* frame object to every receiver, so a
``trace_id`` attribute on the frame survives the air/wire gap even
across scheduled (asynchronous) deliveries.  Within one kernel event,
synchronous processing chains (frame rx → IP → TCP → application →
new frame tx) are linked through an ambient *current lineage* stack:
delivery pushes the incoming frame's id, and any frame transmitted
before it pops becomes that frame's child.  Work rescheduled through a
timer (TCP retransmission backoff, application think time) starts a
fresh root — a deliberate, documented cut: the recorder traces frame
causality, not full program causality.

Zero-perturbation contract
--------------------------
Identical to metrics/profiling: every call site guards with
``rec = instruments().recorder`` / ``if rec is not None`` so the absent
path costs one global read; the recorder never touches the simulation
RNG (ids come from a plain counter) and the simulation never reads
anything back out of it.  The determinism goldens pin that a run is
bit-identical with recording on, off, or absent.

Memory is bounded twice over: the recorder is a ring buffer of the
last ``capacity`` lineages (oldest evicted first), and each lineage
keeps at most ``max_hops`` hops (later hops are counted, not stored).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.obs.runtime import installed

__all__ = ["FlightRecorder", "Hop", "Lineage", "recording"]


@dataclass(frozen=True)
class Hop:
    """One step of a frame's journey through the stack."""

    t: float
    host: str
    layer: str
    action: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Same defensive copy as TraceRecord: recorded history must not
        # alias a dict the caller may mutate afterwards.
        object.__setattr__(self, "detail", dict(self.detail))

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.t:10.6f}] {self.host:<16} {self.layer:>8}.{self.action:<12} {kv}"

    def to_dict(self) -> dict[str, Any]:
        return {"t": self.t, "host": self.host, "layer": self.layer,
                "action": self.action, "detail": dict(self.detail)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Hop":
        return cls(t=float(data["t"]), host=str(data["host"]),
                   layer=str(data["layer"]), action=str(data["action"]),
                   detail=dict(data.get("detail") or {}))


class Lineage:
    """The recorded life of one frame: origin, hops, and span links."""

    __slots__ = ("trace_id", "parent", "kind", "origin", "t0", "hops",
                 "hops_dropped", "raw", "children")

    def __init__(self, trace_id: int, *, kind: str, origin: str, t0: float,
                 parent: Optional[int] = None) -> None:
        self.trace_id = trace_id
        self.parent = parent          # trace_id of the causing frame, or None
        self.kind = kind              # "dot11" | "ether"
        self.origin = origin          # port/host that first transmitted it
        self.t0 = t0
        self.hops: list[Hop] = []
        self.hops_dropped = 0         # hops beyond max_hops (counted, not kept)
        self.raw: Optional[bytes] = None   # frame bytes as first transmitted
        self.children: list[int] = []      # trace_ids derived from this frame

    def find(self, layer: Optional[str] = None,
             action: Optional[str] = None) -> Iterator[Hop]:
        """Hops matching the given layer and/or action (prefix on action)."""
        for hop in self.hops:
            if layer is not None and hop.layer != layer:
                continue
            if action is not None and not hop.action.startswith(action):
                continue
            yield hop

    def to_dict(self, *, raw_limit: Optional[int] = None) -> dict[str, Any]:
        """Plain-dict form for IPC/JSON; ``raw_limit`` truncates frame bytes."""
        raw = self.raw
        if raw is not None and raw_limit is not None:
            raw = raw[:raw_limit]
        return {
            "trace_id": self.trace_id,
            "parent": self.parent,
            "kind": self.kind,
            "origin": self.origin,
            "t0": self.t0,
            "hops": [hop.to_dict() for hop in self.hops],
            "hops_dropped": self.hops_dropped,
            "raw": raw.hex() if raw is not None else None,
            "children": list(self.children),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Lineage":
        lineage = cls(int(data["trace_id"]), kind=str(data["kind"]),
                      origin=str(data["origin"]), t0=float(data["t0"]),
                      parent=data.get("parent"))
        lineage.hops = [Hop.from_dict(h) for h in data.get("hops", [])]
        lineage.hops_dropped = int(data.get("hops_dropped", 0))
        raw = data.get("raw")
        lineage.raw = bytes.fromhex(raw) if raw else None
        lineage.children = list(data.get("children", []))
        return lineage

    def __repr__(self) -> str:
        return (f"<Lineage #{self.trace_id} {self.kind} from {self.origin} "
                f"t0={self.t0:.6f} hops={len(self.hops)}"
                f"{' parent=#%d' % self.parent if self.parent else ''}>")


class FlightRecorder:
    """A bounded ring buffer of frame lineages.

    ``capacity`` bounds the number of lineages retained (last-N frames;
    the oldest is evicted first and hops addressed to an evicted id are
    dropped silently).  ``max_hops`` bounds each lineage's hop list.
    The as-transmitted bytes of every frame are kept for pcap export.
    """

    def __init__(self, capacity: int = 4096, *, max_hops: int = 96) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.max_hops = max_hops
        self.evicted = 0
        self._lineages: "OrderedDict[int, Lineage]" = OrderedDict()
        self._next_id = 1
        self._stack: list[int] = []   # current-lineage context (innermost last)
        self._suspended = 0           # re-entrancy guard for raw-byte capture
        self._now = 0.0               # last simulation time seen (see hop())
        self.sim_traces: list = []    # Trace of each Simulator built under us

    def attach_sim_trace(self, trace) -> None:
        """Register a simulator's event :class:`~repro.sim.trace.Trace`.

        Write-only from the simulation's point of view: the kernel calls
        this at construction so offline consumers (``run --trace``) can
        corroborate lineage hops against the trace stream with
        ``Trace.between`` / ``Trace.matching``.
        """
        if trace not in self.sim_traces:
            self.sim_traces.append(trace)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def begin(self, kind: str, origin: str, t: float,
              parent: Optional[int] = None) -> int:
        """Open a new lineage and return its trace_id.

        ``parent`` defaults to the current ambient lineage (the frame
        whose delivery is being processed), which is how bridged and
        rewritten copies acquire their span links.
        """
        if parent is None:
            parent = self.current()
        trace_id = self._next_id
        self._next_id += 1
        self._now = t
        lineage = Lineage(trace_id, kind=kind, origin=origin, t0=t, parent=parent)
        if parent is not None:
            cause = self._lineages.get(parent)
            if cause is not None:
                cause.children.append(trace_id)
        self._lineages[trace_id] = lineage
        while len(self._lineages) > self.capacity:
            self._lineages.popitem(last=False)
            self.evicted += 1
        return trace_id

    def hop(self, layer: str, action: str, *, trace_id: Optional[int] = None,
            host: str = "", t: Optional[float] = None, **detail: Any) -> None:
        """Attach a hop to ``trace_id`` (default: the current lineage).

        ``t=None`` stamps the hop with the last simulation time the
        recorder has seen — for call sites (the frame codec, proxies)
        with no simulator reference in scope.  Hops for unknown/evicted
        ids — or while raw-byte capture is in progress — are dropped
        silently: the recorder is best-effort by design and must never
        raise into the simulation.
        """
        if self._suspended:
            return
        if t is None:
            t = self._now
        else:
            self._now = t
        if trace_id is None:
            trace_id = self.current()
        if trace_id is None:
            return
        lineage = self._lineages.get(trace_id)
        if lineage is None:
            return
        if len(lineage.hops) >= self.max_hops:
            lineage.hops_dropped += 1
            return
        lineage.hops.append(Hop(t=t, host=host, layer=layer, action=action,
                                detail=detail))

    def attach_raw(self, trace_id: int, raw: bytes) -> None:
        """Keep the as-transmitted frame bytes (first capture wins)."""
        lineage = self._lineages.get(trace_id)
        if lineage is not None and lineage.raw is None:
            lineage.raw = raw

    # ------------------------------------------------------------------
    # ambient current-lineage context
    # ------------------------------------------------------------------
    def current(self) -> Optional[int]:
        """The lineage whose frame is currently being processed, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def frame_context(self, trace_id: Optional[int]) -> Iterator[None]:
        """Make ``trace_id`` the ambient lineage for the enclosed delivery."""
        if trace_id is None:
            yield
            return
        self._stack.append(trace_id)
        try:
            yield
        finally:
            self._stack.pop()

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Drop hops for the duration (guards raw-byte self-capture)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lineages)

    def get(self, trace_id: int) -> Optional[Lineage]:
        return self._lineages.get(trace_id)

    def lineages(self) -> list[Lineage]:
        """Retained lineages, oldest first."""
        return list(self._lineages.values())

    def find_hops(self, layer: Optional[str] = None,
                  action: Optional[str] = None) -> Iterator[tuple[Lineage, Hop]]:
        """(lineage, hop) pairs across the ring matching layer/action."""
        for lineage in self._lineages.values():
            for hop in lineage.find(layer, action):
                yield lineage, hop

    def ancestors(self, trace_id: int) -> list[Lineage]:
        """Chain root → ... → ``trace_id`` (truncated at evicted links)."""
        chain: list[Lineage] = []
        seen: set[int] = set()
        cursor: Optional[int] = trace_id
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            lineage = self._lineages.get(cursor)
            if lineage is None:
                break
            chain.append(lineage)
            cursor = lineage.parent
        chain.reverse()
        return chain

    def descendants(self, trace_id: int) -> list[Lineage]:
        """All retained lineages reachable via child links, breadth-first."""
        out: list[Lineage] = []
        seen: set[int] = {trace_id}
        queue = list(self._lineages[trace_id].children) if trace_id in self._lineages else []
        while queue:
            child_id = queue.pop(0)
            if child_id in seen:
                continue
            seen.add(child_id)
            child = self._lineages.get(child_id)
            if child is None:
                continue
            out.append(child)
            queue.extend(child.children)
        return out

    # ------------------------------------------------------------------
    # serialization (fleet workers ship lineage samples to the parent)
    # ------------------------------------------------------------------
    def to_dicts(self, *, limit: Optional[int] = None,
                 raw_limit: Optional[int] = 256) -> list[dict[str, Any]]:
        """The newest ``limit`` lineages as plain dicts, oldest first."""
        lineages = self.lineages()
        if limit is not None:
            lineages = lineages[-limit:]
        return [ln.to_dict(raw_limit=raw_limit) for ln in lineages]

    @classmethod
    def from_dicts(cls, dicts: list[dict[str, Any]]) -> "FlightRecorder":
        """Rebuild a (query-only) recorder from :meth:`to_dicts` output."""
        recorder = cls(capacity=max(len(dicts), 1))
        for data in dicts:
            lineage = Lineage.from_dict(data)
            recorder._lineages[lineage.trace_id] = lineage
            recorder._next_id = max(recorder._next_id, lineage.trace_id + 1)
        return recorder

    def summary(self) -> dict[str, Any]:
        """Compact digest: counts by kind, hop totals, eviction pressure."""
        by_kind: dict[str, int] = {}
        hops = 0
        for lineage in self._lineages.values():
            by_kind[lineage.kind] = by_kind.get(lineage.kind, 0) + 1
            hops += len(lineage.hops)
        return {"lineages": len(self._lineages), "by_kind": by_kind,
                "hops": hops, "evicted": self.evicted}


@contextmanager
def recording(capacity: int = 4096, *,
              max_hops: int = 96) -> Iterator[FlightRecorder]:
    """Install a fresh :class:`FlightRecorder` for the duration of the block.

    It becomes the ``recorder`` field of :func:`repro.obs.runtime.installed`,
    so it nests like every other observer (innermost wins) and the
    previous recorder is restored even when the body raises.
    """
    recorder = FlightRecorder(capacity, max_hops=max_hops)
    with installed(recorder=recorder):
        yield recorder
