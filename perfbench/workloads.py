"""The benchmark's three workloads: trial inputs, output records and checks.

A trial is one unit of work. Trial ``i`` of a run started with seed ``S``
is fully determined by ``(S, i)``: its kind is ``KINDS[i % len(KINDS)]``
and its world or key is drawn from :func:`trial_seed`. Each trial returns
a :class:`TrialRecord` whose ``output`` is what the program produced and
whose ``counters`` are deterministic work counts read from public
attributes; ``Workload.check_kind`` says whether the output is right.

Only public entry points of ``repro`` are called.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import build_corp_scenario
from repro.attacks.sniffer import MonitorSniffer
from repro.core.scenario import LEGIT_BSSID
from repro.crypto.fms import FmsAttack, weak_iv_for
from repro.crypto.rc4 import rc4_keystream
from repro.crypto.wep import WepKey
from repro.dot11.frames import FrameSubtype
from repro.dot11.seqctl import SEQ_MODULO, SequenceCounter
from repro.netstack.tcp import TcpConnection
from repro.radio.propagation import Position
from repro.rsn.experiment import run_downgrade_world
from repro.sim.rng import SimRandom
from repro.wids.detectors import SeqCtlAnomalyDetector
from repro.wids.engine import WidsEngine
from repro.wids.evaluation import GroundTruth, evaluate

__all__ = ["WORKLOADS", "TrialRecord", "Workload", "digest", "trial_seed"]

#: Where E-WIDS parks its sensor, and the naive rogue's beacon slop.
SNIFFER_POSITION = Position(15.0, 5.0)
SLOPPY_BEACON_JITTER_S = 0.03

#: E-FMS's grid: key length in bytes x weak IVs per key byte.
FMS_CELLS = tuple((key_len, per_byte)
                  for key_len in (5, 13)
                  for per_byte in (10, 20, 40, 80, 160, 256))
FMS_SEARCH_WIDTH = 4
#: DFS budget per recovery. E-FMS uses the library default (20000), at
#: which one failing 104-bit key costs ~3 s and a borderline cell's
#: success or failure swings a 12-cell pass between 6 and 16 s; 2000
#: keeps every cell under ~0.4 s so a run holds many passes.
FMS_MAX_NODES = 2000


def trial_seed(seed: int, index: int) -> int:
    """The world/key seed of trial ``index`` in a run started with ``seed``."""
    raw = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(raw[:6], "big")


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj`` (floats by ``repr``)."""
    raw = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode()).hexdigest()


@dataclass
class TrialRecord:
    index: int
    kind: str
    seed: int
    output: dict
    counters: Dict[str, int]
    failure: Optional[str] = None

    def to_json(self) -> dict:
        return {"index": self.index, "kind": self.kind, "seed": self.seed,
                "output": self.output, "counters": self.counters}

    @property
    def digest(self) -> str:
        """Outputs and work counters: equal within one run of one program."""
        return digest(self.to_json())

    @property
    def output_digest(self) -> str:
        """Outputs only: equal across programs that do the same job."""
        return digest({"index": self.index, "kind": self.kind,
                       "seed": self.seed, "output": self.output})


class _TcpTracker:
    """Collects every ``TcpConnection`` built while installed.

    Hosts keep their connection tables private and reap closed ones, so
    the benchmark hooks the constructor to read each connection's public
    ``segments_sent`` at the end of the trial. A handful of calls per
    trial; installed identically in every pass.
    """

    def __init__(self) -> None:
        self.conns: List[TcpConnection] = []
        self._orig = None

    def __enter__(self) -> "_TcpTracker":
        orig = self._orig = TcpConnection.__init__
        conns = self.conns

        def init(conn, *args, **kwargs):
            orig(conn, *args, **kwargs)
            conns.append(conn)

        TcpConnection.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        TcpConnection.__init__ = self._orig

    def segments_sent(self) -> int:
        return sum(c.segments_sent for c in self.conns)


def _radio_transmissions(medium) -> int:
    return sum(port.tx_frames for port in medium.ports)


# ----------------------------------------------------------------------
# download-mitm: Fig. 2 rogue + netsed, Fig. 3 VPN behind the same rogue
# ----------------------------------------------------------------------

def _download(seed: int, vpn: bool) -> Tuple[dict, dict]:
    with _TcpTracker() as tcp:
        scenario = build_corp_scenario(seed=seed)
        scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        client = None
        if vpn:
            client = scenario.connect_vpn(victim)
            scenario.sim.run_for(5.0)
        outcome = scenario.run_download_experiment(
            victim, settle_s=90.0 if vpn else 60.0)
    netsed = scenario.rogue.netsed
    output = {
        "compromised": outcome.compromised,
        "md5_ok": outcome.md5_ok,
        "executed": outcome.executed,
        "trojaned": outcome.trojaned,
        "netsed_rewrites": netsed.total_replacements,
        "netsed_flows": netsed.connections_proxied,
        "vpn_connected": bool(client and client.connected),
        "vpn_tunnelled": client.packets_tunnelled if client else 0,
    }
    counters = {
        "sim_events": scenario.sim.events_dispatched,
        "radio_transmissions": _radio_transmissions(scenario.medium),
        "tcp_segments": tcp.segments_sent(),
    }
    return output, counters


def _check_download(kind: str, out: dict) -> Optional[str]:
    if kind == "rogue":
        if not out["compromised"]:
            return "rogue arm: victim not compromised"
        if out["netsed_rewrites"] <= 0:
            return "rogue arm: netsed made no rewrite"
        return None
    if out["compromised"]:
        return "vpn arm: victim compromised"
    if not (out["vpn_connected"] and out["executed"] and out["md5_ok"]):
        return "vpn arm: download through the tunnel did not complete"
    return None


# ----------------------------------------------------------------------
# wep-crack: E-FMS key recovery, one key per cell, no simulator
# ----------------------------------------------------------------------

class CountingFmsAttack(FmsAttack):
    """``FmsAttack`` that counts the vote tables its search computes."""

    def __init__(self, key_length: int) -> None:
        super().__init__(key_length=key_length)
        self.vote_tables = 0

    def votes_for_byte(self, a, known_prefix, use_numpy=None):
        self.vote_tables += 1
        return super().votes_for_byte(a, known_prefix, use_numpy)


def _crack(seed: int, key_len: int, per_byte: int) -> Tuple[dict, dict]:
    rng = SimRandom(seed)
    key = WepKey(rng.bytes(key_len))
    attack = CountingFmsAttack(key_len)
    xs = rng.sample(range(256), min(per_byte, 256))
    for a in range(key_len):
        for x in xs:
            iv = weak_iv_for(a, x)
            attack.add_sample(iv, rc4_keystream(key.per_packet_key(iv), 1)[0])
    verifications = [0]

    def verifier(candidate: bytes) -> bool:
        verifications[0] += 1
        return candidate == key.key

    recovered = attack.recover(verifier=verifier,
                               search_width=FMS_SEARCH_WIDTH,
                               max_nodes=FMS_MAX_NODES)
    output = {
        "key_bits": key_len * 8,
        "weak_ivs_per_byte": per_byte,
        "recovered": recovered is not None,
        "wrong_key": recovered is not None and recovered != key.key,
    }
    counters = {
        "fms_vote_tables": attack.vote_tables,
        "fms_verifier_calls": verifications[0],
        "fms_samples": attack.weak_samples,
    }
    return output, counters


def _check_crack(kind: str, out: dict) -> Optional[str]:
    if out["wrong_key"]:
        return f"{kind}: recover() returned a wrong key"
    return None


# ----------------------------------------------------------------------
# rogue-hunt: labelled worlds scored by a MonitorSniffer + WidsEngine
# ----------------------------------------------------------------------

def _alert_fields(alerts) -> dict:
    return {
        "alert_count": len(alerts),
        "alerted_detectors": sorted({a.detector for a in alerts}),
        "first_alert_t": alerts[0].t if alerts else None,
    }


def _largest_seq_step(capture, transmitter: str) -> int:
    """Largest sequence-number step, either way, in ``transmitter``'s
    frames as the sniffer heard them (a cloned BSSID merges two radios)."""
    largest, prev = 0, None
    for cap in capture:
        frame = cap.frame
        if frame.subtype is FrameSubtype.ACK or str(frame.addr2) != transmitter:
            continue
        if prev is not None:
            gap = SequenceCounter.gap(prev, frame.seq)
            largest = max(largest, min(gap, SEQ_MODULO - gap))
        prev = frame.seq
    return largest


def _hunt_corp(seed: int, kind: str) -> Tuple[dict, dict]:
    rogue = kind != "benign"
    with _TcpTracker() as tcp:
        scenario = build_corp_scenario(
            seed=seed, with_rogue=rogue,
            rogue_mirror_seqctl=kind == "evasive",
            rogue_match_beacon_cadence=kind == "evasive",
            rogue_beacon_jitter_s=(SLOPPY_BEACON_JITTER_S
                                   if kind == "naive" else 0.0))
        sniffer = MonitorSniffer(scenario.sim, scenario.medium,
                                 SNIFFER_POSITION)
        engine = WidsEngine()
        engine.attach(sniffer.capture)
        if rogue:
            scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        outcome = scenario.run_download_experiment(victim)
    scores = evaluate(sniffer.capture, GroundTruth(rogue_present=rogue))
    netsed_times = [rec.time for rec in scenario.sim.trace.records
                    if rec.category.startswith("netsed.")]
    output = _alert_fields(engine.alerts)
    output.update({
        "scores": digest(scores.snapshot()),
        "rogue_present": rogue,
        "first_netsed_t": min(netsed_times) if netsed_times else None,
        "compromised": outcome.compromised,
        "largest_seq_step": _largest_seq_step(sniffer.capture,
                                              str(LEGIT_BSSID)),
    })
    counters = {
        "sim_events": scenario.sim.events_dispatched,
        "radio_transmissions": _radio_transmissions(scenario.medium),
        "tcp_segments": tcp.segments_sent(),
        "wids_frames": engine.frames_seen,
        "wids_alerts": len(engine.alerts),
    }
    return output, counters


def _hunt_downgrade(seed: int) -> Tuple[dict, dict]:
    with _TcpTracker() as tcp:
        world, summary = run_downgrade_world(seed, mode="wpa2")
    scores = evaluate(world.sniffer.capture, GroundTruth(rogue_present=True))
    output = _alert_fields(world.engine.alerts)
    output.update({
        "scores": digest(scores.snapshot()),
        "rogue_present": True,
        "akm": summary["akm"],
        "pmf": summary["pmf"],
        "on_rogue_channel": summary["on_rogue_channel"],
        "rogue_client_count": summary["rogue_client_count"],
    })
    counters = {
        "sim_events": world.sim.events_dispatched,
        "radio_transmissions": _radio_transmissions(world.medium),
        "tcp_segments": tcp.segments_sent(),
        "wids_frames": world.engine.frames_seen,
        "wids_alerts": len(world.engine.alerts),
    }
    return output, counters


def _hunt(seed: int, kind: str) -> Tuple[dict, dict]:
    if kind == "downgrade":
        return _hunt_downgrade(seed)
    return _hunt_corp(seed, kind)


def _check_hunt(kind: str, out: dict) -> Optional[str]:
    detectors = set(out["alerted_detectors"])
    if kind == "benign":
        if out["alert_count"]:
            return f"benign world raised {out['alert_count']} alert(s)"
    elif kind == "naive":
        first, rewrite = out["first_alert_t"], out["first_netsed_t"]
        if first is None or rewrite is None or not first < rewrite:
            return "naive world: no alert before the first netsed rewrite"
    elif kind == "evasive":
        # The mirrored counter trails the AP by up to a frame, so the
        # merged stream steps back by 1 in every world and, in about 1
        # of 100, often enough for a seqctl alert (counted, not failed: see
        # EVASIVE_SEQCTL_NOTE in run.py). Mirroring must keep every step
        # within the detector's gap threshold, both ways: an independent
        # counter jumps far.
        limit = SeqCtlAnomalyDetector().gap_threshold
        if out["largest_seq_step"] > limit:
            return (f"evasive world: sequence step "
                    f"{out['largest_seq_step']} > {limit}, counters not "
                    f"mirrored")
        if not detectors & {"fingerprint", "multichannel"}:
            return "evasive world: no fingerprint/multichannel alert"
    elif kind == "downgrade":
        if "rsn-mismatch" not in detectors:
            return "downgrade world: no rsn-mismatch alert"
        if not (out["akm"] == "PSK" and not out["pmf"]
                and out["on_rogue_channel"] and out["rogue_client_count"]):
            return "downgrade world: victim not coerced to WPA2 on the rogue"
    return None


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[str, ...]
    run_kind: Callable[[int, str], Tuple[dict, dict]]
    check_kind: Callable[[str, dict], Optional[str]]

    def run_trial(self, seed: int, index: int) -> TrialRecord:
        """Run trial ``index`` and check it; never raises for a bad output."""
        kind = self.kinds[index % len(self.kinds)]
        tseed = trial_seed(seed, index)
        output, counters = self.run_kind(tseed, kind)
        record = TrialRecord(index, kind, tseed, output, counters)
        record.failure = self.check_kind(kind, output)
        return record


def _crack_kind(seed: int, kind: str) -> Tuple[dict, dict]:
    bits, per_byte = kind.split("/")
    return _crack(seed, int(bits) // 8, int(per_byte))


WORKLOADS: Dict[str, Workload] = {
    "download-mitm": Workload(
        "download-mitm", ("rogue", "vpn"),
        lambda seed, kind: _download(seed, vpn=kind == "vpn"),
        _check_download),
    "wep-crack": Workload(
        "wep-crack", tuple(f"{k * 8}/{n}" for k, n in FMS_CELLS),
        _crack_kind, _check_crack),
    "rogue-hunt": Workload(
        "rogue-hunt", ("naive", "evasive", "benign", "downgrade"),
        _hunt, _check_hunt),
}
