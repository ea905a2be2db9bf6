"""The registered benchmark suite — the repo's perf surface, named.

One registration per claim the repo has shipped:

* ``sim/event_dispatch_per_s`` — the kernel every experiment stands on;
* ``radio/fanout_frames_per_s`` — dense-crowd beacon delivery through
  the radio kernel's cached delivery plan;
* ``wire/checksum_mb_per_s``, ``wire/encode_cache_hit_rate``,
  ``wire/encode_cached_speedup`` — PR 5's streaming checksum and
  ~144x encode cache;
* ``wire/beacon_roundtrips_per_s`` — beacon build → decode through the
  content-keyed IE caches of ``repro.dot11.frames``;
* ``netstack/tcpip_roundtrip_per_s`` — zero-copy decode + in-place
  checksum patching;
* ``crypto/rc4_mb_per_s`` — the WEP/FMS inner loop, RC4 in libcrypto;
* ``crypto/wep_frames_per_s`` — WEP frames, one encryption and two
  decryptions each, a fresh RC4 per packet;
* ``crypto/sae_handshakes_per_s`` — SAE over the 1536-bit group, its
  modular exponentiations in libcrypto;
* ``fleet/serial_trials_per_s`` — PR 1's campaign engine, one worker
  (serial == parallel is a tier-1 test, not a bench metric);
* ``wids/eval_alerts_per_s`` — PR 4's full E-WIDS evaluation, the
  sustained-throughput discipline the WIDS survey calls for;
* ``wids/correlator_alerts_per_s`` — synthetic alert-storm evidence
  through ``AlertCorrelator.ingest``;
* ``trace/overhead_ratio`` — PR 3's flight recorder must stay a small
  multiple of an unrecorded run (lower is better).

Every function takes ``scale`` (the runner passes 0.25 for
``--smoke``) and floors its workload so rates stay meaningful.
Payloads are deterministic and timing-free — pinned by
``tests/bench/test_determinism.py``.
"""

from __future__ import annotations

import time
import zlib

from repro.bench.registry import BenchSample, register

__all__: list = []

_MAC_AP = "aa:bb:cc:dd:00:01"
_MAC_STA = "00:02:2d:00:00:07"


def _scaled(base: int, scale: float, floor: int) -> int:
    return max(floor, int(base * scale))


# --------------------------------------------------------------------------
# sim — the discrete-event kernel
# --------------------------------------------------------------------------

@register("sim", "event_dispatch_per_s", unit="events/s",
          higher_is_better=True)
def sim_event_dispatch(scale: float = 1.0) -> BenchSample:
    """Events/second through the simulator core (flat schedule batch)."""
    from repro.sim.kernel import Simulator

    n = _scaled(20_000, scale, 2_000)
    sim = Simulator(seed=1)
    sink: list = []
    for i in range(n):
        sim.schedule(i * 1e-6, sink.append, i)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return BenchSample(value=len(sink) / elapsed,
                       payload={"events": n, "dispatched": len(sink)})


# --------------------------------------------------------------------------
# radio — fan-out heavy delivery through the cached delivery plan
# --------------------------------------------------------------------------

def _fanout_world(receivers: int, transmissions: int):
    """Dense-crowd beacon fan-out: ``receivers`` co-located clients all
    hearing one AP: one transmitter, so one plan serves every
    transmission.  Returns ``(elapsed_s, deliveries)``.

    The consumer callback is a no-op so the number measures the medium's
    fan-out machinery, not the benchmark's own bookkeeping; deliveries
    are counted from the ports' own ``rx_frames`` counters.
    """
    import math

    from repro.dot11.frames import make_beacon
    from repro.dot11.mac import MacAddress
    from repro.radio.medium import Medium, RadioPort
    from repro.radio.propagation import Position
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=2)
    medium = Medium(sim)
    tx = RadioPort("tx", Position(0, 0), 1)
    medium.attach(tx)
    sink = lambda frame, rssi, channel: None
    ports = []
    for i in range(receivers):
        angle = 2.0 * math.pi * i / receivers
        rx = RadioPort(f"rx{i}",
                       Position(math.cos(angle), math.sin(angle)), 1)
        rx.on_receive = sink
        medium.attach(rx)
        ports.append(rx)
    beacon = make_beacon(MacAddress(_MAC_AP), "BENCH", 1)
    t0 = time.perf_counter()
    for _ in range(transmissions):
        tx.transmit(beacon)
    sim.run()
    elapsed = time.perf_counter() - t0
    return elapsed, sum(rx.rx_frames for rx in ports)


@register("radio", "fanout_frames_per_s", unit="frames/s",
          higher_is_better=True)
def radio_fanout(scale: float = 1.0) -> BenchSample:
    """Beacon fan-out delivery rate across a dense receiver field.

    Only the number of transmissions scales: frames/s depends on how
    many receivers each transmission reaches, so a smaller world would
    read slower on an unchanged kernel and fail a full-size baseline.
    """
    receivers = 200
    transmissions = _scaled(400, scale, 100)
    elapsed, deliveries = _fanout_world(receivers, transmissions)
    return BenchSample(
        value=deliveries / elapsed,
        payload={"receivers": receivers, "transmissions": transmissions,
                 "deliveries": deliveries})


# --------------------------------------------------------------------------
# wire — streaming checksum + encode cache (PR 5's claims)
# --------------------------------------------------------------------------

@register("wire", "checksum_mb_per_s", unit="MB/s", higher_is_better=True)
def wire_checksum(scale: float = 1.0) -> BenchSample:
    """RFC 1071 streaming checksum throughput over a 64 KiB buffer."""
    from repro.wire.checksum import internet_checksum

    blob = bytes(range(256)) * 256          # 64 KiB
    reps = _scaled(80, scale, 20)
    checksum = internet_checksum(blob)
    t0 = time.perf_counter()
    for _ in range(reps):
        internet_checksum(blob)
    elapsed = time.perf_counter() - t0
    return BenchSample(
        value=reps * len(blob) / elapsed / 1e6,
        payload={"buffer_bytes": len(blob), "reps": reps,
                 "checksum": checksum})


@register("wire", "encode_cache_hit_rate", unit="ratio",
          higher_is_better=True, tolerance=0.02)
def wire_encode_cache_hit_rate(scale: float = 1.0) -> BenchSample:
    """Hit rate of the per-frame encode cache in a transmit fan-out.

    Deterministic — each frame encodes cold once then serves its
    fan-out copies from cache — so the tolerance is tight: any drop
    means the cache stopped being hit, not that the machine was busy.
    """
    from repro.dot11.frames import make_beacon
    from repro.dot11.mac import MacAddress
    from repro.obs.runtime import collecting

    frames = _scaled(200, scale, 50)
    fanout = 5          # per-receiver x3 + sniffer + recorder
    with collecting() as col:
        for i in range(frames):
            frame = make_beacon(MacAddress(_MAC_AP), "CORP", 6, seq=i)
            for _ in range(fanout):
                frame.to_bytes()
    snap = col.registry.snapshot()
    hits = snap["codec.encode_cache.hits"]["value"]
    misses = snap["codec.encode_cache.misses"]["value"]
    return BenchSample(
        value=hits / (hits + misses),
        payload={"frames": frames, "fanout": fanout,
                 "hits": hits, "misses": misses})


@register("wire", "encode_cached_speedup", unit="x", higher_is_better=True)
def wire_encode_cached_speedup(scale: float = 1.0) -> BenchSample:
    """Cached re-encode speedup over cold encodes of fresh frames."""
    from repro.dot11.frames import make_data
    from repro.dot11.mac import MacAddress

    rounds = _scaled(2_000, scale, 500)
    sta, ap = MacAddress(_MAC_STA), MacAddress(_MAC_AP)

    def fresh(i: int):
        return make_data(sta, ap, ap, bytes(range(200)), to_ds=True,
                         seq=i & 0xFFF)

    t0 = time.perf_counter()
    for i in range(rounds):
        fresh(i).to_bytes()
    t_cold = time.perf_counter() - t0
    frame = fresh(0)
    t0 = time.perf_counter()
    for _ in range(rounds):
        frame.to_bytes()
    t_cached = time.perf_counter() - t0
    return BenchSample(value=t_cold / t_cached,
                       payload={"rounds": rounds,
                                "frame_bytes": len(frame.to_bytes())})


@register("wire", "rsn_ie_roundtrips_per_s", unit="ops/s",
          higher_is_better=True)
def wire_rsn_ie_roundtrips(scale: float = 1.0) -> BenchSample:
    """RSN IE pack → parse round-trips over the three standard postures."""
    from repro.rsn.ie import RsnIe

    rounds = _scaled(3_000, scale, 500)
    postures = (RsnIe.wpa2(), RsnIe.wpa3(), RsnIe.wpa3_transition())
    blobs = [ie.pack() for ie in postures]
    crc = 0
    for blob in blobs:
        crc = zlib.crc32(blob, crc)
    t0 = time.perf_counter()
    for i in range(rounds):
        posture = postures[i % 3]
        parsed = RsnIe.parse(posture.pack())
        assert parsed == posture
    elapsed = time.perf_counter() - t0
    return BenchSample(value=rounds / elapsed,
                       payload={"rounds": rounds, "wire_crc32": crc})


@register("wire", "beacon_roundtrips_per_s", unit="ops/s",
          higher_is_better=True)
def wire_beacon_roundtrips(scale: float = 1.0) -> BenchSample:
    """``make_beacon`` → ``parse_beacon`` round trips, a fresh frame each.

    An AP's beacon loop: the timestamp and sequence number change, the
    IEs (SSID, rates, DS, RSN) do not, so this times the content-keyed
    IE caches of ``repro.dot11.frames``, not the one-entry decode memo.
    """
    from repro.dot11.frames import make_beacon
    from repro.dot11.mac import MacAddress
    from repro.rsn.ie import RsnIe

    rounds = _scaled(5_000, scale, 1_000)
    bssid = MacAddress(_MAC_AP)
    rsn = (RsnIe.wpa2().to_ie(),)
    t0 = time.perf_counter()
    for i in range(rounds):
        info = make_beacon(bssid, "CORP", 6, privacy=True,
                           timestamp=i * 102_400, seq=i & 0xFFF,
                           extra_ies=rsn).parse_beacon()
        assert info.timestamp == i * 102_400
    elapsed = time.perf_counter() - t0
    last = make_beacon(bssid, "CORP", 6, privacy=True, extra_ies=rsn)
    return BenchSample(value=rounds / elapsed,
                       payload={"rounds": rounds,
                                "wire_crc32": zlib.crc32(last.to_bytes())})


# --------------------------------------------------------------------------
# netstack — zero-copy decode + in-place checksum patch
# --------------------------------------------------------------------------

@register("netstack", "tcpip_roundtrip_per_s", unit="ops/s",
          higher_is_better=True)
def netstack_roundtrip(scale: float = 1.0) -> BenchSample:
    """IPv4+TCP encode then zero-copy decode, round trips per second."""
    from repro.netstack.addressing import IPv4Address
    from repro.netstack.ipv4 import IPv4Packet
    from repro.netstack.tcp import FLAG_ACK, TcpSegment

    rounds = _scaled(2_000, scale, 400)
    ip_a, ip_b = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
    seg = TcpSegment(src_port=80, dst_port=1234, seq=1, ack=2,
                     flags=FLAG_ACK, payload=bytes(512))
    raw = IPv4Packet(src=ip_a, dst=ip_b, proto=6,
                     payload=seg.to_bytes(ip_a, ip_b)).to_bytes()
    t0 = time.perf_counter()
    for _ in range(rounds):
        encoded = IPv4Packet(src=ip_a, dst=ip_b, proto=6,
                             payload=seg.to_bytes(ip_a, ip_b)).to_bytes()
        pkt = IPv4Packet.from_bytes(memoryview(encoded))
        TcpSegment.from_bytes(memoryview(pkt.payload), pkt.src, pkt.dst)
    elapsed = time.perf_counter() - t0
    return BenchSample(
        value=rounds / elapsed,
        payload={"rounds": rounds, "raw_len": len(raw),
                 "raw_crc32": zlib.crc32(raw)})


# --------------------------------------------------------------------------
# crypto — the WEP/FMS inner loop
# --------------------------------------------------------------------------

@register("crypto", "rc4_mb_per_s", unit="MB/s", higher_is_better=True)
def crypto_rc4(scale: float = 1.0) -> BenchSample:
    """RC4 keystream generation throughput."""
    from repro.crypto.rc4 import rc4_keystream

    n = _scaled(240_000, scale, 60_000)
    t0 = time.perf_counter()
    stream = rc4_keystream(b"bench-key", n)
    elapsed = time.perf_counter() - t0
    return BenchSample(value=n / elapsed / 1e6,
                       payload={"bytes": n,
                                "stream_crc32": zlib.crc32(bytes(stream))})


@register("crypto", "wep_frames_per_s", unit="frames/s",
          higher_is_better=True)
def crypto_wep_frames(scale: float = 1.0) -> BenchSample:
    """WEP frames/second: per fresh IV, one 1500-byte frame encrypted
    once and decrypted twice, the reuse of a download-mitm frame."""
    from repro.crypto import wep

    n = _scaled(400, scale, 100)
    key = wep.WepKey.from_passphrase("SECRET", bits=104)
    ivs = wep.IvGenerator()
    payload = bytes(range(256)) * 5 + bytes(220)
    crc = 0
    t0 = time.perf_counter()
    for _ in range(n):
        body = wep.wep_encrypt(key, ivs.next_iv(), payload)
        wep.wep_decrypt(key, body)
        wep.wep_decrypt(key, body)
        crc = zlib.crc32(body, crc)
    elapsed = time.perf_counter() - t0
    return BenchSample(value=n / elapsed,
                       payload={"frames": n, "frame_bytes": len(payload),
                                "body_crc32": crc})


@register("crypto", "sae_handshakes_per_s", unit="handshakes/s",
          higher_is_better=True)
def crypto_sae_handshakes(scale: float = 1.0) -> BenchSample:
    """Full SAE commit/confirm handshakes over the real 1536-bit group."""
    from repro.crypto.dh import DH_GROUP_1536
    from repro.dot11.mac import MacAddress
    from repro.rsn.sae import SaeParty
    from repro.sim.rng import SimRandom

    n = _scaled(8, scale, 2)
    ap_mac = MacAddress("aa:bb:cc:dd:00:01")
    sta_mac = MacAddress("aa:bb:cc:dd:00:02")
    crc = 0
    t0 = time.perf_counter()
    for i in range(n):
        ap = SaeParty("bench-password", ap_mac, sta_mac,
                      SimRandom(2 * i), group=DH_GROUP_1536)
        sta = SaeParty("bench-password", sta_mac, ap_mac,
                       SimRandom(2 * i + 1), group=DH_GROUP_1536)
        ap.process_commit(sta.commit_bytes())
        sta.process_commit(ap.commit_bytes())
        assert ap.process_confirm(sta.confirm_bytes())
        assert sta.process_confirm(ap.confirm_bytes())
        crc = zlib.crc32(ap.pmk, crc)
    elapsed = time.perf_counter() - t0
    return BenchSample(value=n / elapsed,
                       payload={"handshakes": n, "pmk_crc32": crc})


# --------------------------------------------------------------------------
# fleet — the campaign engine (PR 1)
# --------------------------------------------------------------------------

def _fleet_trial(seed: int) -> float:
    """CPU-bound, deterministic per seed: about 10 ms of pure-Python
    arithmetic."""
    x = seed
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return float(x % 1009)


@register("fleet", "serial_trials_per_s", unit="trials/s",
          higher_is_better=True)
def fleet_serial(scale: float = 1.0) -> BenchSample:
    """Single-worker campaign throughput on a CPU-bound trial."""
    from repro.fleet import run_campaign

    trials = _scaled(16, scale, 4)
    result = run_campaign(trials, _fleet_trial, workers=1)
    return BenchSample(
        value=result.throughput,
        payload={"trials": trials, "failures": len(result.failures),
                 "stats_mean": result.stats.mean if result.stats else None})


# --------------------------------------------------------------------------
# wids — sustained evaluation throughput (PR 4)
# --------------------------------------------------------------------------

@register("wids", "eval_alerts_per_s", unit="alerts/s",
          higher_is_better=True)
def wids_eval_throughput(scale: float = 1.0) -> BenchSample:
    """Alerts/second through the full E-WIDS four-world evaluation.

    The workload is the complete naive/evasive/deauth/benign sweep —
    it does not scale down (a partial world changes the detector
    shape), so smoke runs pay the full ~1 s once.
    """
    from repro.wids.experiment import exp_wids_eval

    t0 = time.perf_counter()
    result = exp_wids_eval(seed=1)
    elapsed = time.perf_counter() - t0
    worlds = result["worlds"]
    alerts = {name: world["alert_count"] for name, world in worlds.items()}
    total = sum(alerts.values())
    return BenchSample(
        value=total / elapsed,
        payload={"alerts_by_world": alerts, "total_alerts": total,
                 "benign_false_positives": result["benign_false_positives"],
                 "unhideable": result["evasion"]["unhideable"],
                 "scorecard_rows": len(result["scorecard"]["rows"])})


@register("wids", "correlator_alerts_per_s", unit="alerts/s",
          higher_is_better=True)
def wids_correlator_throughput(scale: float = 1.0) -> BenchSample:
    """Evidence events/second through ``AlertCorrelator.ingest``.

    A pre-built synthetic alert storm (hot subjects hammering the
    open-alert update path, 5% churn growing the evidence map) is fed
    through one correlator; only the ingest loop is timed.
    """
    from repro.wids.correlate import AlertCorrelator
    from repro.wids.storm import alert_storm, storm_digest

    n = _scaled(1_000_000, scale, 100_000)
    events = alert_storm(n, subjects=64, detectors=4, churn=0.05, seed=7)
    correlator = AlertCorrelator()
    ingest = correlator.ingest
    t0 = time.perf_counter()
    for detector, threshold, detection, t, trace_id in events:
        ingest(detector, threshold, detection, t, trace_id)
    elapsed = time.perf_counter() - t0
    digest = storm_digest(correlator)
    return BenchSample(value=n / elapsed,
                       payload={"events": n, **digest})


# --------------------------------------------------------------------------
# trace — flight-recorder overhead (PR 3); lower is better
# --------------------------------------------------------------------------

@register("trace", "overhead_ratio", unit="x", higher_is_better=False,
          tolerance=1.5)
def trace_overhead(scale: float = 1.0) -> BenchSample:
    """Recorded-over-unrecorded wall-clock ratio on the FIG2 world."""
    from repro.core.scenario import build_corp_scenario
    from repro.obs.lineage import recording

    def fig2_world():
        scenario = build_corp_scenario(seed=11)
        scenario.arm_download_mitm()
        victim = scenario.add_victim()
        scenario.sim.run_for(5.0)
        scenario.run_download_experiment(victim)

    t0 = time.perf_counter()
    fig2_world()
    base_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    with recording(capacity=8192) as rec:
        fig2_world()
    recorded_s = time.perf_counter() - t0
    summary = rec.summary()
    return BenchSample(
        value=recorded_s / base_s if base_s > 0 else 1.0,
        payload={"capacity": 8192, "lineages": summary["lineages"],
                 "hops": summary["hops"], "evicted": summary["evicted"]})
