"""Traffic sources.

* :class:`CbrUdpStream` — constant-bit-rate UDP with per-packet
  latency bookkeeping: the probe traffic for the VPN-overhead sweep
  (§5.3's "any UDP traffic is subject to unnecessary retransmission").
* :class:`WepTrafficPump` — background WEP data frames from a station,
  to feed Airsnort's weak-IV collection at a controlled rate.
* :class:`WeakIvSweep` — an IV source that emits only FMS-weak IVs,
  the time compression that makes that collection take seconds.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.crypto.fms import weak_iv_for
from repro.hosts.host import Host
from repro.netstack.addressing import IPv4Address
from repro.sim.errors import SocketError

__all__ = ["CbrUdpStream", "WeakIvSweep", "WepTrafficPump"]


class CbrUdpStream:
    """Constant-rate UDP sender + receiver-side latency collector.

    Each datagram carries (sequence, send timestamp).  The receiver end
    records delivery latency and duplicates, giving E-VPNOH its
    delivery-ratio and latency series.
    """

    PAYLOAD_SIZE = 160  # bytes per datagram, a voice-codec-sized packet

    def __init__(self, sender: Host, receiver: Host,
                 dst_ip: "IPv4Address | str", *, port: int = 9000,
                 rate_pps: float = 50.0) -> None:
        self.sender = sender
        self.receiver = receiver
        self.dst_ip = IPv4Address(dst_ip)
        self.port = port
        self.rate_pps = rate_pps
        self.tx_sock = sender.udp_socket()
        self.rx_sock = receiver.udp_socket(port)
        self.rx_sock.on_datagram = self._on_datagram
        self.sent = 0
        self.received = 0
        self.duplicates = 0
        self.latencies_s: list[float] = []
        self._seen: set[int] = set()
        self._stop: Optional[Callable[[], None]] = None

    def start(self, duration_s: Optional[float] = None) -> None:
        sim = self.sender.sim
        until = sim.now + duration_s if duration_s is not None else None
        self._stop = sim.every(1.0 / self.rate_pps, self._send_one, until=until)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _send_one(self) -> None:
        sim = self.sender.sim
        header = struct.pack(">Id", self.sent, sim.now)
        payload = header + b"\x00" * (self.PAYLOAD_SIZE - len(header))
        try:
            self.tx_sock.sendto(payload, self.dst_ip, self.port)
        except SocketError:
            return
        self.sent += 1

    def _on_datagram(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        if len(payload) < 12:
            return
        seq, t_sent = struct.unpack(">Id", payload[:12])
        if seq in self._seen:
            self.duplicates += 1
            return
        self._seen.add(seq)
        self.received += 1
        self.latencies_s.append(self.receiver.sim.now - t_sent)

    @property
    def delivery_ratio(self) -> float:
        return self.received / self.sent if self.sent else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return float("nan")
        ordered = sorted(self.latencies_s)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class WepTrafficPump:
    """Background UDP chatter from a station, to generate WEP frames.

    Airsnort needs traffic: each data frame burns one IV.  The pump
    sends small datagrams at a fixed rate to any sink, sweeping the
    sequential IV space through the FMS-weak classes.
    """

    def __init__(self, station: Host, sink_ip: "IPv4Address | str",
                 *, rate_pps: float = 200.0, port: int = 9999) -> None:
        self.station = station
        self.sink_ip = IPv4Address(sink_ip)
        self.port = port
        self.rate_pps = rate_pps
        self.sock = station.udp_socket()
        self.sent = 0
        self._stop: Optional[Callable[[], None]] = None

    def start(self) -> None:
        self._stop = self.station.sim.every(1.0 / self.rate_pps, self._send)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _send(self) -> None:
        try:
            self.sock.sendto(b"background traffic", self.sink_ip, self.port)
            self.sent += 1
        except SocketError:
            pass


class WeakIvSweep:
    """An IV source cycling through the FMS-weak classes of a 40-bit key.

    Time compression for over-the-air Airsnort: a sequential card sweeps
    the whole 24-bit IV space and hits a weak IV every ~65k frames, so
    the ~500k frames that supply enough of them take hours on the air
    and minutes of simulation.  Airsnort discards the non-weak frames
    anyway, so a station given this source (``wlan.iv_gen``) sends only
    the frames the attack would have kept.  The sequential sweep itself
    is :class:`repro.crypto.wep.IvGenerator`; the packets-needed
    economics are E-FMS's, measured at the crypto layer.
    """

    KEY_LENGTH = 5

    def __init__(self) -> None:
        self._n = 0

    def next_iv(self) -> bytes:
        a = self._n % self.KEY_LENGTH
        x = (self._n // self.KEY_LENGTH) % 256
        self._n += 1
        return weak_iv_for(a, x)
