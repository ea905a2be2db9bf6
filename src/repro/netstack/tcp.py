"""TCP: segments and a full connection state machine.

Two of the paper's observations only emerge from a *real* TCP:

* netsed "will not match strings that cross packet boundaries" (§4.2)
  — so segmentation must be genuine, with an MSS that experiments can
  sweep;
* the PPP-over-SSH VPN "has drawbacks since any UDP traffic is subject
  to unnecessary retransmission by TCP" (§5.3) — so loss must trigger
  genuine retransmission, RTO backoff, and congestion-window collapse
  (the TCP-over-TCP meltdown measured by E-VPNOH).

The implementation is classic Reno-style TCP: three-way handshake,
cumulative ACKs, in-order delivery with out-of-order reassembly,
Jacobson RTT estimation with Karn's rule, exponential RTO backoff,
slow start / congestion avoidance / fast retransmit.  Documented
simplifications (none of which the experiments are sensitive to):
no delayed ACK, no Nagle, no window scaling or SACK, a fixed 64 KiB
receive window, and a short TIME_WAIT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.netstack.addressing import IPv4Address
from repro.netstack.ipv4 import PROTO_TCP
from repro.obs.runtime import instruments
from repro.sim.errors import ProtocolError, SocketError
from repro.sim.kernel import Event, Simulator
from repro.wire import (
    HeaderSpec,
    internet_checksum,
    patch_u16,
    pseudo_header,
    transport_checksum,
    u8,
    u16,
    u32,
)

__all__ = ["TcpSegment", "TcpConnection", "TcpState", "FLAG_SYN", "FLAG_ACK",
           "FLAG_FIN", "FLAG_RST", "FLAG_PSH"]

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

_MOD = 1 << 32


def seq_add(a: int, n: int) -> int:
    return (a + n) % _MOD


def seq_lt(a: int, b: int) -> bool:
    """True if a < b in 32-bit sequence space."""
    return 0 < (b - a) % _MOD < _MOD // 2


def seq_le(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


_HEADER = HeaderSpec(
    "TCP segment", ">",
    u16("src_port"),
    u16("dst_port"),
    u32("seq"),
    u32("ack"),
    u8("offset_byte"),
    u8("flags"),
    u16("window"),
    u16("checksum"),
    u16("urgent"),
)
_CHECKSUM_OFFSET = 16
_OFFSET_5_WORDS = 5 << 4


@dataclass(frozen=True)
class TcpSegment:
    """One TCP segment (no options; MSS is negotiated out of band)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int = 65535
    payload: bytes = b""
    urgent: int = 0

    HEADER_LEN = 20

    def to_bytes(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bytes:
        buf = bytearray(self.HEADER_LEN + len(self.payload))
        _HEADER.pack_into(
            buf, 0,
            src_port=self.src_port,
            dst_port=self.dst_port,
            seq=self.seq,
            ack=self.ack,
            offset_byte=_OFFSET_5_WORDS,
            flags=self.flags,
            window=self.window,
            checksum=0,
            urgent=self.urgent,
        )
        buf[self.HEADER_LEN:] = self.payload
        patch_u16(buf, _CHECKSUM_OFFSET,
                  transport_checksum(src_ip.bytes, dst_ip.bytes, PROTO_TCP, buf))
        return bytes(buf)

    @classmethod
    def from_bytes(cls, raw: Union[bytes, bytearray, memoryview],
                   src_ip: IPv4Address, dst_ip: IPv4Address,
                   verify_checksum: bool = True) -> "TcpSegment":
        view = memoryview(raw)
        if len(view) < cls.HEADER_LEN:
            raise ProtocolError("TCP segment too short")
        fields = _HEADER.unpack(view)
        data_offset = (fields["offset_byte"] >> 4) * 4
        if data_offset < 20 or data_offset > len(view):
            raise ProtocolError("bad TCP data offset")
        if data_offset > cls.HEADER_LEN:
            raise ProtocolError("TCP options unsupported")
        if verify_checksum:
            pseudo = pseudo_header(src_ip.bytes, dst_ip.bytes, PROTO_TCP, len(view))
            if internet_checksum(pseudo, view) != 0:
                raise ProtocolError("TCP checksum failed")
        return cls(
            src_port=fields["src_port"],
            dst_port=fields["dst_port"],
            seq=fields["seq"],
            ack=fields["ack"],
            flags=fields["flags"],
            window=fields["window"],
            payload=bytes(view[data_offset:]),
            urgent=fields["urgent"],
        )

    def flag_names(self) -> str:
        names = []
        for bit, name in ((FLAG_SYN, "SYN"), (FLAG_ACK, "ACK"), (FLAG_FIN, "FIN"),
                          (FLAG_RST, "RST"), (FLAG_PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TcpSegment {self.src_port}->{self.dst_port} {self.flag_names()} "
                f"seq={self.seq} ack={self.ack} len={len(self.payload)}>")


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


class TcpConnection:
    """One end of a TCP connection.

    Wiring: the owner (host TCP layer or a tunnel endpoint) provides
    ``send_segment(segment)`` which puts a segment on the wire toward
    the peer, then feeds incoming segments to :meth:`handle_segment`.

    Application interface: :meth:`send`, :meth:`close`, the ``on_data``
    / ``on_established`` / ``on_close`` / ``on_reset`` callbacks, and a
    pull-based :meth:`read` for apps that prefer polling.
    """

    MSL_S = 0.5           # deliberately short TIME_WAIT for simulation
    RTO_INIT_S = 1.0
    RTO_MIN_S = 0.2
    RTO_MAX_S = 60.0
    DUPACK_THRESHOLD = 3

    def __init__(
        self,
        sim: Simulator,
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        send_segment: Callable[[TcpSegment], None],
        *,
        mss: int = 1460,
    ) -> None:
        self.sim = sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self._send_segment = send_segment
        self.mss = mss
        self.state = TcpState.CLOSED

        # --- send side ---
        iss = sim.rng.substream(
            f"tcp.isn.{local_ip}:{local_port}->{remote_ip}:{remote_port}"
        ).randrange(0, _MOD)
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_wnd = 65535
        self._unacked = bytearray()   # bytes in [snd_una+?, snd_nxt) minus ctl flags
        self._pending = bytearray()   # app bytes not yet sent
        self._fin_queued = False
        self._fin_sent = False

        # --- receive side ---
        self.rcv_nxt = 0
        self.rcv_wnd = 65535
        self._reasm: dict[int, bytes] = {}
        self._recv_buffer = bytearray()

        # --- congestion control ---
        self.cwnd = float(2 * mss)
        self.ssthresh = float(64 * 1024)
        self._dupacks = 0

        # --- RTT / RTO ---
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = self.RTO_INIT_S
        self._rtx_timer: Optional[Event] = None
        self._rtt_probe: Optional[tuple[int, float]] = None  # (seq expected to ack, t_sent)
        self._time_wait_timer: Optional[Event] = None

        # --- callbacks ---
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None

        # --- statistics (experiments read these) ---
        self.retransmissions = 0
        self.timeouts = 0
        self._consecutive_timeouts = 0
        self.fast_retransmits = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        # Last frame lineage this connection touched (write-only from the
        # simulation's point of view): lets a timer-driven retransmission,
        # which runs outside any delivery context, still attach its hops
        # to the flow it belongs to.
        self._lineage_hint: Optional[int] = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def four_tuple(self) -> tuple[IPv4Address, int, IPv4Address, int]:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TcpConnection {self.local_ip}:{self.local_port} -> "
                f"{self.remote_ip}:{self.remote_port} {self.state.value}>")

    # ------------------------------------------------------------------
    # opening
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise SocketError(f"connect() in state {self.state.value}")
        self.state = TcpState.SYN_SENT
        self._transmit(FLAG_SYN, self.snd_nxt, b"")
        self.snd_nxt = seq_add(self.snd_nxt, 1)  # SYN occupies one seq
        self._arm_rtx()

    def accept_syn(self, segment: TcpSegment) -> None:
        """Passive open: adopt a received SYN (called by the listener)."""
        if self.state is not TcpState.CLOSED:
            raise SocketError(f"accept_syn() in state {self.state.value}")
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.snd_wnd = segment.window
        self.state = TcpState.SYN_RCVD
        self._transmit(FLAG_SYN | FLAG_ACK, self.snd_nxt, b"")
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self._arm_rtx()

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self.state in (TcpState.CLOSED, TcpState.LISTEN):
            raise SocketError("send() on unopened connection")
        if self._fin_queued:
            raise SocketError("send() after close()")
        if not data:
            return
        self._pending.extend(data)
        self._try_send()

    def close(self) -> None:
        """Graceful close: FIN once queued data drains."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        if self._fin_queued:
            return
        self._fin_queued = True
        self._try_send()

    def abort(self) -> None:
        """Hard close: RST to the peer, immediate teardown."""
        if self.state not in (TcpState.CLOSED,):
            self._transmit(FLAG_RST | FLAG_ACK, self.snd_nxt, b"")
        self._teardown(reset=False)

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Pull buffered received bytes (for apps not using ``on_data``)."""
        if max_bytes is None:
            out = bytes(self._recv_buffer)
            self._recv_buffer.clear()
        else:
            out = bytes(self._recv_buffer[:max_bytes])
            del self._recv_buffer[:max_bytes]
        return out

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    @property
    def closed(self) -> bool:
        return self.state is TcpState.CLOSED

    @property
    def flight_size(self) -> int:
        return (self.snd_nxt - self.snd_una) % _MOD

    # ------------------------------------------------------------------
    # segment transmission
    # ------------------------------------------------------------------
    def _transmit(self, flags: int, seq: int, payload: bytes) -> None:
        seg = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt,
            flags=flags,
            window=self.rcv_wnd,
            payload=payload,
        )
        self.segments_sent += 1
        self.bytes_sent += len(payload)
        obs = instruments()
        m = obs.metrics
        if m is not None:
            m.incr("tcp.segments_sent")
            m.incr("tcp.bytes_sent", len(payload))
        rec = obs.recorder
        if rec is not None:
            tid = rec.current()
            if tid is None:
                tid = self._lineage_hint
            else:
                self._lineage_hint = tid
            if tid is not None:
                rec.hop("tcp", "tx", trace_id=tid,
                        host=f"{self.local_ip}:{self.local_port}",
                        t=self.sim.now, flags=seg.flag_names(), seq=seq,
                        bytes=len(payload))
        self._send_segment(seg)

    def _send_ack(self) -> None:
        self._transmit(FLAG_ACK, self.snd_nxt, b"")

    def _usable_window(self) -> int:
        wnd = min(int(self.cwnd), self.snd_wnd)
        return max(0, wnd - self.flight_size)

    def _try_send(self) -> None:
        """Push pending bytes within the congestion/advertised window."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1, TcpState.CLOSING,
                              TcpState.LAST_ACK, TcpState.FIN_WAIT_1):
            # Data queued before establishment is sent when we establish.
            if self.state not in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
                return
            return
        sent_any = False
        while self._pending and self._usable_window() > 0:
            chunk = bytes(self._pending[: min(self.mss, self._usable_window())])
            del self._pending[: len(chunk)]
            flags = FLAG_ACK | (FLAG_PSH if not self._pending else 0)
            self._transmit(flags, self.snd_nxt, chunk)
            if self._rtt_probe is None:
                self._rtt_probe = (seq_add(self.snd_nxt, len(chunk)), self.sim.now)
            self.snd_nxt = seq_add(self.snd_nxt, len(chunk))
            self._unacked.extend(chunk)
            sent_any = True
        if self._fin_queued and not self._fin_sent and not self._pending:
            self._transmit(FLAG_FIN | FLAG_ACK, self.snd_nxt, b"")
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self._fin_sent = True
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.FIN_WAIT_1
            elif self.state is TcpState.CLOSE_WAIT:
                self.state = TcpState.LAST_ACK
            sent_any = True
        if sent_any:
            self._arm_rtx()

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------
    def _arm_rtx(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
        self._rtx_timer = self.sim.schedule(self.rto, self._on_rtx_timeout)

    def _cancel_rtx(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _on_rtx_timeout(self) -> None:
        if self.state is TcpState.CLOSED or self.flight_size == 0:
            return
        self.timeouts += 1
        self._consecutive_timeouts += 1
        m = instruments().metrics
        if m is not None:
            m.incr("tcp.timeouts")
        if self._consecutive_timeouts > 15:
            # Give up, as real stacks do after ~tcp_retries2 attempts.
            self._teardown(reset=True)
            return
        # Congestion response: multiplicative decrease, restart slow start.
        self.ssthresh = max(self.flight_size / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self._dupacks = 0
        self.rto = min(self.rto * 2.0, self.RTO_MAX_S)
        self._rtt_probe = None  # Karn: no RTT sample across retransmission
        self._retransmit_front()
        self._arm_rtx()

    def _retransmit_front(self) -> None:
        """Resend whatever starts at snd_una (SYN, FIN, or data)."""
        self.retransmissions += 1
        obs = instruments()
        m = obs.metrics
        if m is not None:
            m.incr("tcp.retransmits")
        rec = obs.recorder
        if rec is not None and self._lineage_hint is not None:
            rec.hop("tcp", "retransmit", trace_id=self._lineage_hint,
                    host=f"{self.local_ip}:{self.local_port}",
                    t=self.sim.now, seq=self.snd_una, rto=round(self.rto, 3))
        if self.state is TcpState.SYN_SENT:
            self._transmit(FLAG_SYN, self.iss, b"")
            return
        if self.state is TcpState.SYN_RCVD:
            self._transmit(FLAG_SYN | FLAG_ACK, self.iss, b"")
            return
        if self._unacked:
            chunk = bytes(self._unacked[: self.mss])
            self._transmit(FLAG_ACK, self.snd_una, chunk)
        elif self._fin_sent:
            self._transmit(FLAG_FIN | FLAG_ACK, seq_add(self.snd_nxt, -1 % _MOD), b"")

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def handle_segment(self, segment: TcpSegment) -> None:
        """Process one incoming segment addressed to this connection."""
        self.segments_received += 1
        obs = instruments()
        m = obs.metrics
        if m is not None:
            m.incr("tcp.segments_received")
        rec = obs.recorder
        if rec is not None:
            tid = rec.current()
            if tid is not None:
                self._lineage_hint = tid
                rec.hop("tcp", "rx", trace_id=tid,
                        host=f"{self.local_ip}:{self.local_port}",
                        t=self.sim.now, flags=segment.flag_names(),
                        seq=segment.seq, bytes=len(segment.payload))
        if segment.flags & FLAG_RST:
            self._handle_rst(segment)
            return
        if self.state is TcpState.SYN_SENT:
            self._handle_in_syn_sent(segment)
            return
        if segment.flags & FLAG_SYN:
            # Duplicate SYN (e.g. retransmitted); re-ACK it.
            self._send_ack()
            return
        if segment.flags & FLAG_ACK:
            self._handle_ack(segment)
        if self.state is TcpState.CLOSED:
            return
        if segment.payload:
            self._handle_data(segment)
        if segment.flags & FLAG_FIN:
            self._handle_fin(segment)

    def _handle_rst(self, segment: TcpSegment) -> None:
        self._teardown(reset=True)

    def _handle_in_syn_sent(self, segment: TcpSegment) -> None:
        if segment.flags & FLAG_SYN and segment.flags & FLAG_ACK:
            if segment.ack != self.snd_nxt:
                self.abort()
                return
            self.rcv_nxt = seq_add(segment.seq, 1)
            self.snd_una = segment.ack
            self.snd_wnd = segment.window
            self.state = TcpState.ESTABLISHED
            self._cancel_rtx()
            self.rto = self.RTO_INIT_S
            self._send_ack()
            if self.on_established:
                self.on_established()
            self._try_send()

    def _handle_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack
        self.snd_wnd = segment.window
        if seq_lt(self.snd_una, ack) and seq_le(ack, self.snd_nxt):
            acked = (ack - self.snd_una) % _MOD
            # Account for SYN/FIN sequence slots not present in _unacked.
            data_acked = min(acked, len(self._unacked))
            del self._unacked[:data_acked]
            self.snd_una = ack
            self._dupacks = 0
            self._consecutive_timeouts = 0
            # RTT sample (Karn-safe: probe cleared on retransmission).
            if self._rtt_probe is not None and seq_le(self._rtt_probe[0], ack):
                self._update_rtt(self.sim.now - self._rtt_probe[1])
                self._rtt_probe = None
            # Congestion window growth.
            if self.cwnd < self.ssthresh:
                self.cwnd += min(acked, self.mss)          # slow start
            else:
                self.cwnd += self.mss * self.mss / self.cwnd  # AIMD
            # State transitions driven by our FIN being acked.
            if self._fin_sent and ack == self.snd_nxt:
                if self.state is TcpState.FIN_WAIT_1:
                    self.state = TcpState.FIN_WAIT_2
                elif self.state is TcpState.CLOSING:
                    self._enter_time_wait()
                elif self.state is TcpState.LAST_ACK:
                    self._teardown(reset=False)
                    return
            if self.state is TcpState.SYN_RCVD:
                self.state = TcpState.ESTABLISHED
                self.rto = self.RTO_INIT_S
                if self.on_established:
                    self.on_established()
            if self.flight_size == 0:
                self._cancel_rtx()
                self.rto = max(self.RTO_MIN_S, min(self.rto, self._computed_rto()))
            else:
                self._arm_rtx()
            self._try_send()
        elif ack == self.snd_una and self.flight_size > 0 and not segment.payload:
            self._dupacks += 1
            if self._dupacks == self.DUPACK_THRESHOLD:
                # Fast retransmit / simplified fast recovery.
                self.fast_retransmits += 1
                m = instruments().metrics
                if m is not None:
                    m.incr("tcp.fast_retransmits")
                self.ssthresh = max(self.flight_size / 2.0, 2.0 * self.mss)
                self.cwnd = self.ssthresh
                self._retransmit_front()
                self._arm_rtx()

    def _handle_data(self, segment: TcpSegment) -> None:
        seq = segment.seq
        payload = segment.payload
        if seq_lt(seq, self.rcv_nxt):
            # Wholly or partially old data; trim the stale prefix.
            stale = (self.rcv_nxt - seq) % _MOD
            if stale >= len(payload):
                self._send_ack()  # pure duplicate
                return
            payload = payload[stale:]
            seq = self.rcv_nxt
        if seq == self.rcv_nxt:
            self._deliver(payload)
            # Drain any contiguous out-of-order segments.
            while self.rcv_nxt in self._reasm:
                chunk = self._reasm.pop(self.rcv_nxt)
                self._deliver(chunk)
        else:
            self._reasm[seq] = payload
        self._send_ack()

    def _deliver(self, data: bytes) -> None:
        self.bytes_received += len(data)
        self.rcv_nxt = seq_add(self.rcv_nxt, len(data))
        if self.on_data is not None:
            self.on_data(data)
        else:
            self._recv_buffer.extend(data)

    def _handle_fin(self, segment: TcpSegment) -> None:
        fin_seq = seq_add(segment.seq, len(segment.payload))
        if seq_lt(fin_seq, self.rcv_nxt):
            self._send_ack()  # retransmitted FIN; re-ACK so the peer can leave LAST_ACK
            return
        if fin_seq != self.rcv_nxt:
            return  # FIN beyond a hole; wait for retransmission
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._send_ack()
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_close:
                self.on_close()
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
            if self.on_close:
                self.on_close()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._cancel_rtx()
        self._time_wait_timer = self.sim.schedule(2 * self.MSL_S, self._teardown, False)

    def _teardown(self, reset: bool) -> None:
        prior = self.state
        self.state = TcpState.CLOSED
        self._cancel_rtx()
        if self._time_wait_timer is not None:
            self._time_wait_timer.cancel()
        if reset:
            if self.on_reset:
                self.on_reset()
            elif self.on_close and prior not in (TcpState.CLOSED,):
                self.on_close()

    # ------------------------------------------------------------------
    # RTT estimation (Jacobson/Karels)
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        m = instruments().metrics
        if m is not None:
            m.add_time("tcp.rtt", sample)
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = self._computed_rto()

    def _computed_rto(self) -> float:
        if self.srtt is None:
            return self.RTO_INIT_S
        return min(max(self.srtt + 4.0 * self.rttvar, self.RTO_MIN_S), self.RTO_MAX_S)
