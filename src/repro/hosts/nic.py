"""Network interfaces: wired, managed wireless (STA), soft-AP, and TUN.

The managed :class:`WirelessInterface` carries the behaviour the whole
paper turns on: it scans by listening to beacons, picks the
best-looking BSS *by signal strength and SSID alone* — there is
nothing else to go on — authenticates, associates, and will do all of
that again to whoever answers after a (possibly forged) deauth.  The
rogue AP never has to break anything; the client's own standard
behaviour walks into it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.dot11.frames import (
    AuthAlgorithm,
    BeaconInfo,
    Dot11Frame,
    FrameSubtype,
    ReasonCode,
    StatusCode,
    make_assoc_request,
    make_auth,
    make_data,
    make_probe_request,
)
from repro.dot11.mac import MacAddress
from repro.dot11.seqctl import SequenceCounter
from repro.crypto.tkip import TkipError
from repro.crypto.wep import WepKey, IvGenerator, wep_decrypt, wep_encrypt, WepError
from repro.netstack.addressing import IPv4Address, Network
from repro.netstack.ethernet import EthernetFrame, WiredPort, llc_decap, llc_encap
from repro.netstack.ipv4 import IPv4Packet
from repro.obs.runtime import instruments
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.rsn.ie import AkmSuite, CsaIe, RsnIe, RsnSelection, negotiate
from repro.rsn.pmf import derive_igtk, verify_mgmt_mic
from repro.rsn.sae import SaeError, SaeParty, sae_container_ie, sae_payload
from repro.sim.errors import ConfigurationError, ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hosts.host import Host

__all__ = [
    "Interface",
    "StaState",
    "TunInterface",
    "WiredInterface",
    "WirelessInterface",
    "strongest_rssi_policy",
]


class Interface:
    """Base class: a named L2/L3 attachment point on a host."""

    def __init__(self, name: str, mac: MacAddress, mtu: int = 1500) -> None:
        self.name = name
        self.mac = mac
        self.mtu = mtu
        self.host: Optional["Host"] = None
        self.ip: Optional[IPv4Address] = None
        self.network: Optional[Network] = None

    def bind(self, host: "Host") -> None:
        self.host = host

    @property
    def sim(self):
        if self.host is None:
            raise ConfigurationError(f"interface {self.name!r} not attached to a host")
        return self.host.sim

    def configure_ip(self, ip: "IPv4Address | str", netmask: "IPv4Address | str" = "255.255.255.0") -> None:
        """``ifconfig`` equivalent: set the address and the connected route."""
        self.ip = IPv4Address(ip)
        self.network = Network.from_ip_netmask(self.ip, netmask)
        if self.host is not None:
            self.host.routing.add_connected(self.network, self.name)

    # Subclasses implement the actual L2 send.
    def send_frame_to(self, dst_mac: MacAddress, ethertype: int, payload: bytes) -> None:
        raise NotImplementedError

    def _hop_host(self) -> str:
        """Host-qualified label for flight-recorder hops (``victim:wlan0``)."""
        if self.host is not None:
            return f"{self.host.name}:{self.name}"
        return self.name

    #: Whether IP next-hops on this interface require ARP resolution.
    needs_arp = True

    def _deliver_up(self, src_mac: MacAddress, dst_mac: MacAddress,
                    ethertype: int, payload: bytes) -> None:
        if self.host is not None:
            self.host.receive_link(self, src_mac, dst_mac, ethertype, payload)

    def __repr__(self) -> str:
        ip = f" {self.ip}" if self.ip else ""
        return f"<{type(self).__name__} {self.name} {self.mac}{ip}>"


class WiredInterface(Interface):
    """An Ethernet NIC attached to a hub or switch segment."""

    def __init__(self, name: str, mac: MacAddress, *, promiscuous: bool = False) -> None:
        super().__init__(name, mac)
        self.port = WiredPort(name, mac, promiscuous=promiscuous)
        self.port.on_receive = self._on_ethernet

    def attach_segment(self, segment) -> "WiredInterface":
        segment.attach(self.port)
        return self

    def send_frame_to(self, dst_mac: MacAddress, ethertype: int, payload: bytes) -> None:
        self.port.transmit(EthernetFrame(dst=dst_mac, src=self.mac,
                                         ethertype=ethertype, payload=payload))

    def _on_ethernet(self, frame: EthernetFrame) -> None:
        self._deliver_up(frame.src, frame.dst, frame.ethertype, frame.payload)


class TunInterface(Interface):
    """A point-to-point virtual interface (the VPN's ``ppp0``).

    Packets routed out of it are handed to ``on_transmit`` (the tunnel
    encapsulator); the tunnel injects received inner packets back with
    :meth:`inject`.  No ARP, no link framing — exactly like PPP.
    """

    needs_arp = False

    def __init__(self, name: str) -> None:
        # A TUN device has no real MAC; use a locally-administered dummy.
        # MTU 1400 leaves room for the tunnel's outer headers.
        super().__init__(name, MacAddress(b"\x02\x00\x00\x00\x00\x01"), 1400)
        self.on_transmit: Optional[Callable[[IPv4Packet], None]] = None
        self.peer_ip: Optional[IPv4Address] = None
        self.tx_packets = 0
        self.rx_packets = 0

    def configure_p2p(self, local_ip: "IPv4Address | str", peer_ip: "IPv4Address | str") -> None:
        """Point-to-point addressing (``ifconfig ppp0 A pointopoint B``)."""
        self.ip = IPv4Address(local_ip)
        self.peer_ip = IPv4Address(peer_ip)
        self.network = Network(str(self.ip), 32)
        if self.host is not None:
            self.host.routing.add_host(self.peer_ip, self.name)

    def transmit_ip(self, packet: IPv4Packet) -> None:
        if self.on_transmit is None:
            return
        self.tx_packets += 1
        self.on_transmit(packet)

    def inject(self, packet: IPv4Packet) -> None:
        """Deliver a decapsulated inner packet into the host stack."""
        self.rx_packets += 1
        if self.host is not None:
            self.host.receive_ip(packet, self)

    def send_frame_to(self, dst_mac: MacAddress, ethertype: int, payload: bytes) -> None:
        raise ConfigurationError("TUN interfaces carry IP packets, not frames")


# ----------------------------------------------------------------------
# managed (station) wireless interface
# ----------------------------------------------------------------------

class StaState(enum.Enum):
    IDLE = "IDLE"
    SCANNING = "SCANNING"
    AUTHENTICATING = "AUTHENTICATING"
    ASSOCIATING = "ASSOCIATING"
    ASSOCIATED = "ASSOCIATED"


@dataclass
class BssCandidate:
    """One BSS discovered during a scan."""

    info: BeaconInfo
    channel: int        # channel the frame was actually heard on
    rssi_dbm: float

    @property
    def key(self) -> tuple[MacAddress, int]:
        return (self.info.bssid, self.channel)


def strongest_rssi_policy(candidates: list[BssCandidate],
                          penalties: dict[tuple[MacAddress, int], float]) -> Optional[BssCandidate]:
    """Default AP selection: strongest signal, minus a failure penalty.

    The penalty models real supplicants' avoidance of APs that keep
    deauthing them — the knob the E-DEAUTH experiment turns.  With no
    failures recorded this is pure strongest-RSSI, the stock driver
    behaviour that hands roaming clients to a nearby rogue.
    """
    if not candidates:
        return None
    return max(candidates, key=lambda c: c.rssi_dbm - penalties.get(c.key, 0.0))


def first_heard_policy(candidates: list[BssCandidate],
                       penalties: dict[tuple[MacAddress, int], float]) -> Optional[BssCandidate]:
    """Ablation policy: take whichever matching BSS was heard first."""
    for c in candidates:
        if penalties.get(c.key, 0.0) <= 0.0:
            return c
    return candidates[0] if candidates else None


class WirelessInterface(Interface):
    """A managed-mode 802.11b NIC (station side).

    Lifecycle: :meth:`join` starts a scan over the channel list; the
    selection policy picks a BSS; open-system or shared-key
    authentication and association follow; data flows until a deauth,
    a disassoc, or beacon loss, whereupon the interface (optionally)
    rejoins — selecting afresh, failure penalties applied.
    """

    DWELL_S = 0.12            # per-channel scan dwell (catches a 100 TU beacon)
    MGMT_TIMEOUT_S = 0.2
    MGMT_RETRIES = 3
    REJOIN_DELAY_S = 0.2
    PENALTY_DB = 12.0         # selection penalty per recent deauth/failure
    PENALTY_DECAY_S = 30.0
    BEACON_LOSS_LIMIT = 8     # missed beacon intervals before rescan

    def __init__(
        self,
        name: str,
        mac: MacAddress,
        medium: Medium,
        position: Position,
        *,
        tx_power_dbm: float = 15.0,
    ) -> None:
        super().__init__(name, mac)
        self.port = RadioPort(name=name, position=position, channel=1,
                              tx_power_dbm=tx_power_dbm)
        self.port.on_receive = self._on_radio
        medium.attach(self.port)
        self.medium = medium
        self.state = StaState.IDLE
        self.seqctl = SequenceCounter()
        # join parameters
        self.target_ssid: Optional[str] = None
        self.wep: Optional[WepKey] = None
        self.wpa_psk: Optional[bytes] = None
        self._wpa = None  # StaWpaSession while associated to a WPA BSS
        self.iv_gen: Optional[IvGenerator] = None
        # RSN/SAE/PMF supplicant state (all inert unless join(rsn=...))
        self.rsn: Optional[RsnIe] = None
        self.rsn_strict = True
        self.sae_password: Optional[str] = None
        self._selected_rsn: Optional[RsnSelection] = None
        self._sae: Optional[SaeParty] = None
        self._sae_attempts = 0
        self._pmk: Optional[bytes] = None
        self._link_psk: Optional[bytes] = None  # 4-way input this assoc
        self._pmf_rx_ipn = 0
        self._csa_pending = None
        self.auth_algorithm = AuthAlgorithm.OPEN_SYSTEM
        self.scan_channels: tuple[int, ...] = tuple(range(1, 12))
        self.selection_policy: Callable = strongest_rssi_policy
        self.auto_reconnect = True
        # association state
        self.bssid: Optional[MacAddress] = None
        self.channel: Optional[int] = None
        self.current_rssi: Optional[float] = None
        self._candidates: dict[tuple[MacAddress, int], BssCandidate] = {}
        self._penalties: dict[tuple[MacAddress, int], float] = {}
        self._penalty_times: dict[tuple[MacAddress, int], float] = {}
        self._scan_idx = 0
        self._retries = 0
        self._mgmt_timer = None
        self._beacon_watch = None
        self._last_beacon_time = 0.0
        self._pending_challenge: Optional[bytes] = None
        # callbacks for experiments
        self.on_associated: Optional[Callable[[MacAddress, int], None]] = None
        self.on_deauthenticated: Optional[Callable[[int], None]] = None
        # Raw-frame observation hook: called with (frame, rssi, channel)
        # for every frame the radio hears, before any station-state
        # processing.  The seqctl-mirroring rogue uses its upstream
        # card's tap to shadow the legitimate AP's counter.
        self.frame_tap: Optional[Callable[[Dot11Frame, float, int], None]] = None
        # counters
        self.associations = 0
        self.deauths_received = 0
        self.wep_decrypt_failures = 0
        self.pmf_discards = 0
        self.csa_switches = 0

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------
    def join(
        self,
        ssid: str,
        *,
        wep_key: Optional[WepKey] = None,
        wpa_psk: Optional[bytes] = None,
        auth_algorithm: int = AuthAlgorithm.OPEN_SYSTEM,
        channels: Optional[tuple[int, ...]] = None,
        policy: Optional[Callable] = None,
        rsn: Optional[RsnIe] = None,
        sae_password: Optional[str] = None,
        rsn_strict: bool = True,
    ) -> None:
        """Configure the target network and start scanning for it.

        ``rsn`` makes this a modern supplicant: it negotiates the
        strongest AKM both sides support (SAE over PSK) and honors PMF.
        ``rsn_strict=False`` models a sloppy transition-mode client
        that will also take an *open* network under the target SSID —
        the posture the downgrade rogue preys on.
        """
        if wep_key is not None and wpa_psk is not None:
            raise ConfigurationError("configure WEP or WPA-PSK, not both")
        if rsn is not None:
            if wep_key is not None:
                raise ConfigurationError("RSN and WEP cannot be combined")
            if rsn.supports(AkmSuite.SAE) and sae_password is None:
                raise ConfigurationError("SAE AKM configured without a password")
            if rsn.supports(AkmSuite.PSK) and wpa_psk is None:
                raise ConfigurationError("PSK AKM configured without a PSK")
        self.rsn = rsn
        self.rsn_strict = rsn_strict
        self.sae_password = sae_password
        self.target_ssid = ssid
        self.wep = wep_key
        self.wpa_psk = wpa_psk
        if wep_key is not None:
            self.iv_gen = IvGenerator(
                self.sim.rng.substream(f"iv.{self.name}").randrange(0, 1 << 24))
        self.auth_algorithm = AuthAlgorithm(auth_algorithm)
        if channels is not None:
            self.scan_channels = tuple(channels)
        if policy is not None:
            self.selection_policy = policy
        self._start_scan()

    def leave(self) -> None:
        """Stop everything; go idle and stay there."""
        self.auto_reconnect = False
        self._disassociate(rejoin=False)
        self.state = StaState.IDLE

    def _start_scan(self) -> None:
        self._cancel_mgmt_timer()
        self._cancel_csa()
        self.state = StaState.SCANNING
        self.bssid = None
        self.channel = None
        self._selected_rsn = None
        self._sae = None
        self._pmk = None
        self._link_psk = None
        self._pmf_rx_ipn = 0
        self._candidates.clear()
        self._scan_idx = 0
        self._scan_step()

    def _cancel_csa(self) -> None:
        if self._csa_pending is not None:
            self._csa_pending.cancel()
            self._csa_pending = None

    def _scan_step(self) -> None:
        if self.state is not StaState.SCANNING:
            return
        if self._scan_idx >= len(self.scan_channels):
            self._finish_scan()
            return
        ch = self.scan_channels[self._scan_idx]
        self._scan_idx += 1
        self.port.channel = ch
        # Active scan: probe, then dwell listening for beacons/responses.
        probe = make_probe_request(self.mac, self.target_ssid or "", seq=self.seqctl.next())
        self.port.transmit(probe)
        self.sim.schedule(self.DWELL_S, self._scan_step)

    def _acceptable(self, c: BssCandidate) -> bool:
        """Whether a scanned BSS matches our security configuration."""
        if self.rsn is None:
            # Legacy path, untouched: privacy bit must match the keys.
            expects_privacy = self.wep is not None or self.wpa_psk is not None
            return c.info.privacy == expects_privacy
        if c.info.rsn is not None:
            try:
                ap_rsn = RsnIe.parse(c.info.rsn)
            except ProtocolError:
                return False
            return negotiate(ap_rsn, self.rsn) is not None
        if not c.info.privacy:
            # No RSN, no privacy bit: an open BSS under our SSID.  Only
            # a non-strict transition client takes the bait — this is
            # the association the downgrade rogue is fishing for.
            return not self.rsn_strict
        return False  # privacy without an RSN IE = WEP-era gear

    def _finish_scan(self) -> None:
        self._decay_penalties()
        matches = [
            c for c in self._candidates.values()
            if c.info.ssid == self.target_ssid and self._acceptable(c)
        ]
        choice = self.selection_policy(matches, dict(self._penalties))
        if choice is None:
            self.state = StaState.IDLE
            if self.auto_reconnect and self.target_ssid is not None:
                self.sim.schedule(self.REJOIN_DELAY_S, self._start_scan)
            return
        self.sim.trace.emit("dot11.select", self.name,
                            bssid=str(choice.info.bssid), channel=choice.channel,
                            rssi=round(choice.rssi_dbm, 1), ssid=choice.info.ssid)
        self.port.channel = choice.channel
        self.bssid = choice.info.bssid
        self.channel = choice.channel
        self._retries = 0
        self._selected_rsn = None
        if self.rsn is not None and choice.info.rsn is not None:
            try:
                self._selected_rsn = negotiate(RsnIe.parse(choice.info.rsn),
                                               self.rsn)
            except ProtocolError:
                self._selected_rsn = None
        if self._selected_rsn is not None:
            self.sim.trace.emit(
                "rsn.sta_negotiated", self.name,
                bssid=str(choice.info.bssid),
                akm=self._selected_rsn.akm_name, pmf=self._selected_rsn.pmf)
        self._send_auth_start()

    # ------------------------------------------------------------------
    # authentication / association
    # ------------------------------------------------------------------
    def _send_auth_start(self) -> None:
        self.state = StaState.AUTHENTICATING
        if (self._selected_rsn is not None
                and self._selected_rsn.akm == int(AkmSuite.SAE)):
            if self._sae is None:
                self._sae_attempts += 1
                self._sae = SaeParty(
                    self.sae_password, self.mac, self.bssid,
                    self.sim.rng.substream(
                        f"sae.{self.name}.{self._sae_attempts}"))
            frame = make_auth(
                self.mac, self.bssid, self.bssid,
                algorithm=AuthAlgorithm.SAE, txn=1,
                extra_ies=[sae_container_ie(self._sae.commit_bytes())],
                seq=self.seqctl.next())
        else:
            frame = make_auth(self.mac, self.bssid, self.bssid,
                              algorithm=self.auth_algorithm, txn=1,
                              seq=self.seqctl.next())
        self.port.transmit(frame)
        self._arm_mgmt_timer(self._send_auth_start)

    def _send_assoc_request(self) -> None:
        self.state = StaState.ASSOCIATING
        if self._selected_rsn is not None and self.rsn is not None:
            # Advertise *our* capabilities; the AP re-runs the same
            # negotiation and must land on the same selection.
            frame = make_assoc_request(self.mac, self.bssid,
                                       self.target_ssid or "",
                                       privacy=True,
                                       extra_ies=[self.rsn.to_ie()],
                                       seq=self.seqctl.next())
        else:
            frame = make_assoc_request(self.mac, self.bssid,
                                       self.target_ssid or "",
                                       privacy=self.wep is not None,
                                       seq=self.seqctl.next())
        self.port.transmit(frame)
        self._arm_mgmt_timer(self._send_assoc_request)

    def _arm_mgmt_timer(self, retry_fn: Callable[[], None]) -> None:
        self._cancel_mgmt_timer()

        def on_timeout() -> None:
            self._retries += 1
            if self._retries > self.MGMT_RETRIES:
                self._record_failure()
                self._start_scan()
            else:
                retry_fn()

        self._mgmt_timer = self.sim.schedule(self.MGMT_TIMEOUT_S, on_timeout)

    def _cancel_mgmt_timer(self) -> None:
        if self._mgmt_timer is not None:
            self._mgmt_timer.cancel()
            self._mgmt_timer = None

    def _record_failure(self) -> None:
        if self.bssid is None or self.channel is None:
            return
        key = (self.bssid, self.channel)
        self._penalties[key] = self._penalties.get(key, 0.0) + self.PENALTY_DB
        self._penalty_times[key] = self.sim.now

    def _decay_penalties(self) -> None:
        now = self.sim.now
        for key in list(self._penalties):
            age = now - self._penalty_times.get(key, now)
            if age > self.PENALTY_DECAY_S:
                del self._penalties[key]
                self._penalty_times.pop(key, None)

    def _become_associated(self) -> None:
        self._cancel_mgmt_timer()
        self.state = StaState.ASSOCIATED
        self.associations += 1
        link_psk = self.wpa_psk
        if self.rsn is not None:
            sel = self._selected_rsn
            if sel is None:
                link_psk = None  # open fallback (rsn_strict=False bit)
            elif sel.akm == int(AkmSuite.SAE):
                link_psk = self._pmk  # fresh per-association SAE PMK
        self._link_psk = link_psk
        if link_psk is not None:
            from repro.hosts.wpa_link import StaWpaSession
            self._wpa = StaWpaSession(
                link_psk, self.mac, self.bssid,
                send_eapol=self._send_eapol,
                rng=self.sim.rng.substream(f"wpa.{self.name}.{self.associations}"))
        self._last_beacon_time = self.sim.now
        self._watch_beacons()
        self.sim.trace.emit("dot11.assoc", self.name,
                            bssid=str(self.bssid), channel=self.channel)
        m = instruments().metrics
        if m is not None:
            m.incr("dot11.sta_associations")
        if self.on_associated is not None:
            self.on_associated(self.bssid, self.channel)

    def _watch_beacons(self) -> None:
        if self._beacon_watch is not None:
            self._beacon_watch.cancel()
        if self.state is not StaState.ASSOCIATED:
            return

        def check() -> None:
            if self.state is not StaState.ASSOCIATED:
                return
            if self.sim.now - self._last_beacon_time > self.BEACON_LOSS_LIMIT * 0.1:
                self.sim.trace.emit("dot11.beacon_loss", self.name, bssid=str(self.bssid))
                self._disassociate(rejoin=True)
            else:
                self._watch_beacons()

        self._beacon_watch = self.sim.schedule(0.5, check)

    def _disassociate(self, rejoin: bool) -> None:
        self._cancel_mgmt_timer()
        self._cancel_csa()
        if self._beacon_watch is not None:
            self._beacon_watch.cancel()
            self._beacon_watch = None
        self.state = StaState.IDLE
        self.bssid = None
        self.channel = None
        self._wpa = None
        self._link_psk = None
        self._sae = None
        self._pmk = None
        if rejoin and self.auto_reconnect and self.target_ssid is not None:
            self.sim.schedule(self.REJOIN_DELAY_S, self._start_scan)

    @property
    def associated(self) -> bool:
        return self.state is StaState.ASSOCIATED

    @property
    def negotiated_akm(self) -> Optional[str]:
        """AKM name this association negotiated (``None`` = open/legacy)."""
        return self._selected_rsn.akm_name if self._selected_rsn else None

    @property
    def pmf_active(self) -> bool:
        """Whether this association negotiated management-frame protection."""
        return self._selected_rsn is not None and self._selected_rsn.pmf

    @property
    def link_encrypted(self) -> bool:
        """Whether data on the current association is protected at all."""
        return self._link_psk is not None or self.wep is not None

    @property
    def link_ready(self) -> bool:
        """Associated *and* keyed (WPA needs the 4-way to finish)."""
        if not self.associated:
            return False
        if self._link_psk is not None:
            return self._wpa is not None and self._wpa.established
        return True

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _send_eapol(self, payload: bytes) -> None:
        if self.state is not StaState.ASSOCIATED or self.bssid is None:
            return
        body = llc_encap(0x888E, payload)
        frame = make_data(self.mac, self.bssid, self.bssid, body,
                          to_ds=True, seq=self.seqctl.next())
        self.port.transmit(frame)

    def send_frame_to(self, dst_mac: MacAddress, ethertype: int, payload: bytes) -> None:
        if self.state is not StaState.ASSOCIATED or self.bssid is None:
            return  # not connected; upper layers retry (ARP) or time out (TCP)
        body = llc_encap(ethertype, payload)
        protected = False
        if self._link_psk is not None:
            if self._wpa is None or not self._wpa.established:
                return  # keys not installed yet; WPA sends no cleartext data
            body = self._wpa.tx.encapsulate(body)
            protected = True
        elif self.wep is not None and self.iv_gen is not None:
            body = wep_encrypt(self.wep, self.iv_gen.next_iv(), body)
            protected = True
        frame = make_data(self.mac, dst_mac, self.bssid, body,
                          to_ds=True, protected=protected, seq=self.seqctl.next())
        self.port.transmit(frame)
        rec = instruments().recorder
        if rec is not None and frame.trace_id is not None:
            rec.hop("nic", "tx", trace_id=frame.trace_id,
                    host=self._hop_host(), t=self.sim.now,
                    ethertype=hex(ethertype),
                    privacy="wpa" if self._link_psk is not None
                    else "wep" if protected else "open")

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def _on_radio(self, frame: Dot11Frame, rssi: float, channel: int) -> None:
        if self.frame_tap is not None:
            self.frame_tap(frame, rssi, channel)
        subtype = frame.subtype
        if subtype in (FrameSubtype.BEACON, FrameSubtype.PROBE_RESP):
            self._on_beacon(frame, rssi, channel)
        elif subtype is FrameSubtype.AUTH:
            self._on_auth(frame)
        elif subtype is FrameSubtype.ASSOC_RESP:
            self._on_assoc_resp(frame)
        elif subtype in (FrameSubtype.DEAUTH, FrameSubtype.DISASSOC):
            self._on_deauth(frame)
        elif subtype is FrameSubtype.DATA:
            self._on_data(frame)

    def _on_beacon(self, frame: Dot11Frame, rssi: float, channel: int) -> None:
        try:
            info = frame.parse_beacon()
        except ProtocolError:
            return
        if self.state is StaState.SCANNING:
            cand = BssCandidate(info=info, channel=channel, rssi_dbm=rssi)
            existing = self._candidates.get(cand.key)
            if existing is None or rssi > existing.rssi_dbm:
                self._candidates[cand.key] = cand
        elif self.state is StaState.ASSOCIATED and frame.addr3 == self.bssid:
            self._last_beacon_time = self.sim.now
            self.current_rssi = rssi
            if info.csa is not None and self._csa_pending is None:
                self._honor_csa(info)

    def _honor_csa(self, info: BeaconInfo) -> None:
        """Obey a channel-switch announcement from our own BSS.

        Standard-mandated behaviour — and an unauthenticated lure: a
        forged beacon with a CSA IE herds us onto the attacker's
        channel just as obediently as a genuine switch.
        """
        try:
            csa = CsaIe.parse(info.csa)
        except ProtocolError:
            return
        if csa.new_channel == self.channel:
            return
        delay = max(1, csa.count) * info.interval_tu * 1024e-6
        self.sim.trace.emit("dot11.csa_rx", self.name, bssid=str(self.bssid),
                            new_channel=csa.new_channel, count=csa.count)
        self._csa_pending = self.sim.schedule(
            delay, lambda: self._execute_csa(csa.new_channel))

    def _execute_csa(self, new_channel: int) -> None:
        self._csa_pending = None
        if self.state is not StaState.ASSOCIATED:
            return
        self.port.channel = new_channel
        self.channel = new_channel
        self.csa_switches += 1
        self.sim.trace.emit("dot11.csa_switch", self.name,
                            bssid=str(self.bssid), channel=new_channel)
        m = instruments().metrics
        if m is not None:
            m.incr("dot11.csa_switches")

    def _on_auth(self, frame: Dot11Frame) -> None:
        if self.state is not StaState.AUTHENTICATING or frame.addr1 != self.mac:
            return
        if frame.addr2 != self.bssid:
            return
        try:
            if frame.protected and self.wep is not None:
                body = wep_decrypt(self.wep, frame.body)
                frame = frame.with_body(body, protected=False)
            alg, txn, status, challenge = frame.parse_auth()
        except (ProtocolError, WepError):
            return
        if status != StatusCode.SUCCESS:
            self._record_failure()
            self._cancel_mgmt_timer()
            self._start_scan()
            return
        if alg == AuthAlgorithm.SAE:
            self._on_auth_sae(frame, txn)
            return
        if alg == AuthAlgorithm.SHARED_KEY and txn == 2 and challenge is not None:
            # Return the challenge WEP-encrypted (the step that leaks keystream).
            if self.wep is None or self.iv_gen is None:
                self._record_failure()
                self._start_scan()
                return
            reply = make_auth(self.mac, self.bssid, self.bssid,
                              algorithm=AuthAlgorithm.SHARED_KEY, txn=3,
                              challenge=challenge, seq=self.seqctl.next())
            encrypted = wep_encrypt(self.wep, self.iv_gen.next_iv(), reply.body)
            self.port.transmit(reply.with_body(encrypted, protected=True))
            self._arm_mgmt_timer(self._send_auth_start)
            return
        final_txn = 2 if alg == AuthAlgorithm.OPEN_SYSTEM else 4
        if txn == final_txn:
            self._cancel_mgmt_timer()
            self._retries = 0
            self._send_assoc_request()

    def _on_auth_sae(self, frame: Dot11Frame, txn: int) -> None:
        """SAE commit/confirm exchange (status SUCCESS already checked)."""
        if self._sae is None:
            return
        try:
            payload = sae_payload(frame.parse_trailing_ies(6))
        except ProtocolError:
            return
        if payload is None:
            return
        if txn == 1:
            try:
                self._sae.process_commit(payload)
            except SaeError:
                self._sae_fail()
                return
            reply = make_auth(
                self.mac, self.bssid, self.bssid,
                algorithm=AuthAlgorithm.SAE, txn=2,
                extra_ies=[sae_container_ie(self._sae.confirm_bytes())],
                seq=self.seqctl.next())
            self.port.transmit(reply)
            self._arm_mgmt_timer(self._send_auth_start)
        elif txn == 2:
            if not self._sae.process_confirm(payload):
                # The password proof the 2003 client never had: an AP
                # that cannot produce a valid confirm does not know the
                # password, and we walk away instead of associating.
                self._sae_fail()
                return
            self._pmk = self._sae.pmk
            self._cancel_mgmt_timer()
            self._retries = 0
            self._send_assoc_request()

    def _sae_fail(self) -> None:
        self.sim.trace.emit("rsn.sae_reject", self.name, bssid=str(self.bssid))
        self._sae = None
        self._record_failure()
        self._cancel_mgmt_timer()
        self._start_scan()

    def _on_assoc_resp(self, frame: Dot11Frame) -> None:
        if self.state is not StaState.ASSOCIATING or frame.addr1 != self.mac:
            return
        if frame.addr2 != self.bssid:
            return
        try:
            _cap, status, _aid = frame.parse_assoc_response()
        except ProtocolError:
            return
        if status == StatusCode.SUCCESS:
            self._become_associated()
        else:
            self._record_failure()
            self._cancel_mgmt_timer()
            self._start_scan()

    def _on_deauth(self, frame: Dot11Frame) -> None:
        """A deauth/disassoc naming us — genuine or forged, we obey.

        802.11b gives no way to tell the difference; this unconditional
        obedience is what the deauth attack (§4) exploits.
        """
        if frame.addr1 != self.mac and not frame.addr1.is_broadcast:
            return
        relevant = (
            (self.state is StaState.ASSOCIATED and frame.addr2 == self.bssid)
            or (self.state in (StaState.AUTHENTICATING, StaState.ASSOCIATING)
                and frame.addr2 == self.bssid)
        )
        if not relevant:
            return
        self.deauths_received += 1
        if (self._selected_rsn is not None and self._selected_rsn.pmf
                and self._wpa is not None and self._wpa.established):
            # PMF: a keyed session only honors deauth/disassoc bearing
            # a valid, non-replayed MME.  Forgeries bounce off — the
            # fix the paper's §4 flood predates.
            igtk = derive_igtk(self._wpa.keys.kck)
            ipn = verify_mgmt_mic(frame, igtk, self._pmf_rx_ipn)
            if ipn is None:
                self.pmf_discards += 1
                self.sim.trace.emit("dot11.pmf_discard", self.name,
                                    bssid=str(frame.addr2))
                m = instruments().metrics
                if m is not None:
                    m.incr("dot11.pmf_discards")
                return
            self._pmf_rx_ipn = ipn
        try:
            reason = frame.parse_reason()
        except ProtocolError:
            reason = int(ReasonCode.UNSPECIFIED)
        self.sim.trace.emit("dot11.deauth_rx", self.name,
                            bssid=str(frame.addr2), reason=reason)
        m = instruments().metrics
        if m is not None:
            m.incr("dot11.deauths_received")
        self._record_failure()
        if self.on_deauthenticated is not None:
            self.on_deauthenticated(reason)
        self._disassociate(rejoin=True)

    def _on_data(self, frame: Dot11Frame) -> None:
        if self.state is not StaState.ASSOCIATED:
            return
        if not frame.from_ds or frame.addr2 != self.bssid:
            return
        if frame.addr1 != self.mac and not frame.addr1.is_broadcast:
            return
        body = frame.body
        if self._link_psk is not None:
            if frame.protected:
                if self._wpa is None or not self._wpa.established:
                    self.wep_decrypt_failures += 1
                    return
                try:
                    body = self._wpa.rx.decapsulate(body)
                except TkipError:
                    self.wep_decrypt_failures += 1
                    return
            else:
                try:
                    ethertype, payload = llc_decap(body)
                except ProtocolError:
                    return
                if ethertype == 0x888E and self._wpa is not None:
                    self._wpa.handle_eapol(payload)
                return  # cleartext non-EAPOL is dropped under WPA
        elif frame.protected:
            if self.wep is None:
                return
            try:
                body = wep_decrypt(self.wep, body)
            except WepError:
                self.wep_decrypt_failures += 1
                return
        elif self.wep is not None:
            return  # we expect privacy; drop cleartext data
        try:
            ethertype, payload = llc_decap(body)
        except ProtocolError:
            return
        rec = instruments().recorder
        if rec is not None and frame.trace_id is not None:
            rec.hop("nic", "deliver", trace_id=frame.trace_id,
                    host=self._hop_host(), t=self.sim.now,
                    ethertype=hex(ethertype), bytes=len(payload),
                    privacy="wpa" if self._link_psk is not None
                    else "wep" if frame.protected else "open")
        self._deliver_up(frame.source, frame.destination, ethertype, payload)
