"""Access-point machinery shared by infrastructure APs and soft-APs.

:class:`ApCore` implements the AP side of 802.11b: beacons, probe
responses, open-system and shared-key authentication, association,
WEP enforcement, and MAC filtering.  Crucially it implements them
*symmetrically for anyone who instantiates it* — the legitimate CORP
AP and the attacker's hostap-driver laptop (§4: "The D-Link card is
configured with the Linux hostap driver to operate in Master mode")
run the very same code, because the protocol gives the rogue nothing
it must fake beyond configuration values.

:class:`SoftApInterface` wraps an :class:`ApCore` as a host interface:
the paper's ``wlan0`` — simultaneously an AP for victims and an IP
interface on the attacker's gateway machine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.wep import IvGenerator, WepError, WepKey, wep_decrypt, wep_encrypt
from repro.dot11.frames import (
    AuthAlgorithm,
    Dot11Frame,
    FrameSubtype,
    ReasonCode,
    StatusCode,
    make_assoc_response,
    make_auth,
    make_beacon,
    make_data,
    make_deauth,
    make_probe_response,
)
from repro.dot11.mac import MacAddress
from repro.dot11.seqctl import SequenceCounter
from repro.crypto.tkip import TkipError
from repro.hosts.nic import Interface
from repro.hosts.wpa_link import ETHERTYPE_EAPOL, ApWpaSession
from repro.netstack.ethernet import llc_decap, llc_encap
from repro.obs.runtime import instruments
from repro.radio.medium import Medium, RadioPort
from repro.radio.propagation import Position
from repro.dot11.ies import IeId, find_ie, parse_ies
from repro.rsn.ie import AkmSuite, RsnIe, RsnSelection, negotiate
from repro.rsn.pmf import derive_igtk, mme_for_frame, verify_mgmt_mic
from repro.rsn.sae import SaeError, SaeParty, sae_container_ie, sae_payload
from repro.sim.errors import ConfigurationError, ProtocolError
from repro.sim.kernel import Simulator

__all__ = ["ApCore", "ClientState", "MacFilter", "SoftApInterface"]


class MacFilter:
    """Allow-list MAC filtering (§2.1).

    "Since MAC addresses can be changed from their factory default and
    valid MACs can be sniffed from the network it accomplishes nothing
    more than perhaps keeping honest people honest."  The E-MAC
    experiment quantifies that sentence.
    """

    def __init__(self, allowed: Optional[list[MacAddress]] = None) -> None:
        self._allowed: Optional[set[MacAddress]] = (
            set(allowed) if allowed is not None else None
        )
        self.denials = 0

    @property
    def enabled(self) -> bool:
        return self._allowed is not None

    def allow(self, mac: MacAddress) -> None:
        if self._allowed is None:
            self._allowed = set()
        self._allowed.add(mac)

    def permits(self, mac: MacAddress) -> bool:
        if self._allowed is None:
            return True
        if mac in self._allowed:
            return True
        self.denials += 1
        return False


class ClientPhase(enum.Enum):
    AUTHENTICATED = "AUTHENTICATED"
    ASSOCIATED = "ASSOCIATED"


@dataclass
class ClientState:
    mac: MacAddress
    phase: ClientPhase
    aid: int = 0
    pending_challenge: Optional[bytes] = None
    rssi_dbm: float = 0.0
    frames_from: int = 0
    wpa: Optional[ApWpaSession] = None
    # RSN/SAE/PMF per-client state (all None/0 on legacy networks)
    sae: Optional[SaeParty] = None
    pmk: Optional[bytes] = None        # SAE outcome; feeds the 4-way
    rsn: Optional[RsnSelection] = None
    pmf: bool = False
    ipn_tx: int = 0                    # MME packet number we send
    ipn_rx: int = 0                    # replay high-water mark from STA


class ApCore:
    """One BSS: radio, beacons, client table, crypto policy."""

    BEACON_INTERVAL_S = 0.1  # 100 TU, the universal default

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        bssid: MacAddress,
        ssid: str,
        channel: int,
        position: Position,
        *,
        wep_key: Optional[WepKey] = None,
        wpa_psk: Optional[bytes] = None,
        auth_algorithm: int = AuthAlgorithm.OPEN_SYSTEM,
        mac_filter: Optional[MacFilter] = None,
        seqctl=None,
        beacon_jitter_s: float = 0.0,
        rsn: Optional[RsnIe] = None,
        sae_password: Optional[str] = None,
    ) -> None:
        if wep_key is not None and wpa_psk is not None:
            raise ConfigurationError("a BSS runs WEP or WPA, not both")
        if rsn is not None:
            if wep_key is not None:
                raise ConfigurationError("an RSN BSS cannot also run WEP")
            if rsn.supports(AkmSuite.SAE) and sae_password is None:
                raise ConfigurationError("SAE AKM advertised without a password")
            if rsn.supports(AkmSuite.PSK) and wpa_psk is None:
                raise ConfigurationError("PSK AKM advertised without a PSK")
        self.sim = sim
        self.name = name
        self.bssid = bssid
        self.ssid = ssid
        self.channel = channel
        self.wep = wep_key
        self.wpa_psk = wpa_psk
        self.rsn = rsn
        self.sae_password = sae_password
        # Advertised in every beacon/probe response; packed once.
        self._rsn_ies = (rsn.to_ie(),) if rsn is not None else None
        # SAE RNG substream is created lazily on the first commit, so
        # legacy (non-RSN) worlds draw nothing new — substreams are
        # independently seeded, but not creating one at all is the
        # strongest possible no-perturbation guarantee.
        self._sae_rng = None
        self.pmf_discards = 0
        self.auth_algorithm = AuthAlgorithm(auth_algorithm)
        self.mac_filter = mac_filter or MacFilter()
        self.port = RadioPort(name=name, position=position, channel=channel,
                              tx_power_dbm=18.0)
        self.port.on_receive = self._on_radio
        medium.attach(self.port)
        # ``seqctl`` injection point: an evading rogue substitutes a
        # MirroredSequenceCounter here.  Skipping the substream draw is
        # safe — substreams are independently seeded, so no other
        # stream's values shift.
        self.seqctl = (seqctl if seqctl is not None else
                       SequenceCounter(sim.rng.substream(f"seq.{name}").randrange(0, 4096)))
        self.iv_gen = (
            IvGenerator(sim.rng.substream(f"iv.{name}").randrange(0, 1 << 24))
            if wep_key is not None else None
        )
        self._wpa_rng = sim.rng.substream(f"wpa.{name}")
        self.clients: dict[MacAddress, ClientState] = {}
        self._next_aid = 1
        self._challenge_rng = sim.rng.substream(f"chal.{name}")
        #: Owner hook: called with (src_mac, dst_mac, ethertype, payload)
        #: for upstream-bound traffic from associated clients.
        self.on_client_frame: Optional[Callable[[MacAddress, MacAddress, int, bytes], None]] = None
        self._stop_beacons = None
        self._beacon_timer = None
        self.beacon_jitter_s = beacon_jitter_s
        if beacon_jitter_s > 0.0:
            # A software-timed AP (hostap on a laptop): each TBTT
            # slips by OS-scheduling jitter.  Own substream, so the
            # jitter-free path stays byte-identical to before.
            self._jitter_rng = sim.rng.substream(f"beaconjitter.{name}")
            self._beacon_timer = sim.schedule(
                self.BEACON_INTERVAL_S
                + self._jitter_rng.uniform(0.0, beacon_jitter_s),
                self._jittered_beacon)
        else:
            self._stop_beacons = sim.every(self.BEACON_INTERVAL_S, self._beacon)
        # counters
        self.associations_granted = 0
        self.data_relayed = 0
        self.wep_drop_count = 0

    # ------------------------------------------------------------------
    # transmission helpers
    # ------------------------------------------------------------------
    @property
    def privacy(self) -> bool:
        """The capability bit: set for WEP, WPA, and RSN networks."""
        return (self.wep is not None or self.wpa_psk is not None
                or self.rsn is not None)

    @property
    def _wpa_enabled(self) -> bool:
        """Data frames ride pairwise keys (legacy WPA-PSK or RSN)."""
        return self.wpa_psk is not None or self.rsn is not None

    def _beacon(self) -> None:
        frame = make_beacon(self.bssid, self.ssid, self.channel,
                            privacy=self.privacy,
                            timestamp=int(self.sim.now * 1e6),
                            seq=self.seqctl.next(),
                            extra_ies=self._rsn_ies)
        self.port.transmit(frame)

    def _jittered_beacon(self) -> None:
        self._beacon()
        delay = (self.BEACON_INTERVAL_S
                 + self._jitter_rng.uniform(0.0, self.beacon_jitter_s))
        self._beacon_timer = self.sim.schedule(delay, self._jittered_beacon)

    def send_to_client(self, dst_mac: MacAddress, src_mac: MacAddress,
                       ethertype: int, payload: bytes) -> None:
        """Transmit a from-DS data frame into the BSS."""
        if self._wpa_enabled and (dst_mac.is_broadcast or dst_mac.is_multicast):
            # GTK substitution (documented): group frames go per-peer
            # under the pairwise keys.
            for mac, state in list(self.clients.items()):
                if state.phase is ClientPhase.ASSOCIATED and state.wpa is not None \
                        and state.wpa.established:
                    self._unicast_to_client(mac, dst_mac, src_mac, ethertype, payload)
            return
        if not dst_mac.is_broadcast and not dst_mac.is_multicast:
            client = self.clients.get(dst_mac)
            if client is None or client.phase is not ClientPhase.ASSOCIATED:
                return
        self._unicast_to_client(dst_mac, dst_mac, src_mac, ethertype, payload)

    def _unicast_to_client(self, radio_dst: MacAddress, dst_mac: MacAddress,
                           src_mac: MacAddress, ethertype: int,
                           payload: bytes) -> None:
        body = llc_encap(ethertype, payload)
        protected = False
        if self._wpa_enabled:
            state = self.clients.get(radio_dst)
            if state is None or state.wpa is None or not state.wpa.established:
                return  # no keys yet: WPA never sends cleartext data
            body = state.wpa.tx.encapsulate(body)
            protected = True
        elif self.wep is not None and self.iv_gen is not None:
            body = wep_encrypt(self.wep, self.iv_gen.next_iv(), body)
            protected = True
        frame = make_data(self.bssid, dst_mac, self.bssid, body,
                          from_ds=True, protected=protected, seq=self.seqctl.next())
        if radio_dst != dst_mac:
            # Group frame delivered pairwise: address the radio peer.
            frame = make_data(self.bssid, radio_dst, self.bssid, body,
                              from_ds=True, protected=protected,
                              seq=self.seqctl.next())
        self.port.transmit(frame)
        rec = instruments().recorder
        if rec is not None and frame.trace_id is not None:
            rec.hop("ap", "tx", trace_id=frame.trace_id, host=self.name,
                    t=self.sim.now, dst=str(dst_mac),
                    ethertype=hex(ethertype),
                    privacy="wpa" if self._wpa_enabled
                    else "wep" if protected else "open")

    def _send_eapol(self, sta: MacAddress, payload: bytes) -> None:
        """Handshake frames ride unprotected data frames (as EAPOL does)."""
        body = llc_encap(ETHERTYPE_EAPOL, payload)
        frame = make_data(self.bssid, sta, self.bssid, body,
                          from_ds=True, seq=self.seqctl.next())
        self.port.transmit(frame)

    def wpa_established(self, mac: MacAddress) -> bool:
        state = self.clients.get(mac)
        return bool(state and state.wpa and state.wpa.established)

    def deauth_client(self, mac: MacAddress) -> None:
        """Administratively kick a client.

        For a PMF association the deauth carries a valid MME, so the
        station distinguishes this legitimate kick from a forgery.
        """
        state = self.clients.pop(mac, None)
        frame = make_deauth(self.bssid, mac, self.bssid,
                            reason=ReasonCode.UNSPECIFIED,
                            seq=self.seqctl.next())
        if (state is not None and state.pmf and state.wpa is not None
                and state.wpa.established):
            igtk = derive_igtk(state.wpa.keys.kck)
            state.ipn_tx += 1
            mme = mme_for_frame(frame, igtk, state.ipn_tx)
            frame = frame.with_body(frame.body + mme.to_ie().pack())
        if state is not None and state.wpa is not None:
            state.wpa.shutdown()
        self.port.transmit(frame)

    def associated_clients(self) -> list[MacAddress]:
        return [mac for mac, st in self.clients.items()
                if st.phase is ClientPhase.ASSOCIATED]

    def shutdown(self) -> None:
        if self._stop_beacons is not None:
            self._stop_beacons()
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
            self._beacon_timer = None
        self.port.enabled = False

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------
    def _on_radio(self, frame: Dot11Frame, rssi: float, channel: int) -> None:
        subtype = frame.subtype
        if subtype is FrameSubtype.PROBE_REQ:
            self._on_probe_req(frame)
        elif subtype is FrameSubtype.AUTH:
            self._on_auth(frame, rssi)
        elif subtype is FrameSubtype.ASSOC_REQ:
            self._on_assoc_req(frame)
        elif subtype in (FrameSubtype.DEAUTH, FrameSubtype.DISASSOC):
            if frame.addr1 == self.bssid:
                state = self.clients.get(frame.addr2)
                if (state is not None and state.pmf
                        and state.wpa is not None and state.wpa.established):
                    igtk = derive_igtk(state.wpa.keys.kck)
                    ipn = verify_mgmt_mic(frame, igtk, state.ipn_rx)
                    if ipn is None:
                        # Forged STA-side deauth: cryptographically
                        # rejected; the association survives.
                        self.pmf_discards += 1
                        return
                    state.ipn_rx = ipn
                self.clients.pop(frame.addr2, None)
        elif subtype is FrameSubtype.DATA:
            self._on_data(frame)

    def _on_probe_req(self, frame: Dot11Frame) -> None:
        # Respond to directed probes for our SSID and to broadcast probes.
        try:
            ies = parse_ies(frame.body)
        except ProtocolError:
            return
        ssid_el = find_ie(ies, IeId.SSID)
        requested = ssid_el.data.decode("utf-8", "replace") if ssid_el else ""
        if requested not in ("", self.ssid):
            return
        self.port.transmit(make_probe_response(
            self.bssid, frame.addr2, self.ssid, self.channel,
            privacy=self.privacy,
            timestamp=int(self.sim.now * 1e6),
            seq=self.seqctl.next(),
            extra_ies=self._rsn_ies,
        ))

    def _on_auth(self, frame: Dot11Frame, rssi: float) -> None:
        if frame.addr1 != self.bssid:
            return
        sta = frame.addr2
        # Shared-key transaction 3 arrives WEP-protected.
        if frame.protected:
            self._on_auth_txn3(frame, sta)
            return
        try:
            alg, txn, _status, _challenge = frame.parse_auth()
        except ProtocolError:
            return
        if alg == AuthAlgorithm.SAE:
            self._on_auth_sae(frame, sta, txn, rssi)
            return
        if txn != 1:
            return
        if not self.mac_filter.permits(sta):
            self.port.transmit(make_auth(self.bssid, sta, self.bssid,
                                         algorithm=alg, txn=2,
                                         status=StatusCode.UNSPECIFIED_FAILURE,
                                         seq=self.seqctl.next()))
            self.sim.trace.emit("dot11.mac_filter_deny", self.name, sta=str(sta))
            return
        if alg == AuthAlgorithm.OPEN_SYSTEM and self.auth_algorithm == AuthAlgorithm.OPEN_SYSTEM:
            self.clients[sta] = ClientState(mac=sta, phase=ClientPhase.AUTHENTICATED,
                                            rssi_dbm=rssi)
            self.port.transmit(make_auth(self.bssid, sta, self.bssid,
                                         algorithm=alg, txn=2,
                                         status=StatusCode.SUCCESS,
                                         seq=self.seqctl.next()))
        elif alg == AuthAlgorithm.SHARED_KEY and self.wep is not None:
            challenge = self._challenge_rng.bytes(128)
            state = ClientState(mac=sta, phase=ClientPhase.AUTHENTICATED,
                                pending_challenge=challenge, rssi_dbm=rssi)
            self.clients[sta] = state
            self.port.transmit(make_auth(self.bssid, sta, self.bssid,
                                         algorithm=alg, txn=2,
                                         status=StatusCode.SUCCESS,
                                         challenge=challenge,
                                         seq=self.seqctl.next()))
        else:
            self.port.transmit(make_auth(self.bssid, sta, self.bssid,
                                         algorithm=alg, txn=2,
                                         status=StatusCode.UNSPECIFIED_FAILURE,
                                         seq=self.seqctl.next()))

    def _on_auth_sae(self, frame: Dot11Frame, sta: MacAddress,
                     txn: int, rssi: float) -> None:
        """AP side of SAE: txn 1 = commit exchange, txn 2 = confirm.

        A password-less AP (or one not advertising the SAE AKM) refuses
        outright — there is nothing it could say that would verify.
        """
        def reject(status: int) -> None:
            self.port.transmit(make_auth(
                self.bssid, sta, self.bssid,
                algorithm=AuthAlgorithm.SAE, txn=txn, status=status,
                seq=self.seqctl.next()))

        if (self.rsn is None or self.sae_password is None
                or not self.rsn.supports(AkmSuite.SAE)):
            reject(StatusCode.UNSPECIFIED_FAILURE)
            return
        try:
            payload = sae_payload(frame.parse_trailing_ies(6))
        except ProtocolError:
            return
        if payload is None:
            return
        if txn == 1:
            if not self.mac_filter.permits(sta):
                reject(StatusCode.UNSPECIFIED_FAILURE)
                self.sim.trace.emit("dot11.mac_filter_deny", self.name,
                                    sta=str(sta))
                return
            if self._sae_rng is None:
                self._sae_rng = self.sim.rng.substream(f"sae.{self.name}")
            party = SaeParty(self.sae_password, self.bssid, sta,
                             self._sae_rng)
            try:
                party.process_commit(payload)
            except SaeError:
                reject(StatusCode.UNSPECIFIED_FAILURE)
                return
            self.clients[sta] = ClientState(
                mac=sta, phase=ClientPhase.AUTHENTICATED,
                rssi_dbm=rssi, sae=party)
            self.port.transmit(make_auth(
                self.bssid, sta, self.bssid,
                algorithm=AuthAlgorithm.SAE, txn=1,
                status=StatusCode.SUCCESS,
                extra_ies=[sae_container_ie(party.commit_bytes())],
                seq=self.seqctl.next()))
        elif txn == 2:
            state = self.clients.get(sta)
            if state is None or state.sae is None:
                return
            if not state.sae.process_confirm(payload):
                # Confirm fails = peer does not hold the password.
                self.clients.pop(sta, None)
                reject(StatusCode.CHALLENGE_FAILURE)
                return
            state.pmk = state.sae.pmk
            self.port.transmit(make_auth(
                self.bssid, sta, self.bssid,
                algorithm=AuthAlgorithm.SAE, txn=2,
                status=StatusCode.SUCCESS,
                extra_ies=[sae_container_ie(state.sae.confirm_bytes())],
                seq=self.seqctl.next()))

    def _on_auth_txn3(self, frame: Dot11Frame, sta: MacAddress) -> None:
        state = self.clients.get(sta)
        if state is None or state.pending_challenge is None or self.wep is None:
            return
        try:
            body = wep_decrypt(self.wep, frame.body)
            alg, txn, _status, challenge = frame.with_body(body, protected=False).parse_auth()
        except (WepError, ProtocolError):
            self._auth_reject(sta, StatusCode.CHALLENGE_FAILURE)
            return
        if txn != 3 or challenge != state.pending_challenge:
            self._auth_reject(sta, StatusCode.CHALLENGE_FAILURE)
            return
        state.pending_challenge = None
        self.port.transmit(make_auth(self.bssid, sta, self.bssid,
                                     algorithm=AuthAlgorithm.SHARED_KEY, txn=4,
                                     status=StatusCode.SUCCESS,
                                     seq=self.seqctl.next()))

    def _auth_reject(self, sta: MacAddress, status: int) -> None:
        self.clients.pop(sta, None)
        self.port.transmit(make_auth(self.bssid, sta, self.bssid,
                                     algorithm=AuthAlgorithm.SHARED_KEY, txn=4,
                                     status=status, seq=self.seqctl.next()))

    def _on_assoc_req(self, frame: Dot11Frame) -> None:
        if frame.addr1 != self.bssid:
            return
        sta = frame.addr2
        state = self.clients.get(sta)
        if state is None:
            # Not authenticated; a real AP answers with a status error.
            self.port.transmit(make_assoc_response(
                self.bssid, sta, status=StatusCode.ASSOC_DENIED_UNSPEC,
                seq=self.seqctl.next()))
            return
        try:
            _cap, ssid = frame.parse_assoc_request()
        except ProtocolError:
            return
        if ssid != self.ssid:
            self.port.transmit(make_assoc_response(
                self.bssid, sta, status=StatusCode.ASSOC_DENIED_UNSPEC,
                seq=self.seqctl.next()))
            return
        link_psk = self.wpa_psk
        if self.rsn is not None:
            sta_rsn = None
            try:
                rsn_el = find_ie(frame.parse_trailing_ies(4), IeId.RSN)
                if rsn_el is not None:
                    sta_rsn = RsnIe.parse(rsn_el.data)
            except ProtocolError:
                sta_rsn = None
            sel = negotiate(self.rsn, sta_rsn)
            if (sel is not None and sel.akm == int(AkmSuite.SAE)
                    and state.pmk is None):
                sel = None  # SAE selected but no completed handshake
            if sel is None:
                self.port.transmit(make_assoc_response(
                    self.bssid, sta, status=StatusCode.ASSOC_DENIED_UNSPEC,
                    seq=self.seqctl.next()))
                return
            state.rsn = sel
            state.pmf = sel.pmf
            link_psk = (state.pmk if sel.akm == int(AkmSuite.SAE)
                        else self.wpa_psk)
            self.sim.trace.emit("rsn.ap_negotiated", self.name,
                                sta=str(sta), akm=sel.akm_name, pmf=sel.pmf)
        state.phase = ClientPhase.ASSOCIATED
        state.aid = self._next_aid
        self._next_aid += 1
        self.associations_granted += 1
        self.sim.trace.emit("dot11.ap_assoc", self.name, sta=str(sta))
        m = instruments().metrics
        if m is not None:
            m.incr("dot11.ap_associations")
        self.port.transmit(make_assoc_response(
            self.bssid, sta, status=StatusCode.SUCCESS, aid=state.aid,
            privacy=self.privacy, seq=self.seqctl.next()))
        if link_psk is not None:
            # Kick off the 4-way handshake right behind the response.
            # Under SAE ``link_psk`` is the fresh per-session PMK —
            # exactly how WPA3 layers SAE beneath 802.11i key handling.
            state.wpa = ApWpaSession(
                self.sim, link_psk, self.bssid, sta,
                send_eapol=lambda p, dst=sta: self._send_eapol(dst, p),
                rng=self._wpa_rng)
            self.sim.call_soon(state.wpa.start)

    def _on_data(self, frame: Dot11Frame) -> None:
        if not frame.to_ds or frame.addr1 != self.bssid:
            return
        sta = frame.addr2
        state = self.clients.get(sta)
        if state is None or state.phase is not ClientPhase.ASSOCIATED:
            # Class-3 frame from a non-associated station.
            self.port.transmit(make_deauth(self.bssid, sta, self.bssid,
                                           reason=ReasonCode.CLASS3_FROM_NONASSOC,
                                           seq=self.seqctl.next()))
            return
        state.frames_from += 1
        body = frame.body
        if self._wpa_enabled:
            if frame.protected:
                if state.wpa is None or not state.wpa.established:
                    self.wep_drop_count += 1
                    return
                try:
                    body = state.wpa.rx.decapsulate(body)
                except TkipError:
                    self.wep_drop_count += 1
                    return
            else:
                # Cleartext is only acceptable as EAPOL handshake.
                try:
                    ethertype, payload = llc_decap(body)
                except ProtocolError:
                    return
                if ethertype == ETHERTYPE_EAPOL and state.wpa is not None:
                    state.wpa.handle_eapol(payload)
                else:
                    self.wep_drop_count += 1
                return
        elif self.wep is not None:
            if not frame.protected:
                self.wep_drop_count += 1
                return
            try:
                body = wep_decrypt(self.wep, body)
            except WepError:
                self.wep_drop_count += 1
                return
        elif frame.protected:
            self.wep_drop_count += 1
            return
        try:
            ethertype, payload = llc_decap(body)
        except ProtocolError:
            return
        dst = frame.destination  # addr3 for to-DS frames
        rec = instruments().recorder
        if rec is not None and frame.trace_id is not None:
            rec.hop("ap", "uplink", trace_id=frame.trace_id, host=self.name,
                    t=self.sim.now, src=str(frame.source), dst=str(dst),
                    ethertype=hex(ethertype))
        # Intra-BSS relay for associated peers and broadcasts.
        if dst.is_broadcast or dst.is_multicast:
            self.data_relayed += 1
            self.send_to_client(dst, frame.source, ethertype, payload)
            if self.on_client_frame is not None:
                self.on_client_frame(frame.source, dst, ethertype, payload)
            return
        peer = self.clients.get(dst)
        if peer is not None and peer.phase is ClientPhase.ASSOCIATED:
            self.data_relayed += 1
            self.send_to_client(dst, frame.source, ethertype, payload)
            return
        if self.on_client_frame is not None:
            self.on_client_frame(frame.source, dst, ethertype, payload)


class SoftApInterface(Interface):
    """Master-mode NIC on a host: an AP that is also an IP interface.

    The attacker's ``wlan0`` in Appendix A — hostap's Master mode.  The
    owning host sees client traffic as ordinary link input and its ARP
    replies / forwarded packets flow back out as from-DS data frames.
    """

    needs_arp = True

    def __init__(
        self,
        name: str,
        medium: Medium,
        position: Position,
        *,
        bssid: MacAddress,
        ssid: str,
        channel: int,
        wep_key: Optional[WepKey] = None,
        wpa_psk: Optional[bytes] = None,
        seqctl=None,
        beacon_jitter_s: float = 0.0,
    ) -> None:
        super().__init__(name, bssid)
        self._pending_core_args = dict(
            medium=medium, position=position, bssid=bssid, ssid=ssid,
            channel=channel, wep_key=wep_key, wpa_psk=wpa_psk,
            seqctl=seqctl, beacon_jitter_s=beacon_jitter_s,
        )
        self.core: Optional[ApCore] = None

    def bind(self, host) -> None:
        super().bind(host)
        args = self._pending_core_args
        self.core = ApCore(
            host.sim, args["medium"], self.name,
            bssid=args["bssid"], ssid=args["ssid"], channel=args["channel"],
            position=args["position"], wep_key=args["wep_key"],
            wpa_psk=args["wpa_psk"],
            seqctl=args["seqctl"], beacon_jitter_s=args["beacon_jitter_s"],
        )
        self.core.on_client_frame = self._from_client

    def _from_client(self, src_mac: MacAddress, dst_mac: MacAddress,
                     ethertype: int, payload: bytes) -> None:
        self.host.receive_link(self, src_mac, dst_mac, ethertype, payload)

    def send_frame_to(self, dst_mac: MacAddress, ethertype: int, payload: bytes) -> None:
        if self.core is not None:
            self.core.send_to_client(dst_mac, self.mac, ethertype, payload)
