"""WPA-PSK over the air: EAPOL-framed 4-way handshake + TKIP data.

§2.2's WPA, integrated into the radio path rather than modelled at
message level: after open-system association, the AP initiates the
4-way handshake in EAPOL frames (ethertype 0x888E) riding ordinary
data frames; both sides derive the PTK from the PSK
(:func:`repro.defense.wpa.derive_ptk`) and install
:class:`~repro.crypto.tkip.TkipSession` pairs; data frames are then
TKIP-protected with per-packet keys, Michael MICs, and replay windows.

Documented simplifications (none touching the §2.2 argument):

* no GTK — group-addressed frames are delivered per-peer under the
  pairwise keys;
* no Michael countermeasures (the 60-second lockout);
* EAPOL messages use a compact local encoding, not the 802.1X
  key-descriptor layout.

What is *faithful*, because the experiments depend on it: the PTK
binds both nonces and both MACs; message 2 proves the client holds the
PSK; message 3 proves the AP does — so a keyless rogue fails, and any
valid client's rogue succeeds, over the real radio path.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.crypto.tkip import TkipSession
from repro.crypto.wpa_kdf import derive_ptk
from repro.dot11.mac import MacAddress
from repro.sim.errors import ProtocolError

__all__ = ["ETHERTYPE_EAPOL", "ApWpaSession", "StaWpaSession", "WpaKeys"]

ETHERTYPE_EAPOL = 0x888E

_MSG1 = 1  # AP -> STA: ANonce
_MSG2 = 2  # STA -> AP: SNonce | MIC
_MSG3 = 3  # AP -> STA: MIC (install)
_MSG4 = 4  # STA -> AP: MIC (confirm)

MIC_LEN = 20
NONCE_LEN = 32


def _pack(msg: int, *fields: bytes) -> bytes:
    return bytes([msg]) + b"".join(fields)


@dataclass
class WpaKeys:
    """The PTK split: handshake MIC key + TKIP material."""

    kck: bytes
    tk: bytes
    mic_ap_to_sta: bytes
    mic_sta_to_ap: bytes

    @classmethod
    def from_ptk(cls, ptk: bytes) -> "WpaKeys":
        return cls(kck=ptk[:16], tk=ptk[16:32],
                   mic_ap_to_sta=ptk[32:40], mic_sta_to_ap=ptk[40:48])


class ApWpaSession:
    """AP-side per-client handshake state and data protection."""

    MAX_RETRIES = 5
    RETRY_S = 0.5

    def __init__(self, sim, psk: bytes, ap_mac: MacAddress, sta_mac: MacAddress,
                 send_eapol: Callable[[bytes], None], rng) -> None:
        self.sim = sim
        self.psk = psk
        self.ap_mac = ap_mac
        self.sta_mac = sta_mac
        self.send_eapol = send_eapol
        self.anonce = rng.bytes(NONCE_LEN)
        self.keys: Optional[WpaKeys] = None
        self.tx: Optional[TkipSession] = None     # AP -> STA
        self.rx: Optional[TkipSession] = None     # STA -> AP
        self.established = False
        self.mic_failures = 0
        self._retries = 0
        self._timer = None
        self._awaiting: Optional[int] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._send_msg1()

    def _send_msg1(self) -> None:
        self._awaiting = _MSG2
        self.send_eapol(_pack(_MSG1, self.anonce))
        self._arm(self._send_msg1)

    def _send_msg3(self) -> None:
        assert self.keys is not None
        mic3 = hmac.digest(self.keys.kck, b"msg3" + self.anonce, "sha1")
        self._awaiting = _MSG4
        self.send_eapol(_pack(_MSG3, mic3))
        self._arm(self._send_msg3)

    def _arm(self, retry) -> None:
        self._cancel()

        def timeout() -> None:
            self._retries += 1
            if self._retries <= self.MAX_RETRIES and not self.established:
                retry()

        self._timer = self.sim.schedule(self.RETRY_S, timeout)

    def _cancel(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def handle_eapol(self, payload: bytes) -> None:
        if not payload:
            return
        msg = payload[0]
        if msg == _MSG2 and self._awaiting == _MSG2:
            if len(payload) < 1 + NONCE_LEN + MIC_LEN:
                return
            snonce = payload[1:1 + NONCE_LEN]
            mic2 = payload[1 + NONCE_LEN:1 + NONCE_LEN + MIC_LEN]
            ptk = derive_ptk(self.psk, self.anonce, snonce,
                             self.ap_mac, self.sta_mac)
            keys = WpaKeys.from_ptk(ptk)
            if not hmac.compare_digest(
                    mic2, hmac.digest(keys.kck, b"msg2" + snonce, "sha1")):
                self.mic_failures += 1
                return  # wrong PSK on the client; keep waiting / retrying
            self.keys = keys
            self._retries = 0
            self._send_msg3()
        elif msg == _MSG4 and self._awaiting == _MSG4 and self.keys is not None:
            mic4 = payload[1:1 + MIC_LEN]
            if not hmac.compare_digest(
                    mic4, hmac.digest(self.keys.kck, b"msg4" + self.anonce, "sha1")):
                self.mic_failures += 1
                return
            self._cancel()
            self._awaiting = None
            self.tx = TkipSession(self.keys.tk, self.keys.mic_ap_to_sta,
                                  self.ap_mac.bytes)
            self.rx = TkipSession(self.keys.tk, self.keys.mic_sta_to_ap,
                                  self.sta_mac.bytes)
            self.established = True

    def shutdown(self) -> None:
        self._cancel()


class StaWpaSession:
    """Station-side handshake state and data protection."""

    def __init__(self, psk: bytes, sta_mac: MacAddress, ap_mac: MacAddress,
                 send_eapol: Callable[[bytes], None], rng) -> None:
        self.psk = psk
        self.sta_mac = sta_mac
        self.ap_mac = ap_mac
        self.send_eapol = send_eapol
        self.snonce = rng.bytes(NONCE_LEN)
        self.anonce: Optional[bytes] = None
        self.keys: Optional[WpaKeys] = None
        self.tx: Optional[TkipSession] = None     # STA -> AP
        self.rx: Optional[TkipSession] = None     # AP -> STA
        self.established = False
        self.mic_failures = 0

    def handle_eapol(self, payload: bytes) -> None:
        if not payload:
            return
        msg = payload[0]
        if msg == 1:  # MSG1: ANonce
            if len(payload) < 1 + NONCE_LEN:
                return
            self.anonce = payload[1:1 + NONCE_LEN]
            ptk = derive_ptk(self.psk, self.anonce, self.snonce,
                             self.ap_mac, self.sta_mac)
            self.keys = WpaKeys.from_ptk(ptk)
            mic2 = hmac.digest(self.keys.kck, b"msg2" + self.snonce, "sha1")
            self.send_eapol(_pack(2, self.snonce, mic2))
        elif msg == 3 and self.keys is not None and self.anonce is not None:
            mic3 = payload[1:1 + MIC_LEN]
            if not hmac.compare_digest(
                    mic3, hmac.digest(self.keys.kck, b"msg3" + self.anonce, "sha1")):
                # The network failed to prove PSK knowledge: a keyless
                # rogue.  Refuse; never install keys.
                self.mic_failures += 1
                return
            mic4 = hmac.digest(self.keys.kck, b"msg4" + self.anonce, "sha1")
            self.send_eapol(_pack(4, mic4))
            self.tx = TkipSession(self.keys.tk, self.keys.mic_sta_to_ap,
                                  self.sta_mac.bytes)
            self.rx = TkipSession(self.keys.tk, self.keys.mic_ap_to_sta,
                                  self.ap_mac.bytes)
            self.established = True
