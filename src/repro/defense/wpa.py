"""WPA-PSK with TKIP (§2.2).

"802.1x and TKIP ... have been packaged into a new security solution
called WiFi Protected Access (WPA).  This interim solution addresses
client access to the network and WEP's previous vulnerabilities.
TKIP still relies on a pre shared key, thus is still vulnerable to
MITM attack from valid network clients."

The model: a 4-way-handshake-style exchange deriving a pairwise key
from the PSK and both nonces, MIC-protected; data protection via
:class:`repro.crypto.tkip.TkipSession`.  What E-8021X/WPA measures:

* an attacker *without* the PSK cannot complete the handshake — WPA
  really does fix WEP's key recovery and open rogue;
* any *valid client* has the PSK, so a rogue AP run by an insider (or
  anyone the key leaked to) completes the handshake perfectly — the
  quoted sentence above.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass
from typing import Optional

from repro.crypto.tkip import TkipSession
from repro.dot11.mac import MacAddress

__all__ = ["derive_ptk", "WpaPskAuthenticator", "WpaPskSupplicant", "psk_from_passphrase"]


# Key derivation lives in repro.crypto.wpa_kdf (shared with the link
# layer); re-exported here for the defense-facing API.
from repro.crypto.wpa_kdf import derive_ptk, psk_from_passphrase  # noqa: E402


@dataclass
class _Keys:
    kck: bytes      # handshake MIC key
    tk: bytes       # TKIP temporal key
    mic_tx: bytes   # Michael key, AP->STA
    mic_rx: bytes   # Michael key, STA->AP

    @classmethod
    def from_ptk(cls, ptk: bytes) -> "_Keys":
        return cls(kck=ptk[:16], tk=ptk[16:32], mic_tx=ptk[32:40], mic_rx=ptk[40:48])


class WpaPskAuthenticator:
    """AP side of the 4-way handshake."""

    def __init__(self, psk: bytes, ap_mac: MacAddress, rng) -> None:
        self.psk = psk
        self.ap_mac = ap_mac
        self._rng = rng
        self.handshakes_completed = 0
        self.mic_failures = 0

    def handshake(self, supplicant: "WpaPskSupplicant") -> Optional[tuple[TkipSession, TkipSession]]:
        """Run the exchange; returns (ap_tx_session, ap_rx_session) or None."""
        anonce = self._rng.bytes(32)
        # Message 1: ANonce (unprotected, as in the real protocol).
        snonce, mic2 = supplicant.msg1(anonce, self.ap_mac)
        ptk = derive_ptk(self.psk, anonce, snonce, self.ap_mac, supplicant.sta_mac)
        keys = _Keys.from_ptk(ptk)
        expected_mic2 = hmac.digest(keys.kck, b"msg2" + snonce, "sha1")
        if not hmac.compare_digest(mic2, expected_mic2):
            # Wrong PSK on the client (or an impostor without the key).
            self.mic_failures += 1
            return None
        # Message 3: confirm, MIC'd under the KCK.
        mic3 = hmac.digest(keys.kck, b"msg3" + anonce, "sha1")
        ok = supplicant.msg3(mic3)
        if not ok:
            self.mic_failures += 1
            return None
        self.handshakes_completed += 1
        ap_tx = TkipSession(keys.tk, keys.mic_tx, self.ap_mac.bytes)
        ap_rx = TkipSession(keys.tk, keys.mic_rx, supplicant.sta_mac.bytes)
        return ap_tx, ap_rx


class WpaPskSupplicant:
    """Client side of the 4-way handshake."""

    def __init__(self, psk: bytes, sta_mac: MacAddress, rng) -> None:
        self.psk = psk
        self.sta_mac = sta_mac
        self._rng = rng
        self._keys: Optional[_Keys] = None
        self._anonce: Optional[bytes] = None
        self.established = False
        self.mic_failures = 0

    def msg1(self, anonce: bytes, ap_mac: MacAddress) -> tuple[bytes, bytes]:
        """Receive ANonce; respond with SNonce + MIC (message 2)."""
        snonce = self._rng.bytes(32)
        ptk = derive_ptk(self.psk, anonce, snonce, ap_mac, self.sta_mac)
        self._keys = _Keys.from_ptk(ptk)
        self._anonce = anonce
        return snonce, hmac.digest(self._keys.kck, b"msg2" + snonce, "sha1")

    def msg3(self, mic3: bytes) -> bool:
        """Verify message 3 — the step that *does* authenticate the AP's
        key knowledge.  A rogue without the PSK fails here; a rogue
        *with* it (any valid client) passes."""
        assert self._keys is not None and self._anonce is not None
        expected = hmac.digest(self._keys.kck, b"msg3" + self._anonce, "sha1")
        if not hmac.compare_digest(mic3, expected):
            self.mic_failures += 1
            return False
        self.established = True
        return True

    def sessions(self, ap_mac: MacAddress) -> tuple[TkipSession, TkipSession]:
        """(sta_tx, sta_rx) TKIP sessions after a completed handshake."""
        assert self.established and self._keys is not None
        sta_tx = TkipSession(self._keys.tk, self._keys.mic_rx, self.sta_mac.bytes)
        sta_rx = TkipSession(self._keys.tk, self._keys.mic_tx, ap_mac.bytes)
        return sta_tx, sta_rx
