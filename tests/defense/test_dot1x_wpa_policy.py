"""802.1X / WPA-PSK gaps (§2.2)."""

import pytest

from repro.crypto.tkip import TkipError
from repro.crypto.wpa_kdf import derive_ptk, psk_from_passphrase
from repro.defense.dot1x import (
    Dot1xAuthenticator,
    Dot1xSupplicant,
    EapAuthServer,
    chap_md5_response,
)
from repro.dot11.mac import MacAddress
from repro.hosts.wpa_link import ApWpaSession, StaWpaSession
from repro.sim.kernel import Simulator
from repro.sim.rng import SimRandom

AP_MAC = MacAddress("aa:bb:cc:dd:00:01")
STA_MAC = MacAddress("00:02:2d:00:00:07")


# ----------------------------------------------------------------------
# 802.1X
# ----------------------------------------------------------------------

def test_legit_dot1x_authenticates_valid_user():
    server = EapAuthServer({"alice": b"wonderland"}, SimRandom(1))
    authenticator = Dot1xAuthenticator(server)
    supplicant = Dot1xSupplicant("alice", b"wonderland")
    assert authenticator.authenticate(supplicant)
    assert supplicant.authenticated
    assert server.successes == 1


def test_legit_dot1x_rejects_wrong_password():
    server = EapAuthServer({"alice": b"wonderland"}, SimRandom(1))
    authenticator = Dot1xAuthenticator(server)
    supplicant = Dot1xSupplicant("alice", b"GUESS")
    assert not authenticator.authenticate(supplicant)
    assert not supplicant.authenticated


def test_legit_dot1x_rejects_unknown_user():
    server = EapAuthServer({"alice": b"x"}, SimRandom(1))
    authenticator = Dot1xAuthenticator(server)
    assert not authenticator.authenticate(Dot1xSupplicant("mallory", b"x"))


def test_rogue_authenticator_accepted_by_supplicant():
    """§2.2: 'there is no authentication of the network' — the rogue
    needs no server, no user db, nothing; EAP-Success is believed."""
    rogue = Dot1xAuthenticator(None, rogue=True)
    supplicant = Dot1xSupplicant("alice", b"wonderland")
    assert rogue.authenticate(supplicant)
    assert supplicant.authenticated                 # the client is happy
    assert supplicant.network_was_authenticated is False  # structurally
    assert "alice" in rogue.port_authorized_for     # identity harvested


def test_rogue_authenticator_needs_flag():
    with pytest.raises(ValueError):
        Dot1xAuthenticator(None)


def test_chap_response_deterministic():
    a = chap_md5_response(1, b"pw", b"challenge")
    assert a == chap_md5_response(1, b"pw", b"challenge")
    assert a != chap_md5_response(2, b"pw", b"challenge")


# ----------------------------------------------------------------------
# WPA-PSK
# ----------------------------------------------------------------------

def test_psk_from_passphrase_binds_ssid():
    assert psk_from_passphrase("pass", "NET1") != psk_from_passphrase("pass", "NET2")
    assert len(psk_from_passphrase("pass", "NET")) == 32


def test_derive_ptk_symmetry():
    psk = psk_from_passphrase("secret", "CORP")
    ptk1 = derive_ptk(psk, b"A" * 32, b"S" * 32, AP_MAC, STA_MAC)
    ptk2 = derive_ptk(psk, b"A" * 32, b"S" * 32, AP_MAC, STA_MAC)
    assert ptk1 == ptk2 and len(ptk1) == 48
    assert derive_ptk(psk, b"B" * 32, b"S" * 32, AP_MAC, STA_MAC) != ptk1


def _handshake(ap_psk, sta_psk, seed=1):
    """Run the 4-way handshake between an AP session and a station
    session wired back to back (no radio): each EAPOL message is handed
    straight to the peer."""
    sessions = {}
    ap = ApWpaSession(Simulator(seed=seed), ap_psk, AP_MAC, STA_MAC,
                      lambda m: sessions["sta"].handle_eapol(m),
                      SimRandom(seed))
    sta = StaWpaSession(sta_psk, STA_MAC, AP_MAC,
                        lambda m: sessions["ap"].handle_eapol(m),
                        SimRandom(seed + 1))
    sessions.update(ap=ap, sta=sta)
    ap.start()
    ap.shutdown()  # no retries: the exchange above is all there is
    return ap, sta


def test_wpa_handshake_and_data_protection():
    psk = psk_from_passphrase("secret", "CORP")
    ap, sta = _handshake(psk, psk)
    assert ap.established and sta.established
    # Data flows both ways through TKIP.
    assert sta.rx.decapsulate(ap.tx.encapsulate(b"downlink")) == b"downlink"
    assert ap.rx.decapsulate(sta.tx.encapsulate(b"uplink")) == b"uplink"


def test_wpa_rejects_wrong_psk_client():
    ap, sta = _handshake(psk_from_passphrase("right", "CORP"),
                         psk_from_passphrase("wrong", "CORP"))
    assert not ap.established
    assert ap.mic_failures == 1
    assert not sta.established


def test_wpa_insider_rogue_with_psk_succeeds():
    """§2.2: 'TKIP still relies on a pre shared key, thus is still
    vulnerable to MITM attack from valid network clients.'  Any valid
    client can run a rogue AP with the very same PSK."""
    psk = psk_from_passphrase("secret", "CORP")     # the insider has this
    insider_rogue, sta = _handshake(psk, psk, seed=5)
    assert insider_rogue.established
    assert sta.established  # indistinguishable from the real network


def test_wpa_tkip_blocks_bitflip():
    """Contrast with WEP: flipping TKIP ciphertext trips Michael."""
    psk = psk_from_passphrase("secret", "CORP")
    ap, sta = _handshake(psk, psk, seed=7)
    frame = bytearray(ap.tx.encapsulate(b"payload"))
    frame[10] ^= 0x01
    with pytest.raises(TkipError):
        sta.rx.decapsulate(bytes(frame))
