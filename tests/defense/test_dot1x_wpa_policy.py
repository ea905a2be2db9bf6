"""802.1X / WPA-PSK gaps (§2.2)."""

import pytest

from repro.crypto.tkip import TkipError
from repro.defense.dot1x import (
    Dot1xAuthenticator,
    Dot1xSupplicant,
    EapAuthServer,
    chap_md5_response,
)
from repro.defense.wpa import (
    WpaPskAuthenticator,
    WpaPskSupplicant,
    derive_ptk,
    psk_from_passphrase,
)
from repro.dot11.mac import MacAddress
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


def test_wpa_handshake_and_data_protection():
    psk = psk_from_passphrase("secret", "CORP")
    ap = WpaPskAuthenticator(psk, AP_MAC, SimRandom(1))
    sta = WpaPskSupplicant(psk, STA_MAC, SimRandom(2))
    sessions = ap.handshake(sta)
    assert sessions is not None
    ap_tx, ap_rx = sessions
    sta_tx, sta_rx = sta.sessions(AP_MAC)
    # Data flows both ways through TKIP.
    assert sta_rx.decapsulate(ap_tx.encapsulate(b"downlink")) == b"downlink"
    assert ap_rx.decapsulate(sta_tx.encapsulate(b"uplink")) == b"uplink"


def test_wpa_rejects_wrong_psk_client():
    ap = WpaPskAuthenticator(psk_from_passphrase("right", "CORP"), AP_MAC, SimRandom(1))
    sta = WpaPskSupplicant(psk_from_passphrase("wrong", "CORP"), STA_MAC, SimRandom(2))
    assert ap.handshake(sta) is None
    assert ap.mic_failures == 1
    assert not sta.established


def test_wpa_client_detects_keyless_rogue_ap():
    """WPA *does* close the open-rogue hole: msg3's MIC proves the AP
    knows the PSK, and a keyless impostor fails there."""
    psk = psk_from_passphrase("secret", "CORP")
    rogue = WpaPskAuthenticator(psk_from_passphrase("guess", "CORP"),
                                AP_MAC, SimRandom(3))
    sta = WpaPskSupplicant(psk, STA_MAC, SimRandom(4))
    # A by-the-book rogue aborts at msg2 (the client's MIC won't verify
    # under its guessed key)...
    assert rogue.handshake(sta) is None
    assert not sta.established
    # ...and a pushy rogue that barrels on to msg3 is caught by the
    # client: the msg3 MIC is the step that authenticates the network.
    import hmac
    from repro.defense.wpa import derive_ptk, _Keys
    sta2 = WpaPskSupplicant(psk, STA_MAC, SimRandom(5))
    anonce = b"R" * 32
    snonce, _mic2 = sta2.msg1(anonce, AP_MAC)
    rogue_ptk = derive_ptk(psk_from_passphrase("guess", "CORP"),
                           anonce, snonce, AP_MAC, STA_MAC)
    rogue_mic3 = hmac.digest(_Keys.from_ptk(rogue_ptk).kck, b"msg3" + anonce, "sha1")
    assert sta2.msg3(rogue_mic3) is False
    assert not sta2.established
    assert sta2.mic_failures == 1


def test_wpa_insider_rogue_with_psk_succeeds():
    """§2.2: 'TKIP still relies on a pre shared key, thus is still
    vulnerable to MITM attack from valid network clients.'  Any valid
    client can run a rogue AP with the very same PSK."""
    psk = psk_from_passphrase("secret", "CORP")     # the insider has this
    insider_rogue = WpaPskAuthenticator(psk, AP_MAC, SimRandom(5))
    sta = WpaPskSupplicant(psk, STA_MAC, SimRandom(6))
    sessions = insider_rogue.handshake(sta)
    assert sessions is not None
    assert sta.established  # indistinguishable from the real network


def test_wpa_tkip_blocks_bitflip():
    """Contrast with WEP: flipping TKIP ciphertext trips Michael."""
    psk = psk_from_passphrase("secret", "CORP")
    ap = WpaPskAuthenticator(psk, AP_MAC, SimRandom(7))
    sta = WpaPskSupplicant(psk, STA_MAC, SimRandom(8))
    ap_tx, _ = ap.handshake(sta)
    _, sta_rx = sta.sessions(AP_MAC)
    frame = bytearray(ap_tx.encapsulate(b"payload"))
    frame[10] ^= 0x01
    with pytest.raises(TkipError):
        sta_rx.decapsulate(bytes(frame))


# ----------------------------------------------------------------------
# §5.2 policy
# ----------------------------------------------------------------------
