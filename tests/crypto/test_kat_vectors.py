"""Known-answer tests from committed fixtures.

Two fixture files under ``tests/crypto/fixtures/``:

- ``hmac_rfc2202.json`` — the complete RFC 2202 vector sets for
  HMAC-MD5 and HMAC-SHA-1 (seven cases each).  These pin both the
  standard library's ``hmac`` and the RFC 2104 oracle in
  ``tests/crypto/oracles.py`` to the published answers, not merely to
  each other.
- ``wpa_kdf_kat.json`` — pinned outputs of the repo's labelled-SHA1
  WPA KDF.  The KDF is a documented simplification (see the
  ``wpa_kdf`` module docstring) so there is no external standard to
  cite; the fixture freezes the key schedule so a silent change shows
  up as a test failure instead of a world-behavior drift.
"""

from __future__ import annotations

import hmac as stdhmac
import json
from pathlib import Path

import pytest

from repro.crypto.wpa_kdf import derive_ptk, psk_from_passphrase
from repro.dot11.mac import MacAddress
from tests.crypto.oracles import MD5, SHA1, hmac

FIXTURES = Path(__file__).parent / "fixtures"
RFC2202 = json.loads((FIXTURES / "hmac_rfc2202.json").read_text())
WPA_KDF = json.loads((FIXTURES / "wpa_kdf_kat.json").read_text())


@pytest.mark.parametrize("case", RFC2202["hmac_md5"],
                         ids=lambda c: c["name"])
def test_rfc2202_hmac_md5(case):
    key, data = bytes.fromhex(case["key"]), bytes.fromhex(case["data"])
    assert hmac(key, data, MD5).hex() == case["digest"]
    assert stdhmac.digest(key, data, "md5").hex() == case["digest"]


@pytest.mark.parametrize("case", RFC2202["hmac_sha1"],
                         ids=lambda c: c["name"])
def test_rfc2202_hmac_sha1(case):
    key, data = bytes.fromhex(case["key"]), bytes.fromhex(case["data"])
    assert hmac(key, data, SHA1).hex() == case["digest"]
    assert stdhmac.digest(key, data, "sha1").hex() == case["digest"]


def test_rfc2202_fixture_is_complete():
    # RFC 2202 defines seven cases per algorithm; a trimmed fixture
    # would silently weaken the pin.
    assert len(RFC2202["hmac_md5"]) == 7
    assert len(RFC2202["hmac_sha1"]) == 7


@pytest.mark.parametrize("case", WPA_KDF["psk_from_passphrase"],
                         ids=lambda c: c["ssid"])
def test_psk_from_passphrase_kat(case):
    psk = psk_from_passphrase(case["passphrase"], case["ssid"])
    assert psk.hex() == case["psk"]
    assert len(psk) == 32


@pytest.mark.parametrize("case", WPA_KDF["derive_ptk"],
                         ids=lambda c: c["psk"][:8])
def test_derive_ptk_kat(case):
    psk = bytes.fromhex(case["psk"])
    anonce = bytes.fromhex(case["anonce"])
    snonce = bytes.fromhex(case["snonce"])
    ap = MacAddress(case["ap_mac"])
    sta = MacAddress(case["sta_mac"])
    ptk = derive_ptk(psk, anonce, snonce, ap, sta)
    assert ptk.hex() == case["ptk"]
    assert len(ptk) == 48
    # role symmetry is part of the pinned contract: AP and STA derive
    # the same PTK regardless of who contributed which nonce
    assert derive_ptk(psk, snonce, anonce, sta, ap) == ptk
