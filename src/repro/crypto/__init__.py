"""Cryptographic primitives used by the reproduction.

The paper's attack and defense both hinge on *real* cryptography:

* WEP uses RC4 with a 24-bit IV and a CRC-32 integrity check value;
  its famous weakness (Fluhrer–Mantin–Shamir, reference [3] of the
  paper) is what lets an outside attacker "retrieve the WEP key via
  Airsnort" (§4).  RC4, WEP, and the FMS key-recovery attack are
  implemented here from first principles, as are TKIP's Michael MIC and
  the finite-field Diffie–Hellman of the VPN key exchange: they are the
  paper's subject, and the standard library has no equivalent.
* The digests come from the standard library, as they came from
  shipped libraries on the paper's laptops: ``hashlib.md5`` for the
  download page's published MD5SUM (which netsed rewrites so that the
  victim's check *passes* on the trojaned binary), ``hmac`` with SHA-1
  for the PPP-over-SSH VPN's record MAC (§5.3) and the handshake MICs,
  and ``zlib.crc32`` for the WEP ICV and the 802.11 FCS.  CRC-32 is
  linear, which is why the WEP ICV provides no integrity.

None of this is intended for production use — it exists so that the
paper's experiments run on genuine cryptographic behaviour rather than
boolean flags.
"""

from repro.crypto.dh import DiffieHellman, DH_GROUP_1536
from repro.crypto.fms import FmsAttack, FmsSample, is_weak_iv
from repro.crypto.keystore import KeyStore
from repro.crypto.rc4 import RC4, rc4_keystream
from repro.crypto.tkip import MichaelMic, TkipSession
from repro.crypto.wep import WepError, WepKey, wep_decrypt, wep_encrypt

__all__ = [
    "DH_GROUP_1536",
    "DiffieHellman",
    "FmsAttack",
    "FmsSample",
    "KeyStore",
    "MichaelMic",
    "RC4",
    "TkipSession",
    "WepError",
    "WepKey",
    "is_weak_iv",
    "rc4_keystream",
    "wep_decrypt",
    "wep_encrypt",
]
