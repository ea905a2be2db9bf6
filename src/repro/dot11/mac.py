"""IEEE MAC addresses.

The paper leans on two MAC-address facts: addresses "can be changed
from their factory default" (defeating MAC filtering, §2.1) and a
rogue AP can advertise the *same* BSSID as the legitimate AP (Fig. 1
shows both APs as ``AA:BB:CC:DD``).  :class:`MacAddress` is therefore
just data — nothing in the simulator prevents two radios sharing one,
exactly as nothing in 802.11 does.
"""

from __future__ import annotations

__all__ = ["MacAddress", "BROADCAST"]


class MacAddress(bytes):
    """An immutable 48-bit MAC address: exactly 6 bytes.

    Accepts 6 raw bytes or the usual colon- or dash-separated hex
    string.  Equality, ordering and hashing are those of the 6 bytes
    (so an address equals its raw ``bytes``), all done by ``bytes``
    itself in C.

    Examples
    --------
    >>> MacAddress("aa:bb:cc:dd:ee:ff").oui.hex()
    'aabbcc'
    >>> MacAddress(b"\\xff" * 6).is_broadcast
    True
    """

    __slots__ = ()

    def __new__(cls, value: "bytes | str") -> "MacAddress":
        if isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {value!r}")
            value = bytes(int(p, 16) for p in parts)
        elif not isinstance(value, bytes):
            raise TypeError(f"cannot build MacAddress from {type(value).__name__}")
        if len(value) != 6:
            raise ValueError("MAC address must be 6 bytes")
        return super().__new__(cls, value)

    @classmethod
    def random(cls, rng, oui: bytes = b"\x00\x02\x2d") -> "MacAddress":
        """A random address under ``oui`` (default: Agere/Lucent WaveLAN)."""
        if len(oui) != 3:
            raise ValueError("OUI must be 3 bytes")
        return cls(oui + rng.bytes(3))

    @property
    def bytes(self) -> bytes:
        """The address as plain ``bytes``."""
        return bytes(self)

    @property
    def oui(self) -> bytes:
        """Vendor prefix (first 3 bytes)."""
        return self[:3]

    @property
    def is_broadcast(self) -> bool:
        return self == b"\xff" * 6

    @property
    def is_multicast(self) -> bool:
        return bool(self[0] & 0x01)

    @property
    def is_locally_administered(self) -> bool:
        """The U/L bit — often set by drivers when an address was overridden."""
        return bool(self[0] & 0x02)

    def __str__(self) -> str:
        return self.hex(":")

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


BROADCAST = MacAddress(b"\xff" * 6)
