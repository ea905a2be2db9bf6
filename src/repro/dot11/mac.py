"""IEEE MAC addresses.

The paper leans on two MAC-address facts: addresses "can be changed
from their factory default" (defeating MAC filtering, §2.1) and a
rogue AP can advertise the *same* BSSID as the legitimate AP (Fig. 1
shows both APs as ``AA:BB:CC:DD``).  :class:`MacAddress` is therefore
just data — nothing in the simulator prevents two radios sharing one,
exactly as nothing in 802.11 does.
"""

from __future__ import annotations

from functools import total_ordering

__all__ = ["MacAddress", "BROADCAST"]


@total_ordering
class MacAddress:
    """An immutable 48-bit MAC address.

    Accepts 6 raw bytes or the usual colon-separated hex string.

    Examples
    --------
    >>> MacAddress("aa:bb:cc:dd:ee:ff").oui.hex()
    'aabbcc'
    >>> MacAddress(b"\\xff" * 6).is_broadcast
    True
    """

    __slots__ = ("_bytes",)

    def __init__(self, value: "bytes | str | MacAddress") -> None:
        if isinstance(value, MacAddress):
            raw = value._bytes
        elif isinstance(value, bytes):
            raw = value
        elif isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {value!r}")
            raw = bytes(int(p, 16) for p in parts)
        else:
            raise TypeError(f"cannot build MacAddress from {type(value).__name__}")
        if len(raw) != 6:
            raise ValueError("MAC address must be 6 bytes")
        object.__setattr__(self, "_bytes", raw)

    # Frozen-ness: no __setattr__ via __slots__ + object.__setattr__ in init.
    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("MacAddress is immutable")

    @classmethod
    def random(cls, rng, oui: bytes = b"\x00\x02\x2d") -> "MacAddress":
        """A random address under ``oui`` (default: Agere/Lucent WaveLAN)."""
        if len(oui) != 3:
            raise ValueError("OUI must be 3 bytes")
        return cls(oui + rng.bytes(3))

    @property
    def bytes(self) -> bytes:
        return self._bytes

    @property
    def oui(self) -> bytes:
        """Vendor prefix (first 3 bytes)."""
        return self._bytes[:3]

    @property
    def is_broadcast(self) -> bool:
        return self._bytes == b"\xff" * 6

    @property
    def is_multicast(self) -> bool:
        return bool(self._bytes[0] & 0x01)

    @property
    def is_locally_administered(self) -> bool:
        """The U/L bit — often set by drivers when an address was overridden."""
        return bool(self._bytes[0] & 0x02)

    def __str__(self) -> str:
        return self._bytes.hex(":")

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._bytes == other._bytes
        if isinstance(other, bytes):
            return self._bytes == other
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        return self._bytes < other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)


BROADCAST = MacAddress(b"\xff" * 6)
